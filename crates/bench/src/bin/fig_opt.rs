//! Measures what the optimizing middle-end buys: per-kernel instruction
//! counts (total / relin / rotation), modeled latency, and measured
//! encrypted latency at `-O0` versus `-O2`, over every paper kernel
//! baseline and the Sobel/Harris multistep pipelines.
//!
//! ```text
//! cargo run -p porcupine-bench --release --bin fig_opt [-- [--smoke] [runs]]
//! ```
//!
//! Runs on every scheme in turn, each with its own per-scheme latency
//! model **scaled to the resolved parameter set** (the profiled constants
//! are calibrated at N = 4096 with 3 primes; `LatencyModel::scaled_to`
//! extrapolates them, so `model_ratio` stays meaningful under `--params`),
//! and tags each scheme's section of the recorded JSON with the scheme,
//! the resolved N and prime count, and the runner's worker count (1).
//! Default mode times `runs` (default 5) executions per version on the
//! `fast_4096` preset (BFV; BGV uses its own covering auto selection).
//! Every workload is correctness-gated first: the `-O0` and `-O2`
//! lowerings must decrypt bit-identically. `--smoke` uses the small preset
//! with one run (CI-speed; measured times are then not meaningful, but
//! counts, modeled latency, and the bit-identical gate are). Writes a
//! `BENCH_fig_opt.json` summary at the repo root (gitignored, like the
//! other BENCH artifacts).

use bfv::params::{BfvParams, ParamPolicy};
use porcupine::codegen::{with_scheme, SchemeTask, Session};
use porcupine::opt::{optimize_with, OptLevel};
use porcupine::scheme::Scheme;
use porcupine_bench::{fmt_us, median};
use porcupine_kernels::{all_direct, composite, stencil};
use quill::cost::LatencyModel;
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Version {
    prog: Program,
    modeled_us: f64,
    measured_us: f64,
}

struct Row {
    name: String,
    o0: Version,
    o2: Version,
}

fn main() {
    let (policy, args) = porcupine_bench::parse_params(std::env::args().skip(1).collect());
    let smoke = args.iter().any(|a| a == "--smoke");
    let runs: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 1 } else { 5 });
    let sections: Vec<String> = SchemeId::ALL
        .iter()
        .map(|&scheme| {
            let task = FigOpt {
                policy: policy.clone(),
                smoke,
                runs,
            };
            with_scheme(scheme, task)
        })
        .collect();
    let path = "BENCH_fig_opt.json";
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"runs\": {runs},\n  \"schemes\": [\n{}\n  ]\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_fig_opt.json");
    println!("wrote {path}");
}

/// The measurement on one backend; returns its section of the JSON summary.
struct FigOpt {
    policy: Option<ParamPolicy>,
    smoke: bool,
    runs: usize,
}

impl SchemeTask for FigOpt {
    type Output = String;
    fn run<S: Scheme>(self) -> String {
        run::<S>(self.policy, self.smoke, self.runs)
    }
}

fn run<S: Scheme>(policy: Option<ParamPolicy>, smoke: bool, runs: usize) -> String {
    let img = stencil::default_image();
    let mut workloads: Vec<(String, Program, usize)> = all_direct()
        .into_iter()
        .map(|k| (k.name.to_string(), k.baseline, k.spec.n))
        .collect();
    workloads.push((
        "sobel (multi-step)".into(),
        composite::sobel_baseline(img),
        img.slots(),
    ));
    workloads.push((
        "harris (multi-step)".into(),
        composite::harris_baseline(img),
        img.slots(),
    ));

    let legality = S::ID.legality();
    // `--params auto|paper` overrides the fast preset: auto picks the one
    // set covering every workload's noise requirement under *this* scheme's
    // model (charged on the noisier -O0 lowerings).
    let covering = |policy: &ParamPolicy| {
        let lowered: Vec<(Program, usize)> = workloads
            .iter()
            .map(|(_, raw, n)| (optimize_with(raw, OptLevel::O0, &legality).0, *n))
            .collect();
        let refs: Vec<(&Program, usize)> = lowered.iter().map(|(p, n)| (p, *n)).collect();
        porcupine_bench::params_covering_for(S::ID, &refs, 65537, policy)
    };
    let params = match &policy {
        Some(policy) => covering(policy),
        // The historical fast presets hold every workload under BFV; BGV's
        // noise doubles per multiply and exhausts them on the depth-2
        // kernels, so any other scheme defaults to its own covering auto
        // selection instead of silently measuring garbage.
        None if S::ID == SchemeId::Bfv => {
            if smoke {
                BfvParams::test_small()
            } else {
                BfvParams::fast_4096()
            }
        }
        None => covering(&ParamPolicy::auto()),
    };
    println!(
        "# fig_opt: -O0 vs -O2, scheme={}, N={}, Q={} primes, {runs} timed run(s) per version{}{}",
        S::ID,
        params.poly_degree,
        params.moduli.len(),
        if smoke { " [smoke]" } else { "" },
        if policy.is_some() { " [--params]" } else { "" },
    );
    let (bench_n, bench_primes) = (params.poly_degree, params.moduli.len());
    let ctx = S::context(params).expect("valid parameters");
    let model = LatencyModel::profiled_for(S::ID).scaled_to(bench_n, bench_primes);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F70);

    println!(
        "{:<24} {:>14} {:>14} {:>11} {:>11} {:>10} {:>10} {:>8}",
        "kernel",
        "O0 n/relin/rot",
        "O2 n/relin/rot",
        "O0 model",
        "O2 model",
        "O0 meas",
        "O2 meas",
        "speedup"
    );
    let mut rows: Vec<Row> = Vec::new();
    for (name, raw, n) in workloads {
        let (o0, _) = optimize_with(&raw, OptLevel::O0, &legality);
        let (o2, _) = optimize_with(&raw, OptLevel::O2, &legality);
        assert_eq!(
            optimize_with(&o2, OptLevel::O2, &legality).1.total_rewrites,
            0,
            "{name}: -O2 must be idempotent"
        );

        let session = Session::<S>::new(&ctx, &[&o0, &o2], &mut rng);
        let runner = &session.runner;
        let ct_model: Vec<Vec<u64>> = (0..raw.num_ct_inputs)
            .map(|_| (0..n).map(|_| rng.gen_range(0..64)).collect())
            .collect();
        let pt_model: Vec<Vec<u64>> = (0..raw.num_pt_inputs)
            .map(|_| (0..n).map(|_| rng.gen_range(0..64)).collect())
            .collect();
        let cts: Vec<S::Ciphertext> = ct_model
            .iter()
            .map(|v| session.encrypt(v, &mut rng))
            .collect();
        // Plaintext inputs are encoded once per workload, outside the
        // timed loop — the encode-once usage the runner is built for (the
        // cost model prices HE ops, not encodes). The correctness-gate
        // runs double as warm-up for the splat cache and scratch pool.
        let epts: Vec<S::EvalPlaintext> = pt_model
            .iter()
            .map(|v| S::preencode(runner.evaluator(), &S::encode(runner.encoder(), v)))
            .collect();
        let ct_refs: Vec<&S::Ciphertext> = cts.iter().collect();
        let pt_refs: Vec<&S::EvalPlaintext> = epts.iter().collect();

        // Correctness gate: bit-identical decryption across levels.
        let decode = |p: &Program| {
            let (slots, budget) = session.decrypt(&runner.run_encoded(p, &ct_refs, &pt_refs));
            assert!(budget > 0, "{name}: noise budget exhausted ({budget})");
            slots
        };
        assert_eq!(
            decode(&o0),
            decode(&o2),
            "{name}: -O0/-O2 decryptions differ"
        );

        let time = |p: &Program| {
            let mut samples = Vec::with_capacity(runs);
            for _ in 0..runs {
                let start = Instant::now();
                std::hint::black_box(runner.run_encoded(p, &ct_refs, &pt_refs));
                samples.push(start.elapsed().as_secs_f64() * 1e6);
            }
            median(samples)
        };
        let version = |p: &Program, measured_us: f64| Version {
            modeled_us: model.program_latency(p),
            measured_us,
            prog: p.clone(),
        };
        let row = Row {
            name: name.clone(),
            o0: version(&o0, time(&o0)),
            o2: version(&o2, time(&o2)),
        };
        println!(
            "{:<24} {:>8}/{}/{} {:>8}/{}/{} {:>11} {:>11} {:>10} {:>10} {:>7.2}x",
            row.name,
            row.o0.prog.len(),
            row.o0.prog.relin_count(),
            row.o0.prog.rot_count(),
            row.o2.prog.len(),
            row.o2.prog.relin_count(),
            row.o2.prog.rot_count(),
            fmt_us(row.o0.modeled_us),
            fmt_us(row.o2.modeled_us),
            fmt_us(row.o0.measured_us),
            fmt_us(row.o2.measured_us),
            row.o0.measured_us / row.o2.measured_us.max(1e-9),
        );
        rows.push(row);
    }

    if !smoke {
        // How honest the cost model is about what the backend executes:
        // with the allocation-free runner this should sit near 1.0 (the
        // pre-pool runner ran ~5x over model).
        let worst = rows
            .iter()
            .map(|r| r.o2.measured_us / r.o2.modeled_us.max(1e-9))
            .fold(0.0f64, f64::max);
        println!("worst -O2 measured/modeled ratio: {worst:.2}x");
    }
    println!();
    scheme_json(S::ID, bench_n, bench_primes, &rows)
}

/// One scheme's section of the summary, as hand-rolled JSON (the workspace
/// is offline; no serde). Kernel names are ASCII identifiers, so no string
/// escaping is needed. Every run uses the runner's default single worker.
fn scheme_json(scheme: SchemeId, n: usize, primes: usize, rows: &[Row]) -> String {
    let mut s = String::from("    {\n");
    s.push_str(&format!(
        "      \"scheme\": \"{scheme}\",\n      \"eval_jobs\": 1,\n"
    ));
    s.push_str("      \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let v = |v: &Version| {
            format!(
                "{{\"instrs\": {}, \"relins\": {}, \"rots\": {}, \"modeled_us\": {:.1}, \"measured_us\": {:.1}, \"model_ratio\": {:.3}}}",
                v.prog.len(),
                v.prog.relin_count(),
                v.prog.rot_count(),
                v.modeled_us,
                v.measured_us,
                v.measured_us / v.modeled_us.max(1e-9),
            )
        };
        s.push_str(&format!(
            "        {{\"name\": \"{}\", \"n\": {n}, \"primes\": {primes}, \"o0\": {}, \"o2\": {}, \"measured_speedup\": {:.4}}}{}\n",
            r.name,
            v(&r.o0),
            v(&r.o2),
            r.o0.measured_us / r.o2.measured_us.max(1e-9),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("      ]\n    }");
    s
}
