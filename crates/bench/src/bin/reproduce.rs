//! Regenerates the paper's evaluation: Tables 2 and 3, Figure 4, the
//! middle-end `-O0`/`-O2` comparison, the Figure 5/6 case studies and the
//! §7.4 and §6.1 ablations.
//!
//! ```text
//! cargo run --release -p porcupine-bench --bin reproduce [-- [--jobs N] [subcommand]]
//! ```
//!
//! A subcommand prints one artifact's table; with none, every artifact
//! runs and the ledger `BENCH_paper.json` is written to the current
//! directory. The subcommands and the shared pieces are described in the
//! `porcupine_bench` crate documentation.

use bfv::params::{BfvContext, BfvParams, ParamPolicy, DEFAULT_MARGIN_BITS};
use porcupine::cegis::{synthesize, SynthesisOptions, SynthesisResult};
use porcupine::codegen::{emit_seal_cpp, with_scheme, SchemeTask};
use porcupine::opt::{optimize, optimize_with, OptLevel};
use porcupine::scheme::{analyze_noise, resolve_params, BfvScheme, Scheme};
use porcupine::search_invocations;
use porcupine::sketch::{RotationSet, Sketch};
use porcupine_bench::{
    parse_args, print_table, synthesis_options, time_pair, Json, Suite, Synthesized, EVAL_JOBS,
    RUNS,
};
use porcupine_kernels::{all_direct, composite, reduction, stencil};
use quill::cost::{eager_cost, LatencyModel};
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::time::Instant;
use test_support::{assert_masked_slots_eq, T};

/// Where a full run writes the ledger.
const LEDGER: &str = "BENCH_paper.json";

/// An artifact: it prints its table and returns its ledger section.
type Artifact = fn(&mut Harness) -> Json;

/// The subcommands, in the order a full run executes them.
const ARTIFACTS: [(&str, Artifact); 7] = [
    ("table2", table2),
    ("table3", table3),
    ("fig4", fig4),
    ("fig-opt", fig_opt),
    ("case-studies", case_studies),
    ("ablation-sketch", ablation_sketch),
    ("ablation-rotations", ablation_rotations),
];

/// What the artifacts share: the search worker count, and the kernel
/// suite, synthesized on first use.
struct Harness {
    jobs: NonZeroUsize,
    suite: Option<Suite>,
}

impl Harness {
    fn suite(&mut self) -> &Suite {
        self.suite.get_or_insert_with(|| Suite::build(self.jobs))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (jobs, subcommand) = parse_args(&args).unwrap_or_else(|e| usage(&e));
    let mut harness = Harness { jobs, suite: None };
    if let Some(name) = subcommand {
        let Some((_, artifact)) = ARTIFACTS.iter().find(|(n, _)| *n == name) else {
            usage(&format!("unknown subcommand {name:?}"))
        };
        artifact(&mut harness);
        return;
    }
    let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut ledger = vec![
        ("jobs", jobs.get().into()),
        ("available_parallelism", available.into()),
        ("eval_jobs", EVAL_JOBS.into()),
        ("runs", RUNS.into()),
    ];
    for (name, artifact) in ARTIFACTS {
        ledger.push((name, artifact(&mut harness)));
        println!();
    }
    std::fs::write(LEDGER, format!("{}\n", Json::Obj(ledger))).expect("write the ledger");
    println!("wrote {LEDGER}");
}

fn usage(error: &str) -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "reproduce: {error}\nusage: reproduce [--jobs N] [{}]",
        names.join("|")
    );
    std::process::exit(2);
}

/// Instruction count, logic depth and multiplicative depth.
fn shape(p: &Program) -> Json {
    Json::obj([
        ("instrs", p.len().into()),
        ("logic_depth", p.logic_depth().into()),
        ("mult_depth", (p.mult_depth() as usize).into()),
    ])
}

/// Table 2: instruction count and depth, baseline vs synthesized.
fn table2(h: &mut Harness) -> Json {
    println!("# Table 2: baseline vs synthesized (instrs/logic depth/mult depth)");
    let rows: Vec<Json> = (h.suite().workloads().iter())
        .map(|w| {
            Json::obj([
                ("kernel", w.name.into()),
                ("baseline", shape(&w.baseline)),
                ("synthesized", shape(&w.synthesized)),
            ])
        })
        .collect();
    print_table(&rows);
    Json::obj([("rows", rows.into())])
}

/// Table 3: synthesis time, examples and cost. The suite's cold run (at
/// `--jobs`, missing a fresh cache) is compared with a jobs = 1 run
/// (cache disabled, so it searches): when both finish, they must return
/// the same program and cost bits. Then the cached query is replayed.
fn table3(h: &mut Harness) -> Json {
    let jobs = h.jobs;
    let suite = h.suite();
    let seq_options = synthesis_options(NonZeroUsize::MIN);
    println!("# Table 3: synthesis (cold at jobs {jobs}, again at jobs 1, then cache replays)");
    let mut rows = Vec::new();
    for s in &suite.kernels {
        let (k, r) = (&s.kernel, &s.result);
        let start = Instant::now();
        let seq = synthesize(&k.spec, &k.sketch, &seq_options)
            .unwrap_or_else(|e| panic!("{} (jobs 1): {e}", k.name));
        let seq_secs = start.elapsed().as_secs_f64();
        // A search cut by the deadline keeps a timing-dependent best so
        // far; only finished searches fall under the determinism contract.
        if r.proved_optimal && seq.proved_optimal {
            assert_eq!(seq.program, r.program, "{}: jobs 1 vs {jobs}", k.name);
            let bits = [&seq, r].map(|r| r.final_cost.to_bits());
            assert_eq!(bits[0], bits[1], "{}: jobs 1 vs {jobs}", k.name);
        }
        // Only proved-optimal answers are cached.
        let (warm_disk, warm) = match r.proved_optimal {
            true => warm_replays(&suite.options, s),
            false => (f64::NAN, f64::NAN),
        };
        let bits = |cost: f64| format!("{:#018x}", cost.to_bits()).into();
        rows.push(Json::obj([
            ("kernel", k.name.into()),
            ("components", r.components.into()),
            ("examples", r.examples_used.into()),
            ("initial_secs", r.time_to_initial.as_secs_f64().into()),
            ("cold_secs", s.secs.into()),
            ("jobs1_secs", seq_secs.into()),
            ("warm_disk_secs", warm_disk.into()),
            ("warm_secs", warm.into()),
            ("initial_cost", r.initial_cost.into()),
            ("final_cost", r.final_cost.into()),
            ("initial_cost_bits", bits(r.initial_cost)),
            ("final_cost_bits", bits(r.final_cost)),
            ("optimal", r.proved_optimal.into()),
            ("instrs", r.program.len().into()),
        ]));
    }
    print_table(&rows);
    Json::obj([("jobs", jobs.get().into()), ("rows", rows.into())])
}

/// Replays a suite query against its now-warm cache five times. The
/// in-process memo is cleared first, so the first replay reads the disk
/// tier (read, parse and re-verify: what a fresh process pays); the rest
/// hit the memo. Each must be a hit that runs no search and returns the
/// cold program byte for byte. Returns the disk replay's and the fastest
/// replay's seconds.
fn warm_replays(options: &SynthesisOptions, s: &Synthesized) -> (f64, f64) {
    let k = &s.kernel;
    porcupine::clear_synthesis_memo();
    let mut times = Vec::new();
    for _ in 0..5 {
        let searches = search_invocations();
        let start = Instant::now();
        let warm = synthesize(&k.spec, &k.sketch, options).expect("warm replay");
        times.push(start.elapsed().as_secs_f64());
        assert!(warm.cache_hit, "{}: a warm replay must hit", k.name);
        assert_eq!(search_invocations(), searches, "{}: a hit searched", k.name);
        assert_eq!(warm.program, s.result.program, "{}: warm != cold", k.name);
    }
    (
        times[0],
        times.iter().copied().fold(f64::INFINITY, f64::min),
    )
}

/// Figure 4: run time of the synthesized kernels against the baselines,
/// both at `-O2`, on BFV under the paper's parameters. Each pair is
/// decrypted and checked against the spec before it is timed.
fn fig4(h: &mut Harness) -> Json {
    let params = BfvParams::paper();
    let (n, primes) = (params.poly_degree, params.moduli.len());
    let ctx = BfvContext::new(params).expect("the paper's parameters are valid");
    let mut rng = StdRng::seed_from_u64(0xF16);
    println!("# Figure 4: baseline vs synthesized µs (BFV, N={n}, {primes} primes, -O2)");
    let mut rows = Vec::new();
    let mut ratios: Vec<(f64, &str)> = Vec::new();
    for w in h.suite().workloads() {
        let versions = [&w.baseline, &w.synthesized].map(|p| optimize(p, OptLevel::O2).0);
        let check = |ct: &[Vec<u64>], pt: &[Vec<u64>], decrypted: [Vec<u64>; 2]| {
            let expected = w.spec.eval_concrete(ct, pt);
            for (slots, version) in decrypted.iter().zip(["baseline", "synthesized"]) {
                let label = format!("{} ({version})", w.name);
                assert_masked_slots_eq(slots, &expected, &w.spec.output_mask, &label);
            }
        };
        let [b, s] = time_pair::<BfvScheme>(&ctx, versions.each_ref(), w.spec.n, &mut rng, check);
        ratios.push((b.median / s.median, w.name));
        rows.push(Json::obj([
            ("kernel", w.name.into()),
            ("baseline_us", b.json()),
            ("synthesized_us", s.json()),
            (
                "speedup_pct",
                ((b.median - s.median) / b.median * 100.0).into(),
            ),
        ]));
    }
    print_table(&rows);
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let geomean = (ratios.iter().map(|(r, _)| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let (max, max_kernel) = (ratios.iter().copied())
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("Figure 4 has rows");
    println!(
        "geometric-mean speedup {:.1}%, largest {:.1}% ({max_kernel}); paper: 11% and 51%",
        pct(geomean),
        pct(max)
    );
    let paper = [
        ("geomean_speedup_pct", 11.0.into()),
        ("max_speedup_pct", 51.0.into()),
    ];
    Json::obj([
        ("scheme", "bfv".into()),
        ("n", n.into()),
        ("primes", primes.into()),
        ("runs", RUNS.into()),
        ("eval_jobs", EVAL_JOBS.into()),
        ("rows", rows.into()),
        ("geomean_speedup_pct", pct(geomean).into()),
        ("max_speedup_pct", pct(max).into()),
        ("max_speedup_kernel", max_kernel.into()),
        ("paper", Json::obj(paper)),
    ])
}

/// The middle-end's gain, on every scheme: per-program counts, modeled
/// and measured latency at `-O0` against `-O2`.
fn fig_opt(_: &mut Harness) -> Json {
    let sections = SchemeId::ALL.iter().map(|&s| with_scheme(s, FigOpt));
    Json::Arr(sections.collect())
}

struct FigOpt;

impl SchemeTask for FigOpt {
    type Output = Json;
    fn run<S: Scheme>(self) -> Json {
        fig_opt_on::<S>()
    }
}

/// [`fig_opt`] on backend `S`, over the hand-written baselines of the
/// nine direct kernels and both pipelines. Each is gated first: `-O2` is
/// idempotent, and `-O0` and `-O2` decrypt identically.
fn fig_opt_on<S: Scheme>() -> Json {
    let img = stencil::default_image();
    let mut workloads: Vec<(&str, Program, usize)> = (all_direct().into_iter())
        .map(|k| (k.name, k.baseline, k.spec.n))
        .collect();
    workloads.push((
        "sobel (multi-step)",
        composite::sobel_baseline(img),
        img.slots(),
    ));
    workloads.push((
        "harris (multi-step)",
        composite::harris_baseline(img),
        img.slots(),
    ));
    let legality = S::ID.legality();
    let lower = |p: &Program, level| optimize_with(p, level, &legality).0;
    // BFV keeps its fast preset, which holds every workload. BGV's noise
    // doubles per multiply and exhausts that preset on the depth-2
    // kernels, so BGV runs under the one auto set covering every -O0
    // lowering (the noisier level).
    let params = match S::ID {
        SchemeId::Bfv => BfvParams::fast_4096(),
        _ => {
            let lowered: Vec<(Program, usize)> = (workloads.iter())
                .map(|(_, p, n)| (lower(p, OptLevel::O0), *n))
                .collect();
            covering_auto_params(S::ID, &lowered)
        }
    };
    let (n, primes) = (params.poly_degree, params.moduli.len());
    let ctx = S::context(params).expect("valid parameters");
    // The profiled constants are calibrated at N = 4096 with 3 primes.
    let model = LatencyModel::profiled_for(S::ID).scaled_to(n, primes);
    let mut rng = StdRng::seed_from_u64(0x0F70);
    println!(
        "# -O0 vs -O2 ({}, N={n}, {primes} primes; counts instrs/relins/rots)",
        S::ID
    );
    let mut rows = Vec::new();
    let mut worst_ratio = 0.0f64;
    for (name, raw, slots) in workloads {
        let (o0, o2) = (lower(&raw, OptLevel::O0), lower(&raw, OptLevel::O2));
        let report = optimize_with(&o2, OptLevel::O2, &legality).1;
        assert_eq!(report.total_rewrites, 0, "{name}: -O2 must be idempotent");
        let check = |_: &[Vec<u64>], _: &[Vec<u64>], [a, b]: [Vec<u64>; 2]| {
            assert_eq!(a, b, "{name}: -O0/-O2 decryptions differ");
        };
        let [t0, t2] = time_pair::<S>(&ctx, [&o0, &o2], slots, &mut rng, check);
        let [m0, m2] = [&o0, &o2].map(|p| model.program_latency(p));
        worst_ratio = worst_ratio.max(t2.median / m2);
        let counts = |p: &Program| {
            Json::obj([
                ("instrs", p.len().into()),
                ("relins", p.relin_count().into()),
                ("rots", p.rot_count().into()),
            ])
        };
        rows.push(Json::obj([
            ("kernel", name.into()),
            ("o0_counts", counts(&o0)),
            ("o2_counts", counts(&o2)),
            ("o0_modeled_us", m0.into()),
            ("o2_modeled_us", m2.into()),
            ("o0_us", t0.json()),
            ("o2_us", t2.json()),
            ("o2_model_ratio", (t2.median / m2).into()),
            ("speedup", (t0.median / t2.median).into()),
        ]));
    }
    print_table(&rows);
    println!("worst -O2 measured/modeled ratio: {worst_ratio:.2}x");
    Json::obj([
        ("scheme", S::ID.to_string().into()),
        ("n", n.into()),
        ("primes", primes.into()),
        ("runs", RUNS.into()),
        ("eval_jobs", EVAL_JOBS.into()),
        ("rows", rows.into()),
        ("worst_o2_model_ratio", worst_ratio.into()),
    ])
}

/// The largest of the programs' auto selections on `scheme`: one set, one
/// key set, under which every program keeps its noise margin (certified
/// against each program, whatever shape the candidate table takes).
fn covering_auto_params(scheme: SchemeId, programs: &[(Program, usize)]) -> BfvParams {
    let bits = |p: &BfvParams| p.moduli.iter().map(|q| 64 - q.leading_zeros()).sum::<u32>();
    let chosen = (programs.iter())
        .map(|(p, slots)| {
            resolve_params(scheme, &ParamPolicy::auto(), p, *slots, T)
                .unwrap_or_else(|e| panic!("{} [{scheme}]: no parameters: {e}", p.name))
        })
        .max_by_key(|p| (p.poly_degree, bits(p)))
        .expect("at least one program");
    for (p, _) in programs {
        let predicted = analyze_noise(scheme, &chosen, p).predicted_budget_bits;
        assert!(
            predicted >= DEFAULT_MARGIN_BITS,
            "{} [{scheme}]: the covering set leaves {predicted:.1} bits",
            p.name
        );
    }
    chosen
}

/// Figures 5 and 6: the box blur and Gx kernels, baseline against
/// synthesized, with the generated SEAL C++ (Figure 3f).
fn case_studies(h: &mut Harness) -> Json {
    let suite = h.suite();
    let model = &suite.options.latency;
    let mut rows = Vec::new();
    for name in ["box-blur", "gx"] {
        let s = suite.get(name);
        let (baseline, synthesized) = (&s.kernel.baseline, &s.result.program);
        println!("--- {name}: baseline (depth-minimized, Figure 5b/6b style) ---\n{baseline}");
        println!("--- {name}: synthesized (Figure 5a/6a style) ---\n{synthesized}");
        println!(
            "--- {name}: generated SEAL C++ (Figure 3f) ---\n{}",
            emit_seal_cpp(synthesized)
        );
        rows.push(Json::obj([
            ("kernel", name.into()),
            ("baseline", shape(baseline)),
            ("synthesized", shape(synthesized)),
            ("baseline_cost", eager_cost(baseline, model).into()),
            ("synthesized_cost", eager_cost(synthesized, model).into()),
        ]));
    }
    println!("# Figures 5/6: baseline vs synthesized (instrs/logic depth/mult depth)");
    print_table(&rows);
    println!(
        "§7.3: the synthesized kernels decompose the 2-D stencils into two 1-D\n\
         passes (separable filters), reusing partial sums — fewer instructions\n\
         at slightly higher logic depth, which the noise model (multiplicative\n\
         depth) shows is free."
    );
    Json::obj([("rows", rows.into())])
}

/// One ablation row: its label, one case-specific column, and a
/// synthesis run's times, size and optimality.
fn ablation_row(label: String, column: (&'static str, Json), r: &SynthesisResult) -> Json {
    Json::obj([
        ("case", label.into()),
        column,
        ("initial_secs", r.time_to_initial.as_secs_f64().into()),
        ("total_secs", r.time_total.as_secs_f64().into()),
        ("instrs", r.program.len().into()),
        ("optimal", r.proved_optimal.into()),
    ])
}

/// §7.4: local-rotate sketches (the paper's) against explicit-rotation
/// sketches, whose rotations are components the search must schedule.
/// The local-rotate rows are the suite's cold runs; the explicit ones run
/// cold here. The paper's times (Rosette and Boolector on its machine)
/// stand beside ours: absolute times differ by construction, the shape
/// should not.
fn ablation_sketch(h: &mut Harness) -> Json {
    let options = synthesis_options(h.jobs);
    let suite = h.suite();
    println!("# §7.4 ablation: local-rotate vs explicit-rotation sketches (cold)");
    let mut rows = Vec::new();
    // Explicit rotations need extra components: box blur 2 → 4, gx 3 → 7.
    for (name, extra, paper) in [
        ("box-blur", 2, ["≈10 s", "≈3 s"]),
        ("gx", 4, ["≈70 s", ">30 min"]),
    ] {
        let s = suite.get(name);
        let mut explicit = s.kernel.sketch.clone().with_explicit_rotations();
        explicit.max_components += extra;
        let r = synthesize(&s.kernel.spec, &explicit, &options)
            .unwrap_or_else(|e| panic!("{name} (explicit rotate): {e}"));
        for (sketch, result, paper) in [("local", &s.result, paper[0]), ("explicit", &r, paper[1])]
        {
            let label = format!("{name} ({sketch} rotate)");
            rows.push(ablation_row(label, ("paper", paper.into()), result));
        }
    }
    print_table(&rows);
    Json::obj([("rows", rows.into())])
}

/// §6.1: synthesis under the restricted rotation vocabularies (sliding
/// window, powers of two) against every amount in `1..n`, all cold.
fn ablation_rotations(h: &mut Harness) -> Json {
    let options = synthesis_options(h.jobs);
    println!("# §6.1 ablation: restricted vs unrestricted rotation sets (cold)");
    let (img, window) = (
        stencil::default_image(),
        RotationSet::Window {
            stride: 5,
            radius: 1,
        },
    );
    let cases = [
        ("box-blur / window", stencil::box_blur(img), window),
        (
            "box-blur / unrestricted",
            stencil::box_blur(img),
            RotationSet::All { n: img.slots() },
        ),
        (
            "dot-product / powers-of-two",
            reduction::dot_product(8),
            RotationSet::PowersOfTwo { extent: 8 },
        ),
        (
            "dot-product / unrestricted",
            reduction::dot_product(8),
            RotationSet::All { n: 16 },
        ),
    ];
    let mut rows = Vec::new();
    for (label, k, rotations) in cases {
        let sketch = Sketch::new(k.sketch.ops.clone(), rotations, k.sketch.max_components);
        let r = synthesize(&k.spec, &sketch, &options).unwrap_or_else(|e| panic!("{label}: {e}"));
        let rots = sketch.rotation_amounts.len();
        rows.push(ablation_row(label.into(), ("rots", rots.into()), &r));
    }
    print_table(&rows);
    Json::obj([("rows", rows.into())])
}
