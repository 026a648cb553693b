//! Regenerates **Figure 4**: run-time speedup of Porcupine-synthesized
//! kernels over the hand-written depth-minimized baselines, measured on the
//! in-repo BFV backend, plus the §7.2 multi-step applications (Sobel,
//! Harris). Every run is checked against the plaintext reference before
//! being timed.
//!
//! ```text
//! cargo run -p porcupine-bench --release --bin fig4_speedup [runs] [synth_timeout_s] [--secure] [--jobs N]
//! ```
//!
//! Defaults: 10 timed runs per version over the `fast_4096` parameter set;
//! `--secure` switches to the paper-faithful `N = 8192`, 128-bit-secure set
//! (slower). The paper reports up to 51% speedup, 11% geometric mean.

use bfv::encoding::Plaintext;
use bfv::encrypt::Ciphertext;
use bfv::params::{BfvContext, BfvParams};
use porcupine::cegis::{synthesize, SynthesisOptions};
use porcupine::codegen::Session;
use porcupine::scheme::BfvScheme;
use porcupine::spec::KernelSpec;
use porcupine_kernels::{all_direct, composite, stencil};
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

struct Workload {
    name: String,
    spec: KernelSpec,
    baseline: Program,
    synthesized: Program,
}

use porcupine_bench::median;

fn main() {
    let (jobs, args) = porcupine_bench::parse_jobs(std::env::args().collect());
    let (policy, args) = porcupine_bench::parse_params(args);
    let runs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let synth_timeout: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(120);
    let secure = args.iter().any(|a| a == "--secure");

    let options = SynthesisOptions {
        timeout: Duration::from_secs(synth_timeout),
        parallelism: jobs,
        ..SynthesisOptions::default()
    };

    // --- Synthesize all kernels and build the workload list. -------------
    let mut workloads: Vec<Workload> = Vec::new();
    let mut by_name: std::collections::HashMap<&str, Program> = Default::default();
    for k in all_direct() {
        let r = synthesize(&k.spec, &k.sketch, &options)
            .unwrap_or_else(|e| panic!("{} failed to synthesize: {e}", k.name));
        by_name.insert(k.name, r.program.clone());
        workloads.push(Workload {
            name: k.name.to_string(),
            spec: k.spec,
            baseline: k.baseline,
            synthesized: r.program,
        });
    }
    let img = stencil::default_image();
    let combine = composite::sobel_combine(img.slots());
    let det = composite::harris_det(img.slots());
    let trace = composite::harris_trace(img.slots());
    let combine_p = synthesize(&combine.spec, &combine.sketch, &options)
        .unwrap()
        .program;
    let det_p = synthesize(&det.spec, &det.sketch, &options)
        .unwrap()
        .program;
    let trace_p = synthesize(&trace.spec, &trace.sketch, &options)
        .unwrap()
        .program;
    workloads.push(Workload {
        name: "sobel (multi-step)".into(),
        spec: composite::sobel_spec(img),
        baseline: composite::sobel_baseline(img),
        synthesized: composite::sobel_from(&by_name["gx"], &by_name["gy"], &combine_p),
    });
    workloads.push(Workload {
        name: "harris (multi-step)".into(),
        spec: composite::harris_spec(img),
        baseline: composite::harris_baseline(img),
        synthesized: composite::harris_from(&composite::HarrisStages {
            gx: by_name["gx"].clone(),
            gy: by_name["gy"].clone(),
            blur: by_name["box-blur"].clone(),
            det: det_p,
            trace: trace_p,
        }),
    });

    // --- Resolve parameters and time every workload. ----------------------
    // `--params auto` picks the single set covering every lowered workload
    // (both versions, so the comparison shares one context); `--secure` /
    // the default keep the historical fixed presets.
    let params = match &policy {
        Some(policy) => {
            let lowered: Vec<(Program, usize)> = workloads
                .iter()
                .flat_map(|w| {
                    [
                        (
                            porcupine::opt::optimize(&w.baseline, options.opt_level).0,
                            w.spec.n,
                        ),
                        (
                            porcupine::opt::optimize(&w.synthesized, options.opt_level).0,
                            w.spec.n,
                        ),
                    ]
                })
                .collect();
            let refs: Vec<(&Program, usize)> = lowered.iter().map(|(p, n)| (p, *n)).collect();
            porcupine_bench::params_covering_for(SchemeId::Bfv, &refs, 65537, policy)
        }
        None if secure => BfvParams::secure_128(),
        None => BfvParams::fast_4096(),
    };
    println!(
        "# Figure 4: kernel speedups (N={}, Q={} primes, {} runs/version, synthesis timeout {synth_timeout}s)",
        params.poly_degree,
        params.moduli.len(),
        runs
    );
    let ctx = BfvContext::new(params).expect("valid parameters");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF16);

    println!(
        "{:<24} {:>12} {:>12} {:>9}",
        "kernel", "baseline(ms)", "synth(ms)", "speedup%"
    );
    let mut ratios = Vec::new();
    for w in &workloads {
        // Both versions execute through the same middle-end level so the
        // baseline-vs-synthesized comparison isolates the search, not the
        // optimizer (the fig_opt binary measures -O0 vs -O2 instead).
        let (baseline, _) = porcupine::opt::optimize(&w.baseline, options.opt_level);
        let (synthesized, _) = porcupine::opt::optimize(&w.synthesized, options.opt_level);
        let programs = [&baseline, &synthesized];
        let session = Session::<BfvScheme>::new(&ctx, &programs, &mut rng);
        let runner = &session.runner;
        let t = w.spec.t;

        // Random model inputs (valid region), zero padding elsewhere.
        let ct_model: Vec<Vec<u64>> = (0..w.spec.num_ct_inputs)
            .map(|_| (0..w.spec.n).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let pt_model: Vec<Vec<u64>> = (0..w.spec.num_pt_inputs)
            .map(|_| (0..w.spec.n).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let expected = w.spec.eval_concrete(&ct_model, &pt_model);

        let cts: Vec<Ciphertext> = ct_model
            .iter()
            .map(|v| session.encrypt(v, &mut rng))
            .collect();
        let pts: Vec<Plaintext> = pt_model
            .iter()
            .map(|v| runner.encoder().encode(v))
            .collect();
        let ct_refs: Vec<&Ciphertext> = cts.iter().collect();
        let pt_refs: Vec<&Plaintext> = pts.iter().collect();

        let mut times = [Vec::new(), Vec::new()];
        for (vi, prog) in programs.iter().enumerate() {
            // correctness check once per version
            let (decoded, budget) = session.decrypt(&runner.run(prog, &ct_refs, &pt_refs));
            assert!(budget > 0, "{}: noise budget exhausted ({budget})", w.name);
            for i in 0..w.spec.n {
                if w.spec.output_mask[i] {
                    assert_eq!(
                        decoded[i],
                        expected[i] % t,
                        "{}: wrong result at slot {i}",
                        w.name
                    );
                }
            }
            for _ in 0..runs {
                let start = Instant::now();
                std::hint::black_box(runner.run(prog, &ct_refs, &pt_refs));
                times[vi].push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let base = median(times[0].clone());
        let synth = median(times[1].clone());
        let speedup = (base - synth) / base * 100.0;
        ratios.push(base / synth);
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>9.1}",
            w.name, base, synth, speedup
        );
    }
    let geomean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    println!(
        "\ngeometric-mean speedup: {:.1}% (paper: 11% geomean, up to 51%)",
        (geomean.exp() - 1.0) * 100.0
    );
}
