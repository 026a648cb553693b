//! The Porcupine command-line driver: synthesize, inspect, and export the
//! paper's kernels from a shell.
//!
//! ```text
//! porcupine list                         # the kernel registry
//! porcupine synth gx                     # synthesize, print Quill + stats
//! porcupine synth gx --emit seal         # print generated SEAL C++
//! porcupine synth gx --explicit          # §7.4 ablation sketch mode
//! porcupine synth box-blur --auto        # infer the sketch from the spec
//! porcupine synth gx --jobs 4            # search with 4 worker threads
//! porcupine synth sobel-combine -O0      # middle-end level (also -O1/-O2)
//! porcupine synth dot-product --size 64 --params auto
//!                                        # bigger kernel, auto-selected
//!                                        # params, encrypted check
//! porcupine synth dot-product --scheme bgv --params auto
//!                                        # same kernel on the BGV backend
//! porcupine baseline gx                  # print the hand-written baseline
//! ```
//!
//! `--jobs` defaults to `PORCUPINE_JOBS` or the machine's available
//! parallelism; the synthesized program is identical at any value.
//! `--eval-jobs` (default: `PORCUPINE_EVAL_JOBS`, else 1) sets the worker
//! count for the encrypted check's execution engine — decryptions are
//! bit-identical at any setting. The
//! printed program is the middle-end's output at the selected `-O` level
//! (default: `PORCUPINE_OPT` or `-O2`) — backend-legal IR with explicit
//! `relin-ct` placement; `-O0` reproduces the eager
//! relin-after-every-multiply lowering.
//!
//! `--scheme bfv|bgv` (default: `PORCUPINE_SCHEME`, else `bfv`) picks the
//! backend the kernel targets: it selects the lowering legality, the
//! latency model behind the cost objective, the noise model behind
//! parameter selection, and which evaluator the encrypted check runs on.
//!
//! `--size` scales a kernel past the paper's toy dimensions (image
//! interior width for the stencils, element count for the reductions,
//! batch width for the regressions). `--params auto` lets the scheme's
//! static noise analysis pick the smallest safe parameter set for the
//! lowered program (`--margin-bits` adjusts the safety margin;
//! `--params paper` pins the paper's fixed `N = 8192` set) and then
//! actually encrypts, runs, and decrypts the kernel, asserting the
//! backend matches the interpreter slot for slot.

use bfv::params::{BfvParams, ParamPolicy};
use porcupine::autosketch::auto_sketch;
use porcupine::cegis::{
    default_parallelism, default_strategy, synthesize, CachePolicy, SearchStrategy,
    SynthesisOptions,
};
use porcupine::codegen::{emit_seal_cpp, Runner};
use porcupine::opt::{self, OptLevel};
use porcupine::scheme::{BfvScheme, BgvScheme, Scheme};
use porcupine::spec::KernelSpec;
use porcupine_kernels::{all_direct, direct_kernel, PaperKernel};
use quill::cost::{eager_cost, LatencyModel};
use quill::scheme::SchemeId;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  porcupine list\n  porcupine synth <kernel> [--timeout <s>] [--emit seal|quill] [--explicit] [--auto] [--seed <n>] [--jobs <n>] [-O<0|1|2>] [--scheme bfv|bgv] [--size <n>] [--params auto|paper] [--margin-bits <n>] [--strategy bottom-up|dfs] [--cache <dir>] [--no-cache] [--eval-jobs <n>]\n  porcupine baseline <kernel> [--emit seal|quill] [-O<0|1|2>]"
    );
    ExitCode::FAILURE
}

fn find_kernel(name: &str, size: Option<usize>) -> Option<PaperKernel> {
    direct_kernel(name, size)
}

/// Encrypts seeded random inputs, executes the lowered program on the
/// scheme backend `S` under `params`, decrypts, and compares against the
/// interpreter on the spec's masked slots. Returns the measured remaining
/// noise budget.
fn run_encrypted_check_for<S: Scheme>(
    prog: &quill::program::Program,
    spec: &KernelSpec,
    params: BfvParams,
    seed: u64,
    eval_jobs: NonZeroUsize,
) -> Result<i64, String> {
    let ctx = S::context(params).map_err(|e| e.to_string())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = spec.t;
    let sample = |count: usize, rng: &mut rand::rngs::StdRng| -> Vec<Vec<u64>> {
        (0..count)
            .map(|_| (0..spec.n).map(|_| rng.gen_range(0..t)).collect())
            .collect()
    };
    let ct_model = sample(prog.num_ct_inputs, &mut rng);
    let pt_model = sample(prog.num_pt_inputs, &mut rng);
    let expected = quill::interp::eval_concrete(prog, &ct_model, &pt_model, t);

    let keygen = S::keygen(&ctx, &mut rng);
    let encryptor = S::encryptor(&ctx, &keygen, &mut rng);
    let decryptor = S::decryptor(&ctx, &keygen);
    let runner: Runner<'_, S> =
        Runner::for_programs(&ctx, &keygen, &[prog], &mut rng).with_eval_jobs(eval_jobs.get());
    let encoder = runner.encoder();
    let cts: Vec<S::Ciphertext> = ct_model
        .iter()
        .map(|v| S::encrypt(&encryptor, &S::encode(encoder, v), &mut rng))
        .collect();
    let pts: Vec<S::Plaintext> = pt_model.iter().map(|v| S::encode(encoder, v)).collect();
    let ct_refs: Vec<&S::Ciphertext> = cts.iter().collect();
    let pt_refs: Vec<&S::Plaintext> = pts.iter().collect();
    let out = runner.run(prog, &ct_refs, &pt_refs);
    let budget = S::noise_budget(&decryptor, &out);
    if budget <= 0 {
        return Err(format!("noise budget exhausted at decryption ({budget})"));
    }
    let decoded = S::decode(encoder, &S::decrypt(&decryptor, &out));
    for (i, &on) in spec.output_mask.iter().enumerate() {
        if on && decoded[i] != expected[i] {
            return Err(format!(
                "slot {i}: backend {} != interpreter {}",
                decoded[i], expected[i]
            ));
        }
    }
    Ok(budget)
}

/// [`run_encrypted_check_for`] dispatched on a runtime scheme identifier.
fn run_encrypted_check(
    scheme: SchemeId,
    prog: &quill::program::Program,
    spec: &KernelSpec,
    params: BfvParams,
    seed: u64,
    eval_jobs: NonZeroUsize,
) -> Result<i64, String> {
    match scheme {
        SchemeId::Bfv => run_encrypted_check_for::<BfvScheme>(prog, spec, params, seed, eval_jobs),
        SchemeId::Bgv => run_encrypted_check_for::<BgvScheme>(prog, spec, params, seed, eval_jobs),
    }
}

/// The value after `flag` parsed as `T`: `Ok(None)` when the flag is
/// absent, and an error naming the flag when its value is missing or
/// malformed — never a silent fallback to the default.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    expected: &str,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).map(String::as_str);
    match value.map(str::parse) {
        Some(Ok(v)) => Ok(Some(v)),
        _ => Err(format!(
            "{flag} requires {expected}, got {:?}",
            value.unwrap_or("nothing")
        )),
    }
}

/// `synth`'s numeric flags, each parsed strictly by [`flag_value`].
struct NumericFlags {
    size: Option<usize>,
    margin_bits: Option<f64>,
    jobs: Option<NonZeroUsize>,
    eval_jobs: Option<NonZeroUsize>,
    timeout: Option<u64>,
    seed: Option<u64>,
}

impl NumericFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        const COUNT: &str = "a positive integer";
        let margin_bits = flag_value::<f64>(args, "--margin-bits", "a finite number")?;
        if let Some(m) = margin_bits.filter(|m| !m.is_finite()) {
            return Err(format!("--margin-bits requires a finite number, got {m}"));
        }
        Ok(NumericFlags {
            size: flag_value(args, "--size", COUNT)?,
            margin_bits,
            jobs: flag_value(args, "--jobs", COUNT)?,
            eval_jobs: flag_value(args, "--eval-jobs", COUNT)?,
            timeout: flag_value(args, "--timeout", "a number of seconds")?,
            seed: flag_value(args, "--seed", "a non-negative integer")?,
        })
    }
}

/// Extracts an `-O0`/`-O1`/`-O2` (or `--opt-level <n>`) flag, if present.
fn parse_opt_level(args: &[String]) -> Result<Option<OptLevel>, String> {
    if let Some(i) = args.iter().position(|a| a == "--opt-level") {
        let v = args
            .get(i + 1)
            .ok_or_else(|| "--opt-level requires a value".to_string())?;
        return v.parse().map(Some);
    }
    match args.iter().find(|a| a.starts_with("-O")) {
        Some(flag) => flag.parse().map(Some),
        None => Ok(None),
    }
}

/// Prints the resolved parameter set and, for auto selection, the noise
/// analysis behind it.
fn report_params(
    scheme: SchemeId,
    optimized: &quill::program::Program,
    params: &BfvParams,
    policy: &ParamPolicy,
    verbose: bool,
) {
    let total_bits: u32 = params.moduli.iter().map(|&q| 64 - q.leading_zeros()).sum();
    let mode = match policy {
        ParamPolicy::Auto { .. } => "auto",
        ParamPolicy::Fixed(_) => "fixed",
    };
    eprintln!(
        "; params ({mode}, {scheme}): N = {}, t = {}, q = {} primes / {total_bits} bits",
        params.poly_degree,
        params.plain_modulus,
        params.moduli.len(),
    );
    if verbose {
        let report = porcupine::scheme::analyze_noise(scheme, params, optimized);
        eprintln!(
            "; noise: fresh budget {:.1} bits, worst-case consumed {:.1}, predicted >= {:.1} at decryption",
            report.fresh_budget_bits, report.consumed_bits, report.predicted_budget_bits,
        );
    }
}

/// The shared tail of every synth path: params report, the optional
/// encrypted cross-check, and program/SEAL emission.
#[allow(clippy::too_many_arguments)]
fn finish_synth(
    k: &PaperKernel,
    optimized: &quill::program::Program,
    params: &Result<BfvParams, bfv::params::SelectError>,
    options: &SynthesisOptions,
    args: &[String],
    run_check: bool,
    eval_jobs: NonZeroUsize,
) -> ExitCode {
    match params {
        Ok(params) => {
            report_params(
                options.scheme,
                optimized,
                params,
                &options.params,
                run_check,
            );
            if run_check {
                // `--params` asks for the full flow: encrypt, run on the
                // selected scheme backend under the resolved set, decrypt,
                // and cross-check against the interpreter.
                match run_encrypted_check(
                    options.scheme,
                    optimized,
                    &k.spec,
                    params.clone(),
                    options.seed,
                    eval_jobs,
                ) {
                    Ok(budget) => eprintln!(
                        "; encrypted check: backend matches interpreter on all masked \
                         slots, {budget} bits of noise budget left"
                    ),
                    Err(e) => {
                        eprintln!("encrypted check failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        // With `--params` the user asked for certified parameters: fail.
        // Without, emission needs no parameters; note the failure and go on.
        Err(e) if run_check => {
            eprintln!("parameter selection failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(e) => eprintln!("; params: selection failed ({e}); emitting code only"),
    }
    if args.iter().any(|a| a == "seal") {
        print!("{}", emit_seal_cpp(optimized));
    } else {
        print!("{optimized}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `porcupine dot-product` is shorthand for `porcupine synth dot-product`.
    if args.first().is_some_and(|a| find_kernel(a, None).is_some()) {
        args.insert(0, "synth".to_string());
    }
    // Validate `PORCUPINE_SCHEME` up front so a typo is a clean error here
    // rather than a panic out of `SynthesisOptions::default()`.
    let env_scheme = match porcupine::scheme::scheme_from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let model = LatencyModel::profiled_default();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:<24} {:>6} {:>7} {:>7} {:>12}",
                "kernel", "instr", "depth", "mdepth", "cost"
            );
            for k in all_direct() {
                println!(
                    "{:<24} {:>6} {:>7} {:>7} {:>12.0}",
                    k.name,
                    k.baseline.len(),
                    k.baseline.logic_depth(),
                    k.baseline.mult_depth(),
                    eager_cost(&k.baseline, &model),
                );
            }
            ExitCode::SUCCESS
        }
        Some("baseline") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(k) = find_kernel(name, None) else {
                eprintln!("unknown kernel '{name}' (try `porcupine list`)");
                return ExitCode::FAILURE;
            };
            // Without an explicit -O flag the raw baseline prints as-is;
            // with one, the middle-end runs first.
            let prog = match parse_opt_level(&args) {
                Ok(None) => k.baseline.clone(),
                Ok(Some(level)) => {
                    let (optimized, report) = opt::optimize(&k.baseline, level);
                    eprintln!("; -{level}: {report}");
                    optimized
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if args.iter().any(|a| a == "seal") {
                print!("{}", emit_seal_cpp(&prog));
            } else {
                print!("{prog}");
            }
            ExitCode::SUCCESS
        }
        Some("synth") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let flags = match NumericFlags::parse(&args) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let size = flags.size;
            let Some(k) = find_kernel(name, size) else {
                match size {
                    Some(s) => eprintln!(
                        "kernel '{name}' does not exist or cannot take size {s} \
                         (reductions need a power of two; try `porcupine list`)"
                    ),
                    None => eprintln!("unknown kernel '{name}' (try `porcupine list`)"),
                }
                return ExitCode::FAILURE;
            };
            // `--params` present with a missing value is an error, not a
            // silently skipped encrypted check.
            let params_mode = match args.iter().position(|a| a == "--params") {
                Some(i) => match args.get(i + 1).map(String::as_str) {
                    Some(mode @ ("auto" | "paper")) => Some(mode),
                    other => {
                        eprintln!(
                            "--params requires 'auto' or 'paper', got {:?}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            // `--scheme` beats `PORCUPINE_SCHEME` beats the BFV default;
            // an unknown name is an error, never a silent fallback.
            let scheme = match args.iter().position(|a| a == "--scheme") {
                Some(i) => match args.get(i + 1).map(String::as_str) {
                    Some(v) => match SchemeId::parse(v) {
                        Some(s) => s,
                        None => {
                            eprintln!(
                                "--scheme requires one of {:?}, got '{v}'",
                                SchemeId::ALL.iter().map(|s| s.name()).collect::<Vec<_>>()
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("--scheme requires a value (bfv or bgv)");
                        return ExitCode::FAILURE;
                    }
                },
                None => env_scheme,
            };
            let policy = match params_mode {
                Some("paper") => ParamPolicy::Fixed(BfvParams::paper()),
                _ => match flags.margin_bits {
                    Some(margin_bits) => ParamPolicy::Auto { margin_bits },
                    None => ParamPolicy::auto(),
                },
            };
            let jobs = flags.jobs.unwrap_or_else(default_parallelism);
            let eval_jobs = flags
                .eval_jobs
                .unwrap_or_else(porcupine::codegen::default_eval_jobs);
            let opt_level = match parse_opt_level(&args) {
                Ok(level) => level.unwrap_or_else(opt::default_opt_level),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let strategy = match args.iter().position(|a| a == "--strategy") {
                Some(i) => match args.get(i + 1).map(String::as_str) {
                    Some("bottom-up") => SearchStrategy::BottomUp,
                    Some("dfs") => SearchStrategy::Dfs,
                    other => {
                        eprintln!(
                            "--strategy requires 'bottom-up' or 'dfs', got {:?}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::FAILURE;
                    }
                },
                None => default_strategy(),
            };
            let cache = if args.iter().any(|a| a == "--no-cache") {
                CachePolicy::Disabled
            } else {
                match args.iter().position(|a| a == "--cache") {
                    Some(i) => match args.get(i + 1) {
                        Some(dir) => CachePolicy::At(dir.into()),
                        None => {
                            eprintln!("--cache requires a directory");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => CachePolicy::Enabled,
                }
            };
            let options = SynthesisOptions {
                timeout: Duration::from_secs(flags.timeout.unwrap_or(600)),
                seed: flags.seed.unwrap_or(0x9E3779B9),
                parallelism: jobs,
                opt_level,
                scheme,
                latency: LatencyModel::profiled_for(scheme),
                params: policy,
                strategy,
                cache,
                ..SynthesisOptions::default()
            };
            // Reductions scaled past the strategy's wall synthesize
            // stage-wise (§6.3). The bottom-up term bank pushes the wall
            // past the DFS's ~10–12 instructions, so sizes that used to
            // require staging now go through the direct search.
            if let Some(len) = size {
                use porcupine_kernels::reduction as red;
                if red::direct_components(name, len)
                    .is_some_and(|c| c > red::direct_search_wall(options.strategy))
                {
                    let start = std::time::Instant::now();
                    let program = match red::synthesize_staged(name, len, &options)
                        .expect("direct_components implies a staged reduction")
                    {
                        Ok(p) => p,
                        Err(e) => {
                            eprintln!("staged synthesis failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let (optimized, opt_report) =
                        opt::optimize_with(&program, options.opt_level, &options.scheme.legality());
                    let params = porcupine::scheme::resolve_params(
                        options.scheme,
                        &options.params,
                        &optimized,
                        k.spec.n,
                        k.spec.t,
                    );
                    eprintln!(
                        "; multi-step (§6.3): {} stages, total {:.2?}, jobs: {}",
                        1 + len.ilog2(),
                        start.elapsed(),
                        options.parallelism,
                    );
                    eprintln!(
                        "; -{}: {} ({} instrs stitched → {} lowered, {} relin, {} rot)",
                        options.opt_level,
                        opt_report,
                        program.len(),
                        optimized.len(),
                        optimized.relin_count(),
                        optimized.rot_count(),
                    );
                    return finish_synth(
                        &k,
                        &optimized,
                        &params,
                        &options,
                        &args,
                        params_mode.is_some(),
                        eval_jobs,
                    );
                }
            }
            let sketch = if args.iter().any(|a| a == "--auto") {
                auto_sketch(&k.spec)
            } else if args.iter().any(|a| a == "--explicit") {
                let mut s = k.sketch.clone().with_explicit_rotations();
                s.max_components += 4; // room for materialized rotations
                s
            } else {
                k.sketch.clone()
            };
            match synthesize(&k.spec, &sketch, &options) {
                Ok(r) => {
                    eprintln!(
                        "; {} components, {} examples, initial {:.2?}, total {:.2?}, optimal: {}, jobs: {}",
                        r.components,
                        r.examples_used,
                        r.time_to_initial,
                        r.time_total,
                        r.proved_optimal,
                        options.parallelism,
                    );
                    eprintln!(
                        "; strategy: {}, cache: {}",
                        r.strategy_used,
                        if r.cache_hit { "hit" } else { "miss" },
                    );
                    eprintln!(
                        "; cost {:.0} (baseline {:.0}, {} latency model)",
                        r.final_cost,
                        eager_cost(&k.baseline, &options.latency),
                        options.scheme,
                    );
                    eprintln!(
                        "; -{}: {} ({} instrs searched → {} lowered, {} relin, {} rot)",
                        options.opt_level,
                        r.opt_report,
                        r.program.len(),
                        r.optimized.len(),
                        r.optimized.relin_count(),
                        r.optimized.rot_count(),
                    );
                    finish_synth(
                        &k,
                        &r.optimized,
                        &r.params,
                        &options,
                        &args,
                        params_mode.is_some(),
                        eval_jobs,
                    )
                }
                Err(e) => {
                    eprintln!("synthesis failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
