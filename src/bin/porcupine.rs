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
//! porcupine synth sobel-combine -O0      # middle-end level (also -O2)
//! porcupine synth dot-product --size 64 --params auto
//!                                        # bigger kernel, auto-selected
//!                                        # params, encrypted check
//! porcupine synth dot-product --scheme bgv --params auto
//!                                        # same kernel on the BGV backend
//! porcupine baseline gx                  # print the hand-written baseline
//! ```
//!
//! Every flag defaults to the field it sets in `SynthesisOptions::default()`.
//! `--jobs` defaults to the machine's available parallelism; the
//! synthesized program is identical at any value. `--eval-jobs` (default 1)
//! sets the worker count for the encrypted check's execution engine —
//! decryptions are bit-identical at any setting. The printed program is
//! the middle-end's output at the selected `-O` level (default `-O2`) —
//! backend-legal IR with explicit `relin-ct` placement; `-O0` reproduces
//! the eager relin-after-every-multiply lowering.
//!
//! `--scheme bfv|bgv` (default `bfv`) picks the backend the kernel targets: it selects the lowering legality, the
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
use porcupine::cegis::{synthesize, CachePolicy, SynthesisOptions};
use porcupine::codegen::{emit_seal_cpp, run_encrypted};
use porcupine::opt::{self, OptLevel};
use porcupine::spec::KernelSpec;
use porcupine_kernels::{all_direct, direct_kernel, PaperKernel};
use quill::cost::{eager_cost, LatencyModel};
use quill::scheme::SchemeId;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

/// Stderr, locked once for the whole run. Report lines are diagnostics:
/// one that cannot be written (say, its reader has gone away) is dropped,
/// so a closed stderr neither panics nor keeps the program from stdout.
struct Report(io::StderrLock<'static>);

impl Report {
    /// What `writeln!(err, …)` calls: write, and ignore a failure.
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = self.0.write_fmt(args);
    }
}

fn usage(err: &mut Report) -> ExitCode {
    writeln!(
        err,
        "usage:\n  porcupine list\n  porcupine synth <kernel> [--timeout <s>] [--emit seal|quill] [--explicit] [--auto] [--seed <n>] [--jobs <n>] [-O<0|2>] [--scheme bfv|bgv] [--size <n>] [--params auto|paper] [--margin-bits <n>] [--cache <dir>] [--no-cache] [--eval-jobs <n>]\n  porcupine baseline <kernel> [--emit seal|quill] [-O<0|2>]"
    );
    ExitCode::FAILURE
}

/// Encrypts seeded random inputs, executes the lowered program on the
/// `scheme` backend under `params`, decrypts, and compares against the
/// interpreter on the spec's masked slots. Returns the measured remaining
/// noise budget.
fn encrypted_check(
    scheme: SchemeId,
    prog: &quill::program::Program,
    spec: &KernelSpec,
    params: BfvParams,
    seed: u64,
    eval_jobs: NonZeroUsize,
) -> Result<i64, String> {
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
    let (decoded, budget) = run_encrypted(
        scheme, params, prog, &ct_model, &pt_model, eval_jobs, &mut rng,
    )
    .map_err(|e| e.to_string())?;
    if budget <= 0 {
        return Err(format!("noise budget exhausted at decryption ({budget})"));
    }
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

/// The value after `flag` read by `parse`: `Ok(None)` when the flag is
/// absent, and an error naming the flag and `expected` when its value is
/// missing or `parse` rejects it — never a silent fallback to the default.
fn flag_with<T>(
    args: &[String],
    flag: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).map(String::as_str);
    value.and_then(parse).map(Some).ok_or_else(|| {
        format!(
            "{flag} requires {expected}, got {:?}",
            value.unwrap_or("nothing")
        )
    })
}

/// [`flag_with`] for a value parsed as `T`.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    expected: &str,
) -> Result<Option<T>, String> {
    flag_with(args, flag, expected, |v| v.parse().ok())
}

/// `--emit seal|quill`: whether to print SEAL C++ rather than Quill.
fn emit_seal(args: &[String]) -> Result<bool, String> {
    let emit = flag_with(args, "--emit", "'seal' or 'quill'", |v| match v {
        "seal" => Some(true),
        "quill" => Some(false),
        _ => None,
    })?;
    Ok(emit.unwrap_or(false))
}

/// Writes `prog` to stdout as SEAL C++ or as Quill.
fn emit(prog: &quill::program::Program, seal: bool) -> io::Result<()> {
    let mut out = io::stdout().lock();
    if seal {
        write!(out, "{}", emit_seal_cpp(prog))?;
    } else {
        write!(out, "{prog}")?;
    }
    out.flush()
}

/// Writes the kernel registry table to stdout.
fn list(model: &LatencyModel) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "{:<24} {:>6} {:>7} {:>7} {:>12}",
        "kernel", "instr", "depth", "mdepth", "cost"
    )?;
    for k in all_direct() {
        writeln!(
            out,
            "{:<24} {:>6} {:>7} {:>7} {:>12.0}",
            k.name,
            k.baseline.len(),
            k.baseline.logic_depth(),
            k.baseline.mult_depth(),
            eager_cost(&k.baseline, model),
        )?;
    }
    out.flush()
}

/// The exit status after writing to stdout. A failed write is a failure,
/// reported on stderr unless the reader has gone away (`porcupine list |
/// head -1`): then the command ends quietly.
fn exit_after(err: &mut Report, written: io::Result<()>) -> ExitCode {
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e.kind() != io::ErrorKind::BrokenPipe {
                writeln!(err, "writing to stdout failed: {e}");
            }
            ExitCode::FAILURE
        }
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

/// Extracts an `-O0`/`-O2` (or `--opt-level <n>`) flag, if present.
fn parse_opt_level(args: &[String]) -> Result<Option<OptLevel>, String> {
    if let Some(level) = flag_value(args, "--opt-level", "0 or 2")? {
        return Ok(Some(level));
    }
    match args.iter().find(|a| a.starts_with("-O")) {
        Some(flag) => flag.parse().map(Some),
        None => Ok(None),
    }
}

/// Prints the resolved parameter set and, for auto selection, the noise
/// analysis behind it.
fn report_params(
    err: &mut Report,
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
    writeln!(
        err,
        "; params ({mode}, {scheme}): N = {}, t = {}, q = {} primes / {total_bits} bits",
        params.poly_degree,
        params.plain_modulus,
        params.moduli.len(),
    );
    if verbose {
        let report = porcupine::scheme::analyze_noise(scheme, params, optimized);
        writeln!(
            err,
            "; noise: fresh budget {:.1} bits, worst-case consumed {:.1}, predicted >= {:.1} at decryption",
            report.fresh_budget_bits, report.consumed_bits, report.predicted_budget_bits,
        );
    }
}

/// The shared tail of every synth path: params report, the optional
/// encrypted cross-check, and program/SEAL emission.
#[allow(clippy::too_many_arguments)]
fn finish_synth(
    err: &mut Report,
    k: &PaperKernel,
    optimized: &quill::program::Program,
    params: &Result<BfvParams, bfv::params::SelectError>,
    options: &SynthesisOptions,
    seal: bool,
    run_check: bool,
    eval_jobs: NonZeroUsize,
) -> ExitCode {
    match params {
        Ok(params) => {
            report_params(
                err,
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
                match encrypted_check(
                    options.scheme,
                    optimized,
                    &k.spec,
                    params.clone(),
                    options.seed,
                    eval_jobs,
                ) {
                    Ok(budget) => writeln!(
                        err,
                        "; encrypted check: backend matches interpreter on all masked \
                         slots, {budget} bits of noise budget left"
                    ),
                    Err(e) => {
                        writeln!(err, "encrypted check failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        // With `--params` the user asked for certified parameters: fail.
        // Without, emission needs no parameters; note the failure and go on.
        Err(e) if run_check => {
            writeln!(err, "parameter selection failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(e) => writeln!(err, "; params: selection failed ({e}); emitting code only"),
    }
    exit_after(err, emit(optimized, seal))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `porcupine dot-product` is shorthand for `porcupine synth dot-product`.
    if args
        .first()
        .is_some_and(|a| direct_kernel(a, None).is_some())
    {
        args.insert(0, "synth".to_string());
    }
    let model = LatencyModel::profiled_default();
    let err = &mut Report(io::stderr().lock());
    match args.first().map(String::as_str) {
        Some("list") => exit_after(err, list(&model)),
        Some("baseline") => {
            let Some(name) = args.get(1) else {
                return usage(err);
            };
            let Some(k) = direct_kernel(name, None) else {
                writeln!(err, "unknown kernel '{name}' (try `porcupine list`)");
                return ExitCode::FAILURE;
            };
            // Without an explicit -O flag the raw baseline prints as-is;
            // with one, the middle-end runs first.
            let (level, seal) =
                match parse_opt_level(&args).and_then(|l| Ok((l, emit_seal(&args)?))) {
                    Ok(flags) => flags,
                    Err(e) => {
                        writeln!(err, "{e}");
                        return ExitCode::FAILURE;
                    }
                };
            let written = match level {
                None => emit(&k.baseline, seal),
                Some(level) => {
                    let (optimized, report) = opt::optimize(&k.baseline, level);
                    writeln!(err, "; -{level}: {report}");
                    emit(&optimized, seal)
                }
            };
            exit_after(err, written)
        }
        Some("synth") => {
            let Some(name) = args.get(1) else {
                return usage(err);
            };
            let flags = match NumericFlags::parse(&args) {
                Ok(flags) => flags,
                Err(e) => {
                    writeln!(err, "{e}");
                    return ExitCode::FAILURE;
                }
            };
            let size = flags.size;
            let Some(k) = direct_kernel(name, size) else {
                match size {
                    Some(s) => writeln!(
                        err,
                        "kernel '{name}' does not exist or cannot take size {s} \
                         (reductions need a power of two; try `porcupine list`)"
                    ),
                    None => writeln!(err, "unknown kernel '{name}' (try `porcupine list`)"),
                }
                return ExitCode::FAILURE;
            };
            // A malformed flag is an error — and `--params` with a missing
            // value is one too, not a silently skipped encrypted check.
            let resolved = (|| {
                Ok::<_, String>((
                    flag_with(&args, "--params", "'auto' or 'paper'", |v| {
                        matches!(v, "auto" | "paper").then(|| v.to_string())
                    })?,
                    flag_with(&args, "--scheme", "'bfv' or 'bgv'", SchemeId::parse)?,
                    parse_opt_level(&args)?,
                    flag_with(&args, "--cache", "a directory", |v| Some(v.to_string()))?,
                    emit_seal(&args)?,
                ))
            })();
            let (params_mode, scheme, opt_level, cache_dir, seal) = match resolved {
                Ok(resolved) => resolved,
                Err(e) => {
                    writeln!(err, "{e}");
                    return ExitCode::FAILURE;
                }
            };
            let policy = match (params_mode.as_deref(), flags.margin_bits) {
                (Some("paper"), _) => ParamPolicy::Fixed(BfvParams::paper()),
                (_, Some(margin_bits)) => ParamPolicy::Auto { margin_bits },
                (_, None) => ParamPolicy::auto(),
            };
            let cache = match cache_dir {
                _ if args.iter().any(|a| a == "--no-cache") => CachePolicy::Disabled,
                Some(dir) => CachePolicy::At(dir.into()),
                None => CachePolicy::Enabled,
            };
            let defaults = SynthesisOptions::default();
            let scheme = scheme.unwrap_or(defaults.scheme);
            let options = SynthesisOptions {
                timeout: flags.timeout.map_or(defaults.timeout, Duration::from_secs),
                latency: LatencyModel::profiled_for(scheme),
                seed: flags.seed.unwrap_or(defaults.seed),
                parallelism: flags.jobs.unwrap_or(defaults.parallelism),
                opt_level: opt_level.unwrap_or(defaults.opt_level),
                scheme,
                params: policy,
                cache,
                ..defaults
            };
            let eval_jobs = flags.eval_jobs.unwrap_or(NonZeroUsize::MIN);
            // Reductions scaled past the direct search's wall synthesize
            // stage-wise (§6.3).
            if let Some(len) = size {
                use porcupine_kernels::reduction as red;
                if red::direct_components(name, len)
                    .is_some_and(|c| c > red::DIRECT_SEARCH_MAX_COMPONENTS)
                {
                    let start = std::time::Instant::now();
                    let program = match red::synthesize_staged(name, len, &options)
                        .expect("direct_components implies a staged reduction")
                    {
                        Ok(p) => p,
                        Err(e) => {
                            writeln!(err, "staged synthesis failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let (optimized, opt_report, params) = opt::optimize_for(
                        &program,
                        options.scheme,
                        options.opt_level,
                        &options.params,
                        k.spec.n,
                        k.spec.t,
                    );
                    writeln!(
                        err,
                        "; multi-step (§6.3): {} stages, total {:.2?}, jobs: {}",
                        1 + len.ilog2(),
                        start.elapsed(),
                        options.parallelism,
                    );
                    writeln!(
                        err,
                        "; -{}: {} ({} instrs stitched → {} lowered, {} relin, {} rot)",
                        options.opt_level,
                        opt_report,
                        program.len(),
                        optimized.len(),
                        optimized.relin_count(),
                        optimized.rot_count(),
                    );
                    return finish_synth(
                        err,
                        &k,
                        &optimized,
                        &params,
                        &options,
                        seal,
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
                    writeln!(
                        err,
                        "; {} components, {} examples, initial {:.2?}, total {:.2?}, optimal: {}, jobs: {}",
                        r.components,
                        r.examples_used,
                        r.time_to_initial,
                        r.time_total,
                        r.proved_optimal,
                        options.parallelism,
                    );
                    writeln!(err, "; cache: {}", if r.cache_hit { "hit" } else { "miss" });
                    writeln!(
                        err,
                        "; cost {:.0} (baseline {:.0}, {} latency model)",
                        r.final_cost,
                        eager_cost(&k.baseline, &options.latency),
                        options.scheme,
                    );
                    writeln!(
                        err,
                        "; -{}: {} ({} instrs searched → {} lowered, {} relin, {} rot)",
                        options.opt_level,
                        r.opt_report,
                        r.program.len(),
                        r.optimized.len(),
                        r.optimized.relin_count(),
                        r.optimized.rot_count(),
                    );
                    finish_synth(
                        err,
                        &k,
                        &r.optimized,
                        &r.params,
                        &options,
                        seal,
                        params_mode.is_some(),
                        eval_jobs,
                    )
                }
                Err(e) => {
                    writeln!(err, "synthesis failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(err),
    }
}
