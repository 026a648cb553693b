//! # porcupine-bench — the evaluation harness
//!
//! One binary, `reproduce`, regenerates the paper's evaluation (§7), one
//! subcommand per artifact:
//!
//! | artifact | subcommand |
//! |---|---|
//! | Table 2 (instructions & depth) | `table2` |
//! | Table 3 (synthesis time, cold/warm cache, jobs 1 vs N) | `table3` |
//! | Figure 4 (speedups) | `fig4` |
//! | middle-end `-O0` vs `-O2`, on every scheme | `fig-opt` |
//! | Figures 5/6 (case studies) | `case-studies` |
//! | §7.4 sketch ablation | `ablation-sketch` |
//! | §6.1 rotation-restriction ablation | `ablation-rotations` |
//!
//! ```text
//! cargo run --release -p porcupine-bench --bin reproduce [-- [--jobs N] [subcommand]]
//! ```
//!
//! With a subcommand it prints that artifact's table and writes nothing.
//! Without one it runs every artifact and writes the ledger
//! `BENCH_paper.json` to the current directory; the committed ledger at
//! the repository root comes from one such run there, and
//! `tests/synth_strategies.rs` checks its deterministic columns against
//! the pinned synthesis results. `--jobs` (default: the available
//! parallelism) sets the search worker count, which changes only
//! wall-clock; every other setting is a constant.
//!
//! The crate's second binary, `profile_latency`, prints cost-model blocks
//! from perfbench's op timings. Per-layer timings of rings, HE ops,
//! kernels and the compiler come from the separate `perfbench` package
//! (`perfbench/README.md`).
//!
//! This library holds what the artifacts share: the kernel suite
//! ([`Suite`]), the encrypted-timing loop ([`time_pair`]), the sample
//! statistics ([`Quartiles`]), and the ledger's JSON writer ([`Json`]) with
//! its table printer ([`print_table`]).

use porcupine::cegis::{synthesize, CachePolicy, SynthesisOptions, SynthesisResult};
use porcupine::codegen::Session;
use porcupine::scheme::Scheme;
use porcupine::spec::KernelSpec;
use porcupine_kernels::{all_direct, composite, stencil, PaperKernel};
use quill::program::Program;
use rand::rngs::StdRng;
use std::fmt::{self, Write as _};
use std::num::NonZeroUsize;
use std::time::Instant;
use test_support::{fast_synthesis_options, sample_model_inputs, with_jobs};

/// Timed runs of each program in an encrypted comparison.
pub const RUNS: usize = 20;

/// Worker threads of every encrypted run: the runner's default, one.
pub const EVAL_JOBS: usize = 1;

/// Parses the harness's command line (program name first): an optional
/// `--jobs N` (default: the machine's available parallelism) and at most
/// one subcommand. Anything else is an error naming the argument.
///
/// # Errors
///
/// Returns a message for a `--jobs` without a positive integer, another
/// flag, or a second positional argument.
pub fn parse_args(args: &[String]) -> Result<(NonZeroUsize, Option<String>), String> {
    let mut jobs = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    let mut subcommand = None;
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if arg == "--jobs" {
            let value = rest.next();
            jobs = value
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("--jobs requires a positive integer, got {value:?}"))?;
        } else if arg.starts_with('-') || subcommand.is_some() {
            return Err(format!("unexpected argument {arg:?}"));
        } else {
            subcommand = Some(arg.clone());
        }
    }
    Ok((jobs, subcommand))
}

/// The harness's synthesis options: the ones `tests/synth_strategies.rs`
/// pins ([`fast_synthesis_options`]: seed 1, the profiled BFV model, a
/// 300 s budget, no cache) with `jobs` search workers, which change only
/// wall-clock.
pub fn synthesis_options(jobs: NonZeroUsize) -> SynthesisOptions {
    with_jobs(fast_synthesis_options(), jobs.get())
}

/// One kernel of the suite, synthesized cold.
pub struct Synthesized {
    /// The paper kernel: spec, sketch and hand-written baseline.
    pub kernel: PaperKernel,
    /// What the search returned.
    pub result: SynthesisResult,
    /// Wall-clock seconds of the synthesis (a cache miss).
    pub secs: f64,
}

/// A Table 2 / Figure 4 row: a paper program's spec, its hand-written
/// baseline and its synthesized version.
pub struct Workload {
    /// Row name.
    pub name: &'static str,
    /// What both versions compute.
    pub spec: KernelSpec,
    /// The depth-minimized expert implementation.
    pub baseline: Program,
    /// The synthesized implementation.
    pub synthesized: Program,
}

/// The paper's kernel suite, synthesized once for every artifact: the
/// nine direct kernels and the Sobel and Harris stages, Table 3's twelve
/// rows, under [`synthesis_options`]. Each query misses a fresh cache
/// directory, which stays populated for Table 3's warm replays and is
/// removed when the suite is dropped.
pub struct Suite {
    /// The options every suite query ran under, cache directory included.
    pub options: SynthesisOptions,
    /// The twelve kernels, in Table 3 order.
    pub kernels: Vec<Synthesized>,
}

impl Suite {
    /// Synthesizes the suite with `jobs` search workers.
    ///
    /// # Panics
    ///
    /// Panics if a kernel fails to synthesize or its query hits the cache.
    pub fn build(jobs: NonZeroUsize) -> Suite {
        let cache_dir =
            std::env::temp_dir().join(format!("porcupine-reproduce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let options = SynthesisOptions {
            cache: CachePolicy::At(cache_dir),
            ..synthesis_options(jobs)
        };
        let n = stencil::default_image().slots();
        let mut kernels = all_direct();
        kernels.extend([
            composite::sobel_combine(n),
            composite::harris_det(n),
            composite::harris_trace(n),
        ]);
        let kernels = kernels
            .into_iter()
            .map(|kernel| {
                let start = Instant::now();
                let result = synthesize(&kernel.spec, &kernel.sketch, &options)
                    .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", kernel.name));
                let secs = start.elapsed().as_secs_f64();
                assert!(
                    !result.cache_hit,
                    "{}: a fresh cache must miss",
                    kernel.name
                );
                eprintln!("synthesized {} in {secs:.2} s", kernel.name);
                Synthesized {
                    kernel,
                    result,
                    secs,
                }
            })
            .collect();
        Suite { options, kernels }
    }

    /// The suite kernel `name`.
    ///
    /// # Panics
    ///
    /// Panics if the suite has no such kernel.
    pub fn get(&self, name: &str) -> &Synthesized {
        let entry = self.kernels.iter().find(|s| s.kernel.name == name);
        entry.unwrap_or_else(|| panic!("no suite kernel {name}"))
    }

    /// Table 2's and Figure 4's rows: the nine direct kernels, then Sobel
    /// and Harris composed from the synthesized stages (§7.2).
    pub fn workloads(&self) -> Vec<Workload> {
        let p = |name| self.get(name).result.program.clone();
        let mut rows: Vec<Workload> = all_direct()
            .into_iter()
            .map(|k| Workload {
                name: k.name,
                synthesized: p(k.name),
                spec: k.spec,
                baseline: k.baseline,
            })
            .collect();
        let img = stencil::default_image();
        rows.push(Workload {
            name: "sobel (multi-step)",
            spec: composite::sobel_spec(img),
            baseline: composite::sobel_baseline(img),
            synthesized: composite::sobel_from(&p("gx"), &p("gy"), &p("sobel-combine")),
        });
        rows.push(Workload {
            name: "harris (multi-step)",
            spec: composite::harris_spec(img),
            baseline: composite::harris_baseline(img),
            synthesized: composite::harris_from(&composite::HarrisStages {
                gx: p("gx"),
                gy: p("gy"),
                blur: p("box-blur"),
                det: p("harris-det"),
                trace: p("harris-trace"),
            }),
        });
        rows
    }
}

impl Drop for Suite {
    fn drop(&mut self) {
        if let Some(dir) = self.options.cache.directory() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The quartiles of a sample set, interpolating linearly between order
/// statistics (so the median of an even count is the mean of the middle
/// two).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(mut samples: Vec<f64>) -> Quartiles {
        assert!(!samples.is_empty(), "quartiles of no samples");
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (samples.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The ledger's form: `{"q1": …, "median": …, "q3": …}`.
    pub fn json(&self) -> Json {
        Json::obj([
            ("q1", self.q1.into()),
            ("median", self.median.into()),
            ("q3", self.q3.into()),
        ])
    }
}

/// Times two versions of one workload on backend `S`, in microseconds.
///
/// One session holds both programs' keys. One random input (`n` slots,
/// entries below 64) is encrypted once and its plaintexts encoded once.
/// Before anything is timed, each version is run and decrypted: its
/// noise budget must be positive, and `check` receives the model inputs
/// `(ct, pt)` and both decryptions. Then the versions run alternately,
/// [`RUNS`] times each, on [`EVAL_JOBS`] workers, so drift in the machine
/// load falls on both alike.
///
/// # Panics
///
/// Panics if a run exhausts its noise budget, or as `check` does.
pub fn time_pair<S: Scheme>(
    ctx: &S::Context,
    programs: [&Program; 2],
    n: usize,
    rng: &mut StdRng,
    check: impl FnOnce(&[Vec<u64>], &[Vec<u64>], [Vec<u64>; 2]),
) -> [Quartiles; 2] {
    let mut session = Session::<S>::new(ctx, &programs, rng);
    session.runner = session.runner.with_eval_jobs(EVAL_JOBS);
    let ct_model = sample_model_inputs(programs[0].num_ct_inputs, n, 64, rng);
    let pt_model = sample_model_inputs(programs[0].num_pt_inputs, n, 64, rng);
    let cts: Vec<S::Ciphertext> = ct_model.iter().map(|v| session.encrypt(v, rng)).collect();
    let runner = &session.runner;
    let pts: Vec<S::EvalPlaintext> = pt_model
        .iter()
        .map(|v| S::preencode(runner.evaluator(), &S::encode(runner.encoder(), v)))
        .collect();
    let ct_refs: Vec<&S::Ciphertext> = cts.iter().collect();
    let pt_refs: Vec<&S::EvalPlaintext> = pts.iter().collect();
    let run = |p: &Program| runner.run_encoded(p, &ct_refs, &pt_refs);

    check(
        &ct_model,
        &pt_model,
        programs.map(|p| {
            let (slots, budget) = session.decrypt(&run(p));
            assert!(budget > 0, "{}: noise budget exhausted ({budget})", p.name);
            slots
        }),
    );
    let mut samples = [Vec::with_capacity(RUNS), Vec::with_capacity(RUNS)];
    for _ in 0..RUNS {
        for (p, times) in programs.iter().zip(&mut samples) {
            let start = Instant::now();
            std::hint::black_box(run(p));
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples.map(Quartiles::of)
}

/// Prints ledger rows (objects with the same fields) as a table headed by
/// the field names. A nested object's values are joined with `/`.
///
/// # Panics
///
/// Panics if a row is not an object.
pub fn print_table(rows: &[Json]) {
    let mut lines: Vec<Vec<String>> = Vec::new();
    for row in rows {
        let Json::Obj(fields) = row else {
            panic!("a table row is an object, got {row}")
        };
        if lines.is_empty() {
            lines.push(fields.iter().map(|(key, _)| key.to_string()).collect());
        }
        lines.push(fields.iter().map(|(_, value)| value.cell()).collect());
    }
    let Some(header) = lines.first() else {
        return;
    };
    let widths: Vec<usize> = (0..header.len())
        .map(|c| {
            lines
                .iter()
                .map(|l| l[c].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    for line in &lines {
        let mut out = format!("{:<w$}", line[0], w = widths[0]);
        for (cell, w) in line.iter().zip(&widths).skip(1) {
            out += &format!("  {cell:>w$}");
        }
        println!("{out}");
    }
}

/// A JSON value of the ledger, written by hand (the workspace builds
/// offline, without serde). Numbers are written to six significant
/// digits; a non-finite number is written as `null`.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its fields in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from its fields.
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(fields.into())
    }

    /// Whether `self` is written on one line: a scalar, an array of
    /// scalars, or an object of scalars and objects of scalars (a table
    /// row). Anything else is written a line per element.
    fn inline(&self) -> bool {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        let flat = |v: &Json| matches!(v, Json::Obj(f) if f.iter().all(|(_, v)| scalar(v)));
        match self {
            Json::Arr(items) => items.iter().all(scalar),
            Json::Obj(fields) => fields.iter().all(|(_, v)| scalar(v) || flat(v)),
            _ => true,
        }
    }

    /// `self` as a table cell: a number at a precision for reading, a
    /// string unquoted, a container's values joined with `/`.
    fn cell(&self) -> String {
        let join = |items: Vec<String>| items.join("/");
        match self {
            Json::Num(x) if x.fract() == 0.0 || x.abs() >= 100.0 => format!("{x:.0}"),
            Json::Num(x) if x.abs() < 0.01 => format!("{x:.1e}"),
            Json::Num(x) => format!("{x:.2}"),
            Json::Str(s) => s.clone(),
            Json::Arr(items) => join(items.iter().map(Json::cell).collect()),
            Json::Obj(fields) => join(fields.iter().map(|(_, v)| v.cell()).collect()),
            Json::Bool(_) => self.to_string(),
        }
    }

    /// Writes `self` at `indent`.
    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => return write!(out, "{}", round6(*x)).unwrap(),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let inline = self.inline();
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(match (i, inline) {
                (0, true) => "",
                (_, true) => ", ",
                (0, false) => "\n",
                (_, false) => ",\n",
            });
            if !inline {
                out.push_str(&" ".repeat(indent + 2));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        if !inline && !items.is_empty() {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

/// `x` rounded to six significant digits.
fn round6(x: f64) -> f64 {
    if x == 0.0 {
        return x;
    }
    let digits = 5 - x.abs().log10().floor() as i32;
    if digits >= 0 {
        let scale = 10f64.powi(digits);
        (x * scale).round() / scale
    } else {
        let scale = 10f64.powi(-digits);
        (x / scale).round() * scale
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_takes_jobs_and_one_subcommand() {
        let (jobs, sub) = parse_args(&strings(&["bin", "--jobs", "4", "table2"])).unwrap();
        assert_eq!((jobs.get(), sub.as_deref()), (4, Some("table2")));
        let (jobs, sub) = parse_args(&strings(&["bin", "fig4", "--jobs", "2"])).unwrap();
        assert_eq!((jobs.get(), sub.as_deref()), (2, Some("fig4")));
        assert_eq!(parse_args(&strings(&["bin"])).unwrap().1, None);
        for bad in [
            &["bin", "--jobs"][..],
            &["bin", "--jobs", "0"],
            &["bin", "--jobs", "x"],
            &["bin", "--secure"],
            &["bin", "table2", "fig4"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            q,
            Quartiles {
                q1: 1.75,
                median: 2.5,
                q3: 3.25
            }
        );
        assert_eq!(Quartiles::of(vec![7.0]).median, 7.0);
    }

    #[test]
    fn json_writes_rows_inline_and_tables_a_row_per_line() {
        let row = |name: &str, x: f64| Json::obj([("name", name.into()), ("x", x.into())]);
        let ledger = Json::obj([
            ("ok", true.into()),
            (
                "rows",
                vec![row("a\"b", 1.0 / 3.0), row("c", f64::NAN)].into(),
            ),
            ("big", 12_345_678.0.into()),
        ]);
        assert_eq!(
            ledger.to_string(),
            "{\n  \"ok\": true,\n  \"rows\": [\n    {\"name\": \"a\\\"b\", \"x\": 0.333333},\n    \
             {\"name\": \"c\", \"x\": null}\n  ],\n  \"big\": 12345700\n}"
        );
    }
}
