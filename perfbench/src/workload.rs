//! The four workloads and the closed-loop client that drives them.
//!
//! Each workload is one client on the main thread sending its next request
//! only after the previous one completed (a closed loop). Requests go
//! round-robin over the workload's kernels — one sample per kernel per
//! round, never a block of samples per kernel — so a slow phase of a shared
//! host lands on every kernel alike instead of on whichever kernel happened
//! to be timed then. Every request draws fresh inputs from the run's seed
//! and is checked against the kernel specification's reference
//! (`KernelSpec::eval_concrete` on the spec's output mask), which is
//! independent of the compiler.

use crate::args::RunArgs;
use crate::backend::{config_label, Backend};
use crate::json::Value;
use crate::layers;
use crate::metrics::{Measured, OPT_PASSES, SYNTH_KERNELS};
use crate::speed::HostSpeed;
use crate::stats::{geomean, median, tail, TAIL_MIN_BEYOND};
use crate::trace::Tracer;
use porcupine::cegis::{synthesize, CachePolicy, SearchStrategy, SynthesisOptions};
use porcupine::codegen::Runner;
use porcupine::opt::{optimize_with, OptLevel, OptReport};
use porcupine::scheme::{analyze_noise, resolve_params, BfvScheme, BgvScheme, Scheme};
use porcupine::spec::{Example, KernelSpec};
use porcupine_kernels::{composite, direct_kernel, stencil, PaperKernel, DIRECT_NAMES};
use quill::cost::LatencyModel;
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlwe_ring::params::{ParamPolicy, RlweParams};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All eleven paper programs at `-O2` on one BFV `fast_4096` context,
    /// one evaluation thread.
    Bfv4096Seq,
    /// The same programs under BGV, each at its own automatically selected
    /// parameters.
    BgvAutoSeq,
    /// The Sobel and Harris pipelines on BFV `fast_4096` with two
    /// evaluation threads.
    BfvPipelinesPar2,
    /// Spec to decrypted slots: cold synthesis, `-O2`, automatic BFV
    /// parameters, context and keys, encrypt, run, decrypt — then the same
    /// again against a warm disk cache.
    CompileCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Bfv4096Seq,
        Workload::BgvAutoSeq,
        Workload::BfvPipelinesPar2,
        Workload::CompileCold,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bfv4096Seq => "bfv-4096-seq",
            Workload::BgvAutoSeq => "bgv-auto-seq",
            Workload::BfvPipelinesPar2 => "bfv-pipelines-par2",
            Workload::CompileCold => "compile-cold",
        }
    }

    /// How a request's time grows with the host slowdown the probe
    /// measures, as an exponent of that slowdown; its request timings are
    /// divided by the slowdown to this power (see [`crate::speed`]). The HE
    /// workloads' requests are ring arithmetic like the probe: 1.
    /// `compile-cold`'s are mostly synthesis and context construction
    /// (hashing, allocation, prime search by division), which slow down less
    /// than the multiply-bound probe: over 20 runs at probe slowdowns of 1.0
    /// to 2.05, its request time grew as the slowdown to the power 0.68 and
    /// its request-weighted throughput as the power 0.8. Its kernel and
    /// client timings are ring arithmetic and use the slowdown itself.
    pub fn request_sensitivity(self) -> f64 {
        match self {
            Workload::CompileCold => 0.7,
            _ => 1.0,
        }
    }

    /// Threads the workload evaluates kernels on.
    pub fn eval_jobs(self) -> usize {
        match self {
            Workload::BfvPipelinesPar2 => 2,
            _ => 1,
        }
    }

    /// The workload with this command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Least set-ups per run; `setup_s` is their median. A set-up is everything
/// until the workload has answered each of its kernels once — compiling,
/// parameters, contexts, keys, and one untimed round of requests — so work
/// moved into lazily initialized state on the first request shows in
/// `setup_s` too, instead of vanishing into an unmeasured warm-up.
const MIN_SETUPS: usize = 5;
/// Set-ups repeat until they have taken this long in all: a set-up of
/// 80 ms spreads by 15% from run to run, and more of them steady the median.
const SETUP_SECONDS: f64 = 2.0;
/// `peak_rss_mb` is read after this many timed rounds (or at the end of a
/// shorter run): the scratch pools keep growing with every request, so a
/// high-water mark read after a fixed amount of work — not after however
/// many requests a run of fixed length fits — is what repeats.
const RSS_ROUNDS: usize = 5;
/// Seed of the key and encryption randomness, the same in every run: the
/// noise a key leaves differs from key to key by more than a metric's bound
/// (the inputs, seeded with the run's seed, vary instead).
pub(crate) const KEY_SEED: u64 = 0x6B65_7973;
/// Budget a single cold synthesis may take before it counts as failed.
const SYNTH_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Requests attempted (including the warm-up round and layer checks).
    pub attempted: u64,
    /// Requests whose output or noise budget failed a check.
    pub failed: u64,
    /// The metrics of the run's mode (end-to-end or per-layer).
    pub metrics: Measured,
    /// Configuration tags (scheme, N, primes, threads, seed, git rev).
    pub tags: Vec<(String, Value)>,
    /// Human-readable per-kernel table with tail percentiles.
    pub table: String,
    /// Spans recorded by a traced run.
    pub tracer: Tracer,
}

/// Runs one workload as `args` asks: untraced for the end-to-end metrics, or
/// traced — half the time on the workload, half on the ring, op and
/// compiler layer microbenchmarks — for the per-layer metrics.
pub fn run(args: &RunArgs, scratch: &Path) -> RunOutput {
    let mut tracer = Tracer::new(args.trace);
    let mut speed = HostSpeed::new(args.workload.eval_jobs());
    let workload_s = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let fast_4096 = || ParamPolicy::Fixed(RlweParams::fast_4096());
    let (t, sp) = (&mut tracer, &mut speed);
    let mut out = match args.workload {
        Workload::Bfv4096Seq => {
            run_he::<BfvScheme>(paper_cases, fast_4096(), args, workload_s, t, sp)
        }
        Workload::BgvAutoSeq => {
            run_he::<BgvScheme>(paper_cases, ParamPolicy::auto(), args, workload_s, t, sp)
        }
        Workload::BfvPipelinesPar2 => {
            run_he::<BfvScheme>(pipeline_cases, fast_4096(), args, workload_s, t, sp)
        }
        Workload::CompileCold => run_compile_cold(args.seed, workload_s, scratch, t, sp),
    };
    out.normalize(&speed, args.workload.request_sensitivity());
    let (mut attempted, mut failed) = (out.tally.attempted, out.tally.failed);
    let metrics = if args.trace {
        let seconds = args.seconds as f64 - workload_s;
        let layers = layers::measure(seconds, args.seed, scratch, &mut speed);
        attempted += layers.checks;
        failed += layers.failed;
        let mut m = out.per_layer(&tracer, &layers.models);
        m.extend(layers.metrics);
        m
    } else {
        out.end_to_end()
    };
    let mut tags = vec![
        ("workload".to_string(), Value::str(args.workload.name())),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds as f64)),
        ("trace".to_string(), Value::Bool(args.trace)),
    ];
    tags.extend(out.tags.iter().cloned());
    tags.push((
        "host_slowdown".to_string(),
        Value::Num(speed.run_slowdown()),
    ));
    tags.extend(host_tags());
    RunOutput {
        attempted,
        failed,
        table: out.table(),
        metrics,
        tags,
        tracer,
    }
}

/// Tags describing the machine and source the numbers came from.
pub fn host_tags() -> Vec<(String, Value)> {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    vec![
        (
            "available_parallelism".to_string(),
            Value::Num(threads as f64),
        ),
        ("git_rev".to_string(), Value::str(git_rev())),
    ]
}

/// The checked-out commit, from a `.git` directory in the working directory
/// only (never a parent's), else `unknown`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

// ------------------------------------------------------------- kernels --

/// A kernel as the HE workloads receive it: its specification (the
/// reference outputs are checked against) and a hand-written program.
struct Case {
    name: String,
    spec: KernelSpec,
    raw: Program,
}

/// The eleven paper programs: the nine direct kernels plus the Sobel and
/// Harris multi-step pipelines, all as hand-written baselines.
fn paper_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = DIRECT_NAMES
        .iter()
        .map(|name| {
            let k = direct_kernel(name, None).expect("registry name");
            Case {
                name: name.to_string(),
                spec: k.spec,
                raw: k.baseline,
            }
        })
        .collect();
    cases.extend(pipeline_cases());
    cases
}

/// The Sobel and Harris pipelines — the widest dependence DAGs.
fn pipeline_cases() -> Vec<Case> {
    let img = stencil::default_image();
    vec![
        Case {
            name: "sobel".into(),
            spec: composite::sobel_spec(img),
            raw: composite::sobel_baseline(img),
        },
        Case {
            name: "harris".into(),
            spec: composite::harris_spec(img),
            raw: composite::harris_baseline(img),
        },
    ]
}

/// A freshly built kernel of [`SYNTH_KERNELS`] (fresh, so nothing memoized
/// on an earlier specification instance is reused).
pub(crate) fn synth_kernel(name: &str) -> PaperKernel {
    let n = stencil::default_image().slots();
    match name {
        "sobel-combine" => composite::sobel_combine(n),
        "harris-det" => composite::harris_det(n),
        "harris-trace" => composite::harris_trace(n),
        _ => direct_kernel(name, None).expect("synthesis kernel names are registry names"),
    }
}

/// Options of a cold, single-threaded synthesis for BFV with automatic
/// parameters, caching under `dir`.
pub(crate) fn synth_options(dir: &Path) -> SynthesisOptions {
    SynthesisOptions {
        timeout: SYNTH_TIMEOUT,
        parallelism: NonZeroUsize::MIN,
        opt_level: OptLevel::O2,
        scheme: SchemeId::Bfv,
        latency: LatencyModel::profiled_for(SchemeId::Bfv),
        params: ParamPolicy::auto(),
        strategy: SearchStrategy::BottomUp,
        cache: CachePolicy::At(dir.to_path_buf()),
        ..SynthesisOptions::default()
    }
}

/// What the metrics need to know about one kernel of a workload.
struct KernelInfo {
    name: String,
    scheme: SchemeId,
    n: usize,
    primes: usize,
    report: OptReport,
    modeled_us: f64,
    prog: Program,
}

impl KernelInfo {
    fn new(
        name: &str,
        scheme: SchemeId,
        params: &RlweParams,
        prog: Program,
        report: OptReport,
    ) -> Self {
        let (n, primes) = (params.poly_degree, params.moduli.len());
        KernelInfo {
            name: name.to_string(),
            scheme,
            n,
            primes,
            report,
            modeled_us: LatencyModel::profiled_for(scheme)
                .scaled_to(n, primes)
                .program_latency(&prog),
            prog,
        }
    }
}

// ------------------------------------------------------------- samples --

/// One timed request. Times are in seconds as measured; divided by `slow`
/// they are in reference seconds (see [`crate::speed`]).
struct Sample {
    kernel: usize,
    /// `compile-cold`'s repeat against the warm disk cache.
    warm: bool,
    /// Recorded with spans (the traced run alternates traced and untraced
    /// requests to measure tracing overhead in one process).
    traced: bool,
    start: Instant,
    end: Instant,
    run_s: f64,
    encrypt_s: f64,
    decrypt_s: f64,
    /// Buffers the runner's scratch pool freshly allocated during the run.
    pool_fresh: u64,
    /// Measured noise budget of the output, in bits.
    budget: i64,
    /// Host slowdown around the request; set when the run is over.
    slow: f64,
    /// The slowdown the whole request is divided by (see
    /// [`Workload::request_sensitivity`]); set when the run is over.
    request_slow: f64,
}

impl Sample {
    fn request_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The request's time in reference seconds.
    fn request_ref_s(&self) -> f64 {
        self.request_s() / self.request_slow
    }
}

/// One timed round of a closed loop, or one set-up.
struct Round {
    requests: usize,
    start: Instant,
    end: Instant,
    /// Seconds the round was busy: for a timed round, the sum of its
    /// requests, so the benchmark's own work between them (host-speed
    /// probes, drawing inputs, checking outputs) is left out; for a set-up,
    /// its wall time with the probes left out.
    busy_s: f64,
    /// Host slowdown over the round, to the workload's request
    /// sensitivity; set when the run is over.
    slow: f64,
}

impl Round {
    /// A set-up of `requests` that began at `start`, when `speed` had spent
    /// `probing`, and ends now; the probes since are left out.
    fn since(requests: usize, start: Instant, probing: Duration, speed: &HostSpeed) -> Round {
        let end = Instant::now();
        Round {
            requests,
            start,
            end,
            busy_s: (end - start)
                .saturating_sub(speed.spent() - probing)
                .as_secs_f64(),
            slow: f64::NAN,
        }
    }

    /// The round's busy time in reference seconds.
    fn ref_s(&self) -> f64 {
        self.busy_s / self.slow
    }
}

/// Counts and samples of one run.
#[derive(Default)]
struct Tally {
    /// Requests of the timed rounds that passed every compiler stage.
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Smallest measured-minus-predicted noise budget seen.
    min_slack: Option<f64>,
    rounds: Vec<Round>,
    peak_rss_mb: Option<f64>,
}

impl Tally {
    /// Counts one request: it failed if a masked slot differs from the
    /// reference, the measured noise budget is exhausted, or the measured
    /// budget falls below the noise model's prediction.
    fn check(&mut self, name: &str, x: &Execution, predicted: f64) {
        self.attempted += 1;
        if !(x.slots_ok && x.budget > 0 && x.budget as f64 >= predicted) {
            self.failed += 1;
            eprintln!(
                "FAILED {name}: slots {}, budget {} bits (predicted {predicted:.1})",
                if x.slots_ok { "match" } else { "differ" },
                x.budget
            );
        }
        let slack = x.budget as f64 - predicted;
        self.min_slack = Some(self.min_slack.map_or(slack, |s| s.min(slack)));
    }

    fn fail(&mut self, name: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {name}: {why}");
    }
}

/// The single client of a closed loop.
trait Client {
    /// Sends round `r`: one request per kernel, keeping the samples when
    /// `timed`.
    fn round(&mut self, r: usize, timed: bool, tally: &mut Tally, tracer: &mut Tracer);
}

/// Whether enough set-ups have run (see [`MIN_SETUPS`]).
fn setups_done(setups: &[Round]) -> bool {
    setups.len() >= MIN_SETUPS && setups.iter().map(|s| s.busy_s).sum::<f64>() >= SETUP_SECONDS
}

/// The timed part of the closed loop: rounds `first, first + 1, …` until
/// `seconds` have passed (set-up `i` served round `i`, untimed).
fn timed_rounds(
    client: &mut impl Client,
    first: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
    seconds: f64,
) {
    let begin = Instant::now();
    for r in first.. {
        let (start, before) = (Instant::now(), tally.samples.len());
        client.round(r, true, tally, tracer);
        let served = &tally.samples[before..];
        tally.rounds.push(Round {
            requests: served.len(),
            start,
            end: Instant::now(),
            busy_s: served.iter().map(Sample::request_s).sum(),
            slow: f64::NAN,
        });
        if tally.rounds.len() == RSS_ROUNDS {
            tally.peak_rss_mb = Some(peak_rss_mb());
        }
        if begin.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tally.peak_rss_mb.get_or_insert_with(peak_rss_mb);
}

/// One workload run before the metrics are derived.
struct Outcome {
    kernels: Vec<KernelInfo>,
    tally: Tally,
    /// The set-ups, timed like rounds.
    setups: Vec<Round>,
    tags: Vec<(String, Value)>,
}

impl Outcome {
    /// Sets the host slowdown of every timed request, round and set-up;
    /// whole requests, rounds and set-ups take it to the power
    /// `sensitivity`.
    fn normalize(&mut self, speed: &HostSpeed, sensitivity: f64) {
        for s in &mut self.tally.samples {
            s.slow = speed.slowdown(s.start, s.end);
            s.request_slow = s.slow.powf(sensitivity);
        }
        for r in self.tally.rounds.iter_mut().chain(&mut self.setups) {
            r.slow = speed.slowdown(r.start, r.end).powf(sensitivity);
        }
    }

    /// `f` over kernel `k`'s samples passing `keep`.
    fn values(
        &self,
        k: usize,
        keep: impl Fn(&Sample) -> bool,
        f: impl Fn(&Sample) -> f64,
    ) -> Vec<f64> {
        self.tally
            .samples
            .iter()
            .filter(|s| s.kernel == k && keep(s))
            .map(f)
            .collect()
    }

    /// Geometric mean over kernels of each kernel's median of `f` (reference
    /// seconds), in reference ms — the form of every `_p50` metric.
    fn p50_ms(
        &self,
        keep: impl Fn(&Sample) -> bool + Copy,
        f: impl Fn(&Sample) -> f64 + Copy,
    ) -> f64 {
        let per_kernel: Vec<f64> = (0..self.kernels.len())
            .map(|k| self.values(k, keep, f))
            .filter(|v| !v.is_empty())
            .map(|v| median(&v))
            .collect();
        geomean(&per_kernel) * 1e3
    }

    /// Request latency over cold requests: `compile-cold`'s warm repeats
    /// are reported per layer (`cache.disk_hit_ms`).
    fn request_ms(&self, keep: impl Fn(&Sample) -> bool + Copy) -> f64 {
        self.p50_ms(move |s| !s.warm && keep(s), Sample::request_ref_s)
    }

    fn end_to_end(&self) -> Measured {
        let t = &self.tally;
        let all = |_: &Sample| true;
        let mut m = Measured::default();
        let setups: Vec<f64> = self.setups.iter().map(Round::ref_s).collect();
        m.set("setup_s", median(&setups));
        m.set("request_ms_p50", self.request_ms(all));
        m.set("kernel_ms_p50", self.p50_ms(all, |s| s.run_s / s.slow));
        m.set(
            "client_ms_p50",
            self.p50_ms(all, |s| (s.encrypt_s + s.decrypt_s) / s.slow),
        );
        let rates: Vec<f64> = t
            .rounds
            .iter()
            .map(|r| r.requests as f64 / r.ref_s())
            .collect();
        m.set("throughput_rps", median(&rates));
        let budgets: Vec<f64> = (0..self.kernels.len())
            .map(|k| self.values(k, all, |s| s.budget as f64))
            .filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        m.set(
            "noise_budget_bits",
            budgets.iter().sum::<f64>() / budgets.len() as f64,
        );
        m.set(
            "code_instrs",
            self.kernels.iter().map(|k| k.prog.len()).sum::<usize>() as f64,
        );
        m.set(
            "peak_rss_mb",
            t.peak_rss_mb.expect("set by the closed loop"),
        );
        m
    }

    fn per_layer(&self, tracer: &Tracer, models: &[layers::OpModel]) -> Measured {
        let t = &self.tally;
        let all = |_: &Sample| true;
        let mut m = Measured::default();
        let kernel_ms = self.p50_ms(all, |s| s.run_s / s.slow);
        m.set("kernel.ms_p50", kernel_ms);
        // The tail pools every kernel's samples as ratios to that kernel's
        // median; with too few samples for a tail percentile, the worst
        // ratio.
        let ratios: Vec<f64> = (0..self.kernels.len())
            .flat_map(|k| {
                let v = self.values(k, all, |s| s.run_s / s.slow);
                let base = if v.is_empty() { 1.0 } else { median(&v) };
                v.into_iter().map(move |x| x / base)
            })
            .collect();
        let tail_ratio =
            tail(&ratios).map_or_else(|| ratios.iter().copied().fold(1.0, f64::max), |tl| tl.value);
        m.set("kernel.ms_tail", kernel_ms * tail_ratio);
        let ratio_to = |cost_us: &dyn Fn(&KernelInfo) -> f64| -> f64 {
            let v: Vec<f64> = self
                .kernels
                .iter()
                .enumerate()
                .map(|(k, info)| (self.values(k, all, |s| s.run_s / s.slow), info))
                .filter(|(v, _)| !v.is_empty())
                .map(|(v, info)| median(&v) * 1e6 / cost_us(info))
                .collect();
            geomean(&v)
        };
        m.set("kernel.model_ratio", ratio_to(&|k| k.modeled_us));
        m.set(
            "kernel.replay_ratio",
            ratio_to(&|k| {
                layers::replay_model(models, k.scheme, k.n, k.primes).program_latency(&k.prog)
            }),
        );
        m.set(
            "kernel.client_encrypt_ms",
            self.p50_ms(all, |s| s.encrypt_s / s.slow),
        );
        m.set(
            "kernel.client_decrypt_ms",
            self.p50_ms(all, |s| s.decrypt_s / s.slow),
        );
        let fresh: u64 = t.samples.iter().map(|s| s.pool_fresh).sum();
        m.set("op.pool_fresh", fresh as f64 / t.samples.len() as f64);

        let span_ms = |name: &str| {
            let per_subject: Vec<f64> = tracer
                .durations_by_subject(name)
                .iter()
                .map(|(_, d)| median(d) * 1e3)
                .collect();
            geomean(&per_subject)
        };
        m.set("opt.us", span_ms("optimize_with") * 1e3);
        let reports = || self.kernels.iter().map(|k| &k.report);
        m.set(
            "opt.sweeps",
            reports().map(|r| r.sweeps).sum::<usize>() as f64,
        );
        for pass in OPT_PASSES {
            let n: usize = reports()
                .flat_map(|r| r.passes.iter())
                .filter(|(p, _)| *p == pass)
                .map(|(_, n)| n)
                .sum();
            m.set(format!("opt.rewrites.{pass}"), n as f64);
        }
        m.set("params.select_ms", span_ms("resolve_params"));
        m.set(
            "params.noise_slack_bits_min",
            t.min_slack.expect("at least one request"),
        );
        // Mean time per set-up (HE workloads) or per request (compile-cold,
        // whose kernels differ in the keys they need), summed over the
        // contexts it builds.
        for (metric, span) in [
            ("setup.context_ms", "context"),
            ("setup.keygen_ms", "keygen"),
            ("setup.relin_key_ms", "relin_key"),
            ("setup.galois_keys_ms", "galois_keys"),
        ] {
            let totals = tracer.totals_by_request(span);
            m.set(
                metric,
                totals.iter().sum::<f64>() / totals.len() as f64 * 1e3,
            );
        }
        let traced = self.request_ms(|s| s.traced);
        let untraced = self.request_ms(|s| !s.traced);
        m.set("trace.overhead", traced / untraced - 1.0);
        m
    }

    /// Per kernel: configuration, size, sample count, request and kernel
    /// medians (reference ms, and the kernel as measured), the kernel tail
    /// percentile with the samples behind it, the modeled latency, and the
    /// measured noise budget (min/median/max).
    fn table(&self) -> String {
        let mut out = format!(
            "{:<22} {:>9} {:>6} {:>5} {:>11} {:>11} {:>11} {:>26} {:>11} {:>12}\n",
            "kernel",
            "config",
            "instrs",
            "n",
            "request p50",
            "kernel p50",
            "as measured",
            "kernel tail as measured",
            "modeled",
            "budget bits"
        );
        let all = |_: &Sample| true;
        for (k, info) in self.kernels.iter().enumerate() {
            let runs = self.values(k, all, |s| s.run_s * 1e3);
            if runs.is_empty() {
                continue;
            }
            let tail_text = tail(&runs).map_or_else(
                || format!("(<{TAIL_MIN_BEYOND} beyond p50)"),
                |tl| format!("p{} {:.3} ms ({} beyond)", tl.pct, tl.value, tl.beyond),
            );
            let budgets = self.values(k, all, |s| s.budget as f64);
            let (lo, hi) = budgets
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &b| (lo.min(b), hi.max(b)));
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>6} {:>5} {:>8.3} ms {:>8.3} ms {:>8.3} ms {:>26} {:>8.3} ms {:>4}/{}/{}",
                info.name,
                config_label(info.n, info.primes),
                info.prog.len(),
                runs.len(),
                median(&self.values(k, |s| !s.warm, |s| s.request_ref_s() * 1e3)),
                median(&self.values(k, all, |s| s.run_s / s.slow * 1e3)),
                median(&runs),
                tail_text,
                info.modeled_us / 1e3,
                lo,
                median(&budgets),
                hi,
            );
            let warm = self.values(k, |s| s.warm, |s| s.request_ref_s() * 1e3);
            if !warm.is_empty() {
                let _ = writeln!(out, "{:<22} warm request p50 {:.3} ms", "", median(&warm));
            }
        }
        out
    }
}

// ------------------------------------------------- the HE workloads --

/// A kernel of an HE workload after `-O2` and parameter resolution.
struct Prepared {
    case: Case,
    prog: Program,
    report: OptReport,
    params: RlweParams,
    predicted_bits: f64,
    /// Index of the context (distinct parameter set) it runs under.
    context: usize,
}

/// Keys, client and runner for one context.
struct Session<'c, B: Backend> {
    label: String,
    enc: B::Encryptor<'c>,
    dec: B::Decryptor<'c>,
    kg: B::KeyGenerator<'c>,
    runner: Runner<'c, B>,
    steps: Vec<i64>,
}

fn label(p: &RlweParams) -> String {
    config_label(p.poly_degree, p.moduli.len())
}

/// Lowers every case at `-O2` under the scheme's legality, resolves its
/// parameters and builds one context per distinct parameter set.
fn prepare<B: Backend>(
    cases: Vec<Case>,
    policy: &ParamPolicy,
    tracer: &mut Tracer,
    id: u64,
) -> (Vec<Prepared>, Vec<B::Context>) {
    let parent = Some("setup");
    let mut distinct: Vec<RlweParams> = Vec::new();
    let prepared = cases
        .into_iter()
        .map(|case| {
            let (prog, report) = tracer.span("optimize_with", id, parent, &case.name, || {
                optimize_with(&case.raw, OptLevel::O2, &B::ID.legality())
            });
            let params = tracer
                .span("resolve_params", id, parent, &case.name, || {
                    resolve_params(B::ID, policy, &prog, case.spec.n, case.spec.t)
                })
                .unwrap_or_else(|e| {
                    panic!("{} [{}]: parameter selection failed: {e}", case.name, B::ID)
                });
            let predicted_bits = analyze_noise(B::ID, &params, &prog).predicted_budget_bits;
            let context = distinct
                .iter()
                .position(|p| *p == params)
                .unwrap_or_else(|| {
                    distinct.push(params.clone());
                    distinct.len() - 1
                });
            Prepared {
                case,
                prog,
                report,
                params,
                predicted_bits,
                context,
            }
        })
        .collect();
    let ctxs = distinct
        .iter()
        .map(|p| {
            tracer.span("context", id, parent, &label(p), || {
                B::context(p.clone()).expect("resolved parameters are valid")
            })
        })
        .collect();
    (prepared, ctxs)
}

/// Keys and a runner per context; in a traced run it also times the
/// relinearization and Galois key generation `Runner::for_programs` does
/// internally, as separate calls outside the timed set-up.
fn build_sessions<'c, B: Backend>(
    ctxs: &'c [B::Context],
    prepared: &[Prepared],
    jobs: usize,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    id: u64,
) -> Vec<Session<'c, B>> {
    let parent = Some("setup");
    ctxs.iter()
        .enumerate()
        .map(|(c, ctx)| {
            let subject = label(B::params(ctx));
            let (kg, enc, dec) = tracer.span("keygen", id, parent, &subject, || {
                let kg = B::keygen(ctx, rng);
                let enc = B::encryptor(ctx, &kg, rng);
                let dec = B::decryptor(ctx, &kg);
                (kg, enc, dec)
            });
            let progs: Vec<&Program> = prepared
                .iter()
                .filter(|p| p.context == c)
                .map(|p| &p.prog)
                .collect();
            let runner = tracer.span("runner_keys", id, parent, &subject, || {
                Runner::<B>::for_programs(ctx, &kg, &progs, rng).with_eval_jobs(jobs)
            });
            let mut steps: Vec<i64> = progs.iter().flat_map(|p| p.rotation_amounts()).collect();
            steps.sort_unstable();
            steps.dedup();
            Session {
                label: subject,
                enc,
                dec,
                kg,
                runner,
                steps,
            }
        })
        .collect()
}

fn trace_key_split<B: Backend>(
    sessions: &[Session<'_, B>],
    rng: &mut StdRng,
    tracer: &mut Tracer,
    id: u64,
) {
    if !tracer.enabled() {
        return;
    }
    for s in sessions {
        tracer.span("relin_key", id, Some("setup"), &s.label, || {
            B::relin_key(&s.kg, rng)
        });
        tracer.span("galois_keys", id, Some("setup"), &s.label, || {
            B::galois_keys(&s.kg, &s.steps, false, rng)
        });
    }
}

/// What one encrypt → run → decrypt produced.
struct Execution {
    /// When decoding finished: the end of the request. The checks after it
    /// are the benchmark's own work, not the compiler's.
    end: Instant,
    run_s: f64,
    encrypt_s: f64,
    decrypt_s: f64,
    budget: i64,
    slots_ok: bool,
    pool_fresh: u64,
}

impl Execution {
    /// The sample of a request from `start` that made this execution, as
    /// kernel 0, cold and untraced.
    fn sample(&self, start: Instant) -> Sample {
        Sample {
            kernel: 0,
            warm: false,
            traced: false,
            start,
            end: self.end,
            run_s: self.run_s,
            encrypt_s: self.encrypt_s,
            decrypt_s: self.decrypt_s,
            pool_fresh: self.pool_fresh,
            budget: self.budget,
            slow: f64::NAN,
            request_slow: f64::NAN,
        }
    }
}

/// The client and server halves of one request on prepared keys: encode and
/// encrypt the inputs, run the program, decrypt and decode — then, after the
/// request's `end`, compare the masked slots with the reference and measure
/// the noise budget.
#[allow(clippy::too_many_arguments)]
fn execute<B: Backend>(
    runner: &Runner<'_, B>,
    enc: &B::Encryptor<'_>,
    dec: &B::Decryptor<'_>,
    prog: &Program,
    mask: &[bool],
    example: &Example,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    id: u64,
    subject: &str,
) -> Execution {
    let coder = runner.encoder();
    let ev = runner.evaluator();
    let t0 = Instant::now();
    let cts: Vec<B::Ciphertext> = example
        .ct_inputs
        .iter()
        .map(|v| B::encrypt(enc, &B::encode(coder, v), rng))
        .collect();
    let pts: Vec<B::EvalPlaintext> = example
        .pt_inputs
        .iter()
        .map(|v| B::preencode(ev, &B::encode(coder, v)))
        .collect();
    let ct_refs: Vec<&B::Ciphertext> = cts.iter().collect();
    let pt_refs: Vec<&B::EvalPlaintext> = pts.iter().collect();
    let fresh = B::pool_fresh(ev);
    let t1 = Instant::now();
    let out = runner.run_encoded(prog, &ct_refs, &pt_refs);
    let t2 = Instant::now();
    let pool_fresh = B::pool_fresh(ev) - fresh;
    let slots = B::decode(coder, &B::decrypt(dec, &out));
    let t3 = Instant::now();
    tracer.record("encrypt", id, Some("request"), subject, t0, t1);
    tracer.record("run_encoded", id, Some("request"), subject, t1, t2);
    tracer.record("decrypt", id, Some("request"), subject, t2, t3);
    let slots_ok = mask
        .iter()
        .zip(&example.output)
        .enumerate()
        .all(|(i, (&on, &want))| !on || slots[i] == want);
    Execution {
        end: t3,
        run_s: (t2 - t1).as_secs_f64(),
        encrypt_s: (t1 - t0).as_secs_f64(),
        decrypt_s: (t3 - t2).as_secs_f64(),
        budget: B::noise_budget(dec, &out),
        slots_ok,
        pool_fresh,
    }
}

/// The client of an HE workload: sends one request per kernel per round
/// over prepared sessions, each with fresh inputs.
struct HeClient<'a, 'c, B: Backend> {
    prepared: &'a [Prepared],
    sessions: &'a [Session<'c, B>],
    inputs: &'a mut StdRng,
    next_id: &'a mut u64,
    rng: StdRng,
    untraced: Tracer,
    speed: &'a mut HostSpeed,
}

impl<B: Backend> Client for HeClient<'_, '_, B> {
    /// A traced run records spans for every other request, alternating by
    /// round.
    fn round(&mut self, r: usize, timed: bool, tally: &mut Tally, tracer: &mut Tracer) {
        for (k, p) in self.prepared.iter().enumerate() {
            self.speed.tick();
            let s = &self.sessions[p.context];
            let example = p.case.spec.sample_example(self.inputs);
            let traced = tracer.enabled() && (r + k).is_multiple_of(2);
            let t = if traced {
                &mut *tracer
            } else {
                &mut self.untraced
            };
            let id = *self.next_id;
            *self.next_id += 1;
            let name = &p.case.name;
            let start = Instant::now();
            let x = execute::<B>(
                &s.runner,
                &s.enc,
                &s.dec,
                &p.prog,
                &p.case.spec.output_mask,
                &example,
                &mut self.rng,
                t,
                id,
                name,
            );
            t.record("request", id, None, name, start, x.end);
            tally.check(name, &x, p.predicted_bits);
            if timed {
                tally.samples.push(Sample {
                    kernel: k,
                    traced,
                    ..x.sample(start)
                });
            }
        }
    }
}

/// One HE workload: timed set-ups — `-O2`, parameters, contexts, keys,
/// runners and one round of requests — then timed rounds on the last.
fn run_he<B: Backend>(
    cases: fn() -> Vec<Case>,
    policy: ParamPolicy,
    args: &RunArgs,
    seconds: f64,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
) -> Outcome {
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    let (seed, jobs) = (args.seed, args.workload.eval_jobs());
    let mut inputs = StdRng::seed_from_u64(seed);
    let mut next_id = 0;
    loop {
        let id = next_id;
        next_id += 1;
        let mut rng = StdRng::seed_from_u64(KEY_SEED);
        speed.sample();
        let (start, probing) = (Instant::now(), speed.spent());
        let (prepared, ctxs) = prepare::<B>(cases(), &policy, tracer, id);
        let sessions = build_sessions::<B>(&ctxs, &prepared, jobs, &mut rng, tracer, id);
        let mut client = HeClient {
            prepared: &prepared,
            sessions: &sessions,
            inputs: &mut inputs,
            next_id: &mut next_id,
            rng,
            untraced: Tracer::new(false),
            speed: &mut *speed,
        };
        client.round(setups.len(), false, &mut tally, tracer);
        let setup = Round::since(prepared.len(), start, probing, client.speed);
        client.speed.sample();
        tracer.record("setup", id, None, "", setup.start, setup.end);
        setups.push(setup);
        trace_key_split(&sessions, &mut client.rng, tracer, id);
        if !setups_done(&setups) {
            continue;
        }
        timed_rounds(&mut client, setups.len(), &mut tally, tracer, seconds);
        let contexts = sessions
            .iter()
            .enumerate()
            .map(|(c, s)| {
                let kernels = prepared
                    .iter()
                    .filter(|p| p.context == c)
                    .map(|p| Value::str(p.case.name.clone()));
                Value::obj([
                    ("config", Value::str(s.label.clone())),
                    ("kernels", Value::Arr(kernels.collect())),
                ])
            })
            .collect();
        return Outcome {
            kernels: prepared
                .iter()
                .map(|p| {
                    KernelInfo::new(
                        &p.case.name,
                        B::ID,
                        &p.params,
                        p.prog.clone(),
                        p.report.clone(),
                    )
                })
                .collect(),
            tally,
            setups,
            tags: vec![
                ("scheme".to_string(), Value::str(B::ID.name())),
                ("eval_jobs".to_string(), Value::Num(jobs as f64)),
                ("contexts".to_string(), Value::Arr(contexts)),
            ],
        };
    }
}

// ---------------------------------------------------- compile-cold --

/// The client of `compile-cold`. Every request is spec → decrypted slots
/// with nothing reused — a fresh specification instance, a cold synthesis
/// (in-process memo cleared, an empty disk cache, one search thread),
/// `-O2`, automatic BFV parameters, a new context and keys, then encrypt,
/// run, decrypt and check. Each round first sends every kernel cold, then
/// repeats every request against the disk cache the cold requests filled
/// (memo cleared again) — what a second process compiling the same kernels
/// meets.
struct ColdClient<'a> {
    root: &'a Path,
    kernels: Vec<Option<KernelInfo>>,
    inputs: StdRng,
    rng: StdRng,
    next_id: u64,
    untraced: Tracer,
    speed: &'a mut HostSpeed,
}

impl Client for ColdClient<'_> {
    fn round(&mut self, r: usize, timed: bool, tally: &mut Tally, tracer: &mut Tracer) {
        let dir = self.root.join(format!("round-{r}"));
        for warm in [false, true] {
            for (k, name) in SYNTH_KERNELS.iter().enumerate() {
                self.speed.tick();
                let traced = tracer.enabled() && (r + k).is_multiple_of(2);
                let t = if traced {
                    &mut *tracer
                } else {
                    &mut self.untraced
                };
                let id = self.next_id;
                self.next_id += 1;
                let Some((sample, info)) =
                    compile_request(name, &dir, &mut self.inputs, &mut self.rng, t, id, tally)
                else {
                    continue;
                };
                self.kernels[k].get_or_insert(info);
                if timed {
                    tally.samples.push(Sample {
                        kernel: k,
                        warm,
                        traced,
                        ..sample
                    });
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `compile-cold`: set-ups (the cache root and one round each), then timed
/// rounds.
fn run_compile_cold(
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
) -> Outcome {
    let root = scratch.join("compile-cold");
    let mut client = ColdClient {
        root: &root,
        kernels: SYNTH_KERNELS.iter().map(|_| None).collect(),
        inputs: StdRng::seed_from_u64(seed),
        rng: StdRng::seed_from_u64(KEY_SEED),
        next_id: 0,
        untraced: Tracer::new(false),
        speed,
    };
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    while !setups_done(&setups) {
        std::fs::create_dir_all(&root).expect("create the synthesis cache root");
        let (start, probing) = (Instant::now(), client.speed.spent());
        client.round(setups.len(), false, &mut tally, tracer);
        let requests = SYNTH_KERNELS.len() * 2;
        setups.push(Round::since(requests, start, probing, client.speed));
        client.speed.sample();
    }
    timed_rounds(&mut client, setups.len(), &mut tally, tracer, seconds);
    let _ = std::fs::remove_dir_all(&root);
    Outcome {
        kernels: client
            .kernels
            .into_iter()
            .zip(SYNTH_KERNELS)
            .map(|(k, name)| k.unwrap_or_else(|| panic!("{name}: every request failed")))
            .collect(),
        tally,
        setups,
        tags: vec![
            ("scheme".to_string(), Value::str("bfv")),
            ("eval_jobs".to_string(), Value::Num(1.0)),
            ("synthesis_jobs".to_string(), Value::Num(1.0)),
        ],
    }
}

/// One `compile-cold` request; `None` (counted as failed) when a compiler
/// stage returns an error.
fn compile_request(
    name: &str,
    dir: &Path,
    inputs: &mut StdRng,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    id: u64,
    tally: &mut Tally,
) -> Option<(Sample, KernelInfo)> {
    type B = BfvScheme;
    porcupine::clear_synthesis_memo();
    let kernel = synth_kernel(name);
    let spec = &kernel.spec;
    let example = spec.sample_example(inputs);
    let parent = Some("request");
    let start = Instant::now();
    let synthesized = tracer.span("synthesize", id, parent, name, || {
        synthesize(spec, &kernel.sketch, &synth_options(dir))
    });
    let synthesized = match synthesized {
        Ok(r) => r,
        Err(e) => {
            tally.fail(name, &format!("synthesis: {e}"));
            return None;
        }
    };
    let (prog, report) = tracer.span("optimize_with", id, parent, name, || {
        optimize_with(&synthesized.program, OptLevel::O2, &B::ID.legality())
    });
    let params = tracer.span("resolve_params", id, parent, name, || {
        resolve_params(B::ID, &ParamPolicy::auto(), &prog, spec.n, spec.t)
    });
    let params = match params {
        Ok(p) => p,
        Err(e) => {
            tally.fail(name, &format!("parameter selection: {e}"));
            return None;
        }
    };
    let ctx = tracer.span("context", id, parent, name, || {
        B::context(params.clone()).expect("resolved parameters are valid")
    });
    let (kg, enc, dec) = tracer.span("keygen", id, parent, name, || {
        let kg = B::keygen(&ctx, rng);
        let enc = B::encryptor(&ctx, &kg, rng);
        let dec = B::decryptor(&ctx, &kg);
        (kg, enc, dec)
    });
    let runner = tracer.span("runner_keys", id, parent, name, || {
        Runner::<B>::for_programs(&ctx, &kg, &[&prog], rng).with_eval_jobs(1)
    });
    let x = execute::<B>(
        &runner,
        &enc,
        &dec,
        &prog,
        &spec.output_mask,
        &example,
        rng,
        tracer,
        id,
        name,
    );
    tracer.record("request", id, None, name, start, x.end);
    if tracer.enabled() {
        tracer.span("relin_key", id, parent, name, || B::relin_key(&kg, rng));
        tracer.span("galois_keys", id, parent, name, || {
            B::galois_keys(&kg, &prog.rotation_amounts(), false, rng)
        });
    }
    tally.check(
        name,
        &x,
        analyze_noise(B::ID, &params, &prog).predicted_budget_bits,
    );
    Some((
        x.sample(start),
        KernelInfo::new(name, B::ID, &params, prog, report),
    ))
}
