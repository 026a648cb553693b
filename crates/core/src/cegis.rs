//! The synthesis engine (§5, Algorithm 1): counter-example–guided inductive
//! synthesis with iterative sketch deepening and cost minimization.
//!
//! 1. **Initial solution.** For `L = 1, 2, …` search `sketch_L` for a
//!    program agreeing with the examples; verify symbolically; on failure
//!    add the counter-example and retry. The first verified program has the
//!    minimum component count.
//! 2. **Optimization.** Re-issue the query with the constraint
//!    `cost ≤ cost(best)` until the search returns the canonical cheapest
//!    program under the bound (the optimum within the sketch) or the
//!    timeout fires.
//!
//! Two enumeration strategies implement step 1 — the complete top-down DFS
//! of [`crate::search`] and the bottom-up term bank of `crate::bottom_up`
//! — selected by [`SynthesisOptions::strategy`] (default:
//! [`SearchStrategy::BottomUp`] with automatic DFS fallback, since the
//! bank's retention caps make it incomplete). Finished queries are stored
//! in a two-tier content-addressed cache governed by
//! [`SynthesisOptions::cache`]: an in-process memo (a repeated query in
//! one process — staged pipelines re-issue identical stage queries —
//! replays the already-verified result in microseconds) in front of the
//! persistent disk tier ([`crate::cache`]), whose entries are
//! **re-verified on read** before being trusted. Either tier's hit skips
//! the search entirely.

use crate::bottom_up::BottomUpOutcome;
use crate::cache::{self, CacheEntry, CacheKey};
use crate::opt::{self, OptLevel};
use crate::search::{SearchContext, SearchOutcome};
use crate::sketch::Sketch;
use crate::spec::{Example, KernelSpec};
use crate::verify::verify;
use quill::cost::{eager_cost, LatencyModel};
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlwe_ring::params::{ParamPolicy, RlweParams, SelectError};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The in-process memo tier: full results of finished queries this
/// process already verified, keyed by cache directory plus the same
/// canonical key text as the disk tier (the directory keeps the memo a
/// faithful mirror of one on-disk cache — two [`CachePolicy::At`]
/// directories never share entries, on disk or in memory). Serving from
/// here skips the disk read *and* the re-verification a disk entry
/// requires — entries only get in after this process verified them
/// (either by synthesizing or by re-verifying a disk entry), so a memo
/// hit is a trusted replay.
static MEMO: Mutex<BTreeMap<String, SynthesisResult>> = Mutex::new(BTreeMap::new());

fn memo_key(dir: &std::path::Path, key: &CacheKey) -> String {
    format!("{}\u{0}{}", dir.display(), key.text())
}

fn memo_lookup(dir: &std::path::Path, key: &CacheKey) -> Option<SynthesisResult> {
    MEMO.lock().ok()?.get(&memo_key(dir, key)).cloned()
}

fn memo_store(dir: &std::path::Path, key: &CacheKey, result: &SynthesisResult) {
    if let Ok(mut memo) = MEMO.lock() {
        memo.insert(memo_key(dir, key), result.clone());
    }
}

/// Drops every in-process memoized synthesis result, forcing the next
/// query of each key down to the persistent disk tier (read + re-verify).
/// For tests and benchmarks that target the disk tier specifically; a
/// normal caller never needs this.
pub fn clear_synthesis_memo() {
    if let Ok(mut memo) = MEMO.lock() {
        memo.clear();
    }
}

/// The worker-thread count for the enumerative search the `PORCUPINE_JOBS`
/// environment variable selects (when unset,
/// [`std::thread::available_parallelism`], otherwise 1), or an error naming
/// the variable unless it is a positive integer.
pub fn parallelism_from_env() -> Result<NonZeroUsize, String> {
    let jobs = crate::env_var("PORCUPINE_JOBS", "a positive integer", |v| v.parse().ok())?;
    Ok(jobs
        .or_else(|| std::thread::available_parallelism().ok())
        .unwrap_or(NonZeroUsize::MIN))
}

/// [`parallelism_from_env`], panicking on a malformed `PORCUPINE_JOBS` so a
/// typo'd CI leg fails instead of silently searching on every core.
pub fn default_parallelism() -> NonZeroUsize {
    parallelism_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Which enumerator answers the phase-1 synthesis queries.
///
/// Both strategies honor the determinism contract — same query, same
/// program, at any thread count — and phase 2 (cost minimization) always
/// runs on the DFS, whose bounded query returns the canonical cheapest
/// program of the space. They differ in scaling: the DFS is complete (its
/// `Unsat` is a proof) but exponential in the component count; the term
/// bank reuses deduplicated sub-terms and reaches past the ~10–12
/// instruction wall, at the price of retention caps that make a fruitless
/// search inconclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Bottom-up observational-equivalence term bank, falling back to the
    /// DFS when the capped bank exhausts without an answer (the default).
    BottomUp,
    /// Top-down iterative-deepening DFS only.
    Dfs,
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchStrategy::BottomUp => write!(f, "bottom-up"),
            SearchStrategy::Dfs => write!(f, "dfs"),
        }
    }
}

impl std::str::FromStr for SearchStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bottom-up" => Ok(SearchStrategy::BottomUp),
            "dfs" => Ok(SearchStrategy::Dfs),
            _ => Err(format!(
                "unknown strategy '{s}' (expected 'bottom-up' or 'dfs')"
            )),
        }
    }
}

/// The search strategy the `PORCUPINE_STRATEGY` environment variable
/// selects (`bottom-up` or `dfs`), bottom-up when unset, or an error naming
/// the variable for any other value.
pub fn strategy_from_env() -> Result<SearchStrategy, String> {
    let strategy = crate::env_var("PORCUPINE_STRATEGY", "'bottom-up' or 'dfs'", |v| {
        v.parse().ok()
    })?;
    Ok(strategy.unwrap_or(SearchStrategy::BottomUp))
}

/// [`strategy_from_env`], panicking on a malformed `PORCUPINE_STRATEGY` so
/// a typo'd CI leg fails instead of silently running bottom-up.
pub fn default_strategy() -> SearchStrategy {
    strategy_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Where (and whether) finished synthesis queries are cached on disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Never read or write the cache.
    Disabled,
    /// Use [`cache::default_cache_dir`] (`$PORCUPINE_CACHE_DIR`, else
    /// `$HOME/.cache/porcupine`); silently disabled when neither resolves.
    #[default]
    Enabled,
    /// Use a caller-chosen directory.
    At(PathBuf),
}

impl CachePolicy {
    /// The directory this policy reads and writes, if any.
    pub fn directory(&self) -> Option<PathBuf> {
        match self {
            CachePolicy::Disabled => None,
            CachePolicy::Enabled => cache::default_cache_dir(),
            CachePolicy::At(dir) => Some(dir.clone()),
        }
    }
}

/// Knobs for one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Total wall-clock budget (Algorithm 1 stops with the best program so
    /// far when it fires; the paper used a 20-minute no-progress timeout).
    pub timeout: Duration,
    /// Run the cost-minimization phase after the initial solution.
    pub optimize: bool,
    /// The latency model behind the cost objective.
    pub latency: LatencyModel,
    /// RNG seed (examples and counter-example sampling are deterministic
    /// given the seed).
    pub seed: u64,
    /// Worker threads for the search. The synthesized program and its cost
    /// are identical at every value (the determinism contract of
    /// [`crate::search`]); parallelism only changes wall-clock time.
    pub parallelism: NonZeroUsize,
    /// Middle-end level for the [`SynthesisResult::optimized`] program
    /// (the raw searched program is untouched). Defaults to
    /// [`opt::default_opt_level`] (`PORCUPINE_OPT` or `-O2`).
    pub opt_level: OptLevel,
    /// The target scheme backend. Gates which lowering passes run (via
    /// the scheme's instruction legality), selects the noise model behind
    /// parameter resolution, and tags the synthesis cache key — the same
    /// query under two schemes never shares an entry. Defaults to
    /// [`crate::scheme::default_scheme`] (`PORCUPINE_SCHEME`, else BFV).
    pub scheme: SchemeId,
    /// How scheme parameters for the synthesized kernel are obtained:
    /// noise-aware automatic selection against the lowered program under
    /// [`SynthesisOptions::scheme`]'s noise model (the default), or a
    /// caller-fixed set. The resolved set lands in
    /// [`SynthesisResult::params`].
    pub params: ParamPolicy,
    /// Phase-1 enumeration strategy. Defaults to [`default_strategy`]
    /// (`PORCUPINE_STRATEGY`, else bottom-up with DFS fallback).
    pub strategy: SearchStrategy,
    /// Persistent synthesis cache policy. Defaults to
    /// [`CachePolicy::Enabled`]. Cached entries are re-verified against
    /// the spec before being trusted, and only fully finished results
    /// (optimality proved, or phase 2 disabled) are written back, so a
    /// timed-out partial answer is never served to a later run.
    pub cache: CachePolicy,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        let scheme = crate::scheme::default_scheme();
        SynthesisOptions {
            timeout: Duration::from_secs(600),
            optimize: true,
            latency: LatencyModel::profiled_for(scheme),
            seed: 0x9E3779B9,
            parallelism: default_parallelism(),
            opt_level: opt::default_opt_level(),
            scheme,
            params: ParamPolicy::default(),
            strategy: default_strategy(),
            cache: CachePolicy::default(),
        }
    }
}

/// The outcome of a successful synthesis run, including the measurements
/// Table 3 reports.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The best verified program found, as searched: no explicit
    /// relinearizations (Table 2's instruction counts).
    pub program: Program,
    /// [`SynthesisResult::program`] run through the middle-end at
    /// [`SynthesisOptions::opt_level`]: backend-legal IR with
    /// relinearizations placed (lazily at `-O2`), ready for
    /// [`crate::codegen`].
    pub optimized: Program,
    /// The scheme parameters resolved from [`SynthesisOptions::params`]
    /// against [`SynthesisResult::optimized`] (what actually executes):
    /// auto-selected by [`SynthesisOptions::scheme`]'s static noise
    /// analysis, or the fixed set.
    /// `Err` means the policy could not certify any set for this program
    /// (too deep for the candidate table, or an unusable fixed set) — the
    /// synthesized program itself is still returned, so callers that pick
    /// parameters some other way lose nothing.
    pub params: Result<RlweParams, SelectError>,
    /// Per-pass rewrite counts of the middle-end run.
    pub opt_report: opt::OptReport,
    /// The first verified program (upper bound used by the optimizer).
    pub initial_program: Program,
    /// Cost of the initial program (with implicit eager relins charged,
    /// [`quill::cost::eager_cost`]).
    pub initial_cost: f64,
    /// Cost of the best program (same objective).
    pub final_cost: f64,
    /// Arithmetic component count of the sketch instance that succeeded.
    pub components: usize,
    /// Input–output examples consumed (initial + counter-examples).
    pub examples_used: usize,
    /// Time to the initial solution.
    pub time_to_initial: Duration,
    /// Total time including optimization.
    pub time_total: Duration,
    /// True if the optimizer exhausted the space (proved optimality within
    /// the sketch) rather than hitting the timeout.
    pub proved_optimal: bool,
    /// The strategy that produced the initial program: the requested one,
    /// or [`SearchStrategy::Dfs`] after a bottom-up bank exhausted and the
    /// complete search took over. On a cache hit: the requested strategy.
    pub strategy_used: SearchStrategy,
    /// True when the program came from the persistent cache (re-verified,
    /// no search ran). `initial_*` then mirror the final program, and the
    /// reported times are the verification time.
    pub cache_hit: bool,
}

/// Synthesis failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// No program in the sketch (up to `max_components`) satisfies the
    /// specification.
    SketchTooRestrictive {
        /// The largest component count tried.
        max_components: usize,
    },
    /// The time budget expired before any verified solution was found.
    Timeout,
    /// Verification failed but no concrete counter-example could be
    /// sampled (probabilistically negligible).
    CounterExampleExtraction,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::SketchTooRestrictive { max_components } => write!(
                f,
                "no satisfying program exists in the sketch with up to {max_components} components"
            ),
            SynthesisError::Timeout => write!(f, "synthesis timed out before finding a solution"),
            SynthesisError::CounterExampleExtraction => {
                write!(f, "could not extract a concrete counter-example")
            }
        }
    }
}

impl Error for SynthesisError {}

/// Synthesizes a verified, cost-optimized HE kernel for `spec` within
/// `sketch` (the paper's top-level entry point).
///
/// # Errors
///
/// See [`SynthesisError`].
///
/// # Examples
///
/// ```
/// use porcupine::cegis::{synthesize, SynthesisOptions};
/// use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
/// use porcupine::spec::{GenericReference, KernelSpec};
/// use quill::ring::Ring;
///
/// // Sum the four slots of a packed vector into slot 0.
/// struct Sum4;
/// impl GenericReference for Sum4 {
///     fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
///         let s = ct[0].iter().fold(ct[0][0].from_i64(0), |a, x| a.add(x));
///         vec![s, ct[0][0].from_i64(0), ct[0][0].from_i64(0), ct[0][0].from_i64(0)]
///     }
/// }
/// let mut mask = vec![false; 4];
/// mask[0] = true;
/// let spec = KernelSpec::new("sum4", 4, 1, 0, mask, 65537, Box::new(Sum4));
/// let sketch = Sketch::new(
///     vec![SketchOp::rotated(ArithOp::AddCtCt)],
///     RotationSet::PowersOfTwo { extent: 4 },
///     3,
/// );
/// let result = synthesize(&spec, &sketch, &SynthesisOptions::default())?;
/// assert_eq!(result.components, 2); // two rotate-and-add steps
/// # Ok::<(), porcupine::cegis::SynthesisError>(())
/// ```
pub fn synthesize(
    spec: &KernelSpec,
    sketch: &Sketch,
    options: &SynthesisOptions,
) -> Result<SynthesisResult, SynthesisError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Cache consult: a usable entry skips both search phases. The entry
    // is never trusted as-is — full symbolic verification runs first, so
    // a corrupted or maliciously edited cache degrades to a miss.
    let cache_at = options
        .cache
        .directory()
        .map(|dir| (dir, cache_key_for(spec, sketch, options)));
    let mut cached = None;
    if let Some((dir, key)) = &cache_at {
        // Memo tier first: a result this process already verified replays
        // without touching the disk or re-verifying.
        if let Some(mut hit) = memo_lookup(dir, key) {
            cache::record_hit();
            hit.cache_hit = true;
            hit.time_to_initial = start.elapsed();
            hit.time_total = start.elapsed();
            return Ok(hit);
        }
        match cache::lookup(dir, key) {
            Some(entry) if verify(&entry.program, spec, &mut rng).is_ok() => {
                cache::record_hit();
                cached = Some(entry);
            }
            rejected => {
                if rejected.is_some() {
                    cache::record_rejected();
                }
                cache::record_miss();
            }
        }
    }

    // A verified entry stands in for both search phases: its program is
    // the initial and the final one.
    let cache_hit = cached.is_some();
    let (entry, initial_program, initial_cost, time_to_initial, strategy_used) = match cached {
        Some(entry) => {
            let initial = entry.program.clone();
            let cost = entry.final_cost;
            (entry, initial, cost, start.elapsed(), options.strategy)
        }
        None => synthesize_uncached(spec, sketch, options, start, rng)?,
    };

    // Write back a finished answer. Timed-out partials are deliberately
    // not cached: they are timing-dependent, and the cache must only ever
    // serve the canonical result of a query.
    let finished = cache_hit || entry.proved_optimal || !options.optimize;
    let write_back = cache_at.as_ref().filter(|_| finished);
    if let Some((dir, key)) = write_back.filter(|_| !cache_hit) {
        let _ = cache::store(dir, key, &entry);
    }
    // A parameter resolution failure is recorded, not fatal: the verified
    // program is still the synthesis result.
    let (optimized, opt_report, params) = opt::optimize_for(
        &entry.program,
        options.scheme,
        options.opt_level,
        &options.params,
        spec.n,
        spec.t,
    );
    let result = SynthesisResult {
        program: entry.program,
        optimized,
        opt_report,
        params,
        initial_program,
        initial_cost,
        final_cost: entry.final_cost,
        components: entry.components,
        examples_used: entry.examples_used,
        time_to_initial,
        time_total: start.elapsed(),
        proved_optimal: entry.proved_optimal,
        strategy_used,
        cache_hit,
    };
    // Memoize under the same finished-only condition as the disk tier.
    if let Some((dir, key)) = write_back {
        memo_store(dir, key, &result);
    }
    Ok(result)
}

/// Both phases of Algorithm 1 from scratch. Returns the finished query as
/// the cache stores it, plus the initial program, its cost, the time it
/// took and the strategy that found it.
fn synthesize_uncached(
    spec: &KernelSpec,
    sketch: &Sketch,
    options: &SynthesisOptions,
    start: Instant,
    mut rng: StdRng,
) -> Result<(CacheEntry, Program, f64, Duration, SearchStrategy), SynthesisError> {
    let mut cegis = Refinement {
        spec,
        sketch,
        options,
        deadline: start + options.timeout,
        examples: vec![spec.sample_example(&mut rng)],
        rng,
    };

    // Phase 1: find the initial solution at minimal component count.
    // Bottom-up grows its bank level-by-level to the same effect as the
    // DFS's iterative deepening: both return a program with the fewest
    // components in the sketch.
    let floor = sketch.min_components.max(1);
    let mut initial = None;
    let mut strategy_used = options.strategy;
    if options.strategy == SearchStrategy::BottomUp {
        let mut components = 0;
        let outcome = cegis.refine(None, |searcher| {
            match searcher.run_bottom_up(floor, sketch.max_components, options.parallelism) {
                BottomUpOutcome::Found {
                    program,
                    components: c,
                } => {
                    components = c;
                    SearchOutcome::Found(program)
                }
                // The capped bank came up dry; that is *not* an Unsat
                // proof, so the complete DFS below takes the query over.
                BottomUpOutcome::Exhausted => SearchOutcome::Unsat,
                BottomUpOutcome::Timeout => SearchOutcome::Timeout { best: None },
            }
        })?;
        match outcome {
            SearchOutcome::Found(program) => initial = Some((program, components)),
            SearchOutcome::Unsat => strategy_used = SearchStrategy::Dfs,
            SearchOutcome::Timeout { .. } => return Err(SynthesisError::Timeout),
        }
    }
    // Top-down iterative deepening: the requested strategy, or the
    // completeness fallback after an exhausted bank (deepening starts at
    // the sketch's floor — see `Sketch::min_components`).
    for num_components in floor..=sketch.max_components {
        if initial.is_some() {
            break;
        }
        match cegis.refine(None, |searcher| {
            searcher.run(num_components, options.parallelism)
        })? {
            SearchOutcome::Unsat => {} // try a larger sketch
            // A program salvaged just before the deadline still counts.
            SearchOutcome::Found(program)
            | SearchOutcome::Timeout {
                best: Some(program),
            } => {
                initial = Some((program, num_components));
            }
            SearchOutcome::Timeout { best: None } => return Err(SynthesisError::Timeout),
        }
    }
    let (initial_program, components) = initial.ok_or(SynthesisError::SketchTooRestrictive {
        max_components: sketch.max_components,
    })?;
    let time_to_initial = start.elapsed();
    // Costs charge one implicit relinearization per multiply (the -O0
    // lowering's price), matching the search's internal accounting — so
    // the optimization phase's bound and "proved optimal" claim are over
    // one consistent objective.
    let initial_cost = eager_cost(&initial_program, &options.latency);

    // Phase 2: minimize cost within the same sketch instance.
    let mut best = initial_program.clone();
    let mut best_cost = initial_cost;
    let mut proved_optimal = false;
    if options.optimize {
        match cegis.refine(Some(initial_cost), |searcher| {
            searcher.run(components, options.parallelism)
        })? {
            // With a cost bound the search is exhaustive and
            // tie-inclusive: `Found` is the canonical cheapest
            // example-satisfying program of cost ≤ the bound, so a
            // verified result is optimal within the sketch (every
            // spec-correct program also satisfies the examples), and —
            // because the incumbent itself is in the space — `Unsat` is
            // unreachable here.
            SearchOutcome::Found(program) => {
                best_cost = eager_cost(&program, &options.latency);
                best = program;
                proved_optimal = true;
            }
            SearchOutcome::Unsat => proved_optimal = true,
            // Keep the best program the interrupted search saw instead of
            // discarding the optimization progress.
            SearchOutcome::Timeout { best: partial } => {
                if let Some(program) = partial {
                    let c = eager_cost(&program, &options.latency);
                    if c < best_cost {
                        best_cost = c;
                        best = program;
                    }
                }
            }
        }
    }
    let entry = CacheEntry {
        program: best,
        components,
        examples_used: cegis.examples.len(),
        final_cost: best_cost,
        proved_optimal,
    };
    Ok((
        entry,
        initial_program,
        initial_cost,
        time_to_initial,
        strategy_used,
    ))
}

/// The state Algorithm 1 threads through every query: the examples so far
/// and the rng that samples the spec's counter-examples.
struct Refinement<'a> {
    spec: &'a KernelSpec,
    sketch: &'a Sketch,
    options: &'a SynthesisOptions,
    deadline: Instant,
    examples: Vec<Example>,
    rng: StdRng,
}

impl Refinement<'_> {
    /// The refinement loop: runs `query` on a searcher over the examples
    /// (under the cost `bound`, if any) and verifies the program it finds;
    /// a failed verification adds its counter-example and queries again.
    ///
    /// Returns `Found` only for a verified program, `Unsat` when the query
    /// has no candidate, and `Timeout` at the deadline, carrying the
    /// query's partial best only if that verifies.
    fn refine(
        &mut self,
        bound: Option<f64>,
        mut query: impl FnMut(&SearchContext) -> SearchOutcome,
    ) -> Result<SearchOutcome, SynthesisError> {
        loop {
            if Instant::now() >= self.deadline {
                return Ok(SearchOutcome::Timeout { best: None });
            }
            let outcome = query(&SearchContext::new(
                self.spec,
                self.sketch,
                &self.examples,
                &self.options.latency,
                Some(self.deadline),
                bound,
            ));
            match outcome {
                SearchOutcome::Found(program) => match verify(&program, self.spec, &mut self.rng) {
                    Ok(()) => return Ok(SearchOutcome::Found(program)),
                    Err(failure) => self.examples.push(
                        failure
                            .counter_example
                            .ok_or(SynthesisError::CounterExampleExtraction)?,
                    ),
                },
                SearchOutcome::Timeout { best } => {
                    let best = best.filter(|p| verify(p, self.spec, &mut self.rng).is_ok());
                    return Ok(SearchOutcome::Timeout { best });
                }
                SearchOutcome::Unsat => return Ok(SearchOutcome::Unsat),
            }
        }
    }
}

/// Renders the content-addressed cache key for one query (see
/// [`crate::cache`] for the schema).
fn cache_key_for(spec: &KernelSpec, sketch: &Sketch, options: &SynthesisOptions) -> CacheKey {
    let params_desc = match &options.params {
        ParamPolicy::Auto { margin_bits } => {
            format!("auto margin-bits {:016x}", margin_bits.to_bits())
        }
        ParamPolicy::Fixed(p) => format!(
            "fixed n {} t {} q {:?}",
            p.poly_degree, p.plain_modulus, p.moduli
        ),
    };
    CacheKey::new(
        spec,
        sketch,
        &options.latency,
        &[
            ("scheme", options.scheme.name().to_string()),
            ("opt-level", options.opt_level.to_string()),
            ("optimize", options.optimize.to_string()),
            ("strategy", options.strategy.to_string()),
            ("params", params_desc),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{ArithOp, RotationSet, SketchOp};
    use crate::spec::GenericReference;
    use quill::interp;
    use quill::ring::Ring;

    struct Sum {
        n: usize,
    }

    impl GenericReference for Sum {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            let s = ct[0].iter().fold(ct[0][0].from_i64(0), |a, x| a.add(x));
            let mut out = vec![ct[0][0].from_i64(0); self.n];
            out[0] = s;
            out
        }
    }

    fn sum_spec(n: usize) -> KernelSpec {
        let mut mask = vec![false; n];
        mask[0] = true;
        KernelSpec::new("sum", n, 1, 0, mask, 65537, Box::new(Sum { n }))
    }

    fn quick_options() -> SynthesisOptions {
        SynthesisOptions {
            timeout: Duration::from_secs(60),
            optimize: true,
            latency: LatencyModel::uniform(),
            seed: 17,
            // Hermetic: unit tests must exercise the real search, not a
            // previous run's cache entry.
            cache: CachePolicy::Disabled,
            ..SynthesisOptions::default()
        }
    }

    #[test]
    fn synthesizes_log_tree_reduction() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        let r = synthesize(&spec, &sketch, &quick_options()).unwrap();
        assert_eq!(r.components, 3, "log2(8) adds");
        assert_eq!(r.program.len(), 6, "3 adds + 3 rotations");
        assert!(r.proved_optimal);
        assert!(r.final_cost <= r.initial_cost);
        // cross-check on fresh inputs
        let x: Vec<u64> = (1..=8).collect();
        let out = interp::eval_concrete(&r.program, &[x], &[], 65537);
        assert_eq!(out[0], 36);
    }

    /// A parameter policy the program cannot satisfy must not discard the
    /// verified program: resolution failure is recorded in `params`, and
    /// the synthesis result is otherwise intact.
    #[test]
    fn param_resolution_failure_still_returns_the_program() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        // A valid set whose plaintext modulus does not match the spec's.
        let fixed = RlweParams::generate(1024, 12289, 45, 2).expect("valid params");
        let options = SynthesisOptions {
            params: ParamPolicy::Fixed(fixed),
            ..quick_options()
        };
        let r = synthesize(&spec, &sketch, &options).unwrap();
        assert!(r.params.is_err(), "resolution must fail: {:?}", r.params);
        assert_eq!(r.program.len(), 6, "the verified program survives");
    }

    #[test]
    fn reports_sketch_too_restrictive() {
        let spec = sum_spec(8);
        // Only one add allowed: cannot reduce 8 slots.
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            1,
        );
        let err = synthesize(&spec, &sketch, &quick_options()).unwrap_err();
        assert_eq!(
            err,
            SynthesisError::SketchTooRestrictive { max_components: 1 }
        );
    }

    #[test]
    fn counter_examples_reject_lucky_programs() {
        // Over a single example a wrong program can pass; verification must
        // push counter-examples until only correct programs remain. The
        // masked single-output sum is exactly the shape the paper reports
        // needing multiple examples for (§7.4).
        let spec = sum_spec(4);
        let sketch = Sketch::new(
            vec![
                SketchOp::rotated(ArithOp::AddCtCt),
                SketchOp::rotated(ArithOp::SubCtCt),
            ],
            RotationSet::PowersOfTwo { extent: 4 },
            3,
        );
        let r = synthesize(&spec, &sketch, &quick_options()).unwrap();
        let x = vec![11u64, 22, 33, 44];
        let out = interp::eval_concrete(&r.program, &[x], &[], 65537);
        assert_eq!(out[0], 110);
    }
}
