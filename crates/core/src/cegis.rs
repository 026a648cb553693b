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
//!    timeout fires. One cost-bounded search answers every round of this
//!    loop: it verifies as it goes and returns each example-matching
//!    program that costs no more than the cheapest correct one, and the
//!    loop replays its counter-examples over that list (see
//!    [`crate::search`]). It searches again only if every entry fails.
//!
//! Both steps run the complete top-down DFS of [`crate::search`]: step 1
//! deepens it one component at a time, so an exhausted sketch is a proof.
//! Finished queries are stored in a two-tier content-addressed cache
//! governed by
//! [`SynthesisOptions::cache`]: an in-process memo (a repeated query in
//! one process — staged pipelines re-issue identical stage queries —
//! replays the already-verified result in microseconds) in front of the
//! persistent disk tier ([`crate::cache`]), whose entries are
//! **re-verified on read** before being trusted. Either tier's hit skips
//! the search entirely.

use crate::cache::{self, CacheEntry, CacheKey};
use crate::opt::{self, OptLevel};
use crate::search::{SearchContext, SearchOutcome};
use crate::sketch::Sketch;
use crate::spec::{Example, KernelSpec};
use crate::verify::{self, verify};
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

/// Kept so that callers which still name a strategy keep compiling: every
/// variant runs the same iterative-deepening DFS, and none changes a
/// result or the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Formerly the bottom-up term bank; now the DFS.
    BottomUp,
    /// The iterative-deepening DFS.
    Dfs,
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
    /// One past the clock's range, like [`Duration::MAX`], sets none.
    pub timeout: Duration,
    /// Run the cost-minimization phase after the initial solution.
    pub optimize: bool,
    /// The latency model behind the cost objective.
    pub latency: LatencyModel,
    /// RNG seed (examples and counter-example sampling are deterministic
    /// given the seed).
    pub seed: u64,
    /// Worker threads for the search. Defaults to
    /// [`std::thread::available_parallelism`]. The synthesized program and
    /// its cost are identical at every value (the determinism contract of
    /// [`crate::search`]); parallelism only changes wall-clock time.
    pub parallelism: NonZeroUsize,
    /// Middle-end level for the [`SynthesisResult::optimized`] program
    /// (the raw searched program is untouched). Defaults to `-O2`.
    pub opt_level: OptLevel,
    /// The target scheme backend. Gates which lowering passes run (via
    /// the scheme's instruction legality), selects the noise model behind
    /// parameter resolution, and tags the synthesis cache key — the same
    /// query under two schemes never shares an entry. Defaults to BFV.
    pub scheme: SchemeId,
    /// How scheme parameters for the synthesized kernel are obtained:
    /// noise-aware automatic selection against the lowered program under
    /// [`SynthesisOptions::scheme`]'s noise model (the default), or a
    /// caller-fixed set. The resolved set lands in
    /// [`SynthesisResult::params`].
    pub params: ParamPolicy,
    /// Ignored (see [`SearchStrategy`]): every query runs the DFS.
    pub strategy: SearchStrategy,
    /// Persistent synthesis cache policy. Defaults to
    /// [`CachePolicy::Enabled`]. Cached entries are re-verified against
    /// the spec before being trusted, and only fully finished results
    /// (optimality proved, or phase 2 disabled) are written back, so a
    /// timed-out partial answer is never served to a later run.
    pub cache: CachePolicy,
}

impl Default for SynthesisOptions {
    /// BFV at `-O2` with its profiled latency model, the search on every
    /// available core, auto-selected parameters and the default cache
    /// directory.
    fn default() -> Self {
        SynthesisOptions {
            timeout: Duration::from_secs(600),
            optimize: true,
            latency: LatencyModel::profiled_for(SchemeId::Bfv),
            seed: 0x9E3779B9,
            parallelism: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
            opt_level: OptLevel::O2,
            scheme: SchemeId::Bfv,
            params: ParamPolicy::default(),
            strategy: SearchStrategy::Dfs,
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
    /// Cost of the initial program ([`quill::cost::eager_cost`]: every
    /// multiply pays its eager relinearization).
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
    /// Searches the optimization phase ran: one, plus one more for each
    /// candidate list in which no entry verified; 0 on a cache hit or
    /// with [`SynthesisOptions::optimize`] off.
    pub optimization_searches: usize,
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
    /// An entry of [`SynthesisOptions::latency`] is negative, NaN or
    /// infinite. Branch-and-bound, its optimality proof and the search's
    /// bit-pattern ordering of costs all assume non-negative finite
    /// latencies, so [`synthesize`] rejects the model before the cache or
    /// any search is consulted.
    InvalidLatency {
        /// The [`LatencyModel`] field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
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
            SynthesisError::InvalidLatency { field, value } => write!(
                f,
                "latency model entry `{field}` is {value}; latencies must be finite and non-negative"
            ),
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
    // `-0.0` is rejected too: its bit pattern would sort above every
    // positive cost.
    if let Some(&(field, value)) = options
        .latency
        .entries()
        .iter()
        .find(|(_, v)| !(v.is_finite() && v.is_sign_positive()))
    {
        return Err(SynthesisError::InvalidLatency { field, value });
    }
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
            hit.optimization_searches = 0;
            hit.time_to_initial = start.elapsed();
            hit.time_total = start.elapsed();
            return Ok(hit);
        }
        // An entry over other inputs than the spec's fails verification
        // like any wrong program.
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
    let Searched {
        entry,
        initial_program,
        initial_cost,
        time_to_initial,
        optimization_searches,
    } = match cached {
        Some(entry) => Searched {
            initial_program: entry.program.clone(),
            initial_cost: entry.final_cost,
            entry,
            time_to_initial: start.elapsed(),
            optimization_searches: 0,
        },
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
        optimization_searches,
        cache_hit,
    };
    // Memoize under the same finished-only condition as the disk tier.
    if let Some((dir, key)) = write_back {
        memo_store(dir, key, &result);
    }
    Ok(result)
}

/// The finished query as the cache stores it, and how the run got there.
struct Searched {
    entry: CacheEntry,
    initial_program: Program,
    initial_cost: f64,
    time_to_initial: Duration,
    optimization_searches: usize,
}

/// Both phases of Algorithm 1 from scratch.
fn synthesize_uncached(
    spec: &KernelSpec,
    sketch: &Sketch,
    options: &SynthesisOptions,
    start: Instant,
    mut rng: StdRng,
) -> Result<Searched, SynthesisError> {
    let mut cegis = Refinement {
        spec,
        sketch,
        options,
        deadline: start.checked_add(options.timeout),
        examples: vec![spec.sample_example(&mut rng)],
        rng,
        searches: 0,
    };

    // Phase 1: find the initial solution at minimal component count by
    // iterative deepening, from the sketch's floor (see
    // `Sketch::min_components`).
    let mut initial = None;
    for num_components in sketch.min_components.max(1)..=sketch.max_components {
        match cegis.refine(None, |searcher| {
            searcher.run(num_components, options.parallelism)
        })? {
            Refined::Unsat => {} // try a larger sketch
            // A program salvaged just before the deadline still counts.
            Refined::Verified(program) | Refined::Timeout(Some(program)) => {
                initial = Some((program, num_components));
                break;
            }
            Refined::Timeout(None) => return Err(SynthesisError::Timeout),
        }
    }
    let (initial_program, components) = initial.ok_or(SynthesisError::SketchTooRestrictive {
        max_components: sketch.max_components,
    })?;
    let time_to_initial = start.elapsed();
    // The search and this driver price programs with one objective, so
    // the optimization phase's bound and "proved optimal" claim are over
    // the cost the search accumulates.
    let initial_cost = eager_cost(&initial_program, &options.latency);

    // Phase 2: minimize cost within the same sketch instance.
    let mut best = initial_program.clone();
    let mut best_cost = initial_cost;
    let mut proved_optimal = false;
    let searches_before = cegis.searches;
    if options.optimize {
        match cegis.refine(Some(initial_cost), |searcher| {
            searcher.run(components, options.parallelism)
        })? {
            // With a cost bound the search is exhaustive and
            // tie-inclusive: the first candidate that verifies is the
            // canonical cheapest correct program of cost ≤ the bound, so
            // it is optimal within the sketch (every spec-correct program
            // also satisfies the examples).
            Refined::Verified(program) => {
                best_cost = eager_cost(&program, &options.latency);
                best = program;
                proved_optimal = true;
            }
            // No program of the space under the bound is correct, so the
            // incumbent is optimal.
            Refined::Unsat => proved_optimal = true,
            // Keep the best program the interrupted search saw instead of
            // discarding the optimization progress.
            Refined::Timeout(partial) => {
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
    Ok(Searched {
        entry,
        initial_program,
        initial_cost,
        time_to_initial,
        optimization_searches: cegis.searches - searches_before,
    })
}

/// The state Algorithm 1 threads through every query: the examples so far
/// and the rng that samples the spec's counter-examples.
struct Refinement<'a> {
    spec: &'a KernelSpec,
    sketch: &'a Sketch,
    options: &'a SynthesisOptions,
    deadline: Option<Instant>,
    examples: Vec<Example>,
    rng: StdRng,
    /// Queries run so far.
    searches: usize,
}

/// How a refinement loop ended.
enum Refined {
    /// A program that passed verification.
    Verified(Program),
    /// The query has no candidate left.
    Unsat,
    /// The deadline fired; the query's partial best, if it verifies.
    Timeout(Option<Program>),
}

impl Refinement<'_> {
    /// The refinement loop: runs `query` on a searcher over the examples
    /// (under the cost `bound`, if any) and [`replay`]s what it returns.
    /// When every candidate fails, the grown example set is queried again.
    ///
    /// A first-solution query returns one program, which the replay
    /// verifies as Algorithm 1 does. A cost-bounded query returns the
    /// list of every example-matching program that costs no more than
    /// the cheapest correct one, in the canonical order in which
    /// Algorithm 1's later queries would return them: each of those is
    /// the canonical cheapest program matching more examples, and the
    /// correct optimum matches every example, so none costs more than it.
    /// So the replay verifies what those queries would have returned, in
    /// their order and with the same counter-examples, without searching.
    /// The one exception: a later query deduplicates values on more
    /// examples, so it can reach a program the first one pruned because a
    /// value of it agreed with another on every slot of the first
    /// examples without being the same polynomial. The replay never
    /// returns such a program; it reaches one only through the fresh
    /// search after a list in which no entry verified.
    fn refine(
        &mut self,
        bound: Option<f64>,
        mut query: impl FnMut(&SearchContext) -> SearchOutcome,
    ) -> Result<Refined, SynthesisError> {
        loop {
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(Refined::Timeout(None));
            }
            self.searches += 1;
            let outcome = query(&SearchContext::new(
                self.spec,
                self.sketch,
                &self.examples,
                &self.options.latency,
                self.deadline,
                bound,
            ));
            let candidates = match outcome {
                SearchOutcome::Found(program) => vec![program],
                SearchOutcome::Candidates(programs) => programs,
                SearchOutcome::Timeout { best } => {
                    let best = best.filter(|p| verify(p, self.spec, &mut self.rng).is_ok());
                    return Ok(Refined::Timeout(best));
                }
                SearchOutcome::Unsat => return Ok(Refined::Unsat),
            };
            if let Some(program) = replay(candidates, self.spec, &mut self.examples, &mut self.rng)?
            {
                return Ok(Refined::Verified(program));
            }
        }
    }
}

/// Algorithm 1 over a query's `candidates`, in order, without searching:
/// skips a candidate that a counter-example added here rejects, verifies
/// the next one and adds its counter-example to `examples` if it fails.
/// Returns the first candidate that verifies, or `None` when none does.
pub(crate) fn replay(
    candidates: Vec<Program>,
    spec: &KernelSpec,
    examples: &mut Vec<Example>,
    rng: &mut StdRng,
) -> Result<Option<Program>, SynthesisError> {
    // The query's own examples are matched by every candidate.
    let seen = examples.len();
    for program in candidates {
        if !examples[seen..]
            .iter()
            .all(|e| verify::agrees_with(&program, spec, e))
        {
            continue;
        }
        match verify(&program, spec, rng) {
            Ok(()) => return Ok(Some(program)),
            Err(failure) => examples.push(
                failure
                    .counter_example()
                    .ok_or(SynthesisError::CounterExampleExtraction)?,
            ),
        }
    }
    Ok(None)
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
    use quill::program::ValRef;
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

    /// [`SearchStrategy`] is a no-op: both variants key one cache entry
    /// and synthesize the same program.
    #[test]
    fn the_strategy_changes_nothing() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        let with = |strategy| SynthesisOptions {
            strategy,
            ..quick_options()
        };
        let (bank, dfs) = (with(SearchStrategy::BottomUp), with(SearchStrategy::Dfs));
        assert_eq!(
            cache_key_for(&spec, &sketch, &bank).text(),
            cache_key_for(&spec, &sketch, &dfs).text()
        );
        let [a, b] = [bank, dfs].map(|o| synthesize(&spec, &sketch, &o).unwrap());
        assert_eq!(a.program, b.program);
        assert_eq!(a.examples_used, b.examples_used);
    }

    /// A timeout too large to add to the clock, such as `Duration::MAX`,
    /// sets no deadline instead of panicking: the run is the one a finite
    /// timeout gives.
    #[test]
    fn a_timeout_past_the_clock_sets_no_deadline() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        let unbounded = SynthesisOptions {
            timeout: Duration::MAX,
            ..quick_options()
        };
        let r = synthesize(&spec, &sketch, &unbounded).unwrap();
        let bounded = synthesize(&spec, &sketch, &quick_options()).unwrap();
        assert_eq!(r.program, bounded.program);
        assert_eq!(r.final_cost.to_bits(), bounded.final_cost.to_bits());
        assert!(r.proved_optimal);
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

    /// `Sketch::min_components` is where iterative deepening starts: with
    /// the floor above the natural two-add solution, the program returned
    /// has the floor's size and is still correct.
    #[test]
    fn respects_the_component_floor() {
        let spec = sum_spec(4);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 4 },
            3,
        )
        .with_min_components(3);
        let r = synthesize(&spec, &sketch, &quick_options()).unwrap();
        assert_eq!(r.components, 3);
        let x: Vec<u64> = (1..=4).collect();
        let out = interp::eval_concrete(&r.program, &[x], &[], 65537);
        assert_eq!(out[0], 10);
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

    /// A negative or NaN latency would silently break branch-and-bound
    /// and still claim `proved_optimal`; it is rejected before any search.
    #[test]
    fn malformed_latency_models_are_typed_errors() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        let with_latency = |latency| SynthesisOptions {
            latency,
            ..quick_options()
        };
        let negative = LatencyModel {
            rot_ct: -1.0,
            ..LatencyModel::uniform()
        };
        assert_eq!(
            synthesize(&spec, &sketch, &with_latency(negative)).unwrap_err(),
            SynthesisError::InvalidLatency {
                field: "rot_ct",
                value: -1.0
            }
        );
        let nan = LatencyModel {
            add_ct_ct: f64::NAN,
            ..LatencyModel::uniform()
        };
        let err = synthesize(&spec, &sketch, &with_latency(nan)).unwrap_err();
        assert!(
            matches!(err, SynthesisError::InvalidLatency { field: "add_ct_ct", value } if value.is_nan()),
            "{err:?}"
        );
        assert!(err.to_string().contains("add_ct_ct"), "{err}");
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

    /// When no candidate of a cost-bounded query verifies, the loop
    /// searches again over the grown example set instead of stopping. Here
    /// the first query of [`crate::search::tests::dot_mod_17`] answers
    /// with its wrong candidates only, as when the first examples' value
    /// deduplication pruned the optimum: the replay rejects them all, and
    /// the second search finds the optimum, which phase 2 takes as proved.
    #[test]
    fn a_candidate_list_that_fails_throughout_falls_back_to_a_fresh_search() {
        let dot = crate::search::tests::dot_mod_17();
        let options = SynthesisOptions {
            latency: dot.model.clone(),
            ..quick_options()
        };
        let mut cegis = Refinement {
            spec: &dot.spec,
            sketch: &dot.sketch,
            options: &options,
            deadline: Instant::now().checked_add(options.timeout),
            examples: dot.examples[..1].to_vec(),
            rng: StdRng::seed_from_u64(3),
            searches: 0,
        };
        let mut wrong_only = true;
        let outcome = cegis
            .refine(Some(dot.bound), |searcher| {
                let outcome = searcher.run(3, NonZeroUsize::new(2).unwrap());
                match outcome {
                    SearchOutcome::Candidates(programs) if wrong_only => {
                        wrong_only = false;
                        let wrong = programs
                            .into_iter()
                            .filter(|p| !verify::is_correct(p, &dot.spec));
                        SearchOutcome::Candidates(wrong.collect())
                    }
                    other => other,
                }
            })
            .expect("every failure has a witness");
        let Refined::Verified(program) = outcome else {
            panic!("the optimum is in the space");
        };
        assert_eq!(cegis.searches, 2);
        assert!(cegis.examples.len() >= 2);
        assert_eq!(
            eager_cost(&program, &dot.model).to_bits(),
            dot.bound.to_bits()
        );
    }

    /// A candidate list cut to its cheapest entries changes how often the
    /// loop searches, not what it returns: when none of the first
    /// entries of [`crate::search::tests::dot_mod_17`]'s list verifies,
    /// the replay runs out and searches again over the grown example set,
    /// and ends with the optimum an uncapped run returns.
    #[test]
    fn a_capped_candidate_list_returns_the_uncapped_program() {
        let dot = crate::search::tests::dot_mod_17();
        let options = SynthesisOptions {
            latency: dot.model.clone(),
            ..quick_options()
        };
        let optimize = |cap: Option<usize>| {
            let mut cegis = Refinement {
                spec: &dot.spec,
                sketch: &dot.sketch,
                options: &options,
                deadline: Instant::now().checked_add(options.timeout),
                examples: dot.examples[..1].to_vec(),
                rng: StdRng::seed_from_u64(3),
                searches: 0,
            };
            let jobs = NonZeroUsize::new(2).unwrap();
            let outcome = cegis
                .refine(Some(dot.bound), |searcher| match cap {
                    Some(cap) => searcher.run_capped(3, jobs, cap),
                    None => searcher.run(3, jobs),
                })
                .expect("every failure has a witness");
            let Refined::Verified(program) = outcome else {
                panic!("the optimum is in the space");
            };
            (program, cegis.searches)
        };
        let (uncapped, searches) = optimize(None);
        assert_eq!(searches, 1);
        let (capped, capped_searches) = optimize(Some(1));
        assert_eq!(capped, uncapped);
        assert!(capped_searches > 1, "the head alone does not verify");
    }

    /// Stages synthesized one by one and appended compose into a pipeline
    /// (§6.3), and the stage results are independent of the `parallelism`
    /// knob.
    #[test]
    fn synthesized_stages_compose_and_ignore_thread_count() {
        struct PairSum;
        impl GenericReference for PairSum {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                let x = &ct[0];
                let n = x.len();
                (0..n).map(|i| x[i].add(&x[(i + 1) % n])).collect()
            }
        }
        let mut mask = vec![true; 4];
        mask[3] = false;
        let spec = KernelSpec::new("pairsum", 4, 1, 0, mask, 65537, Box::new(PairSum));
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::Explicit(vec![1]),
            2,
        );
        let build = |jobs: usize| {
            let options = SynthesisOptions {
                parallelism: NonZeroUsize::new(jobs).unwrap(),
                ..SynthesisOptions::default()
            };
            let stage = || synthesize(&spec, &sketch, &options).expect("stage synthesizes");
            let mut p = Program::new("pairsum-twice", 1, 0, Vec::new(), ValRef::Input(0));
            let s1 = p.append(&stage().program, &[ValRef::Input(0)], &[]);
            p.output = p.append(&stage().program, &[s1], &[]);
            p.cse()
        };
        let sequential = build(1);
        assert_eq!(sequential, build(3));
        let out = interp::eval_concrete(&sequential, &[vec![1, 2, 3, 4]], &[], 65537);
        assert_eq!(out[0], 1 + 2 + 2 + 3);
    }
}
