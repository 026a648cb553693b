//! The synthesis search: an enumerative, sound-and-complete exploration of
//! the program space a sketch describes.
//!
//! Where the paper compiles its synthesis query to SMT (Rosette →
//! Boolector), we search the same space directly with a pruned DFS over
//! component assignments evaluated on the CEGIS examples. The pruning rules
//! implement §6's formulation optimizations:
//!
//! * **symmetry breaking** — commutative operands in canonical order;
//!   independent adjacent components in lexicographic order; SSA with the
//!   output defined last;
//! * **dead-code bounding** — with `r` components left, at most `2r` unused
//!   intermediates can still be consumed, so deeper prefixes are cut early;
//! * **observational equivalence** — a component whose value (on every
//!   example) duplicates an already-available value is skipped; CEGIS
//!   counter-examples restore any distinction that mattered;
//! * **rotation restrictions** — the sketch's rotation vocabulary (§6.1);
//! * **goal-directed last level** — only candidates whose value hits the
//!   target on the masked slots are expanded at the final component; a
//!   right operand is first tested on the first masked slot against the
//!   value the left one needs there, before the full masked comparison;
//! * **branch-and-bound** — in the optimization phase, prefixes whose cost
//!   lower bound already exceeds the bound are pruned. One bound prices
//!   what the prefix has placed and every missing component at the
//!   cheapest op; it floors every completion and is compared with the
//!   cheapest *verified* cost found so far. A second one adds what the
//!   spec itself forces on any *correct* completion: the multiplies still
//!   needed to reach the output's degree, and the rotations still needed
//!   to gather its slot offsets (see [`spec_bounds`]), which the remaining
//!   components must have the rotated holes to place. It is compared with
//!   the caller's fixed bound only, since a wrong program that matches the
//!   examples may be cheaper (see `SearchContext::exceeds`). Both are
//!   applied to each candidate before its value vector is computed, and
//!   the last component is priced exactly.
//!
//! A prefix's cost is a running sum of [`LatencyModel::eager_latency`]s in
//! the order `materialize` emits the instructions, so a completion costs
//! bit for bit [`quill::cost::eager_cost`] of its program. Only the lower
//! bounds sum in another order, so they carry a relative margin.
//!
//! Like the SMT query, an exhausted search is a *proof* that no program (of
//! the given component count, satisfying the examples, under the cost
//! bound) exists in the sketch.
//!
//! # Cheapest mode answers every counter-example at once
//!
//! Algorithm 1 re-runs the cost-bounded query after each counter-example,
//! and each re-run searches the same space again. Instead, a cheapest-mode
//! query checks each example-matching completion that would lower the
//! bound with the exact symbolic verifier, lowers the bound only for a
//! correct one, and returns *every* example-matching completion that costs
//! no more than the cheapest correct one it found
//! ([`SearchOutcome::Candidates`]). Each later query of the loop would
//! return the canonical cheapest program matching more examples, and that
//! program costs no more than the correct optimum, so it is in the list;
//! CEGIS replays its counter-examples over the list and searches again
//! only if every entry fails.
//!
//! The list is capped at its 4,096 cheapest entries; a replay that walks
//! past them without a verified program searches again, as it does after
//! any list in which no entry verifies.
//!
//! # One search for both phases
//!
//! The DFS is complete at a fixed component count, so an `Unsat` is a
//! proof. CEGIS's first phase deepens it one component at a time (each
//! query in first-solution mode), and its second phase runs it once more
//! at the found count with a cost bound (cheapest mode).
//!
//! # Architecture: `SearchContext` + per-worker state
//!
//! The search is split into two layers:
//!
//! * `SearchContext` — everything immutable for the duration of one
//!   query: the sketch, the concatenated example values, the masked target,
//!   plaintext operand values, and the latency table. It is `Sync` and
//!   shared by reference across worker threads.
//! * `WorkerState` — the mutable DFS state (placed components, the
//!   available-value arena and its operand rotations, the running cost).
//!   Each worker owns one and restores it with snapshots on backtrack,
//!   exactly as the sequential search always did. The arena doubles as
//!   the observational-equivalence set: it holds a handful of values, so
//!   a candidate is compared with each rather than hashed. Each available
//!   value is rotated once, when the first node that can use it
//!   enumerates its candidates; on backtrack its rotation buffers are
//!   kept for the next value.
//!
//! # Subtree partitioning and the determinism contract
//!
//! `SearchContext::run` enumerates the candidates for the *first*
//! component slot once; each candidate roots a disjoint subtree of the
//! program space. Workers claim subtrees from a shared atomic counter (a
//! single-queue form of work stealing: an idle worker always takes the next
//! unexplored subtree) and search them with the ordinary sequential DFS.
//! Two pieces of shared state let workers prune each other:
//!
//! * a shared `AtomicU64` cost bound (bits of the cheapest complete program
//!   found so far that passed the symbolic verifier) — prefixes whose every
//!   completion costs *strictly more* are cut, which can never cut a
//!   program tied with the correct optimum, nor a wrong one cheaper than
//!   it. The spec-derived bound, which floors only correct completions, is
//!   never compared with it, so what it cuts does not depend on timing;
//! * a cancellation word — in first-solution mode, the lowest subtree index
//!   that found a program; workers on higher-indexed subtrees stop early
//!   because their result cannot win.
//!
//! Results merge with a canonical tie-break — cost first, then the
//! program's s-expression serialization — so the same query returns the
//! *identical* program at any thread count:
//!
//! * **first-solution mode** (no cost bound): the winner is the first
//!   program, in DFS order, of the lowest-indexed subtree containing one —
//!   precisely what the single-threaded DFS returns.
//! * **cheapest mode** (cost bound set): every subtree is exhausted under
//!   branch-and-bound. The cheapest correct cost is a function of the
//!   query, and so is the set of example-matching completions costing no
//!   more; it is returned sorted by `(cost, serialization)`.
//!
//! Only a deadline expiry ([`SearchOutcome::Timeout`]) may yield a
//! thread-count-dependent result; it still carries the best program found
//! so far rather than discarding the partial progress.

use crate::sketch::{ArithOp, Sketch, SketchMode, SketchOp};
use crate::spec::{Example, KernelSpec};
use crate::verify;
use quill::cost::{eager_cost, objective, LatencyModel};
use quill::program::{Instr, Program, PtOperand, ValRef};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// One placed component.
#[derive(Debug, Clone, PartialEq)]
enum Comp {
    /// Arithmetic component: sketch op index plus `(value, rotation)`
    /// operands (rotation 0 = none).
    Arith {
        op_idx: usize,
        lhs: (usize, i64),
        rhs: Option<(usize, i64)>,
    },
    /// Explicit rotation component (ablation mode only).
    Rot { val: usize, amount: i64 },
}

/// Why the search stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// A satisfying program: the first one in canonical DFS order (a query
    /// without a cost bound).
    Found(Program),
    /// A query with a cost bound exhausted its space. These are the
    /// programs that match the examples and cost no more than both the
    /// bound and the cheapest program in the space that passed the
    /// symbolic verifier, in canonical `(cost bits, serialization)` order,
    /// cut to the first 4,096; never empty. The head is the cheapest
    /// program matching the examples, and the first entry that verifies is
    /// optimal within the sketch.
    Candidates(Vec<Program>),
    /// The space at this component count is exhausted — a completeness
    /// proof, like `unsat` from the SMT solver.
    Unsat,
    /// The deadline expired mid-search. `best` carries the best program
    /// found before the deadline (if any) so callers can salvage partial
    /// progress; it satisfies the examples but is not an optimality proof,
    /// and under parallelism it may depend on worker timing.
    Timeout {
        /// Best program found before the deadline, if any.
        best: Option<Program>,
    },
}

struct AvailEntry {
    /// Concatenated value across examples (length `n · num_examples`).
    vec: Vec<u64>,
    mdepth: u32,
    uses: u32,
    is_rot_result: bool,
}

/// What the search is asked to produce (derived from the cost bound).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Goal {
    /// Return the first satisfying program in DFS order (CEGIS phase 1).
    First,
    /// Exhaust the space and return every example-matching program that
    /// costs no more than the cheapest correct one (CEGIS optimization
    /// phase).
    Cheapest,
}

/// The immutable, `Sync` half of the search: everything a worker needs to
/// read but never writes. Shared by reference across the `thread::scope`
/// workers of [`SearchContext::run`].
pub(crate) struct SearchContext<'a> {
    /// The spec the examples come from; cheapest mode verifies against it.
    kernel: &'a KernelSpec,
    sketch: &'a Sketch,
    examples: &'a [Example],
    n: usize,
    t: u64,
    num_inputs: usize,
    /// Target output, concatenated; compared only at `mask_idx`.
    target: Vec<u64>,
    mask_idx: Vec<usize>,
    /// Operand rotation amounts, 0 first (`[0]` in explicit mode).
    rots: Vec<i64>,
    /// Plaintext operand value per sketch op (concatenated), if any.
    pt_values: Vec<Option<Vec<u64>>>,
    latency: &'a LatencyModel,
    /// What each sketch op adds to the running sum.
    op_latencies: Vec<f64>,
    min_op_latency: f64,
    /// The cheapest multiply in the sketch (a ct×ct one with its eager
    /// relin), or infinity when the sketch has none.
    min_mul_latency: f64,
    /// The most rotated holes of one multiply op, and of any op: how many
    /// new rotations a multiply, and any component, can place at most.
    mul_rot_holes: usize,
    op_rot_holes: usize,
    rot_latency: f64,
    /// [`spec_bounds`] in cheapest mode, else [`SpecBounds::NONE`]; the
    /// rotation term is 0 in explicit-rotation mode, whose rotations are
    /// priced as components.
    spec: SpecBounds,
    deadline: Option<Instant>,
    cost_bound: Option<f64>,
    name: String,
}

/// Lower bounds that every program correct for a spec meets, read off the
/// spec's symbolic outputs on the masked slots. The DFS adds them
/// to the branch-and-bound cost bound of the optimization phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecBounds {
    /// `max ⌈log₂ deg⌉` over the masked output polynomials. A value at
    /// multiplicative depth `m` (ct×ct and ct×pt both count) has degree at
    /// most `2^m`, so a correct program's depth is at least this.
    pub mult_depth: u32,
    /// `max ⌈log₂ w⌉` over the masked outputs, where `w` counts the
    /// distinct slot offsets `(k − i) mod n` of the ciphertext and
    /// plaintext variables in output slot `i`'s polynomial. Slot `i` reads
    /// slot `i + s` of a leaf, where `s` sums the rotations on the path
    /// between them; a path visits each of a program's `r` rotation
    /// instructions at most once, so it reaches at most `2^r` offsets.
    pub rotations: usize,
}

impl SpecBounds {
    /// No bound: what every program meets, correct or not.
    pub const NONE: SpecBounds = SpecBounds {
        mult_depth: 0,
        rotations: 0,
    };
}

/// Computes [`SpecBounds`] for `spec`.
pub fn spec_bounds(spec: &KernelSpec) -> SpecBounds {
    let ceil_log2 = |x: usize| x.next_power_of_two().trailing_zeros();
    let n = spec.n;
    let mut bounds = SpecBounds::NONE;
    let masked = spec.eval_symbolic().iter().enumerate();
    for (i, poly) in masked.filter(|(i, _)| spec.output_mask[*i]) {
        // Ciphertext variable `j·n + k` and plaintext variable
        // `(ct inputs + j)·n + k` both read slot `k`.
        let mut offsets: Vec<usize> = poly
            .variables()
            .iter()
            .map(|&v| (v as usize % n + n - i) % n)
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        bounds.mult_depth = bounds.mult_depth.max(ceil_log2(poly.degree() as usize));
        bounds.rotations = bounds.rotations.max(ceil_log2(offsets.len()) as usize);
    }
    bounds
}

/// Total [`SearchContext::run`] invocations in this process.
/// The synthesis cache's "a hit skips the search entirely" contract is
/// asserted against this counter (not just timing) in the test suite.
static SEARCH_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// How many search queries this process has started.
pub fn search_invocations() -> u64 {
    SEARCH_INVOCATIONS.load(Relaxed)
}

fn count_search_invocation() {
    SEARCH_INVOCATIONS.fetch_add(1, Relaxed);
}

/// Deadline/cancellation checks happen every `TIMEOUT_CHECK_MASK + 1`
/// node expansions (a per-worker counter), not on every node: the DFS hot
/// loop never calls `Instant::now()` or touches cross-worker cache lines
/// more than once per ~4096 expansions.
const TIMEOUT_CHECK_MASK: u64 = 0xFFF;

/// Cross-worker state for one parallel query.
struct SharedSearch {
    /// Next unclaimed subtree index (the work queue).
    next: AtomicUsize,
    /// Lowest subtree index that found a program (first-solution mode);
    /// doubles as the cancellation flag for higher-indexed subtrees.
    found_idx: AtomicUsize,
    /// Bits of the cheapest cost of a complete program found so far that
    /// passed the symbolic verifier (cheapest mode). Monotonically
    /// non-increasing; `f64::to_bits` preserves order for the positive
    /// finite costs the latency model produces.
    best_bound: AtomicU64,
    /// Set once the deadline fires anywhere; every worker stops.
    timed_out: AtomicBool,
    /// The most candidates the query returns (cheapest mode).
    max_candidates: usize,
}

impl SharedSearch {
    fn new(max_candidates: usize) -> Self {
        SharedSearch {
            next: AtomicUsize::new(0),
            found_idx: AtomicUsize::new(usize::MAX),
            best_bound: AtomicU64::new(f64::INFINITY.to_bits()),
            timed_out: AtomicBool::new(false),
            max_candidates,
        }
    }
}

/// The two thresholds of branch-and-bound (cheapest mode); see
/// [`SearchContext::exceeds`] for which bound meets which.
#[derive(Debug, Clone, Copy)]
struct Cut {
    /// The caller's cost bound, fixed for the query.
    query: f64,
    /// `query` tightened to the cheapest correct program found anywhere
    /// so far. Other workers lower it at moments that depend on timing.
    best: f64,
}

/// Why a worker abandoned its current subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Abort {
    No,
    /// A lower-indexed subtree already found a program; this subtree's
    /// result cannot win the merge, so the work is discarded safely.
    Superseded,
    /// The deadline fired.
    TimedOut,
}

/// The most entries a cheapest-mode candidate list holds: the cheapest
/// ones in canonical `(cost bits, serialization)` order. A loose bound
/// under a small plaintext modulus lets millions of wrong programs match
/// the examples, and without a cap the list grows with all of them. The
/// paper kernels' lists hold at most a few dozen entries.
pub(crate) const MAX_CANDIDATES: usize = 4096;

/// What one worker collects in cheapest mode, each program with its cost
/// bits.
#[derive(Default)]
struct Matches {
    /// The example-matching completions that cost no more than the shared
    /// bound when they were found, cut back to the canonically cheapest
    /// `cap` whenever they reach `2 · cap`.
    all: Vec<(u64, Program)>,
    /// The cheapest completion this worker verified: what a timed-out
    /// query salvages.
    verified: Option<(u64, Program)>,
}

impl Matches {
    /// Adds a completion. A cut keeps every entry that can still be among
    /// the query's `cap` cheapest, since the merge only filters by cost.
    fn keep(&mut self, cost_bits: u64, prog: Program, cap: usize) {
        self.all.push((cost_bits, prog));
        if self.all.len() >= cap.saturating_mul(2) {
            cheapest_first(&mut self.all, cap);
        }
    }
}

/// Sorts `list` in canonical `(cost bits, serialization)` order and keeps
/// its `cap` first entries.
fn cheapest_first(list: &mut Vec<(u64, Program)>, cap: usize) {
    list.sort_by_cached_key(|(bits, p)| (*bits, p.to_string()));
    list.truncate(cap);
}

/// Everything one worker brings back from the subtrees it claimed.
#[derive(Default)]
struct WorkerYield {
    /// First-solution mode: `(subtree index, program)` per subtree that
    /// found one. The merge keeps the lowest index.
    firsts: Vec<(usize, Program)>,
    /// Cheapest mode.
    matches: Matches,
}

impl<'a> SearchContext<'a> {
    pub(crate) fn new(
        spec: &'a KernelSpec,
        sketch: &'a Sketch,
        examples: &'a [Example],
        latency: &'a LatencyModel,
        deadline: Option<Instant>,
        cost_bound: Option<f64>,
    ) -> Self {
        let n = spec.n;
        let t = spec.t;
        let concat = |f: &dyn Fn(&Example) -> &[u64]| -> Vec<u64> {
            examples.iter().flat_map(|e| f(e).iter().copied()).collect()
        };
        let target = concat(&|e| &e.output);
        // The partner lookups compare slot values directly, so every
        // example value must already be a residue.
        debug_assert!(
            examples.iter().all(|e| e
                .ct_inputs
                .iter()
                .chain(&e.pt_inputs)
                .chain([&e.output])
                .all(|v| v.iter().all(|&x| x < t))),
            "example values must be reduced mod t"
        );
        let mask_idx = (0..examples.len() * n)
            .filter(|i| spec.output_mask[i % n])
            .collect();
        let explicit = sketch.mode == SketchMode::ExplicitRotate;
        let rots = if explicit {
            vec![0]
        } else {
            sketch.operand_rotations()
        };
        let pt_values = sketch
            .ops
            .iter()
            .map(|op| match &op.op {
                ArithOp::AddCtPt(p) | ArithOp::SubCtPt(p) | ArithOp::MulCtPt(p) => Some(match p {
                    PtOperand::Input(i) => concat(&|e| &e.pt_inputs[*i]),
                    PtOperand::Splat(v) => {
                        vec![v.rem_euclid(t as i64) as u64; examples.len() * n]
                    }
                }),
                _ => None,
            })
            .collect();
        // Each op is priced as the instruction it materializes to.
        let x = ValRef::Input(0);
        let op_latencies: Vec<f64> = sketch
            .ops
            .iter()
            .map(|op| latency.eager_latency(&op.op.instr(x, Some(x))))
            .collect();
        let min_op_latency = op_latencies.iter().copied().fold(f64::INFINITY, f64::min);
        let min_mul_latency = sketch
            .ops
            .iter()
            .zip(&op_latencies)
            .filter(|(op, _)| op.op.is_mul())
            .map(|(_, &l)| l)
            .fold(f64::INFINITY, f64::min);
        // Holes that range over more than rotation 0; explicit mode has none.
        let rotated = !explicit && rots.len() > 1;
        let rot_holes = |sop: &SketchOp| {
            let rhs_rot = sop.rhs_rot && sop.op.binary_ct();
            (rotated && sop.lhs_rot) as usize + (rotated && rhs_rot) as usize
        };
        let max_rot_holes = |muls_only: bool| {
            let ops = sketch.ops.iter().filter(|op| !muls_only || op.op.is_mul());
            ops.map(rot_holes).max().unwrap_or(0)
        };
        // The spec terms only tighten a cost bound, so first-solution
        // queries (phase 1) skip them.
        let mut spec_terms = match cost_bound {
            Some(_) => spec_bounds(spec),
            None => SpecBounds::NONE,
        };
        if explicit {
            spec_terms.rotations = 0;
        }
        SearchContext {
            kernel: spec,
            sketch,
            examples,
            n,
            t,
            num_inputs: spec.num_ct_inputs,
            target,
            mask_idx,
            rots,
            pt_values,
            latency,
            op_latencies,
            min_op_latency,
            min_mul_latency,
            mul_rot_holes: max_rot_holes(true),
            op_rot_holes: max_rot_holes(false),
            rot_latency: latency.eager_latency(&Instr::RotCt(x, 1)),
            spec: spec_terms,
            deadline,
            cost_bound,
            name: spec.name.clone(),
        }
    }

    /// Searches for a program with exactly `num_components` components,
    /// using up to `jobs` worker threads (capped at the subtree count; one
    /// worker runs inline without spawning). A cheapest-mode answer holds
    /// at most [`MAX_CANDIDATES`] programs.
    pub(crate) fn run(&self, num_components: usize, jobs: NonZeroUsize) -> SearchOutcome {
        self.run_capped(num_components, jobs, MAX_CANDIDATES)
    }

    /// [`Self::run`] with a cheapest-mode answer of at most
    /// `max_candidates` programs: the first `max_candidates` of the
    /// uncapped list.
    pub(crate) fn run_capped(
        &self,
        num_components: usize,
        jobs: NonZeroUsize,
        max_candidates: usize,
    ) -> SearchOutcome {
        assert!(
            num_components >= 1,
            "a program needs at least one component"
        );
        assert!(max_candidates >= 1, "a candidate list holds one program");
        count_search_invocation();
        let goal = if self.cost_bound.is_some() {
            Goal::Cheapest
        } else {
            Goal::First
        };
        let mut root = WorkerState::root(self);
        root.fill_rotations(self);
        let shared = SharedSearch::new(max_candidates);
        let subtrees = self.candidates(&root, None, num_components, self.cut(&shared));
        let workers = jobs.get().min(subtrees.len()).max(1);
        let yields: Vec<WorkerYield> = if workers == 1 {
            vec![self.worker(&shared, &subtrees, num_components, goal, &mut root)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let shared = &shared;
                        let subtrees = &subtrees;
                        s.spawn(move || {
                            let mut state = WorkerState::root(self);
                            self.worker(shared, subtrees, num_components, goal, &mut state)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked"))
                    .collect()
            })
        };

        let timed_out = shared.timed_out.load(Relaxed);
        match goal {
            Goal::First => {
                let first = yields
                    .into_iter()
                    .flat_map(|y| y.firsts)
                    .min_by_key(|(i, _)| *i)
                    .map(|(_, p)| p);
                match (timed_out, first) {
                    (true, best) => SearchOutcome::Timeout { best },
                    (false, Some(p)) => SearchOutcome::Found(p),
                    (false, None) => SearchOutcome::Unsat,
                }
            }
            Goal::Cheapest if timed_out => SearchOutcome::Timeout {
                best: yields
                    .into_iter()
                    .filter_map(|y| y.matches.verified)
                    .min_by_key(|(bits, _)| *bits)
                    .map(|(_, p)| p),
            },
            Goal::Cheapest => {
                let cut = self.cut(&shared).expect("cheapest mode has a bound");
                let ceiling = cut.best.to_bits();
                let mut kept: Vec<(u64, Program)> = yields
                    .into_iter()
                    .flat_map(|y| y.matches.all)
                    .filter(|(bits, _)| *bits <= ceiling)
                    .collect();
                cheapest_first(&mut kept, max_candidates);
                if kept.is_empty() {
                    SearchOutcome::Unsat
                } else {
                    SearchOutcome::Candidates(kept.into_iter().map(|(_, p)| p).collect())
                }
            }
        }
    }

    /// One worker: claim subtrees off the shared queue until it drains (or
    /// the deadline fires) and search each with the sequential DFS.
    fn worker(
        &self,
        sh: &SharedSearch,
        subtrees: &[Candidate],
        num_components: usize,
        goal: Goal,
        state: &mut WorkerState,
    ) -> WorkerYield {
        let mut y = WorkerYield::default();
        let mut comps: Vec<Comp> = Vec::with_capacity(num_components);
        loop {
            let i = sh.next.fetch_add(1, Relaxed);
            if i >= subtrees.len() || sh.timed_out.load(Relaxed) {
                break;
            }
            // A lower-indexed subtree already has a program: ours cannot win.
            if goal == Goal::First && sh.found_idx.load(Relaxed) < i {
                continue;
            }
            state.abort = Abort::No;
            let cand = &subtrees[i];
            let snap = state.push(self, &cand.comp, cand.vec.clone());
            comps.push(cand.comp.clone());
            let found = if num_components == 1 {
                self.try_complete(sh, state, &comps, goal, &mut y.matches)
            } else {
                self.dfs(
                    sh,
                    state,
                    &mut comps,
                    num_components - 1,
                    goal,
                    &mut y.matches,
                    i,
                )
            };
            comps.pop();
            state.pop(self, snap);
            if let Some(p) = found {
                y.firsts.push((i, p));
                sh.found_idx.fetch_min(i, Relaxed);
            }
            if state.abort == Abort::TimedOut {
                break;
            }
        }
        y
    }

    /// Per-node bookkeeping: counts the expansion and, every ~4096 nodes,
    /// checks the wall clock and the cross-worker cancellation state.
    /// Returns `true` when the current subtree must be abandoned.
    fn tick(&self, sh: &SharedSearch, state: &mut WorkerState, goal: Goal, my_idx: usize) -> bool {
        if state.abort != Abort::No {
            return true;
        }
        state.nodes += 1;
        if state.nodes & TIMEOUT_CHECK_MASK == 0 {
            if sh.timed_out.load(Relaxed) {
                state.abort = Abort::TimedOut;
            } else if goal == Goal::First && sh.found_idx.load(Relaxed) < my_idx {
                state.abort = Abort::Superseded;
            } else if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    sh.timed_out.store(true, Relaxed);
                    state.abort = Abort::TimedOut;
                }
            }
        }
        state.abort != Abort::No
    }

    /// The thresholds of branch-and-bound (cheapest mode); `None` in
    /// first-solution mode, which never cuts on cost.
    fn cut(&self, sh: &SharedSearch) -> Option<Cut> {
        self.cost_bound.map(|query| Cut {
            query,
            best: query.min(f64::from_bits(sh.best_bound.load(Relaxed))),
        })
    }

    /// Branch-and-bound (cheapest mode): cut a prefix when
    /// [`Self::exceeds`] shows no completion of it can be the result.
    fn bnb_cut(&self, sh: &SharedSearch, state: &WorkerState, remaining: usize) -> bool {
        self.cut(sh).is_some_and(|cut| {
            self.exceeds(
                cut,
                state.latency_sum,
                state.max_mdepth,
                state.rots_charged,
                remaining,
            )
        })
    }

    /// Whether a prefix with running latency `latency_sum`, maximum
    /// multiplicative depth `max_mdepth`, `rots_charged` distinct
    /// `(value, rotation)` pairs and `remaining` components still to place
    /// can be cut under `cut`. Two bounds, each against its own threshold:
    ///
    /// * without spec terms, [`Self::lower_bound`] floors *every*
    ///   completion, so a prefix it puts strictly above `cut.best` only
    ///   extends to programs strictly costlier than a correct one already
    ///   found. Cutting it can never change the candidate list, however
    ///   the workers' timing lowered `cut.best`;
    /// * with the spec terms, it floors only the *correct* completions.
    ///   A program that matches the examples without being correct may
    ///   cost less, and returning it is what makes CEGIS add a
    ///   counter-example. So this bound is compared with the caller's
    ///   fixed `cut.query` only: which programs it cuts is then a function
    ///   of the query, never of when another worker found what.
    ///
    /// Both comparisons are strict — the bound is *tie-inclusive* — so a
    /// program costing exactly the bound (or tied with the optimum) stays
    /// alive in every subtree. That is what makes the merge
    /// partition-independent, and the cheapest-mode result a canonical
    /// function of the query alone: the CEGIS optimizer passes the
    /// incumbent's cost as the bound and gets the same candidate list
    /// back at any thread count.
    fn exceeds(
        &self,
        cut: Cut,
        latency_sum: f64,
        max_mdepth: u32,
        rots_charged: usize,
        remaining: usize,
    ) -> bool {
        let bound = |spec| self.lower_bound(spec, latency_sum, max_mdepth, rots_charged, remaining);
        bound(SpecBounds::NONE) > cut.best || bound(self.spec) > cut.query
    }

    /// A lower bound on the cost of every completion of a prefix (see
    /// [`Self::exceeds`] for the arguments) that meets `spec`; with
    /// [`SpecBounds::NONE`], of every completion. With `D` =
    /// `spec.mult_depth` and `R` = `spec.rotations`:
    ///
    /// * the output of a program meeting `spec` has depth ≥ `D`, and each
    ///   component raises depth by at most one, and only if it multiplies,
    ///   so at least `D − m` of the remaining components are multiplies
    ///   (infinite if fewer components remain), each priced at the
    ///   sketch's cheapest multiply;
    /// * the other remaining components cost at least the cheapest op;
    /// * such a program materializes at least `R` rotations, one per
    ///   distinct `(value, rotation)` pair, so `R − rots_charged` more are
    ///   priced at the rotation latency. A component places at most one new
    ///   rotation per rotated hole, so the bound is infinite when the
    ///   remaining components (`D − m` of them multiplies) have fewer
    ///   rotated holes than rotations are missing;
    /// * the final depth factor is at least `1 + max(m, D)`.
    ///
    /// Every term is what an extension adds at least, so the bound is
    /// admissible, and the optimum, being correct, is never cut. The terms
    /// are summed in another order than `push` accumulates a completion's
    /// latency, so the bound is shrunk by a relative [`BOUND_MARGIN`]: a
    /// completion tied with the threshold then survives the strict
    /// comparison despite rounding.
    fn lower_bound(
        &self,
        spec: SpecBounds,
        latency_sum: f64,
        max_mdepth: u32,
        rots_charged: usize,
        remaining: usize,
    ) -> f64 {
        let muls = spec.mult_depth.saturating_sub(max_mdepth) as usize;
        if muls > remaining {
            return f64::INFINITY;
        }
        let rots_missing = spec.rotations.saturating_sub(rots_charged);
        if rots_missing > 0
            && rots_missing > muls * self.mul_rot_holes + (remaining - muls) * self.op_rot_holes
        {
            return f64::INFINITY;
        }
        // `muls · ∞` for a sketch without multiplies only when one is needed.
        let mul_term = if muls == 0 {
            0.0
        } else {
            muls as f64 * self.min_mul_latency
        };
        let rot_term = rots_missing as f64 * self.rot_latency;
        let rest = (remaining - muls) as f64 * self.min_op_latency;
        (latency_sum + mul_term + rot_term + rest)
            * (1.0 + max_mdepth.max(spec.mult_depth) as f64)
            * (1.0 - BOUND_MARGIN)
    }

    /// Whether a candidate component (sketch op `op_idx`, `None` for an
    /// explicit rotation, on `(value, index into rots)` operands) can be
    /// dropped before its value is computed: with `remaining` components
    /// after it, its child [`Self::exceeds`] `cut`, or, for the last
    /// component, the completed program's exact cost exceeds `cut.best`:
    /// such a program is over the caller's bound or strictly costlier than
    /// one already verified, so dropping it never changes the result. The
    /// spec terms stay out of it: a completion below the spec's depth is
    /// wrong, but it stays a candidate, and the replay that rejects it adds
    /// its counter-example, so cutting it would change how many examples a
    /// query ends with.
    fn prices_out(
        &self,
        state: &WorkerState,
        cut: Option<Cut>,
        op_idx: Option<usize>,
        lhs: (usize, usize),
        rhs: Option<(usize, usize)>,
        remaining: usize,
    ) -> bool {
        let Some(cut) = cut else {
            return false;
        };
        let p = state.price(self, op_idx, lhs, rhs);
        let max_mdepth = state.max_mdepth.max(p.mdepth);
        if remaining == 0 {
            objective(p.latency_sum, max_mdepth) > cut.best
        } else {
            self.exceeds(cut, p.latency_sum, max_mdepth, p.rots_charged, remaining)
        }
    }

    /// Accepts or rejects a fully placed component list. In first-solution
    /// mode a surviving program is returned to short-circuit the DFS; in
    /// cheapest mode it joins the worker's matches, and tightens the shared
    /// bound if it is correct and cheaper than the bound.
    fn try_complete(
        &self,
        sh: &SharedSearch,
        state: &WorkerState,
        comps: &[Comp],
        goal: Goal,
        matches: &mut Matches,
    ) -> Option<Program> {
        // All components used check: every intermediate except the last
        // must have a use.
        let all_used = state
            .avail
            .iter()
            .skip(self.num_inputs)
            .take(comps.len() - 1)
            .all(|a| a.uses > 0);
        if !all_used {
            return None;
        }
        let final_cost = objective(state.latency_sum, state.max_mdepth);
        debug_assert_eq!(
            final_cost.to_bits(),
            eager_cost(&self.materialize(comps), self.latency).to_bits(),
            "the running sum prices a completion as `eager_cost` does"
        );
        match goal {
            Goal::First => Some(self.materialize(comps)),
            Goal::Cheapest => {
                // Tie-inclusive: a program costing exactly the bound is
                // kept and competes on the serialization tie-break.
                let cut = self.cut(sh).expect("cheapest mode has a bound");
                if final_cost > cut.best {
                    return None;
                }
                let prog = self.materialize(comps);
                let cost_bits = final_cost.to_bits();
                // Only a correct program cheaper than the bound can lower
                // it. One below the spec's depth or rotation count is
                // wrong (`spec_bounds`) and needs no check.
                let may_be_correct = state.max_mdepth >= self.spec.mult_depth
                    && state.rots_charged >= self.spec.rotations;
                if final_cost < cut.best && may_be_correct && verify::is_correct(&prog, self.kernel)
                {
                    sh.best_bound.fetch_min(cost_bits, Relaxed);
                    matches.all.retain(|(bits, _)| *bits <= cost_bits);
                    matches.verified = Some((cost_bits, prog.clone()));
                }
                matches.keep(cost_bits, prog, sh.max_candidates);
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        sh: &SharedSearch,
        state: &mut WorkerState,
        comps: &mut Vec<Comp>,
        remaining: usize,
        goal: Goal,
        matches: &mut Matches,
        my_idx: usize,
    ) -> Option<Program> {
        if self.tick(sh, state, goal, my_idx) {
            return None;
        }
        // Dead-code bound: every unused intermediate must be consumable by
        // the remaining components (two ct operands each).
        let unused = state
            .avail
            .iter()
            .skip(self.num_inputs)
            .filter(|a| a.uses == 0)
            .count();
        if unused > 2 * remaining {
            return None;
        }
        if self.bnb_cut(sh, state, remaining) {
            return None;
        }

        let is_last = remaining == 1;
        state.fill_rotations(self);
        let candidates = self.candidates(state, comps.last(), remaining, self.cut(sh));
        for cand in candidates {
            if state.abort != Abort::No {
                return None;
            }
            let snap = state.push(self, &cand.comp, cand.vec);
            comps.push(cand.comp);
            let found = if is_last {
                self.try_complete(sh, state, comps, goal, matches)
            } else {
                self.dfs(sh, state, comps, remaining - 1, goal, matches, my_idx)
            };
            comps.pop();
            state.pop(self, snap);
            if found.is_some() {
                return found;
            }
        }
        None
    }

    fn rotate_concat(&self, v: &[u64], r: i64) -> Vec<u64> {
        let mut out = Vec::with_capacity(v.len());
        self.rotate_onto(v, r, &mut out);
        out
    }

    /// Appends [`Self::rotate_concat`]`(v, r)` to `out`.
    fn rotate_onto(&self, v: &[u64], r: i64, out: &mut Vec<u64>) {
        let shift = r.rem_euclid(self.n as i64) as usize;
        for chunk in v.chunks_exact(self.n) {
            out.extend_from_slice(&chunk[shift..]);
            out.extend_from_slice(&chunk[..shift]);
        }
    }

    fn apply_op(&self, op: &ArithOp, op_idx: usize, lhs: &[u64], rhs: Option<&[u64]>) -> Vec<u64> {
        let rhs = self.right_operand(op, op_idx, rhs);
        lhs.iter()
            .zip(rhs)
            .map(|(&a, &b)| op_mod(op, a, b, self.t))
            .collect()
    }

    /// The right operand of `op`: `rhs` for a ct×ct op, the sketch op's
    /// plaintext values for a ct×pt one.
    fn right_operand<'v>(
        &'v self,
        op: &ArithOp,
        op_idx: usize,
        rhs: Option<&'v [u64]>,
    ) -> &'v [u64] {
        if op.binary_ct() {
            rhs.expect("a ct×ct op has a right operand")
        } else {
            self.pt_values[op_idx]
                .as_deref()
                .expect("a ct×pt op has plaintext values")
        }
    }

    fn matches_target(&self, v: &[u64]) -> bool {
        self.mask_idx.iter().all(|&i| v[i] == self.target[i])
    }

    /// Enumerates the legal components for the next slot, `remaining`
    /// counting it, minus those [`Self::prices_out`] drops under `cut`.
    /// The caller has filled `state`'s rotation cache for every available
    /// value.
    fn candidates(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        remaining: usize,
        cut: Option<Cut>,
    ) -> Vec<Candidate> {
        debug_assert_eq!(state.rotated_filled, state.avail.len());
        if remaining == 1 {
            self.candidates_last(state, prev, cut)
        } else {
            self.candidates_mid(state, prev, remaining, cut)
        }
    }

    /// How many operand rotations each hole of `sop` ranges over (indices
    /// into `rots`; only rotation 0 in explicit mode or on a plain hole).
    fn hole_rots(&self, sop: &SketchOp) -> (usize, usize) {
        let explicit = self.sketch.mode == SketchMode::ExplicitRotate;
        let count = |rotated: bool| {
            if !explicit && rotated {
                self.rots.len()
            } else {
                1
            }
        };
        (count(sop.lhs_rot), count(sop.rhs_rot))
    }

    /// What the other operand of a binary ciphertext op must hold at the
    /// first masked slot for `op` to hit the target there, given one
    /// operand's value vector `known` (the left operand when
    /// `known_is_lhs`).
    fn partner_need(&self, op: &ArithOp, known: &[u64], known_is_lhs: bool) -> PartnerValue {
        match self.mask_idx.first() {
            Some(&i) => partner_value(op, self.t, known[i], known_is_lhs, self.target[i]),
            None => PartnerValue::Any,
        }
    }

    /// Whether `partner` passes [`Self::partner_need`]'s first-slot test.
    fn partner_admits(&self, need: PartnerValue, partner: &[u64]) -> bool {
        match need {
            PartnerValue::Exactly(v) => partner[self.mask_idx[0]] == v,
            PartnerValue::Nothing => false,
            PartnerValue::Any => true,
        }
    }

    fn candidates_mid(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        remaining: usize,
        cut: Option<Cut>,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        let rotated = state.rotations();
        let explicit = self.sketch.mode == SketchMode::ExplicitRotate;
        for (op_idx, sop) in self.sketch.ops.iter().enumerate() {
            let (lhs_rots, rhs_rots) = self.hole_rots(sop);
            if sop.op.binary_ct() {
                let symmetric_holes = sop.lhs_rot == sop.rhs_rot;
                for li in 0..state.avail.len() {
                    for lr in 0..lhs_rots {
                        for ri in 0..state.avail.len() {
                            for rr in 0..rhs_rots {
                                if sop.op.commutative() {
                                    // Canonical operand order.
                                    if symmetric_holes && (ri, rr) < (li, lr) {
                                        continue;
                                    }
                                    // Asymmetric holes: only the unrotated
                                    // case is genuinely symmetric.
                                    if !symmetric_holes && self.rots[rr] == 0 && ri < li {
                                        continue;
                                    }
                                }
                                // sub of identical operands is zero: skip.
                                if matches!(sop.op, ArithOp::SubCtCt) && li == ri && lr == rr {
                                    continue;
                                }
                                if self.prices_out(
                                    state,
                                    cut,
                                    Some(op_idx),
                                    (li, lr),
                                    Some((ri, rr)),
                                    remaining - 1,
                                ) {
                                    continue;
                                }
                                let vec = self.apply_op(
                                    &sop.op,
                                    op_idx,
                                    &rotated[li][lr],
                                    Some(&rotated[ri][rr]),
                                );
                                self.consider(
                                    state,
                                    prev,
                                    false,
                                    Comp::Arith {
                                        op_idx,
                                        lhs: (li, self.rots[lr]),
                                        rhs: Some((ri, self.rots[rr])),
                                    },
                                    vec,
                                    &mut out,
                                );
                            }
                        }
                    }
                }
            } else {
                for (li, variants) in rotated.iter().enumerate() {
                    for (lr, lhs) in variants.iter().enumerate().take(lhs_rots) {
                        if self.prices_out(state, cut, Some(op_idx), (li, lr), None, remaining - 1)
                        {
                            continue;
                        }
                        let vec = self.apply_op(&sop.op, op_idx, lhs, None);
                        self.consider(
                            state,
                            prev,
                            false,
                            Comp::Arith {
                                op_idx,
                                lhs: (li, self.rots[lr]),
                                rhs: None,
                            },
                            vec,
                            &mut out,
                        );
                    }
                }
            }
        }

        // Explicit-rotation components (ablation mode).
        if explicit {
            for (val, a) in state.avail.iter().enumerate() {
                if a.is_rot_result {
                    continue; // no nested rotations, as in the paper
                }
                if self.prices_out(state, cut, None, (val, 0), None, remaining - 1) {
                    continue;
                }
                for &r in &self.sketch.rotation_amounts {
                    let vec = self.rotate_concat(&a.vec, r);
                    self.consider(
                        state,
                        prev,
                        false,
                        Comp::Rot { val, amount: r },
                        vec,
                        &mut out,
                    );
                }
            }
        }
        out
    }

    /// Goal-directed final component (§6-style formulation optimization):
    /// it must produce the target on the masked slots *and* consume every
    /// still-unused intermediate, so enumeration is restricted to the (at
    /// most two) unused values. A right operand is first tested on the
    /// first masked slot against the value the left one needs there
    /// ([`partner_value`]), then with an early-exit masked comparison,
    /// before the full vector is materialized.
    fn candidates_last(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        cut: Option<Cut>,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        let rotated = state.rotations();
        let (mut unused, mut num_unused) = ([0; 2], 0);
        for (i, a) in state.avail.iter().enumerate().skip(self.num_inputs) {
            if a.uses == 0 {
                if num_unused == 2 {
                    return out;
                }
                unused[num_unused] = i;
                num_unused += 1;
            }
        }
        let explicit = self.sketch.mode == SketchMode::ExplicitRotate;
        // Operand pools as value ranges: one unused value, or every value.
        let (one, all) = (|i: usize| i..i + 1, 0..state.avail.len());
        // (lhs pool, rhs pool) pairs that cover the unused values.
        let pools = match unused[..num_unused] {
            [a, b] => [Some((one(a), one(b))), Some((one(b), one(a)))],
            [a] => [Some((one(a), all.clone())), Some((all.clone(), one(a)))],
            _ => [Some((all.clone(), all.clone())), None],
        };
        // The pool of a unary op or rotation, which consumes one value.
        let unary_pool = match unused[..num_unused] {
            [a] => Some(one(a)),
            [] => Some(all),
            _ => None,
        };

        for (op_idx, sop) in self.sketch.ops.iter().enumerate() {
            let op = &sop.op;
            let (lhs_rots, rhs_rots) = self.hole_rots(sop);
            if op.binary_ct() {
                let symmetric_holes = sop.lhs_rot == sop.rhs_rot;
                for (lhs_pool, rhs_pool) in pools.iter().flatten() {
                    for li in lhs_pool.clone() {
                        for (lr, lhs) in rotated[li].iter().enumerate().take(lhs_rots) {
                            // Priced without its right operand, the program
                            // costs no more than with it (float sums and
                            // products are monotone), so this floors every
                            // completion with this left operand.
                            if self.prices_out(state, cut, Some(op_idx), (li, lr), None, 0) {
                                continue;
                            }
                            let lhs_rot = self.rots[lr];
                            let need = self.partner_need(op, lhs, true);
                            if need == PartnerValue::Nothing {
                                continue;
                            }
                            for ri in rhs_pool.clone() {
                                for (rr, rhs) in rotated[ri].iter().enumerate().take(rhs_rots) {
                                    let rhs_rot = self.rots[rr];
                                    if op.commutative()
                                        && symmetric_holes
                                        && (ri, rhs_rot) < (li, lhs_rot)
                                    {
                                        continue;
                                    }
                                    if matches!(op, ArithOp::SubCtCt)
                                        && li == ri
                                        && lhs_rot == rhs_rot
                                    {
                                        continue;
                                    }
                                    if !self.partner_admits(need, rhs)
                                        || self.prices_out(
                                            state,
                                            cut,
                                            Some(op_idx),
                                            (li, lr),
                                            Some((ri, rr)),
                                            0,
                                        )
                                        || !self.masked_match(op, op_idx, lhs, Some(rhs))
                                    {
                                        continue;
                                    }
                                    let vec = self.apply_op(op, op_idx, lhs, Some(rhs));
                                    self.consider(
                                        state,
                                        prev,
                                        true,
                                        Comp::Arith {
                                            op_idx,
                                            lhs: (li, lhs_rot),
                                            rhs: Some((ri, rhs_rot)),
                                        },
                                        vec,
                                        &mut out,
                                    );
                                }
                            }
                        }
                    }
                }
            } else if let Some(pool) = &unary_pool {
                for li in pool.clone() {
                    for (lr, lhs) in rotated[li].iter().enumerate().take(lhs_rots) {
                        if self.prices_out(state, cut, Some(op_idx), (li, lr), None, 0)
                            || !self.masked_match(op, op_idx, lhs, None)
                        {
                            continue;
                        }
                        let vec = self.apply_op(op, op_idx, lhs, None);
                        self.consider(
                            state,
                            prev,
                            true,
                            Comp::Arith {
                                op_idx,
                                lhs: (li, self.rots[lr]),
                                rhs: None,
                            },
                            vec,
                            &mut out,
                        );
                    }
                }
            }
        }

        if let Some(pool) = unary_pool.filter(|_| explicit) {
            for val in pool {
                if state.avail[val].is_rot_result
                    || self.prices_out(state, cut, None, (val, 0), None, 0)
                {
                    continue;
                }
                for &r in &self.sketch.rotation_amounts {
                    let vec = self.rotate_concat(&state.avail[val].vec, r);
                    if !self.matches_target(&vec) {
                        continue;
                    }
                    self.consider(
                        state,
                        prev,
                        true,
                        Comp::Rot { val, amount: r },
                        vec,
                        &mut out,
                    );
                }
            }
        }
        out
    }

    /// Early-exit check that `op(lhs, rhs)` equals the target on every
    /// masked slot.
    fn masked_match(&self, op: &ArithOp, op_idx: usize, lhs: &[u64], rhs: Option<&[u64]>) -> bool {
        let rhs = self.right_operand(op, op_idx, rhs);
        self.mask_idx
            .iter()
            .all(|&i| op_mod(op, lhs[i], rhs[i], self.t) == self.target[i])
    }

    fn consider(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        is_last: bool,
        comp: Comp,
        vec: Vec<u64>,
        out: &mut Vec<Candidate>,
    ) {
        if is_last {
            if !self.matches_target(&vec) {
                return;
            }
        } else {
            // Observational equivalence: skip values identical to an
            // existing one on every example. A handful of values are
            // available and two distinct ones differ in their first few
            // slots, so a scan beats hashing the candidate.
            if state.avail.iter().any(|a| a.vec == vec) {
                return;
            }
        }
        // Symmetry: adjacent independent components must be ordered.
        if let Some(prev) = prev {
            if !comp_uses_last(&comp, state.avail.len() - 1) && comp_key(&comp) < comp_key(prev) {
                return;
            }
        }
        out.push(Candidate { comp, vec });
    }

    /// Lowers a component list to a Quill [`Program`], materializing each
    /// distinct `(value, rotation)` pair as one `rot-ct` instruction.
    fn materialize(&self, comps: &[Comp]) -> Program {
        let mut instrs: Vec<Instr> = Vec::new();
        // avail index → ValRef
        let mut refs: Vec<ValRef> = (0..self.num_inputs).map(ValRef::Input).collect();
        let mut rot_memo: HashMap<(usize, i64), ValRef> = HashMap::new();
        for comp in comps {
            match comp {
                Comp::Arith { op_idx, lhs, rhs } => {
                    let mut resolve =
                        |(val, rot): (usize, i64), instrs: &mut Vec<Instr>| -> ValRef {
                            if rot == 0 {
                                refs[val]
                            } else {
                                *rot_memo.entry((val, rot)).or_insert_with(|| {
                                    instrs.push(Instr::RotCt(refs[val], rot));
                                    ValRef::Instr(instrs.len() - 1)
                                })
                            }
                        };
                    let l = resolve(*lhs, &mut instrs);
                    let r = rhs.map(|rhs| resolve(rhs, &mut instrs));
                    let instr = self.sketch.ops[*op_idx].op.instr(l, r);
                    instrs.push(instr);
                    refs.push(ValRef::Instr(instrs.len() - 1));
                }
                Comp::Rot { val, amount } => {
                    instrs.push(Instr::RotCt(refs[*val], *amount));
                    refs.push(ValRef::Instr(instrs.len() - 1));
                }
            }
        }
        let output = *refs.last().expect("at least one component");
        let num_pt = self
            .pt_values
            .iter()
            .zip(&self.sketch.ops)
            .filter_map(|(_, op)| match &op.op {
                ArithOp::AddCtPt(PtOperand::Input(i))
                | ArithOp::SubCtPt(PtOperand::Input(i))
                | ArithOp::MulCtPt(PtOperand::Input(i)) => Some(*i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let prog = Program::new(self.name.clone(), self.num_inputs, num_pt, instrs, output);
        debug_assert!(prog.validate().is_ok(), "materialized program invalid");
        prog
    }
}

struct Candidate {
    comp: Comp,
    vec: Vec<u64>,
}

/// Encodes a component for the adjacent-independent-component ordering.
fn comp_key(c: &Comp) -> (usize, usize, i64, usize, i64) {
    match c {
        Comp::Arith { op_idx, lhs, rhs } => (
            *op_idx,
            lhs.0,
            lhs.1,
            rhs.map(|r| r.0).unwrap_or(usize::MAX),
            rhs.map(|r| r.1).unwrap_or(0),
        ),
        Comp::Rot { val, amount } => (usize::MAX, *val, *amount, 0, 0),
    }
}

fn comp_uses_last(c: &Comp, last_idx: usize) -> bool {
    match c {
        Comp::Arith { lhs, rhs, .. } => {
            lhs.0 == last_idx || rhs.map(|r| r.0 == last_idx).unwrap_or(false)
        }
        Comp::Rot { val, .. } => *val == last_idx,
    }
}

/// The mutable half of the search: one per worker thread, restored with
/// snapshots on backtrack.
struct WorkerState {
    avail: Vec<AvailEntry>,
    /// `rotated[i][k]` is `avail[i].vec` rotated by `ctx.rots[k]`, for
    /// `i < rotated_filled`. Filled by [`WorkerState::fill_rotations`]
    /// just before a node enumerates candidates, so each value is rotated
    /// once. `pop` only lowers `rotated_filled`: the buffers past it are
    /// reused by the next value, so the DFS allocates none in steady state.
    rotated: Vec<Vec<Vec<u64>>>,
    rotated_filled: usize,
    /// `rot_reads[i · ctx.rots.len() + k]`: how many placed operands read
    /// `avail[i]` rotated by `ctx.rots[k]`. Kept in step with `avail`.
    rot_reads: Vec<u32>,
    /// Nonzero-rotation pairs in `rot_reads` with a nonzero count: each is
    /// one `rot-ct` of the materialized program, charged one rotation
    /// latency.
    rots_charged: usize,
    latency_sum: f64,
    max_mdepth: u32,
    /// Expansions since the worker started (drives the deadline cadence).
    nodes: u64,
    abort: Abort,
}

struct Snapshot {
    latency_sum: f64,
    max_mdepth: u32,
    rots_charged: usize,
    /// The placed component's `(value, rotation index)` operands.
    operands: [Option<(usize, usize)>; 2],
}

/// What placing one component makes of the running cost: the latency sum
/// (its fresh operand rotations, then its op, in the order `materialize`
/// emits them, so a completion priced before it is placed costs bit for
/// bit what `try_complete` computes, and what `eager_cost` does), the new
/// value's multiplicative depth and the distinct rotations charged.
struct Priced {
    latency_sum: f64,
    mdepth: u32,
    rots_charged: usize,
}

impl WorkerState {
    fn root(ctx: &SearchContext<'_>) -> Self {
        let mut avail = Vec::new();
        for j in 0..ctx.num_inputs {
            let vec: Vec<u64> = ctx
                .examples
                .iter()
                .flat_map(|e| e.ct_inputs[j].iter().copied())
                .collect();
            avail.push(AvailEntry {
                vec,
                mdepth: 0,
                uses: 0,
                is_rot_result: false,
            });
        }
        WorkerState {
            rot_reads: vec![0; avail.len() * ctx.rots.len()],
            avail,
            rotated: Vec::new(),
            rotated_filled: 0,
            rots_charged: 0,
            latency_sum: 0.0,
            max_mdepth: 0,
            nodes: 0,
            abort: Abort::No,
        }
    }

    /// Rotates every value pushed since the last fill.
    fn fill_rotations(&mut self, ctx: &SearchContext<'_>) {
        for i in self.rotated_filled..self.avail.len() {
            if i == self.rotated.len() {
                self.rotated.push(vec![Vec::new(); ctx.rots.len()]);
            }
            for (out, &r) in self.rotated[i].iter_mut().zip(&ctx.rots) {
                out.clear();
                ctx.rotate_onto(&self.avail[i].vec, r, out);
            }
        }
        self.rotated_filled = self.avail.len();
    }

    /// The filled rotations, one row per available value.
    fn rotations(&self) -> &[Vec<Vec<u64>>] {
        &self.rotated[..self.rotated_filled]
    }

    /// Prices sketch op `op_idx` (`None`: an explicit rotation of
    /// `lhs.0`) on `(value, index into ctx.rots)` operands without placing
    /// it. A nonzero rotation of a value is charged once, by its first
    /// reader.
    fn price(
        &self,
        ctx: &SearchContext<'_>,
        op_idx: Option<usize>,
        lhs: (usize, usize),
        rhs: Option<(usize, usize)>,
    ) -> Priced {
        let mut p = Priced {
            latency_sum: self.latency_sum,
            mdepth: 0,
            rots_charged: self.rots_charged,
        };
        let fresh_rhs = rhs.filter(|&r| r != lhs);
        for (val, k) in [Some(lhs), fresh_rhs].into_iter().flatten() {
            if ctx.rots[k] != 0 && self.rot_reads[val * ctx.rots.len() + k] == 0 {
                p.latency_sum += ctx.rot_latency;
                p.rots_charged += 1;
            }
        }
        for (val, _) in [Some(lhs), rhs].into_iter().flatten() {
            p.mdepth = p.mdepth.max(self.avail[val].mdepth);
        }
        match op_idx {
            Some(op) => {
                p.latency_sum += ctx.op_latencies[op];
                p.mdepth += ctx.sketch.ops[op].op.is_mul() as u32;
            }
            None => p.latency_sum += ctx.rot_latency,
        }
        p
    }

    /// Places `comp`, whose value is `vec`.
    fn push(&mut self, ctx: &SearchContext<'_>, comp: &Comp, vec: Vec<u64>) -> Snapshot {
        let rot_index = |(val, amount): (usize, i64)| {
            let k = ctx.rots.iter().position(|&r| r == amount);
            (val, k.expect("operand rotation comes from ctx.rots"))
        };
        let (op_idx, lhs, rhs, is_rot) = match comp {
            Comp::Arith { op_idx, lhs, rhs } => {
                (Some(*op_idx), rot_index(*lhs), rhs.map(rot_index), false)
            }
            Comp::Rot { val, .. } => (None, (*val, 0), None, true),
        };
        let p = self.price(ctx, op_idx, lhs, rhs);
        let snap = Snapshot {
            latency_sum: self.latency_sum,
            max_mdepth: self.max_mdepth,
            rots_charged: self.rots_charged,
            operands: [Some(lhs), rhs],
        };
        for (val, k) in [Some(lhs), rhs].into_iter().flatten() {
            self.avail[val].uses += 1;
            self.rot_reads[val * ctx.rots.len() + k] += 1;
        }
        self.latency_sum = p.latency_sum;
        self.rots_charged = p.rots_charged;
        self.max_mdepth = self.max_mdepth.max(p.mdepth);
        self.avail.push(AvailEntry {
            vec,
            mdepth: p.mdepth,
            uses: 0,
            is_rot_result: is_rot,
        });
        self.rot_reads.resize(self.avail.len() * ctx.rots.len(), 0);
        snap
    }

    fn pop(&mut self, ctx: &SearchContext<'_>, snap: Snapshot) {
        self.avail.pop().expect("state underflow");
        self.rotated_filled = self.rotated_filled.min(self.avail.len());
        self.rot_reads.truncate(self.avail.len() * ctx.rots.len());
        for (val, k) in snap.operands.into_iter().flatten() {
            self.avail[val].uses -= 1;
            self.rot_reads[val * ctx.rots.len() + k] -= 1;
        }
        self.latency_sum = snap.latency_sum;
        self.max_mdepth = snap.max_mdepth;
        self.rots_charged = snap.rots_charged;
    }
}

/// The relative amount [`SearchContext::lower_bound`] is shrunk by, so a
/// completion tied with the bound is never cut by rounding: the bound adds
/// its terms in another order than a completion's running sum (which is
/// `eager_cost`'s order), and the margin is far above the error of summing
/// a few dozen latencies (~1e-15 relative). A smaller bound only prunes
/// less, so the margin never changes a result.
const BOUND_MARGIN: f64 = 1e-12;

/// What one slot of a binary ciphertext op's unknown operand must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartnerValue {
    /// Exactly this residue.
    Exactly(u64),
    /// No residue: `0 · b` never equals a nonzero target.
    Nothing,
    /// The slot does not pin the operand down: `0 · b = 0` for every `b`,
    /// or the known operand is a zero divisor of a composite `t`.
    Any,
}

/// The value the unknown operand of `op` must hold at one slot for the op
/// to produce `target` there, given the other operand's value `known` (the
/// left operand when `known_is_lhs`). `known` and `target` are residues
/// mod `t`. Add needs `target − known`; sub needs `known − target` as its
/// right operand or `target + known` as its left; mul needs
/// `target · known⁻¹`.
fn partner_value(
    op: &ArithOp,
    t: u64,
    known: u64,
    known_is_lhs: bool,
    target: u64,
) -> PartnerValue {
    let v = match op {
        ArithOp::AddCtCt => sub_mod(target, known, t),
        ArithOp::SubCtCt if known_is_lhs => sub_mod(known, target, t),
        ArithOp::SubCtCt => add_mod(target, known, t),
        ArithOp::MulCtCt if known == 0 => {
            return if target == 0 {
                PartnerValue::Any
            } else {
                PartnerValue::Nothing
            };
        }
        ArithOp::MulCtCt => match inverse_mod(known, t) {
            Some(inv) => mul_mod(target, inv, t),
            None => return PartnerValue::Any,
        },
        _ => unreachable!("partner values exist for binary ciphertext ops only"),
    };
    PartnerValue::Exactly(v)
}

// Slot arithmetic on residues mod `t`. Every value the searches combine is
// already reduced (`SearchContext::new` asserts it of the examples, and
// every op below keeps it so), so sums and differences need one
// conditional correction, not a division. Products need one; it is a
// 64-bit one whenever `t < 2^32`, which holds for every kernel's
// plaintext modulus, and a 128-bit one only past that.

/// `a + b mod t`.
fn add_mod(a: u64, b: u64, t: u64) -> u64 {
    let (s, carry) = a.overflowing_add(b);
    if carry || s >= t {
        s.wrapping_sub(t)
    } else {
        s
    }
}

/// `a − b mod t`.
fn sub_mod(a: u64, b: u64, t: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a.wrapping_sub(b).wrapping_add(t)
    }
}

/// `a · b mod t`.
fn mul_mod(a: u64, b: u64, t: u64) -> u64 {
    if t <= u32::MAX as u64 {
        a * b % t
    } else {
        (a as u128 * b as u128 % t as u128) as u64
    }
}

/// `op(a, b) mod t`, with `b` the plaintext value for a ct×pt op.
fn op_mod(op: &ArithOp, a: u64, b: u64, t: u64) -> u64 {
    match op {
        ArithOp::AddCtCt | ArithOp::AddCtPt(_) => add_mod(a, b, t),
        ArithOp::SubCtCt | ArithOp::SubCtPt(_) => sub_mod(a, b, t),
        ArithOp::MulCtCt | ArithOp::MulCtPt(_) => mul_mod(a, b, t),
    }
}

/// `a⁻¹ mod t`, if `a` is a unit. The remainders stay in `u64` (a 128-bit
/// division is a slow library call, and the last-level DFS asks for an
/// inverse per left operand); the Bézout coefficients, bounded by `t` in
/// magnitude, need a sign.
fn inverse_mod(a: u64, t: u64) -> Option<u64> {
    let (mut r0, mut r1) = (t, a % t);
    let (mut s0, mut s1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 % r1);
        (s0, s1) = (s1, s0 - q as i128 * s1);
    }
    (r0 == 1).then(|| (if s0 < 0 { s0 + t as i128 } else { s0 }) as u64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sketch::{RotationSet, SketchOp};
    use crate::spec::GenericReference;
    use quill::interp;
    use quill::ring::Ring;
    use rand::SeedableRng;

    /// A cap no candidate list reaches: for the tests of what a whole list
    /// holds, which [`MAX_CANDIDATES`] would cut.
    const UNCAPPED: usize = usize::MAX;

    fn jobs(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    struct SumAll {
        n: usize,
    }

    impl GenericReference for SumAll {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            let total = ct[0].iter().fold(ct[0][0].from_i64(0), |acc, x| acc.add(x));
            vec![total; self.n]
        }
    }

    fn sum_spec(n: usize) -> KernelSpec {
        let mut mask = vec![false; n];
        mask[0] = true;
        KernelSpec::new("sum", n, 1, 0, mask, 65537, Box::new(SumAll { n }))
    }

    #[test]
    fn finds_tree_reduction_for_sum4() {
        let spec = sum_spec(4);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 4 },
            3,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let examples = vec![spec.sample_example(&mut rng)];
        let model = LatencyModel::uniform();
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        // L=1 impossible
        assert_eq!(searcher.run(1, jobs(1)), SearchOutcome::Unsat);
        // L=2: rotate-add tree
        match searcher.run(2, jobs(1)) {
            SearchOutcome::Found(p) => {
                assert!(p.validate().is_ok());
                let out = interp::eval_concrete(&p, &examples[0].ct_inputs, &[], 65537);
                assert_eq!(out[0], examples[0].output[0]);
                // 2 adds + 2 rotations
                assert_eq!(p.len(), 4);
            }
            other => panic!("expected solution, got {other:?}"),
        }
    }

    /// Eight slots need log2(8) = 3 adds: two components exhaust the space
    /// at any thread count, and three find the rotate-add tree.
    #[test]
    fn finds_tree_reduction_for_sum8() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let examples = vec![spec.sample_example(&mut rng)];
        let model = LatencyModel::uniform();
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        for j in [1, 2] {
            assert_eq!(searcher.run(2, jobs(j)), SearchOutcome::Unsat, "jobs={j}");
        }
        match searcher.run(3, jobs(1)) {
            SearchOutcome::Found(p) => {
                assert!(p.validate().is_ok());
                let out = interp::eval_concrete(&p, &examples[0].ct_inputs, &[], 65537);
                assert_eq!(out[0], examples[0].output[0]);
                // 3 adds + 3 rotations
                assert_eq!(p.len(), 6);
            }
            other => panic!("expected solution, got {other:?}"),
        }
    }

    #[test]
    fn cost_bound_prunes_to_unsat() {
        let spec = sum_spec(4);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 4 },
            3,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let examples = vec![spec.sample_example(&mut rng)];
        let model = LatencyModel::uniform();
        // Any solution costs at least 4 (2 adds + 2 rots, uniform): bound 3 → unsat.
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(3.0));
        assert_eq!(searcher.run(2, jobs(1)), SearchOutcome::Unsat);
        assert_eq!(searcher.run(2, jobs(4)), SearchOutcome::Unsat);
    }

    #[test]
    fn explicit_mode_also_finds_solutions_but_searches_more() {
        let spec = sum_spec(2);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 2 },
            3,
        )
        .with_explicit_rotations();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let examples = vec![spec.sample_example(&mut rng)];
        let model = LatencyModel::uniform();
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        // Needs 2 components now: rot + add.
        assert_eq!(searcher.run(1, jobs(1)), SearchOutcome::Unsat);
        match searcher.run(2, jobs(1)) {
            SearchOutcome::Found(p) => {
                let out = interp::eval_concrete(&p, &examples[0].ct_inputs, &[], 65537);
                assert_eq!(out[0], examples[0].output[0]);
            }
            other => panic!("expected solution, got {other:?}"),
        }
    }

    #[test]
    fn partner_values_solve_each_op_for_either_operand() {
        use PartnerValue::{Any, Exactly, Nothing};
        let t = 17;
        // 5 + 15 = 3 (mod 17), whichever side 5 is on.
        assert_eq!(partner_value(&ArithOp::AddCtCt, t, 5, true, 3), Exactly(15));
        assert_eq!(
            partner_value(&ArithOp::AddCtCt, t, 5, false, 3),
            Exactly(15)
        );
        // 5 − 2 = 3 and 8 − 5 = 3; 3 − 15 = 5 wraps.
        assert_eq!(partner_value(&ArithOp::SubCtCt, t, 5, true, 3), Exactly(2));
        assert_eq!(partner_value(&ArithOp::SubCtCt, t, 5, false, 3), Exactly(8));
        assert_eq!(partner_value(&ArithOp::SubCtCt, t, 3, true, 5), Exactly(15));
        // 5 · 4 = 20 = 3 (mod 17).
        assert_eq!(partner_value(&ArithOp::MulCtCt, t, 5, true, 3), Exactly(4));
        assert_eq!(partner_value(&ArithOp::MulCtCt, t, 5, false, 3), Exactly(4));
        // 0 · b is 0 for every b, and never anything else.
        assert_eq!(partner_value(&ArithOp::MulCtCt, t, 0, true, 0), Any);
        assert_eq!(partner_value(&ArithOp::MulCtCt, t, 0, false, 7), Nothing);
        // Under t = 2^16 an even value has no inverse: enumerate instead.
        let t = 1 << 16;
        assert_eq!(partner_value(&ArithOp::MulCtCt, t, 2, true, 6), Any);
        assert_eq!(partner_value(&ArithOp::MulCtCt, t, 6, false, 4), Any);
        // An odd one does: 3 · 43691 = 131073 = 1 (mod 2^16).
        assert_eq!(
            partner_value(&ArithOp::MulCtCt, t, 3, true, 1),
            Exactly(43691)
        );
    }

    /// Against brute force over every residue of a prime and two composite
    /// moduli: `Exactly(v)` means `v` is the one solution, `Nothing` that
    /// there is none, and every unit gets an `Exactly`.
    #[test]
    fn partner_values_match_brute_force() {
        for t in [17u64, 12, 16] {
            for op in [ArithOp::AddCtCt, ArithOp::SubCtCt, ArithOp::MulCtCt] {
                for known in 0..t {
                    for target in 0..t {
                        for known_is_lhs in [true, false] {
                            let apply = |b: u64| {
                                let (l, r) = if known_is_lhs { (known, b) } else { (b, known) };
                                match op {
                                    ArithOp::AddCtCt => (l + r) % t,
                                    ArithOp::SubCtCt => (l + t - r) % t,
                                    _ => l * r % t,
                                }
                            };
                            let sols: Vec<u64> = (0..t).filter(|&b| apply(b) == target).collect();
                            let got = partner_value(&op, t, known, known_is_lhs, target);
                            let case = format!("t={t} {op:?} known={known} target={target}");
                            match got {
                                PartnerValue::Exactly(v) => assert_eq!(sols, vec![v], "{case}"),
                                PartnerValue::Nothing => assert!(sols.is_empty(), "{case}"),
                                PartnerValue::Any => assert!(
                                    matches!(op, ArithOp::MulCtCt)
                                        && inverse_mod(known, t).is_none(),
                                    "{case}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    /// `op(a, b) mod t` the wide way: 128-bit sums and products, one `%`.
    fn wide_op(op: &ArithOp, a: u64, b: u64, t: u64) -> u64 {
        let (a, b, t) = (a as u128, b as u128, t as u128);
        let v = match op {
            ArithOp::AddCtCt | ArithOp::AddCtPt(_) => a + b,
            ArithOp::SubCtCt | ArithOp::SubCtPt(_) => a + t - b,
            ArithOp::MulCtCt | ArithOp::MulCtPt(_) => a * b,
        };
        (v % t) as u64
    }

    /// What [`partner_value`] must return, in 128-bit arithmetic given
    /// [`inverse_mod`] (checked on its own).
    fn wide_partner(
        op: &ArithOp,
        t: u64,
        known: u64,
        known_is_lhs: bool,
        target: u64,
    ) -> PartnerValue {
        let (k, g, t128) = (known as u128, target as u128, t as u128);
        let v = match op {
            ArithOp::AddCtCt => (g + t128 - k) % t128,
            ArithOp::SubCtCt if known_is_lhs => (k + t128 - g) % t128,
            ArithOp::SubCtCt => (g + k) % t128,
            _ if known == 0 && target == 0 => return PartnerValue::Any,
            _ if known == 0 => return PartnerValue::Nothing,
            _ => match inverse_mod(known, t) {
                Some(inv) => g * inv as u128 % t128,
                None => return PartnerValue::Any,
            },
        };
        PartnerValue::Exactly(v as u64)
    }

    /// The slot arithmetic — the 64-bit path of every `t < 2^32` and the
    /// 128-bit one past it — agrees with 128-bit reference arithmetic:
    /// `apply_op` and `masked_match` for every op, `partner_value` for
    /// every binary one on either side, and `inverse_mod` (a unit gets an
    /// inverse, a non-unit none). Every residue pair under `t = 16` and
    /// `17`; random residues, with 0, 1 and `t − 1`, under 65537 and the
    /// prime `2^61 − 1`.
    #[test]
    fn slot_arithmetic_matches_wide_arithmetic() {
        use rand::Rng;
        let ops = [
            ArithOp::AddCtCt,
            ArithOp::SubCtCt,
            ArithOp::MulCtCt,
            ArithOp::AddCtPt(PtOperand::Input(0)),
            ArithOp::SubCtPt(PtOperand::Input(0)),
            ArithOp::MulCtPt(PtOperand::Input(0)),
        ];
        let sketch = Sketch::new(
            ops.iter().cloned().map(SketchOp::plain).collect(),
            RotationSet::Explicit(Vec::new()),
            1,
        );
        let model = LatencyModel::uniform();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for t in [16u64, 17, 65537, (1 << 61) - 1] {
            let pairs: Vec<(u64, u64)> = if t < 32 {
                (0..t).flat_map(|a| (0..t).map(move |b| (a, b))).collect()
            } else {
                let edges = [0, 1, t - 1];
                let edge_pairs = edges.iter().flat_map(|&a| edges.map(|b| (a, b)));
                let random = (0..300).map(|_| (rng.gen_range(0..t), rng.gen_range(0..t)));
                edge_pairs.chain(random).collect()
            };
            let (lhs, rhs): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
            let n = pairs.len();
            let spec = KernelSpec::new("arith", n, 2, 1, vec![true; n], t, Box::new(SumAll { n }));
            let examples = [Example {
                ct_inputs: vec![lhs.clone(), rhs.clone()],
                pt_inputs: vec![rhs.clone()],
                output: vec![0; n],
            }];
            let mut ctx = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
            for (op_idx, op) in ops.iter().enumerate() {
                let case = format!("t={t} {op:?}");
                let ct_rhs = op.binary_ct().then_some(rhs.as_slice());
                let want: Vec<u64> = pairs.iter().map(|&(a, b)| wide_op(op, a, b, t)).collect();
                assert_eq!(ctx.apply_op(op, op_idx, &lhs, ct_rhs), want, "{case}");
                ctx.target = want.clone();
                assert!(ctx.masked_match(op, op_idx, &lhs, ct_rhs), "{case}");
                for (i, &v) in want.iter().enumerate() {
                    ctx.target[i] = (v + 1) % t;
                    assert!(
                        !ctx.masked_match(op, op_idx, &lhs, ct_rhs),
                        "{case} slot {i}"
                    );
                    ctx.target[i] = v;
                }
                if !op.binary_ct() {
                    continue;
                }
                for &(known, target) in &pairs {
                    for known_is_lhs in [true, false] {
                        assert_eq!(
                            partner_value(op, t, known, known_is_lhs, target),
                            wide_partner(op, t, known, known_is_lhs, target),
                            "{case} known={known} target={target} lhs={known_is_lhs}"
                        );
                    }
                }
            }
            let gcd = |mut a: u64, mut b: u64| {
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a
            };
            for &(a, _) in &pairs {
                match inverse_mod(a, t) {
                    Some(v) => assert!(
                        v < t && a as u128 * v as u128 % t as u128 == 1,
                        "t={t} a={a}"
                    ),
                    None => assert_ne!(gcd(a, t), 1, "t={t} a={a}"),
                }
            }
        }
    }

    /// Slot 0 holds `Σ_k f(x_k, y_k)` over all `n` slots: `f = x·p` with a
    /// plaintext `p` (a dot product) or `(x − y)²` (a squared distance).
    struct Reduce {
        n: usize,
        squared_distance: bool,
    }

    impl GenericReference for Reduce {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], pt: &[Vec<R>]) -> Vec<R> {
            let zero = ct[0][0].from_i64(0);
            let total = (0..self.n).fold(zero.clone(), |acc, k| {
                let term = if self.squared_distance {
                    let d = ct[0][k].sub(&ct[1][k]);
                    d.mul(&d)
                } else {
                    ct[0][k].mul(&pt[0][k])
                };
                acc.add(&term)
            });
            let mut out = vec![zero; self.n];
            out[0] = total;
            out
        }
    }

    fn reduce_spec(n: usize, squared_distance: bool) -> KernelSpec {
        let mut mask = vec![false; n];
        mask[0] = true;
        let (ct, pt) = if squared_distance { (2, 0) } else { (1, 1) };
        let reference = Box::new(Reduce {
            n,
            squared_distance,
        });
        KernelSpec::new("reduce", n, ct, pt, mask, 65537, reference)
    }

    #[test]
    fn spec_bounds_read_degree_and_slot_offsets() {
        let bounds = |mult_depth, rotations| SpecBounds {
            mult_depth,
            rotations,
        };
        // Four offsets of one input: two rotations, no multiply.
        assert_eq!(spec_bounds(&sum_spec(4)), bounds(0, 2));
        // Plaintext variables count toward the offsets and the degree.
        assert_eq!(spec_bounds(&reduce_spec(8, false)), bounds(1, 3));
        assert_eq!(spec_bounds(&reduce_spec(4, true)), bounds(1, 2));
        // Only a constant slot is masked: nothing to multiply or gather.
        let mut constant = reduce_spec(2, true);
        constant.output_mask = vec![false, true];
        assert_eq!(spec_bounds(&constant), bounds(0, 0));
    }

    /// A component places at most one new rotation per rotated hole, so a
    /// prefix with fewer rotated holes left than rotations missing has no
    /// correct completion; the bound without spec terms never says so.
    #[test]
    fn rotation_room_prices_out_prefixes_that_cannot_gather_the_offsets() {
        let model = LatencyModel::uniform();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // Eight offsets need three rotations; an add places at most two.
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            3,
        );
        let examples = [spec.sample_example(&mut rng)];
        let ctx = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(1e12));
        assert_eq!((ctx.mul_rot_holes, ctx.op_rot_holes), (0, 2));
        assert_eq!(ctx.lower_bound(ctx.spec, 0.0, 0, 0, 1), f64::INFINITY);
        assert!(ctx.lower_bound(ctx.spec, 0.0, 0, 1, 1).is_finite());
        assert!(ctx.lower_bound(SpecBounds::NONE, 0.0, 0, 0, 1).is_finite());
        // Explicit rotations are components, priced as such.
        let explicit = sketch.clone().with_explicit_rotations();
        let ablation = SearchContext::new(&spec, &explicit, &examples, &model, None, Some(1e12));
        assert!(ablation
            .lower_bound(ablation.spec, 0.0, 0, 0, 1)
            .is_finite());

        // A squared distance needs a multiply, and the plain multiply
        // places no rotation: one remaining component cannot also gather
        // the two rotations, two can.
        let spec = reduce_spec(4, true);
        let sketch = Sketch::new(
            vec![
                SketchOp::plain(ArithOp::SubCtCt),
                SketchOp::plain(ArithOp::MulCtCt),
                SketchOp::rotated(ArithOp::AddCtCt),
            ],
            RotationSet::PowersOfTwo { extent: 4 },
            4,
        );
        let examples = [spec.sample_example(&mut rng)];
        let ctx = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(1e12));
        assert_eq!((ctx.mul_rot_holes, ctx.op_rot_holes), (0, 2));
        assert_eq!(ctx.lower_bound(ctx.spec, 0.0, 0, 0, 1), f64::INFINITY);
        assert!(ctx.lower_bound(ctx.spec, 0.0, 0, 0, 2).is_finite());
        assert!(ctx.lower_bound(ctx.spec, 0.0, 1, 1, 1).is_finite());
    }

    /// The spec terms only prune: cheapest mode returns the identical
    /// candidates with them zeroed, at one and two workers; the terms are
    /// off outside cheapest mode and the rotation term in explicit mode.
    #[test]
    fn spec_terms_leave_the_cheapest_program_unchanged() {
        let model = LatencyModel::profiled_default();
        let cases = [
            (
                sum_spec(4),
                vec![SketchOp::rotated(ArithOp::AddCtCt)],
                RotationSet::PowersOfTwo { extent: 4 },
                2,
            ),
            (
                reduce_spec(4, false),
                vec![
                    SketchOp::plain(ArithOp::MulCtPt(PtOperand::Input(0))),
                    SketchOp::rotated(ArithOp::AddCtCt),
                ],
                RotationSet::PowersOfTwo { extent: 4 },
                3,
            ),
            (
                reduce_spec(4, true),
                vec![
                    SketchOp::plain(ArithOp::SubCtCt),
                    SketchOp::plain(ArithOp::MulCtCt),
                    SketchOp::rotated(ArithOp::AddCtCt),
                ],
                RotationSet::PowersOfTwo { extent: 4 },
                4,
            ),
        ];
        for (spec, ops, rotations, components) in cases {
            let sketch = Sketch::new(ops, rotations, components);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let examples: Vec<Example> = (0..3).map(|_| spec.sample_example(&mut rng)).collect();
            let bounds = spec_bounds(&spec);
            let first = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
            assert_eq!(first.spec, SpecBounds::NONE);
            let explicit = sketch.clone().with_explicit_rotations();
            let ablation =
                SearchContext::new(&spec, &explicit, &examples, &model, None, Some(1e12));
            assert_eq!(ablation.spec.rotations, 0);
            assert_eq!(ablation.spec.mult_depth, bounds.mult_depth);

            let mut ctx = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(1e12));
            assert_eq!(ctx.spec, bounds);
            for j in [1, 2] {
                ctx.spec = bounds;
                let SearchOutcome::Candidates(priced) = ctx.run(components, jobs(j)) else {
                    panic!("{components} components, jobs={j}: no program");
                };
                ctx.spec = SpecBounds::NONE;
                let plain = ctx.run(components, jobs(j));
                assert_eq!(plain, SearchOutcome::Candidates(priced.clone()), "jobs={j}");
                let priced = &priced[0];
                let out = interp::eval_concrete(
                    priced,
                    &examples[0].ct_inputs,
                    &examples[0].pt_inputs,
                    65537,
                );
                assert_eq!(out[0], examples[0].output[0]);
                assert!(priced.mult_depth() >= bounds.mult_depth);
                assert!(priced.rot_count() >= bounds.rotations);
            }
        }
    }

    /// A dot product of four slots mod 17 with one example, and the cost of
    /// its correct optimum: under so small a modulus many wrong programs
    /// match one example, and the cheapest of them costs less than the
    /// optimum.
    pub(crate) struct DotMod17 {
        pub(crate) spec: KernelSpec,
        pub(crate) sketch: Sketch,
        /// Eight examples; the queries below use the first.
        pub(crate) examples: Vec<Example>,
        pub(crate) model: LatencyModel,
        /// The optimum's cost.
        pub(crate) bound: f64,
    }

    pub(crate) fn dot_mod_17() -> DotMod17 {
        let (n, t) = (4, 17);
        let mut mask = vec![false; n];
        mask[0] = true;
        let reference = Box::new(Reduce {
            n,
            squared_distance: false,
        });
        let spec = KernelSpec::new("dot", n, 1, 1, mask, t, reference);
        let sketch = Sketch::new(
            vec![
                SketchOp::plain(ArithOp::MulCtPt(PtOperand::Input(0))),
                SketchOp::rotated(ArithOp::AddCtCt),
                SketchOp::rotated(ArithOp::SubCtCt),
            ],
            RotationSet::PowersOfTwo { extent: n },
            3,
        );
        let model = LatencyModel::profiled_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let examples: Vec<Example> = (0..8).map(|_| spec.sample_example(&mut rng)).collect();
        let full = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(1e12));
        let SearchOutcome::Candidates(programs) = full.run(3, jobs(1)) else {
            panic!("no dot product in the sketch");
        };
        let mut verifier = rand::rngs::StdRng::seed_from_u64(0);
        assert!(crate::verify::verify(&programs[0], &spec, &mut verifier).is_ok());
        let bound = quill::cost::eager_cost(&programs[0], &model);
        DotMod17 {
            spec,
            sketch,
            examples,
            model,
            bound,
        }
    }

    /// A program that matches the examples without being correct can cost
    /// less than every correct one, and the spec-derived bound floors only
    /// correct completions. Whether it cuts such a program must not depend
    /// on when a worker found a cheaper one or a correct one: with one
    /// example of [`dot_mod_17`], a cheapest query under the correct
    /// optimum's cost returns the same candidate list at every thread
    /// count and on every run.
    #[test]
    fn spec_terms_cut_the_same_programs_at_any_thread_count() {
        let DotMod17 {
            spec,
            sketch,
            examples,
            model,
            bound,
        } = dot_mod_17();
        let one = &examples[..1];
        let mut ctx = SearchContext::new(&spec, &sketch, one, &model, None, Some(bound));
        let first = ctx.run(3, jobs(1));
        let SearchOutcome::Candidates(candidates) = &first else {
            panic!("the optimum matches its own examples: {first:?}");
        };
        let cheapest = &candidates[0];
        let correct = |p: &Program| crate::verify::is_correct(p, &spec);
        assert!(
            !correct(cheapest) && quill::cost::eager_cost(cheapest, &model) < bound,
            "one example admits a cheaper wrong program: {cheapest}"
        );
        assert!(candidates.iter().any(correct), "the optimum is a candidate");
        // The cheapest matching program has fewer rotations than any
        // correct one, and every prefix of it prices within the bound, so
        // the spec terms keep it. Compared with the cheapest cost found so
        // far, they would cut it once a costlier matching program had been
        // found first.
        assert!(cheapest.rot_count() < spec_bounds(&spec).rotations);
        // Zeroed, they keep every candidate, and cheaper wrong programs
        // besides (the rotation room cuts one with too few rotated holes
        // left for its missing rotations).
        ctx.spec = SpecBounds::NONE;
        let SearchOutcome::Candidates(unpriced) = ctx.run_capped(3, jobs(1), UNCAPPED) else {
            panic!("spec terms zeroed: no candidates");
        };
        assert!(candidates.iter().all(|c| unpriced.contains(c)));
        assert!(unpriced.len() > candidates.len());
        ctx.spec = spec_bounds(&spec);
        for round in 0..3 {
            for j in [1, 2, 4] {
                assert_eq!(ctx.run(3, jobs(j)), first, "jobs={j}, round {round}");
            }
        }
    }

    /// A cheapest query's candidate list is in the order of the cost
    /// `eager_cost` gives each program: the running sum prices every
    /// completion as the objective does, rotations and ct×ct multiplies
    /// included, so the cost bits the list is sorted by are those. Under
    /// `t = 17` one example admits wrong programs cheaper than the optimum,
    /// so each list holds several.
    #[test]
    fn candidate_lists_are_sorted_by_eager_cost() {
        let dot = dot_mod_17();
        let n = 4;
        let mut distance = reduce_spec(n, true);
        distance.t = 17;
        let distance_sketch = Sketch::new(
            vec![
                SketchOp::plain(ArithOp::SubCtCt),
                SketchOp::plain(ArithOp::MulCtCt),
                SketchOp::rotated(ArithOp::AddCtCt),
            ],
            RotationSet::PowersOfTwo { extent: n },
            4,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let distance_examples: Vec<Example> =
            (0..8).map(|_| distance.sample_example(&mut rng)).collect();
        // (.., whether the optimum multiplies ciphertexts)
        let queries = [
            (&dot.spec, &dot.sketch, &dot.examples, 3, false),
            (&distance, &distance_sketch, &distance_examples, 4, true),
        ];
        for (spec, sketch, examples, components, ct_ct) in queries {
            let cheapest = |examples, bound| {
                let ctx = SearchContext::new(spec, sketch, examples, &dot.model, None, bound);
                match ctx.run_capped(components, jobs(2), UNCAPPED) {
                    SearchOutcome::Candidates(programs) => programs,
                    other => panic!("{other:?}"),
                }
            };
            let optimum = &cheapest(&examples[..], Some(1e12))[0];
            assert!(crate::verify::is_correct(optimum, spec), "{optimum}");
            assert!(optimum.rot_count() > 0, "{optimum}");
            assert_eq!(optimum.ct_ct_mul_count() > 0, ct_ct, "{optimum}");
            let bound = eager_cost(optimum, &dot.model);
            let programs = cheapest(&examples[..1], Some(bound));
            assert!(
                programs.len() > 1,
                "{optimum}: one candidate shows no order"
            );
            let bits: Vec<u64> = programs
                .iter()
                .map(|p| eager_cost(p, &dot.model).to_bits())
                .collect();
            assert!(bits.windows(2).all(|w| w[0] <= w[1]), "{bits:x?}");
            assert!(programs.contains(optimum), "{optimum}");
            assert_eq!(bits.last(), Some(&bound.to_bits()), "{optimum}");
        }
    }

    /// A cheapest query whose matching set is larger than its cap returns
    /// exactly the cap's worth of its cheapest entries, in order, at any
    /// thread count: the head of the uncapped list. With one example of
    /// [`dot_mod_17`] the list is long enough that each worker cuts its own
    /// several times.
    #[test]
    fn a_capped_candidate_list_is_the_head_of_the_uncapped_one() {
        let dot = dot_mod_17();
        let one = &dot.examples[..1];
        let ctx = SearchContext::new(
            &dot.spec,
            &dot.sketch,
            one,
            &dot.model,
            None,
            Some(dot.bound),
        );
        let SearchOutcome::Candidates(all) = ctx.run(3, jobs(1)) else {
            panic!("the optimum matches its own examples");
        };
        let cap = 3;
        assert!(all.len() > 4 * cap, "{} candidates", all.len());
        for j in [1, 2] {
            assert_eq!(
                ctx.run_capped(3, jobs(j), cap),
                SearchOutcome::Candidates(all[..cap].to_vec()),
                "jobs={j}"
            );
        }
    }

    /// A cheapest query cut short by its deadline salvages only a program
    /// that passed the verifier, never the cheapest matching one, which
    /// [`dot_mod_17`]'s one example makes wrong.
    #[test]
    fn a_timed_out_cheapest_query_salvages_only_a_verified_program() {
        let DotMod17 {
            spec,
            sketch,
            examples,
            model,
            ..
        } = dot_mod_17();
        // One worker: it reaches its first deadline check (every 4096
        // nodes) before the query is exhausted.
        let expired = Some(Instant::now());
        let ctx = SearchContext::new(&spec, &sketch, &examples[..1], &model, expired, Some(1e12));
        let SearchOutcome::Timeout { best } = ctx.run(3, jobs(1)) else {
            panic!("the query outlives its first deadline check");
        };
        let best = best.expect("a correct program is found within 4096 nodes");
        assert!(crate::verify::is_correct(&best, &spec), "{best}");
    }

    /// Replaying Algorithm 1 over one cheapest query's candidates returns
    /// the program, and ends with the examples, that re-searching after
    /// every counter-example does. The head of a query's list is what that
    /// loop's query returns: the canonical cheapest matching program.
    #[test]
    fn replaying_the_candidates_matches_searching_after_each_counter_example() {
        let DotMod17 {
            spec,
            sketch,
            examples,
            model,
            bound,
        } = dot_mod_17();
        let query = |examples: &[Example]| {
            let ctx = SearchContext::new(&spec, &sketch, examples, &model, None, Some(bound));
            match ctx.run(3, jobs(2)) {
                SearchOutcome::Candidates(programs) => programs,
                other => panic!("the optimum is in the space: {other:?}"),
            }
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut looped = examples[..1].to_vec();
        let mut searches = 0;
        let optimum = loop {
            searches += 1;
            let head = query(&looped).swap_remove(0);
            match crate::verify::verify(&head, &spec, &mut rng) {
                Ok(()) => break head,
                Err(failure) => looped.push(failure.counter_example().expect("a witness")),
            }
        };
        assert!(searches >= 2, "the cheapest matching program is wrong");

        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut replayed = examples[..1].to_vec();
        let candidates = query(&replayed);
        let found = crate::cegis::replay(candidates, &spec, &mut replayed, &mut rng)
            .expect("every failure has a witness");
        assert_eq!(found, Some(optimum));
        assert_eq!(replayed, looped);
    }

    /// The determinism contract at the search layer: any thread count
    /// returns the identical outcome, in both first-solution mode and
    /// cheapest (branch-and-bound) mode.
    #[test]
    fn thread_count_does_not_change_the_result() {
        let spec = sum_spec(8);
        let sketch = Sketch::new(
            vec![
                SketchOp::rotated(ArithOp::AddCtCt),
                SketchOp::rotated(ArithOp::SubCtCt),
            ],
            RotationSet::PowersOfTwo { extent: 8 },
            4,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let examples = vec![spec.sample_example(&mut rng), spec.sample_example(&mut rng)];
        let model = LatencyModel::profiled_default();

        // First-solution mode.
        let first = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        let sequential = first.run(3, jobs(1));
        assert!(matches!(sequential, SearchOutcome::Found(_)));
        for j in [2, 4, 7] {
            assert_eq!(first.run(3, jobs(j)), sequential, "first mode, jobs={j}");
        }

        // Cheapest mode: exhaustive, canonical-order merge.
        let bound = 1e12;
        let cheapest = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(bound));
        let sequential = cheapest.run(3, jobs(1));
        assert!(matches!(sequential, SearchOutcome::Candidates(_)));
        for j in [2, 4, 7] {
            assert_eq!(
                cheapest.run(3, jobs(j)),
                sequential,
                "cheapest mode, jobs={j}"
            );
        }
    }
}
