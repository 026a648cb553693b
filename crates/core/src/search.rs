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
//!   target on the masked slots are expanded at the final component;
//! * **branch-and-bound** — in the optimization phase, prefixes whose cost
//!   lower bound already exceeds the bound are pruned.
//!
//! Like the SMT query, an exhausted search is a *proof* that no program (of
//! the given component count, satisfying the examples, under the cost
//! bound) exists in the sketch.
//!
//! # Two strategies over one space
//!
//! The same `SearchContext` drives two enumeration strategies, selected
//! through [`crate::cegis::SynthesisOptions::strategy`]:
//!
//! * **top-down DFS** (this module) — complete at a fixed component count;
//!   an `Unsat` is a proof. This is what iterative deepening and the
//!   cost-minimization phase run.
//! * **bottom-up term bank** (the crate-private `bottom_up` module) — grows a bank of
//!   sub-terms level by level, deduplicated by their output vector on the
//!   CEGIS examples (observational equivalence) and by cost within a
//!   class, so shared subprograms are derived once instead of re-derived
//!   at every DFS prefix. The bank is capped for breadth, which makes the
//!   strategy incomplete: CEGIS falls back to the DFS when the bank
//!   exhausts without a solution, so `SketchTooRestrictive` remains a real
//!   proof. See the `bottom_up` module docs for the bank layout, the
//!   retention policy, and its determinism contract.
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
//!   available-value arena, the observational-equivalence map, the running
//!   cost). Each worker owns one and restores it with snapshots on
//!   backtrack, exactly as the sequential search always did.
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
//!   found so far) — prefixes whose lower bound *strictly exceeds* it are
//!   cut, which can never cut a program tied with the eventual optimum;
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
//!   branch-and-bound and the canonical minimum is returned, a
//!   partition-independent value.
//!
//! Only a deadline expiry ([`SearchOutcome::Timeout`]) may yield a
//! thread-count-dependent result; it still carries the best program found
//! so far rather than discarding the partial progress.

use crate::sketch::{ArithOp, Sketch, SketchMode};
use crate::spec::{Example, KernelSpec};
use quill::cost::LatencyModel;
use quill::program::{Instr, Program, PtOperand, ValRef};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// One placed component.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Comp {
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
    /// A satisfying program. Without a cost bound this is the first program
    /// in canonical DFS order; with one, the search space was exhausted and
    /// this is the cheapest program of cost ≤ the bound (ties broken by
    /// serialization), so a verified `Found` is optimal within the sketch.
    Found(Program),
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
    /// Exhaust the space and return the canonical cheapest program under
    /// the bound (CEGIS optimization phase).
    Cheapest,
}

/// The immutable, `Sync` half of the search: everything a worker needs to
/// read but never writes. Shared by reference across the `thread::scope`
/// workers of [`SearchContext::run`], and by the bottom-up term bank in
/// [`crate::bottom_up`].
pub(crate) struct SearchContext<'a> {
    pub(crate) sketch: &'a Sketch,
    pub(crate) examples: &'a [Example],
    pub(crate) n: usize,
    pub(crate) t: u64,
    pub(crate) num_inputs: usize,
    /// Target output, concatenated; compared only at `mask_idx`.
    pub(crate) target: Vec<u64>,
    pub(crate) mask_idx: Vec<usize>,
    /// Plaintext operand value per sketch op (concatenated), if any.
    pub(crate) pt_values: Vec<Option<Vec<u64>>>,
    pub(crate) op_latencies: Vec<f64>,
    pub(crate) min_op_latency: f64,
    pub(crate) rot_latency: f64,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cost_bound: Option<f64>,
    pub(crate) name: String,
}

/// Total [`SearchContext::run`] / bottom-up invocations in this process.
/// The synthesis cache's "a hit skips the search entirely" contract is
/// asserted against this counter (not just timing) in the test suite.
static SEARCH_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// How many search queries (DFS or bottom-up) this process has started.
pub fn search_invocations() -> u64 {
    SEARCH_INVOCATIONS.load(Relaxed)
}

pub(crate) fn count_search_invocation() {
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
    /// Bits of the cheapest complete-program cost found so far (cheapest
    /// mode). Monotonically non-increasing; `f64::to_bits` preserves order
    /// for the positive finite costs the latency model produces.
    best_bound: AtomicU64,
    /// Set once the deadline fires anywhere; every worker stops.
    timed_out: AtomicBool,
}

impl SharedSearch {
    fn new() -> Self {
        SharedSearch {
            next: AtomicUsize::new(0),
            found_idx: AtomicUsize::new(usize::MAX),
            best_bound: AtomicU64::new(f64::INFINITY.to_bits()),
            timed_out: AtomicBool::new(false),
        }
    }
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

/// The best complete program a worker has seen, under the canonical
/// `(cost bits, serialization)` order that makes the merge deterministic.
struct Best {
    cost_bits: u64,
    ser: String,
    prog: Program,
}

impl Best {
    fn beats(&self, cost_bits: u64, ser: &str) -> bool {
        (self.cost_bits, self.ser.as_str()) <= (cost_bits, ser)
    }
}

/// Everything one worker brings back from the subtrees it claimed.
#[derive(Default)]
struct WorkerYield {
    /// First-solution mode: `(subtree index, program)` per subtree that
    /// found one. The merge keeps the lowest index.
    firsts: Vec<(usize, Program)>,
    /// Cheapest mode: the canonical best across this worker's subtrees.
    best: Option<Best>,
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
        let mask_idx = (0..examples.len() * n)
            .filter(|i| spec.output_mask[i % n])
            .collect();
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
        let op_latencies: Vec<f64> = sketch
            .ops
            .iter()
            .map(|op| match &op.op {
                ArithOp::AddCtCt => latency.add_ct_ct,
                ArithOp::SubCtCt => latency.sub_ct_ct,
                // The searcher emits no explicit relin-ct; every multiply
                // is charged its eager relinearization (what -O0 executes,
                // and an upper bound on the -O2 placement), keeping the
                // internal accounting consistent with
                // `quill::cost::eager_cost` in the CEGIS driver.
                ArithOp::MulCtCt => latency.mul_ct_ct + latency.relin_ct,
                ArithOp::AddCtPt(_) => latency.add_ct_pt,
                ArithOp::SubCtPt(_) => latency.sub_ct_pt,
                ArithOp::MulCtPt(_) => latency.mul_ct_pt,
            })
            .collect();
        let min_op_latency = op_latencies.iter().copied().fold(f64::INFINITY, f64::min);
        SearchContext {
            sketch,
            examples,
            n,
            t,
            num_inputs: spec.num_ct_inputs,
            target,
            mask_idx,
            pt_values,
            op_latencies,
            min_op_latency,
            rot_latency: latency.rot_ct,
            deadline,
            cost_bound,
            name: spec.name.clone(),
        }
    }

    /// Searches for a program with exactly `num_components` components,
    /// using up to `jobs` worker threads (capped at the subtree count; one
    /// worker runs inline without spawning).
    pub(crate) fn run(&self, num_components: usize, jobs: NonZeroUsize) -> SearchOutcome {
        assert!(
            num_components >= 1,
            "a program needs at least one component"
        );
        count_search_invocation();
        let goal = if self.cost_bound.is_some() {
            Goal::Cheapest
        } else {
            Goal::First
        };
        let mut root = WorkerState::root(self);
        let subtrees = self.candidates(&root, None, num_components == 1);
        let shared = SharedSearch::new();
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
        let best = match goal {
            Goal::First => yields
                .into_iter()
                .flat_map(|y| y.firsts)
                .min_by_key(|(i, _)| *i)
                .map(|(_, p)| p),
            Goal::Cheapest => yields
                .into_iter()
                .filter_map(|y| y.best)
                .min_by(|a, b| (a.cost_bits, &a.ser).cmp(&(b.cost_bits, &b.ser)))
                .map(|b| b.prog),
        };
        match (timed_out, best) {
            (true, best) => SearchOutcome::Timeout { best },
            (false, Some(p)) => SearchOutcome::Found(p),
            (false, None) => SearchOutcome::Unsat,
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
            let snap = state.push(self, cand);
            comps.push(cand.comp.clone());
            let found = if num_components == 1 {
                self.try_complete(sh, state, &comps, goal, &mut y.best)
            } else {
                self.dfs(
                    sh,
                    state,
                    &mut comps,
                    num_components - 1,
                    goal,
                    &mut y.best,
                    i,
                )
            };
            comps.pop();
            state.pop(snap);
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

    /// Branch-and-bound (cheapest mode): cut a prefix whose cost lower
    /// bound *strictly* exceeds the caller's bound or the best cost found
    /// anywhere so far. Both comparisons are strict — the bound is
    /// *tie-inclusive* — so every program costing exactly the bound (or
    /// tied with the global optimum) stays alive in every subtree. That is
    /// what makes the canonical `(cost, serialization)` merge
    /// partition-independent, and it also makes the cheapest-mode result a
    /// canonical function of the query alone: the CEGIS optimizer passes
    /// the incumbent's cost as the bound and always gets the canonical
    /// minimum of the whole tied-or-better class back, regardless of which
    /// strategy produced the incumbent.
    fn bnb_cut(&self, sh: &SharedSearch, state: &WorkerState, remaining: usize) -> bool {
        let Some(bound) = self.cost_bound else {
            return false;
        };
        let lb = (state.latency_sum + remaining as f64 * self.min_op_latency)
            * (1.0 + state.max_mdepth as f64);
        lb > bound || lb > f64::from_bits(sh.best_bound.load(Relaxed))
    }

    /// Accepts or rejects a fully placed component list. In first-solution
    /// mode a surviving program is returned to short-circuit the DFS; in
    /// cheapest mode it is folded into the worker's canonical best and the
    /// shared bound is tightened.
    fn try_complete(
        &self,
        sh: &SharedSearch,
        state: &WorkerState,
        comps: &[Comp],
        goal: Goal,
        best: &mut Option<Best>,
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
        let final_cost = state.latency_sum * (1.0 + state.max_mdepth as f64);
        match goal {
            Goal::First => Some(self.materialize(comps)),
            Goal::Cheapest => {
                // Tie-inclusive: a program costing exactly the bound is
                // kept and competes on the serialization tie-break.
                if self.cost_bound.is_some_and(|b| final_cost > b) {
                    return None;
                }
                let cost_bits = final_cost.to_bits();
                sh.best_bound.fetch_min(cost_bits, Relaxed);
                if best.as_ref().is_some_and(|b| b.cost_bits < cost_bits) {
                    return None; // cheaper program already in hand; skip the serialization
                }
                let prog = self.materialize(comps);
                let ser = prog.to_string();
                if !best.as_ref().is_some_and(|b| b.beats(cost_bits, &ser)) {
                    *best = Some(Best {
                        cost_bits,
                        ser,
                        prog,
                    });
                }
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
        best: &mut Option<Best>,
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
        let candidates = self.candidates(state, comps.last(), is_last);
        for cand in candidates {
            if state.abort != Abort::No {
                return None;
            }
            let snap = state.push(self, &cand);
            comps.push(cand.comp.clone());
            let found = if is_last {
                self.try_complete(sh, state, comps, goal, best)
            } else {
                self.dfs(sh, state, comps, remaining - 1, goal, best, my_idx)
            };
            comps.pop();
            state.pop(snap);
            if found.is_some() {
                return found;
            }
        }
        None
    }

    pub(crate) fn rotate_concat(&self, v: &[u64], r: i64) -> Vec<u64> {
        if r == 0 {
            return v.to_vec();
        }
        let n = self.n;
        let shift = r.rem_euclid(n as i64) as usize;
        let mut out = Vec::with_capacity(v.len());
        for chunk in v.chunks_exact(n) {
            out.extend_from_slice(&chunk[shift..]);
            out.extend_from_slice(&chunk[..shift]);
        }
        out
    }

    pub(crate) fn apply_op(
        &self,
        op: &ArithOp,
        op_idx: usize,
        lhs: &[u64],
        rhs: Option<&[u64]>,
    ) -> Vec<u64> {
        let t = self.t as u128;
        match op {
            ArithOp::AddCtCt => zip_mod(lhs, rhs.unwrap(), self.t, |a, b| a + b),
            ArithOp::SubCtCt => zip_mod(lhs, rhs.unwrap(), self.t, |a, b| a + self.t as u128 - b),
            ArithOp::MulCtCt => lhs
                .iter()
                .zip(rhs.unwrap())
                .map(|(&a, &b)| ((a as u128 * b as u128) % t) as u64)
                .collect(),
            ArithOp::AddCtPt(_) => zip_mod(
                lhs,
                self.pt_values[op_idx].as_ref().unwrap(),
                self.t,
                |a, b| a + b,
            ),
            ArithOp::SubCtPt(_) => zip_mod(
                lhs,
                self.pt_values[op_idx].as_ref().unwrap(),
                self.t,
                |a, b| a + self.t as u128 - b,
            ),
            ArithOp::MulCtPt(_) => lhs
                .iter()
                .zip(self.pt_values[op_idx].as_ref().unwrap())
                .map(|(&a, &b)| ((a as u128 * b as u128) % t) as u64)
                .collect(),
        }
    }

    pub(crate) fn matches_target(&self, v: &[u64]) -> bool {
        self.mask_idx.iter().all(|&i| v[i] == self.target[i])
    }

    /// Enumerates the legal components for the next slot.
    fn candidates(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        is_last: bool,
    ) -> Vec<Candidate> {
        let rotated = self.rotated_variants(state);
        if is_last {
            self.candidates_last(state, prev, &rotated)
        } else {
            self.candidates_mid(state, prev, &rotated)
        }
    }

    /// Pre-computes the rotated variants of every available value.
    fn rotated_variants(&self, state: &WorkerState) -> Vec<Vec<(i64, Vec<u64>)>> {
        let rot_choices: Vec<i64> = if self.sketch.mode == SketchMode::ExplicitRotate {
            vec![0]
        } else {
            self.sketch.operand_rotations()
        };
        state
            .avail
            .iter()
            .map(|a| {
                rot_choices
                    .iter()
                    .map(|&r| (r, self.rotate_concat(&a.vec, r)))
                    .collect()
            })
            .collect()
    }

    fn candidates_mid(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        rotated: &[Vec<(i64, Vec<u64>)>],
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        let explicit = self.sketch.mode == SketchMode::ExplicitRotate;
        for (op_idx, sop) in self.sketch.ops.iter().enumerate() {
            let lhs_rots = if !explicit && sop.lhs_rot {
                rotated[0].len()
            } else {
                1
            };
            let rhs_rots = if !explicit && sop.rhs_rot {
                rotated[0].len()
            } else {
                1
            };
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
                                    if !symmetric_holes && rotated[ri][rr].0 == 0 && ri < li {
                                        continue;
                                    }
                                }
                                // sub of identical operands is zero: skip.
                                if matches!(sop.op, ArithOp::SubCtCt) && li == ri && lr == rr {
                                    continue;
                                }
                                let lhs = &rotated[li][lr];
                                let rhs = &rotated[ri][rr];
                                let vec = self.apply_op(&sop.op, op_idx, &lhs.1, Some(&rhs.1));
                                self.consider(
                                    state,
                                    prev,
                                    false,
                                    Comp::Arith {
                                        op_idx,
                                        lhs: (li, lhs.0),
                                        rhs: Some((ri, rhs.0)),
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
                    for lhs in variants.iter().take(lhs_rots) {
                        let vec = self.apply_op(&sop.op, op_idx, &lhs.1, None);
                        self.consider(
                            state,
                            prev,
                            false,
                            Comp::Arith {
                                op_idx,
                                lhs: (li, lhs.0),
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
    /// most two) unused values and checked with an early-exit masked
    /// comparison before the full vector is materialized.
    fn candidates_last(
        &self,
        state: &WorkerState,
        prev: Option<&Comp>,
        rotated: &[Vec<(i64, Vec<u64>)>],
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        let unused: Vec<usize> = state
            .avail
            .iter()
            .enumerate()
            .skip(self.num_inputs)
            .filter(|(_, a)| a.uses == 0)
            .map(|(i, _)| i)
            .collect();
        if unused.len() > 2 {
            return out;
        }
        let explicit = self.sketch.mode == SketchMode::ExplicitRotate;
        let all: Vec<usize> = (0..state.avail.len()).collect();

        for (op_idx, sop) in self.sketch.ops.iter().enumerate() {
            let op = sop.op.clone();
            if sop.op.binary_ct() {
                // (lhs pool, rhs pool) pairs that cover the unused values.
                let pools: Vec<(Vec<usize>, Vec<usize>)> = match unused.len() {
                    2 => vec![
                        (vec![unused[0]], vec![unused[1]]),
                        (vec![unused[1]], vec![unused[0]]),
                    ],
                    1 => vec![
                        (vec![unused[0]], all.clone()),
                        (all.clone(), vec![unused[0]]),
                    ],
                    _ => vec![(all.clone(), all.clone())],
                };
                let symmetric_holes = sop.lhs_rot == sop.rhs_rot;
                for (lhs_pool, rhs_pool) in pools {
                    for &li in &lhs_pool {
                        let lhs_variants: &[(i64, Vec<u64>)] = if !explicit && sop.lhs_rot {
                            &rotated[li]
                        } else {
                            &rotated[li][..1]
                        };
                        for lhs in lhs_variants {
                            for &ri in &rhs_pool {
                                let rhs_variants: &[(i64, Vec<u64>)] = if !explicit && sop.rhs_rot {
                                    &rotated[ri]
                                } else {
                                    &rotated[ri][..1]
                                };
                                for rhs in rhs_variants {
                                    if op.commutative()
                                        && symmetric_holes
                                        && (ri, rhs.0) < (li, lhs.0)
                                    {
                                        continue;
                                    }
                                    if matches!(op, ArithOp::SubCtCt) && li == ri && lhs.0 == rhs.0
                                    {
                                        continue;
                                    }
                                    if !self.masked_match(&op, op_idx, &lhs.1, Some(&rhs.1)) {
                                        continue;
                                    }
                                    let vec = self.apply_op(&op, op_idx, &lhs.1, Some(&rhs.1));
                                    self.consider(
                                        state,
                                        prev,
                                        true,
                                        Comp::Arith {
                                            op_idx,
                                            lhs: (li, lhs.0),
                                            rhs: Some((ri, rhs.0)),
                                        },
                                        vec,
                                        &mut out,
                                    );
                                }
                            }
                        }
                    }
                }
            } else {
                if unused.len() > 1 {
                    continue; // a unary op cannot consume two values
                }
                let pool: Vec<usize> = if unused.len() == 1 {
                    vec![unused[0]]
                } else {
                    all.clone()
                };
                for &li in &pool {
                    let lhs_variants: &[(i64, Vec<u64>)] = if !explicit && sop.lhs_rot {
                        &rotated[li]
                    } else {
                        &rotated[li][..1]
                    };
                    for lhs in lhs_variants {
                        if !self.masked_match(&op, op_idx, &lhs.1, None) {
                            continue;
                        }
                        let vec = self.apply_op(&op, op_idx, &lhs.1, None);
                        self.consider(
                            state,
                            prev,
                            true,
                            Comp::Arith {
                                op_idx,
                                lhs: (li, lhs.0),
                                rhs: None,
                            },
                            vec,
                            &mut out,
                        );
                    }
                }
            }
        }

        if explicit && unused.len() <= 1 {
            let pool: Vec<usize> = if unused.len() == 1 {
                vec![unused[0]]
            } else {
                all
            };
            for &val in &pool {
                if state.avail[val].is_rot_result {
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
    pub(crate) fn masked_match(
        &self,
        op: &ArithOp,
        op_idx: usize,
        lhs: &[u64],
        rhs: Option<&[u64]>,
    ) -> bool {
        let t = self.t as u128;
        let rhs: &[u64] = match op {
            ArithOp::AddCtCt | ArithOp::SubCtCt | ArithOp::MulCtCt => rhs.unwrap(),
            _ => self.pt_values[op_idx].as_ref().unwrap(),
        };
        for &i in &self.mask_idx {
            let (a, b) = (lhs[i] as u128, rhs[i] as u128);
            let v = match op {
                ArithOp::AddCtCt | ArithOp::AddCtPt(_) => (a + b) % t,
                ArithOp::SubCtCt | ArithOp::SubCtPt(_) => (a + t - b) % t,
                ArithOp::MulCtCt | ArithOp::MulCtPt(_) => (a * b) % t,
            };
            if v as u64 != self.target[i] {
                return false;
            }
        }
        true
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
            // existing one on every example.
            if state.value_set.contains_key(&vec) {
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
    pub(crate) fn materialize(&self, comps: &[Comp]) -> Program {
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
                    let instr = match &self.sketch.ops[*op_idx].op {
                        ArithOp::AddCtCt => Instr::AddCtCt(l, r.unwrap()),
                        ArithOp::SubCtCt => Instr::SubCtCt(l, r.unwrap()),
                        ArithOp::MulCtCt => Instr::MulCtCt(l, r.unwrap()),
                        ArithOp::AddCtPt(p) => Instr::AddCtPt(l, p.clone()),
                        ArithOp::SubCtPt(p) => Instr::SubCtPt(l, p.clone()),
                        ArithOp::MulCtPt(p) => Instr::MulCtPt(l, p.clone()),
                    };
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
    value_set: HashMap<Vec<u64>, u32>,
    /// Distinct (value, rotation) pairs charged a rotation latency.
    rot_used: HashMap<(usize, i64), u32>,
    latency_sum: f64,
    max_mdepth: u32,
    /// Expansions since the worker started (drives the deadline cadence).
    nodes: u64,
    abort: Abort,
}

struct Snapshot {
    latency_sum: f64,
    max_mdepth: u32,
    touched_rots: Vec<(usize, i64)>,
    used_vals: Vec<usize>,
}

impl WorkerState {
    fn root(ctx: &SearchContext<'_>) -> Self {
        let mut avail = Vec::new();
        let mut value_set: HashMap<Vec<u64>, u32> = HashMap::new();
        for j in 0..ctx.num_inputs {
            let vec: Vec<u64> = ctx
                .examples
                .iter()
                .flat_map(|e| e.ct_inputs[j].iter().copied())
                .collect();
            *value_set.entry(vec.clone()).or_insert(0) += 1;
            avail.push(AvailEntry {
                vec,
                mdepth: 0,
                uses: 0,
                is_rot_result: false,
            });
        }
        WorkerState {
            avail,
            value_set,
            rot_used: HashMap::new(),
            latency_sum: 0.0,
            max_mdepth: 0,
            nodes: 0,
            abort: Abort::No,
        }
    }

    fn push(&mut self, ctx: &SearchContext<'_>, cand: &Candidate) -> Snapshot {
        let mut snap = Snapshot {
            latency_sum: self.latency_sum,
            max_mdepth: self.max_mdepth,
            touched_rots: Vec::new(),
            used_vals: Vec::new(),
        };
        let charge_rot = |state: &mut WorkerState, val: usize, rot: i64, snap: &mut Snapshot| {
            if rot == 0 {
                return;
            }
            let e = state.rot_used.entry((val, rot)).or_insert(0);
            if *e == 0 {
                state.latency_sum += ctx.rot_latency;
            }
            *e += 1;
            snap.touched_rots.push((val, rot));
        };
        let (mdepth, is_rot) = match &cand.comp {
            Comp::Arith { op_idx, lhs, rhs } => {
                self.avail[lhs.0].uses += 1;
                snap.used_vals.push(lhs.0);
                charge_rot(self, lhs.0, lhs.1, &mut snap);
                let mut md = self.avail[lhs.0].mdepth;
                if let Some(rhs) = rhs {
                    self.avail[rhs.0].uses += 1;
                    snap.used_vals.push(rhs.0);
                    charge_rot(self, rhs.0, rhs.1, &mut snap);
                    md = md.max(self.avail[rhs.0].mdepth);
                }
                self.latency_sum += ctx.op_latencies[*op_idx];
                let md = match ctx.sketch.ops[*op_idx].op {
                    ArithOp::MulCtCt | ArithOp::MulCtPt(_) => md + 1,
                    _ => md,
                };
                (md, false)
            }
            Comp::Rot { val, amount: _ } => {
                self.avail[*val].uses += 1;
                snap.used_vals.push(*val);
                self.latency_sum += ctx.rot_latency;
                (self.avail[*val].mdepth, true)
            }
        };
        self.max_mdepth = self.max_mdepth.max(mdepth);
        *self.value_set.entry(cand.vec.clone()).or_insert(0) += 1;
        self.avail.push(AvailEntry {
            vec: cand.vec.clone(),
            mdepth,
            uses: 0,
            is_rot_result: is_rot,
        });
        snap
    }

    fn pop(&mut self, snap: Snapshot) {
        let entry = self.avail.pop().expect("state underflow");
        if let Some(c) = self.value_set.get_mut(&entry.vec) {
            *c -= 1;
            if *c == 0 {
                self.value_set.remove(&entry.vec);
            }
        }
        for v in snap.used_vals {
            self.avail[v].uses -= 1;
        }
        for key in snap.touched_rots {
            if let Some(c) = self.rot_used.get_mut(&key) {
                *c -= 1;
                if *c == 0 {
                    self.rot_used.remove(&key);
                }
            }
        }
        self.latency_sum = snap.latency_sum;
        self.max_mdepth = snap.max_mdepth;
    }
}

fn zip_mod(a: &[u64], b: &[u64], t: u64, f: impl Fn(u128, u128) -> u128) -> Vec<u64> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (f(x as u128, y as u128) % t as u128) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{RotationSet, SketchOp};
    use crate::spec::GenericReference;
    use quill::interp;
    use quill::ring::Ring;
    use rand::SeedableRng;

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

        // Cheapest mode: exhaustive, canonical-minimum merge.
        let bound = 1e12;
        let cheapest = SearchContext::new(&spec, &sketch, &examples, &model, None, Some(bound));
        let sequential = cheapest.run(3, jobs(1));
        assert!(matches!(sequential, SearchOutcome::Found(_)));
        for j in [2, 4, 7] {
            assert_eq!(
                cheapest.run(3, jobs(j)),
                sequential,
                "cheapest mode, jobs={j}"
            );
        }
    }
}
