//! Bottom-up synthesis over an observational-equivalence term bank.
//!
//! The top-down DFS in [`crate::search`] re-derives every sub-program at
//! every prefix of every deepening level; its cost is roughly
//! `breadth ^ depth`, which is the ~10–12 instruction scaling wall of
//! §6.3. This module grows the same program space the other way around: a
//! **bank** of terms, level by level, where level `d` holds terms whose
//! DAG contains exactly `d` components (shared sub-terms counted once —
//! the reduction step `t + rot(t, s)` has size `|t| + 1`, not `2|t| + 1`).
//! Each candidate term is evaluated on the CEGIS examples exactly once and
//! the bank is deduplicated by that output vector (observational
//! equivalence), keeping the cheapest builder per value class, so the
//! per-level cost is polynomial in the bank size instead of exponential in
//! the depth.
//!
//! # Bank growth
//!
//! * Level 0 is the ciphertext inputs. Finalizing level `d` drains the
//!   pending candidates of size `d`, drops values already in the bank,
//!   and retains the canonically cheapest `MDEPTH_BUCKET_CAP` per
//!   multiplicative-depth bucket (bucketing keeps multiply-bearing terms
//!   alive next to floods of cheap additive terms).
//! * Every newly finalized term `x` is then *expanded*: combined, under
//!   every sketch op and operand rotation, with itself, with every input,
//!   and with the `CROSS_POOL` canonically cheapest bank terms older than
//!   `x`. Self-pairs and input-pairs are never capped — they are linear in
//!   the bank and are exactly what reductions and stencils are made of;
//!   only the quadratic cross-pairs go through the pool.
//! * A pair's size — its operands' union DAG plus the new node — is
//!   counted once, without allocating, before its operand rotations are
//!   enumerated. A pair over the bank ceiling is skipped whole.
//! * A candidate whose size equals the ceiling can never be consumed
//!   further, so it is only checked against the masked target (the DFS's
//!   goal-directed last level) and otherwise discarded without ever
//!   materializing its value vector or its support. Its right operand is
//!   first tested on the first masked slot against the value the left
//!   one needs there (`target − x` for add, `x − target` or
//!   `target + x` for sub, `target · x⁻¹` for mul).
//! * The ceiling-sized `(x, p)`/`(p, x)` pairs of any level are looked
//!   up rather than scanned: one index per level that can reach the
//!   ceiling maps every partner's rotated value at the first masked slot
//!   to its `(id, rotation)` pairs, each rotation of `x` asks it for the
//!   value the op needs there, and only hits whose union with `x` is
//!   ceiling-sized go through the full masked check. A multiply by a value with no inverse
//!   falls back to every partner. The smaller pairs are scanned; the
//!   pairs, symmetry rules and goal set are those of a scan of every
//!   pair.
//! * A growth candidate's value is computed into a reused buffer first.
//!   Unless it hits the target, a value the bank already holds, or one a
//!   pending builder at least as cheap already claims, drops the
//!   candidate before its support and value are allocated: neither could
//!   survive finalization.
//!
//! The caps make the strategy **incomplete**: a returned
//! [`BottomUpOutcome::Exhausted`] is *not* a proof that the sketch has no
//! program, which is why CEGIS falls back to the complete DFS before
//! reporting `SketchTooRestrictive`.
//!
//! # Determinism contract
//!
//! Expansion work is partitioned across workers one *unit* (one newly
//! finalized term) at a time, claimed from an atomic counter exactly like
//! the DFS's subtree queue; each unit's candidates are produced in a fixed
//! enumeration order and merged in unit order, and every later step
//! (dedup, retention sort, goal selection by `(cost, serialization)`) is
//! sequential and keyed on deterministic ranks. The same query therefore
//! returns the byte-identical program at any thread count, matching the
//! DFS driver's contract. Only a deadline expiry is timing-dependent.

use crate::search::{count_search_invocation, Comp, PartnerValue, SearchContext};
use crate::sketch::{ArithOp, SketchMode, SketchOp};
use quill::cost::eager_cost;
use quill::program::Program;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Retained terms per (level, multiplicative depth) bucket. Bucketing by
/// mdepth keeps expensive multiply-bearing chains (what reductions need)
/// from being evicted by floods of cheap additive terms.
const MDEPTH_BUCKET_CAP: usize = 1024;

/// Extra retention budget per (level, mdepth) for **strict chain terms**:
/// terms whose every node combines the previous chain node with *itself*
/// (`a + rot(a, s)`) or applies a unary op, seeded by input-only nodes —
/// the log-depth reduction trees and squared-difference chains
/// (`(x−y)·(x−y)` then rotate-add) that every deep paper kernel is built
/// from. Under the profiled latency model those rotation-heavy terms rank
/// *below* floods of cheap rotation-free combinations, so cost-ranked
/// retention alone evicts exactly the terms a deep reduction needs; strict
/// self-chains, by contrast, collapse under value dedup (rotation-free
/// steps are scalar multiples), so the dedicated bucket stays small while
/// keeping `sum-reduce`-shaped goals reachable at any depth the bank can
/// hold.
const CHAIN_BUCKET_CAP: usize = 4096;

/// Size of the cross-pair pool: the canonically cheapest bank terms that
/// participate in term × term combinations. Self-pairs and pairs with an
/// input are always generated and do not count against this.
const CROSS_POOL: usize = 128;

/// At most this many goal candidates are materialized when selecting the
/// canonical winner at a level (sorted by deterministic rank first, so the
/// truncation itself is deterministic).
const GOAL_CAP: usize = 4096;

/// Deadline-check cadence inside an expansion unit (candidates between
/// wall-clock reads).
const TICK_MASK: u64 = 0x3FF;

/// Why the bottom-up search stopped.
#[derive(Debug)]
pub(crate) enum BottomUpOutcome {
    /// A program matching the examples on the masked slots, at the
    /// smallest bank level that contains one; canonical minimum by
    /// `(cost, serialization)` among that level's goal terms.
    Found { program: Program, components: usize },
    /// The bank stopped growing (or the ceiling was reached) without a
    /// goal. **Not** a completeness proof — the bank is capped; the caller
    /// must fall back to the DFS for a real `Unsat`.
    Exhausted,
    /// The deadline expired mid-growth.
    Timeout,
}

/// One term node; operand ids are bank term ids (`0..num_inputs` are the
/// ciphertext inputs).
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Input,
    Arith {
        op_idx: u32,
        lhs: (u32, i64),
        rhs: Option<(u32, i64)>,
    },
    Rot {
        src: u32,
        amount: i64,
    },
}

/// Deterministic structural tie-break for candidates of equal cost.
fn node_key(n: &Node) -> (u32, u32, i64, u32, i64) {
    match n {
        Node::Input => (u32::MAX, u32::MAX, 0, 0, 0),
        Node::Arith { op_idx, lhs, rhs } => (
            *op_idx,
            lhs.0,
            lhs.1,
            rhs.map(|r| r.0).unwrap_or(u32::MAX),
            rhs.map(|r| r.1).unwrap_or(0),
        ),
        Node::Rot { src, amount } => (u32::MAX - 1, *src, *amount, 0, 0),
    }
}

/// A candidate term (finalized or pending). `support` is the sorted set of
/// non-input bank ids in its DAG — for a finalized term it includes the
/// term itself, for a pending candidate only its operands' DAGs — so
/// `support.len() + 1` is a pending candidate's true component count.
#[derive(Debug, Clone)]
struct Cand {
    node: Node,
    support: Vec<u32>,
    mdepth: u32,
    /// Additive cost estimate (operand costs + op + operand rotations);
    /// over-counts shared sub-terms, used only for deterministic ranking.
    /// Goal selection prices each goal's program with
    /// [`quill::cost::eager_cost`], as the DFS and CEGIS do.
    cost: f64,
    /// Pure chain term: every node combines one (chain) term with itself
    /// or an input. See [`CHAIN_BUCKET_CAP`].
    chain: bool,
}

fn cand_rank(c: &Cand) -> (u64, (u32, u32, i64, u32, i64)) {
    (c.cost.to_bits(), node_key(&c.node))
}

/// What one expansion emits: a candidate, its value vector (absent for
/// ceiling-level goal checks), and whether it hit the masked target.
struct GenCand {
    cand: Cand,
    vec: Option<Vec<u64>>,
    goal: bool,
}

/// A finalized bank term.
struct BankTerm {
    node: Node,
    /// Sorted non-input DAG node ids, including the term's own id (ids are
    /// assigned in finalization order, so this is also a topological
    /// order).
    support: Vec<u32>,
    mdepth: u32,
    cost: f64,
    is_rot: bool,
    /// See [`Cand::chain`].
    chain: bool,
}

struct Bank<'s, 'a> {
    ctx: &'s SearchContext<'a>,
    terms: Vec<BankTerm>,
    /// `rotated[id]` = the term's value under every `ctx.rots[k]`, back to
    /// back; see [`Bank::rot`].
    rotated: Vec<Vec<u64>>,
    /// Value vectors already represented in the bank (inputs included).
    classes: HashSet<Vec<u64>>,
    /// Bank ids by exact component count (level 0 = inputs).
    levels: Vec<Vec<u32>>,
    /// Pending candidates by size, deduplicated by value vector (keeping
    /// the canonically cheapest builder per class).
    pending: Vec<HashMap<Vec<u64>, Cand>>,
    /// Target-matching candidates by size (only sizes ≥ `min_c`).
    goals: Vec<Vec<Cand>>,
    /// Cross-pair pool, sorted by id ascending.
    pool: Vec<u32>,
    min_c: usize,
    max_c: usize,
}

/// Shared wall-clock state for one expansion pass.
struct Ticker<'t> {
    deadline: Option<Instant>,
    timed_out: &'t AtomicBool,
}

impl Ticker<'_> {
    /// Returns `true` once the deadline has fired anywhere.
    fn check(&self, local: &mut u64) -> bool {
        *local += 1;
        if *local & TICK_MASK != 0 {
            return false;
        }
        if self.timed_out.load(Relaxed) {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.timed_out.store(true, Relaxed);
                return true;
            }
        }
        false
    }
}

/// A level's partners (the inputs and the cross pool) by their rotated
/// value at the first masked slot.
struct PartnerIndex {
    by_value: HashMap<u64, Vec<(u32, usize)>>,
    /// Every `(partner, rotation index)`, for slots that do not pin the
    /// partner down.
    all: Vec<(u32, usize)>,
}

/// `union_support(a, b).len()`, without building the union.
fn union_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - shared
}

fn union_support(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl<'a> SearchContext<'a> {
    /// Runs the bottom-up term-bank search for a program of `min_c..=max_c`
    /// components. Returns the canonical goal program at the *smallest*
    /// level containing one (mirroring iterative deepening's minimality).
    pub(crate) fn run_bottom_up(
        &self,
        min_c: usize,
        max_c: usize,
        jobs: NonZeroUsize,
    ) -> BottomUpOutcome {
        assert!(max_c >= 1, "a program needs at least one component");
        count_search_invocation();
        let mut bank = Bank::new(self, min_c.max(1), max_c);
        if bank.expand_level(0, jobs).is_err() {
            return BottomUpOutcome::Timeout;
        }
        for d in 1..=max_c {
            let goals = std::mem::take(&mut bank.goals[d]);
            if !goals.is_empty() {
                let (program, components) = bank.select_goal(d, goals);
                return BottomUpOutcome::Found {
                    program,
                    components,
                };
            }
            bank.finalize_level(d);
            if d < max_c && bank.expand_level(d, jobs).is_err() {
                return BottomUpOutcome::Timeout;
            }
            // Nothing new, nothing pending, no goal queued anywhere: the
            // bank cannot grow further.
            let dead = bank.levels[d].is_empty()
                && bank.pending.iter().all(|m| m.is_empty())
                && bank.goals.iter().all(|g| g.is_empty());
            if dead {
                break;
            }
        }
        BottomUpOutcome::Exhausted
    }
}

impl<'s, 'a> Bank<'s, 'a> {
    fn new(ctx: &'s SearchContext<'a>, min_c: usize, max_c: usize) -> Self {
        let mut bank = Bank {
            ctx,
            terms: Vec::new(),
            rotated: Vec::new(),
            classes: HashSet::new(),
            levels: vec![Vec::new(); max_c + 1],
            pending: vec![HashMap::new(); max_c + 1],
            goals: vec![Vec::new(); max_c + 1],
            pool: Vec::new(),
            min_c,
            max_c,
        };
        for j in 0..ctx.num_inputs {
            let vec: Vec<u64> = ctx
                .examples
                .iter()
                .flat_map(|e| e.ct_inputs[j].iter().copied())
                .collect();
            let id = bank.terms.len() as u32;
            bank.rotated.push(bank.rotations_of(&vec));
            bank.classes.insert(vec);
            bank.terms.push(BankTerm {
                node: Node::Input,
                support: Vec::new(),
                mdepth: 0,
                cost: 0.0,
                is_rot: false,
                chain: true,
            });
            bank.levels[0].push(id);
        }
        bank
    }

    /// Expands every term of `level` against the bank (one unit per term),
    /// in parallel, and merges the candidates in unit order.
    fn expand_level(&mut self, level: usize, jobs: NonZeroUsize) -> Result<(), ()> {
        let ids: Vec<u32> = self.levels[level].clone();
        if ids.is_empty() {
            return Ok(());
        }
        let timed_out = AtomicBool::new(false);
        let ticker = Ticker {
            deadline: self.ctx.deadline,
            timed_out: &timed_out,
        };
        // An older partner's DAG is no larger than a level-`level` term's,
        // so a pair has at most `2·level + 1` components: below the
        // ceiling, no pair needs the lookup.
        let index = (2 * level + 1 >= self.max_c).then(|| self.partner_index());
        let index = index.as_ref();
        let workers = jobs.get().min(ids.len());
        let results: Vec<Vec<GenCand>> = if workers <= 1 {
            let mut local = 0u64;
            let mut out = Vec::with_capacity(ids.len());
            for &x in &ids {
                match self.expand_unit(x, index, &ticker, &mut local) {
                    Some(cands) => out.push(cands),
                    None => return Err(()),
                }
            }
            out
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, Vec<GenCand>)>> = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    let bank = &*self;
                    let ids = &ids;
                    let next = &next;
                    let collected = &collected;
                    let ticker = &ticker;
                    s.spawn(move || {
                        let mut local = 0u64;
                        loop {
                            let i = next.fetch_add(1, Relaxed);
                            if i >= ids.len() || ticker.timed_out.load(Relaxed) {
                                break;
                            }
                            match bank.expand_unit(ids[i], index, ticker, &mut local) {
                                Some(cands) => {
                                    collected
                                        .lock()
                                        .expect("bank worker poisoned")
                                        .push((i, cands));
                                }
                                None => break,
                            }
                        }
                    });
                }
            });
            if timed_out.load(Relaxed) {
                return Err(());
            }
            let mut collected = collected.into_inner().expect("bank worker poisoned");
            collected.sort_by_key(|(i, _)| *i);
            debug_assert_eq!(collected.len(), ids.len());
            collected.into_iter().map(|(_, c)| c).collect()
        };
        if timed_out.load(Relaxed) {
            return Err(());
        }
        for unit in results {
            for gc in unit {
                self.route(gc);
            }
        }
        Ok(())
    }

    /// Term `id`'s value rotated by `ctx.rots[k]` (`k = 0`: the value
    /// itself).
    fn rot(&self, id: u32, k: usize) -> &[u64] {
        let len = self.ctx.target.len();
        &self.rotated[id as usize][k * len..(k + 1) * len]
    }

    /// `vec` under every operand rotation, back to back.
    fn rotations_of(&self, vec: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(vec.len() * self.ctx.rots.len());
        for &r in &self.ctx.rots {
            self.ctx.rotate_onto(vec, r, &mut out);
        }
        out
    }

    /// Indexes the partners of this level's expansion; see
    /// [`PartnerIndex`].
    fn partner_index(&self) -> PartnerIndex {
        let all: Vec<(u32, usize)> = (0..self.ctx.num_inputs as u32)
            .chain(self.pool.iter().copied())
            .flat_map(|p| (0..self.ctx.rots.len()).map(move |k| (p, k)))
            .collect();
        let mut by_value: HashMap<u64, Vec<(u32, usize)>> = HashMap::new();
        if let Some(&m0) = self.ctx.mask_idx.first() {
            for &(p, k) in &all {
                by_value.entry(self.rot(p, k)[m0]).or_default().push((p, k));
            }
        }
        PartnerIndex { by_value, all }
    }

    /// All combinations rooted at `x`: unary sketch ops, `(x, x)`,
    /// `(x, p)`/`(p, x)` for every older partner `p` (inputs always; other
    /// terms only through the cross pool), and explicit rotations. A pair
    /// whose DAG outgrows the ceiling is skipped whole; the ceiling-sized
    /// `(x, p)`/`(p, x)` pairs come from the `index` lookup (absent on a
    /// level that cannot reach the ceiling), the smaller ones from a scan.
    /// Candidate order is a pure function of the bank,
    /// never of thread timing.
    fn expand_unit(
        &self,
        x: u32,
        index: Option<&PartnerIndex>,
        ticker: &Ticker<'_>,
        local: &mut u64,
    ) -> Option<Vec<GenCand>> {
        let mut out = Vec::new();
        let mut buf = Vec::with_capacity(self.ctx.target.len());
        let explicit = self.ctx.sketch.mode == SketchMode::ExplicitRotate;
        let num_inputs = self.ctx.num_inputs as u32;
        let x_sup = &self.terms[x as usize].support;
        let x_size = x_sup.len() + 1;
        // The older partners whose pair with `x` stays under the ceiling,
        // with the pair's size; the ceiling-sized ones are looked up.
        let growth_partners: Vec<(u32, usize)> = (0..num_inputs.min(x))
            .chain(self.pool.iter().copied().filter(|&p| p < x))
            .map(|p| (p, union_len(x_sup, &self.terms[p as usize].support) + 1))
            .filter(|&(_, size)| size < self.max_c)
            .collect();
        for (op_idx, sop) in self.ctx.sketch.ops.iter().enumerate() {
            if sop.op.binary_ct() {
                self.expand_pair(op_idx, sop, x, x, x_size, &mut buf, &mut out, ticker, local)?;
                if let Some(index) = index {
                    self.expand_ceiling_partners(op_idx, sop, x, index, &mut out, ticker, local)?;
                }
                for &(p, size) in &growth_partners {
                    self.expand_pair(op_idx, sop, x, p, size, &mut buf, &mut out, ticker, local)?;
                    self.expand_pair(op_idx, sop, p, x, size, &mut buf, &mut out, ticker, local)?;
                }
            } else {
                for lr in 0..self.ctx.hole_rots(sop).0 {
                    if ticker.check(local) {
                        return None;
                    }
                    self.emit(op_idx, sop, x, lr, None, x_size, &mut buf, &mut out);
                }
            }
        }
        if explicit && !self.terms[x as usize].is_rot {
            for &amount in &self.ctx.sketch.rotation_amounts {
                if ticker.check(local) {
                    return None;
                }
                self.emit_rot(x, amount, &mut buf, &mut out);
            }
        }
        Some(out)
    }

    /// The DFS's commutative symmetry breaks mirrored onto bank ids, and
    /// the zero `x − x`: whether the pair `(a` rotated by `lr`, `b` rotated
    /// by `rr)` is left out.
    fn pair_skipped(&self, sop: &SketchOp, a: u32, lr: usize, b: u32, rr: usize) -> bool {
        if sop.op.commutative() {
            if sop.lhs_rot == sop.rhs_rot && (b, rr) < (a, lr) {
                return true;
            }
            if sop.lhs_rot != sop.rhs_rot && self.ctx.rots[rr] == 0 && b < a {
                return true;
            }
        }
        matches!(sop.op, ArithOp::SubCtCt) && a == b && lr == rr
    }

    /// Enumerates the rotation assignments of one ordered operand pair
    /// whose DAG has `size ≤ max_c` components. At the ceiling a pair is
    /// only a goal check, so each right operand is first tested on the
    /// first masked slot against the value the left one needs there.
    #[allow(clippy::too_many_arguments)]
    fn expand_pair(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        a: u32,
        b: u32,
        size: usize,
        buf: &mut Vec<u64>,
        out: &mut Vec<GenCand>,
        ticker: &Ticker<'_>,
        local: &mut u64,
    ) -> Option<()> {
        let (lhs_rots, rhs_rots) = self.ctx.hole_rots(sop);
        let at_ceiling = size == self.max_c;
        for lr in 0..lhs_rots {
            let need = if at_ceiling {
                self.ctx.partner_need(&sop.op, self.rot(a, lr), true)
            } else {
                PartnerValue::Any
            };
            for rr in 0..rhs_rots {
                if ticker.check(local) {
                    return None;
                }
                if self.pair_skipped(sop, a, lr, b, rr) {
                    continue;
                }
                if !at_ceiling {
                    self.emit(op_idx, sop, a, lr, Some((b, rr)), size, buf, out);
                } else if self.ctx.partner_admits(need, self.rot(b, rr)) {
                    self.emit_goal(op_idx, sop, a, lr, Some((b, rr)), out);
                }
            }
        }
        Some(())
    }

    /// The ceiling-sized `(x, p)` and `(p, x)` pairs. Each is only a goal
    /// check, so for every rotation of `x` the partners come from `index`
    /// by the value the op needs at the first masked slot, and only those
    /// whose union with `x` makes exactly `max_c` components are kept;
    /// `emit_goal` then checks every masked slot. The pairs emitted, and
    /// the rules that admit them, are exactly those of a scan of every
    /// partner.
    #[allow(clippy::too_many_arguments)]
    fn expand_ceiling_partners(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        x: u32,
        index: &PartnerIndex,
        out: &mut Vec<GenCand>,
        ticker: &Ticker<'_>,
        local: &mut u64,
    ) -> Option<()> {
        let x_sup = &self.terms[x as usize].support;
        let (lhs_rots, rhs_rots) = self.ctx.hole_rots(sop);
        for (x_is_lhs, x_rots, p_rots) in [(true, lhs_rots, rhs_rots), (false, rhs_rots, lhs_rots)]
        {
            for xr in 0..x_rots {
                if ticker.check(local) {
                    return None;
                }
                let hits: &[(u32, usize)] =
                    match self.ctx.partner_need(&sop.op, self.rot(x, xr), x_is_lhs) {
                        PartnerValue::Exactly(v) => {
                            index.by_value.get(&v).map_or(&[], Vec::as_slice)
                        }
                        PartnerValue::Nothing => continue,
                        PartnerValue::Any => &index.all,
                    };
                for &(p, pr) in hits.iter().filter(|&&(p, pr)| p < x && pr < p_rots) {
                    let size = union_len(x_sup, &self.terms[p as usize].support) + 1;
                    if size != self.max_c {
                        continue;
                    }
                    let (a, lr, b, rr) = if x_is_lhs {
                        (x, xr, p, pr)
                    } else {
                        (p, pr, x, xr)
                    };
                    if !self.pair_skipped(sop, a, lr, b, rr) {
                        self.emit_goal(op_idx, sop, a, lr, Some((b, rr)), out);
                    }
                }
            }
        }
        Some(())
    }

    /// The attributes of the arithmetic candidate `op(a` rotated by `lr`,
    /// `rhs)`, with an empty support for the caller to fill in.
    fn cand(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        a: u32,
        lr: usize,
        rhs: Option<(u32, usize)>,
    ) -> Cand {
        let a_term = &self.terms[a as usize];
        let (b_md, b_cost) = match rhs {
            Some((b, _)) => {
                let bt = &self.terms[b as usize];
                (bt.mdepth, if b != a { bt.cost } else { 0.0 })
            }
            None => (0, 0.0),
        };
        let mdepth = a_term.mdepth.max(b_md) + sop.op.is_mul() as u32;
        let mut cost = a_term.cost + b_cost + self.ctx.op_latencies[op_idx];
        if self.ctx.rots[lr] != 0 {
            cost += self.ctx.rot_latency;
        }
        if rhs.is_some_and(|(_, rr)| self.ctx.rots[rr] != 0) {
            cost += self.ctx.rot_latency;
        }
        let node = Node::Arith {
            op_idx: op_idx as u32,
            lhs: (a, self.ctx.rots[lr]),
            rhs: rhs.map(|(b, rr)| (b, self.ctx.rots[rr])),
        };
        // A chain step pairs the previous chain node with *itself* (or is
        // unary); terms built purely from inputs seed new chains. Mixing a
        // second distinct term in ends the chain — input-mixing chains are
        // as exponential as the general flood, strict self-chains collapse
        // under value dedup (their rotation-free steps are just scalar
        // multiples).
        let num_inputs = self.ctx.num_inputs as u32;
        let chain = match rhs {
            Some((b, _)) if b != a => a < num_inputs && b < num_inputs,
            _ => a < num_inputs || a_term.chain,
        };
        Cand {
            node,
            support: Vec::new(),
            mdepth,
            cost,
            chain,
        }
    }

    /// The sorted DAG of `a` and `rhs`'s operand.
    fn pair_support(&self, a: u32, rhs: Option<(u32, usize)>) -> Vec<u32> {
        let a_sup = &self.terms[a as usize].support;
        match rhs {
            Some((b, _)) => union_support(a_sup, &self.terms[b as usize].support),
            None => a_sup.clone(),
        }
    }

    /// Goal-checks one arithmetic candidate of exactly `max_c`
    /// components on the masked slots; only a hit is built.
    fn emit_goal(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        a: u32,
        lr: usize,
        rhs: Option<(u32, usize)>,
        out: &mut Vec<GenCand>,
    ) {
        let rhs_v = rhs.map(|(b, rr)| self.rot(b, rr));
        if self
            .ctx
            .masked_match(&sop.op, op_idx, self.rot(a, lr), rhs_v)
        {
            let mut cand = self.cand(op_idx, sop, a, lr, rhs);
            cand.support = self.pair_support(a, rhs);
            out.push(GenCand {
                cand,
                vec: None,
                goal: true,
            });
        }
    }

    /// Builds (or, at the ceiling, goal-checks) one arithmetic candidate
    /// of `size` components, computing its value in `buf`.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        a: u32,
        lr: usize,
        rhs: Option<(u32, usize)>,
        size: usize,
        buf: &mut Vec<u64>,
        out: &mut Vec<GenCand>,
    ) {
        if size == self.max_c {
            self.emit_goal(op_idx, sop, a, lr, rhs, out);
            return;
        }
        let rhs_v = rhs.map(|(b, rr)| self.rot(b, rr));
        self.ctx
            .apply_op_into(&sop.op, op_idx, self.rot(a, lr), rhs_v, buf);
        let cand = self.cand(op_idx, sop, a, lr, rhs);
        self.emit_growth(cand, size, buf, || self.pair_support(a, rhs), out);
    }

    /// Builds (or goal-checks) one explicit-rotation candidate (ablation
    /// mode).
    fn emit_rot(&self, x: u32, amount: i64, buf: &mut Vec<u64>, out: &mut Vec<GenCand>) {
        let xt = &self.terms[x as usize];
        let size = xt.support.len() + 1;
        if size > self.max_c {
            return;
        }
        buf.clear();
        self.ctx.rotate_onto(self.rot(x, 0), amount, buf);
        let cand = Cand {
            node: Node::Rot { src: x, amount },
            support: Vec::new(),
            mdepth: xt.mdepth,
            cost: xt.cost + self.ctx.rot_latency,
            chain: x < self.ctx.num_inputs as u32 || xt.chain,
        };
        if size < self.max_c {
            self.emit_growth(cand, size, buf, || xt.support.clone(), out);
        } else if size >= self.min_c && self.ctx.matches_target(buf) {
            out.push(GenCand {
                cand: Cand {
                    support: xt.support.clone(),
                    ..cand
                },
                vec: None,
                goal: true,
            });
        }
    }

    /// Emits a candidate of `size < max_c` components whose value is in
    /// `value`, unless it cannot change the bank: a non-goal whose value
    /// the bank already holds, or one a pending builder at least as cheap
    /// already claims (the pending map only ever keeps the cheaper of
    /// two). Only a survivor gets its `support` and value allocated.
    fn emit_growth(
        &self,
        mut cand: Cand,
        size: usize,
        value: &[u64],
        support: impl FnOnce() -> Vec<u32>,
        out: &mut Vec<GenCand>,
    ) {
        let goal = size >= self.min_c && self.ctx.matches_target(value);
        let redundant = || {
            self.classes.contains(value)
                || self.pending[size]
                    .get(value)
                    .is_some_and(|held| cand_rank(held) <= cand_rank(&cand))
        };
        if !goal && redundant() {
            return;
        }
        cand.support = support();
        out.push(GenCand {
            cand,
            vec: Some(value.to_vec()),
            goal,
        });
    }

    /// Files one generated candidate into the goal queue and/or the
    /// pending-value map of its size class.
    fn route(&mut self, gc: GenCand) {
        let size = gc.cand.support.len() + 1;
        if gc.goal {
            self.goals[size].push(gc.cand.clone());
        }
        if let Some(vec) = gc.vec {
            if size < self.max_c {
                match self.pending[size].entry(vec) {
                    Entry::Occupied(mut e) => {
                        if cand_rank(&gc.cand) < cand_rank(e.get()) {
                            e.insert(gc.cand);
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(gc.cand);
                    }
                }
            }
        }
    }

    /// Drains the pending candidates of size `d` into the bank: drop
    /// values the bank already has, sort canonically, retain up to
    /// `MDEPTH_BUCKET_CAP` per multiplicative-depth bucket, assign ids.
    fn finalize_level(&mut self, d: usize) {
        let map = std::mem::take(&mut self.pending[d]);
        let mut cands: Vec<(Vec<u64>, Cand)> = map
            .into_iter()
            .filter(|(v, _)| !self.classes.contains(v))
            .collect();
        cands.sort_by_key(|x| cand_rank(&x.1));
        let mut taken: HashMap<u32, usize> = HashMap::new();
        let mut chain_taken: HashMap<u32, usize> = HashMap::new();
        for (vec, cand) in cands {
            // A candidate survives through its mdepth bucket or, for pure
            // chain terms, through the dedicated chain bucket — without the
            // exemption the rotation-heavy reduction chains rank below the
            // cheap cross-pair flood and die before the ceiling.
            let slot = taken.entry(cand.mdepth).or_insert(0);
            let general_room = *slot < MDEPTH_BUCKET_CAP;
            let chain_room = cand.chain && {
                let cslot = chain_taken.entry(cand.mdepth).or_insert(0);
                *cslot < CHAIN_BUCKET_CAP
            };
            if !general_room && !chain_room {
                continue;
            }
            if general_room {
                *slot += 1;
            }
            if chain_room {
                *chain_taken.get_mut(&cand.mdepth).expect("entry above") += 1;
            }
            let id = self.terms.len() as u32;
            let mut support = cand.support;
            support.push(id);
            self.rotated.push(self.rotations_of(&vec));
            self.classes.insert(vec);
            self.terms.push(BankTerm {
                is_rot: matches!(cand.node, Node::Rot { .. }),
                node: cand.node,
                support,
                mdepth: cand.mdepth,
                cost: cand.cost,
                chain: cand.chain,
            });
            self.levels[d].push(id);
        }
        // Refresh the cross-pair pool: the CROSS_POOL canonically cheapest
        // non-input terms, re-sorted by id for in-order enumeration.
        let mut ranked: Vec<u32> = (self.ctx.num_inputs as u32..self.terms.len() as u32).collect();
        ranked.sort_by_key(|&i| (self.terms[i as usize].cost.to_bits(), i));
        ranked.truncate(CROSS_POOL);
        ranked.sort_unstable();
        self.pool = ranked;
    }

    /// Picks the canonical `(cost, serialization)` minimum among the goal
    /// candidates of level `d` and lowers it to a [`Program`].
    fn select_goal(&self, d: usize, mut goals: Vec<Cand>) -> (Program, usize) {
        goals.sort_by_key(cand_rank);
        goals.truncate(GOAL_CAP);
        let mut best: Option<(u64, String, Program)> = None;
        for g in &goals {
            let prog = self.materialize_goal(g);
            let bits = eager_cost(&prog, self.ctx.latency).to_bits();
            if best.as_ref().is_some_and(|(bb, _, _)| *bb < bits) {
                continue; // cheaper program already in hand
            }
            let ser = prog.to_string();
            let better = best
                .as_ref()
                .is_none_or(|(bb, bs, _)| (bits, ser.as_str()) < (*bb, bs.as_str()));
            if better {
                best = Some((bits, ser, prog));
            }
        }
        let (_, _, prog) = best.expect("select_goal called with goals");
        (prog, d)
    }

    /// Lowers a goal candidate's DAG to a component list (support order is
    /// topological because ids are assigned in finalization order), then
    /// to a [`Program`].
    fn materialize_goal(&self, g: &Cand) -> Program {
        let sup = &g.support;
        let num_inputs = self.ctx.num_inputs;
        let to_avail = |id: u32| -> usize {
            if (id as usize) < num_inputs {
                id as usize
            } else {
                num_inputs + sup.binary_search(&id).expect("operand in support")
            }
        };
        let node_to_comp = |node: &Node| -> Comp {
            match node {
                Node::Input => unreachable!("inputs are not components"),
                Node::Arith { op_idx, lhs, rhs } => Comp::Arith {
                    op_idx: *op_idx as usize,
                    lhs: (to_avail(lhs.0), lhs.1),
                    rhs: rhs.map(|(i, r)| (to_avail(i), r)),
                },
                Node::Rot { src, amount } => Comp::Rot {
                    val: to_avail(*src),
                    amount: *amount,
                },
            }
        };
        let mut comps: Vec<Comp> = sup
            .iter()
            .map(|&id| node_to_comp(&self.terms[id as usize].node))
            .collect();
        comps.push(node_to_comp(&g.node));
        self.ctx.materialize(&comps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{RotationSet, Sketch, SketchOp};
    use crate::spec::{GenericReference, KernelSpec};
    use quill::cost::LatencyModel;
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
        match searcher.run_bottom_up(1, 4, jobs(1)) {
            BottomUpOutcome::Found {
                program,
                components,
            } => {
                assert_eq!(components, 3, "log2(8) adds, found at the minimal level");
                assert!(program.validate().is_ok());
                let out = interp::eval_concrete(&program, &examples[0].ct_inputs, &[], 65537);
                assert_eq!(out[0], examples[0].output[0]);
            }
            other => panic!("expected a solution, got {other:?}"),
        }
    }

    #[test]
    fn respects_the_component_floor() {
        // With min_c above the natural solution size, level-2 goals are
        // ignored and a (larger) program is returned at the floor or
        // above, mirroring Sketch::min_components semantics.
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
        match searcher.run_bottom_up(3, 3, jobs(1)) {
            BottomUpOutcome::Found { components, .. } => assert_eq!(components, 3),
            other => panic!("expected a floor-sized solution, got {other:?}"),
        }
    }

    #[test]
    fn exhausts_without_a_goal() {
        let spec = sum_spec(8);
        // One add is not enough to reduce 8 slots.
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 8 },
            1,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let examples = vec![spec.sample_example(&mut rng)];
        let model = LatencyModel::uniform();
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        assert!(matches!(
            searcher.run_bottom_up(1, 1, jobs(2)),
            BottomUpOutcome::Exhausted
        ));
    }

    /// The determinism contract: any thread count yields the
    /// byte-identical program.
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
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        let baseline = match searcher.run_bottom_up(1, 4, jobs(1)) {
            BottomUpOutcome::Found { program, .. } => program.to_string(),
            other => panic!("expected a solution, got {other:?}"),
        };
        for j in [2, 4, 7] {
            match searcher.run_bottom_up(1, 4, jobs(j)) {
                BottomUpOutcome::Found { program, .. } => {
                    assert_eq!(program.to_string(), baseline, "jobs={j}");
                }
                other => panic!("expected a solution at jobs={j}, got {other:?}"),
            }
        }
    }

    /// Regression: a 16-element dot product over the kernels crate's
    /// 2×-padded layout needs the 5-node chain `mul, +rot8, +rot4, +rot2,
    /// +rot1` whose rotation-heavy middle terms rank *below* thousands of
    /// rotation-free cross-pair candidates — only the strict-chain
    /// retention bucket keeps them alive to the ceiling.
    #[test]
    fn deep_reduction_chain_survives_retention() {
        use quill::program::PtOperand;
        struct Dot {
            len: usize,
            slots: usize,
        }
        impl GenericReference for Dot {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], pt: &[Vec<R>]) -> Vec<R> {
                let total = ct[0]
                    .iter()
                    .zip(&pt[0])
                    .take(self.len)
                    .map(|(a, b)| a.mul(b))
                    .fold(ct[0][0].from_i64(0), |acc, x| acc.add(&x));
                vec![total; self.slots]
            }
        }
        let len = 16;
        let slots = 2 * len; // the kernels crate's ReductionLayout tail
        let mut mask = vec![false; slots];
        mask[0] = true;
        let spec = KernelSpec::new(
            "dot",
            slots,
            1,
            1,
            mask,
            65537,
            Box::new(Dot { len, slots }),
        );
        let sketch = Sketch::new(
            vec![
                SketchOp::plain(ArithOp::MulCtPt(PtOperand::Input(0))),
                SketchOp::rhs_rotated(ArithOp::AddCtCt),
            ],
            RotationSet::PowersOfTwo { extent: len },
            5,
        )
        .with_min_components(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let examples = vec![spec.sample_example(&mut rng), spec.sample_example(&mut rng)];
        let model = LatencyModel::profiled_default();
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        match searcher.run_bottom_up(5, 5, jobs(1)) {
            BottomUpOutcome::Found {
                program,
                components,
            } => {
                assert_eq!(components, 5);
                assert!(program.validate().is_ok());
                for e in &examples {
                    let out = interp::eval_concrete(&program, &e.ct_inputs, &e.pt_inputs, 65537);
                    assert_eq!(out[0], e.output[0]);
                }
            }
            other => panic!("expected a solution, got {other:?}"),
        }
    }

    /// A two-input target, `x_i · y_{i+1} − x_{i+2}`.
    struct Mixed;

    impl GenericReference for Mixed {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            let (x, y, n) = (&ct[0], &ct[1], ct[0].len());
            (0..n)
                .map(|i| x[i].mul(&y[(i + 1) % n]).sub(&x[(i + 2) % n]))
                .collect()
        }
    }

    /// The brute-force oracle for one expansion unit: every `(x, x)`,
    /// `(x, p)` and `(p, x)` pair and every rotation assignment the
    /// symmetry rules admit, plus the unary ops and explicit rotations,
    /// each filed by the size of its full support: over the ceiling it is
    /// dropped, at the ceiling kept only if it matches every masked slot,
    /// below it kept with its value whatever that is.
    fn scan_unit(bank: &Bank<'_, '_>, x: u32) -> Vec<GenCand> {
        let ctx = bank.ctx;
        let mut out = Vec::new();
        let mut file =
            |cand: Cand, support: &[u32], hit: &dyn Fn() -> bool, value: &dyn Fn() -> Vec<u64>| {
                let size = support.len() + 1;
                let cand = Cand {
                    support: support.to_vec(),
                    ..cand
                };
                if size < bank.max_c {
                    let vec = value();
                    let goal = size >= bank.min_c && ctx.matches_target(&vec);
                    out.push(GenCand {
                        cand,
                        vec: Some(vec),
                        goal,
                    });
                } else if size == bank.max_c && hit() {
                    out.push(GenCand {
                        cand,
                        vec: None,
                        goal: true,
                    });
                }
            };
        let partners: Vec<u32> = (0..(ctx.num_inputs as u32).min(x))
            .chain(bank.pool.iter().copied().filter(|&p| p < x))
            .collect();
        let xt = &bank.terms[x as usize];
        for (op_idx, sop) in ctx.sketch.ops.iter().enumerate() {
            let (lhs_rots, rhs_rots) = ctx.hole_rots(sop);
            let op = &sop.op;
            if !op.binary_ct() {
                for lr in 0..lhs_rots {
                    let lhs = bank.rot(x, lr);
                    file(
                        bank.cand(op_idx, sop, x, lr, None),
                        &xt.support,
                        &|| ctx.masked_match(op, op_idx, lhs, None),
                        &|| ctx.apply_op(op, op_idx, lhs, None),
                    );
                }
                continue;
            }
            let pairs =
                std::iter::once((x, x)).chain(partners.iter().flat_map(|&p| [(x, p), (p, x)]));
            for (a, b) in pairs {
                let support = union_support(
                    &bank.terms[a as usize].support,
                    &bank.terms[b as usize].support,
                );
                for lr in 0..lhs_rots {
                    for rr in 0..rhs_rots {
                        if bank.pair_skipped(sop, a, lr, b, rr) {
                            continue;
                        }
                        let (lhs, rhs) = (bank.rot(a, lr), Some(bank.rot(b, rr)));
                        file(
                            bank.cand(op_idx, sop, a, lr, Some((b, rr))),
                            &support,
                            &|| ctx.masked_match(op, op_idx, lhs, rhs),
                            &|| ctx.apply_op(op, op_idx, lhs, rhs),
                        );
                    }
                }
            }
        }
        if ctx.sketch.mode == SketchMode::ExplicitRotate && !xt.is_rot {
            for &amount in &ctx.sketch.rotation_amounts {
                let cand = Cand {
                    node: Node::Rot { src: x, amount },
                    support: Vec::new(),
                    mdepth: xt.mdepth,
                    cost: xt.cost + ctx.rot_latency,
                    chain: x < ctx.num_inputs as u32 || xt.chain,
                };
                let value = || ctx.rotate_concat(bank.rot(x, 0), amount);
                file(cand, &xt.support, &|| ctx.matches_target(&value()), &value);
            }
        }
        out
    }

    type Rank = (u64, (u32, u32, i64, u32, i64));

    /// Every queued goal of `bank`, per size, as sorted ranks.
    fn goal_ranks(bank: &Bank<'_, '_>) -> Vec<Vec<Rank>> {
        bank.goals
            .iter()
            .map(|g| {
                let mut ranks: Vec<Rank> = g.iter().map(cand_rank).collect();
                ranks.sort_unstable();
                ranks
            })
            .collect()
    }

    /// Everything a finalized term holds, its cost as bits.
    fn term_key(t: &BankTerm) -> (Node, Vec<u32>, u32, u64, bool, bool) {
        let cost = t.cost.to_bits();
        (
            t.node.clone(),
            t.support.clone(),
            t.mdepth,
            cost,
            t.is_rot,
            t.chain,
        )
    }

    /// Grows banks to `max_c` through `expand_level` at one and two jobs
    /// and, beside them, through [`scan_unit`]; after every level their
    /// goals, retained terms and value classes must agree. Returns the
    /// number of goals found at each size.
    fn grow_beside_a_scan(ctx: &SearchContext<'_>, max_c: usize, case: &str) -> Vec<usize> {
        let key = |b: &Bank<'_, '_>| b.terms.iter().map(term_key).collect::<Vec<_>>();
        let mut scanned = Bank::new(ctx, 1, max_c);
        let mut grown = [Bank::new(ctx, 1, max_c), Bank::new(ctx, 1, max_c)];
        for d in 0..max_c {
            let units: Vec<GenCand> = scanned.levels[d]
                .iter()
                .flat_map(|&x| scan_unit(&scanned, x))
                .collect();
            for gc in units {
                scanned.route(gc);
            }
            for (j, bank) in grown.iter_mut().enumerate() {
                bank.expand_level(d, jobs(j + 1)).expect("no deadline");
                let at = format!("{case} jobs={}: after expanding level {d}", j + 1);
                assert_eq!(goal_ranks(bank), goal_ranks(&scanned), "{at}: goals");
                if d + 1 < max_c {
                    bank.finalize_level(d + 1);
                }
            }
            if d + 1 < max_c {
                scanned.finalize_level(d + 1);
                for (j, bank) in grown.iter().enumerate() {
                    let at = format!("{case} jobs={}: level {}", j + 1, d + 1);
                    assert_eq!(key(bank), key(&scanned), "{at}: terms");
                    assert!(bank.classes == scanned.classes, "{at}: classes");
                }
            }
        }
        scanned.goals.iter().map(Vec::len).collect()
    }

    /// Bank growth — the size-first pair filter, the ceiling lookup at
    /// every level, the first-slot partner test and the redundancy
    /// filter on growth candidates — builds exactly the bank a scan of
    /// every pair does, under the kernels' `t = 65537`, a small prime and
    /// a composite `t`, in both sketch modes, at one and two jobs. A small
    /// `t` makes chance goals common, so every op meets the lookup with
    /// the partner on either side, and under `t = 16` half the multiplies
    /// have no inverse; under every `t` the target itself must be found
    /// wherever it fits.
    ///
    /// Two configurations. Short vectors (one example of four slots, or of
    /// two at a ceiling of 4, two of them masked so the first-slot test is
    /// a filter, not the whole check) grow to a ceiling of 2, 3 and 4
    /// components, so the ceiling is reached from one, two and three
    /// levels below, and at 4 a level-2 candidate meets the pending
    /// builders level 1 left of its size. The kernels' shape (two
    /// examples of eight or nine slots, one masked, a subtraction rotated
    /// on both sides) grows to the ceiling the target needs in local
    /// mode, 2, and to 3 in explicit mode.
    #[test]
    fn ceiling_lookup_matches_a_scan_of_every_pair() {
        struct Config {
            n: usize,
            rotations: RotationSet,
            examples: usize,
            masked: usize,
            sub: SketchOp,
            ceilings: [std::ops::RangeInclusive<usize>; 2],
        }
        let window = |stride| RotationSet::Window { stride, radius: 1 };
        let short = |n, rotations, ceilings: std::ops::RangeInclusive<usize>| Config {
            n,
            rotations,
            examples: 1,
            masked: 2,
            sub: SketchOp::rhs_rotated(ArithOp::SubCtCt),
            ceilings: [ceilings.clone(), ceilings],
        };
        let kernel_shaped = |n, rotations| Config {
            n,
            rotations,
            examples: 2,
            masked: 1,
            sub: SketchOp::rotated(ArithOp::SubCtCt),
            ceilings: [2..=2, 3..=3],
        };
        let configs = [
            short(4, RotationSet::PowersOfTwo { extent: 4 }, 2..=3),
            short(4, window(2), 2..=3),
            short(2, RotationSet::PowersOfTwo { extent: 2 }, 4..=4),
            short(2, window(2), 4..=4),
            kernel_shaped(8, RotationSet::PowersOfTwo { extent: 8 }),
            kernel_shaped(9, window(3)),
        ];
        let model = LatencyModel::profiled_default();
        for c in configs {
            for t in [65537, 17, 16] {
                let mut mask = vec![false; c.n];
                mask[..c.masked].fill(true);
                let spec = KernelSpec::new("mixed", c.n, 2, 0, mask, t, Box::new(Mixed));
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                let examples: Vec<_> = (0..c.examples)
                    .map(|_| spec.sample_example(&mut rng))
                    .collect();
                let ops = vec![
                    c.sub.clone(),
                    SketchOp::rhs_rotated(ArithOp::AddCtCt),
                    SketchOp::rotated(ArithOp::MulCtCt),
                ];
                let local = Sketch::new(ops, c.rotations.clone(), 3);
                let explicit = local.clone().with_explicit_rotations();
                // `x · rot(y, 1) − rot(x, 2)`: two components with operand
                // rotations; with explicit ones, four, or three where a
                // rotation by 2 is the identity.
                let target_size = [2, if c.n == 2 { 3 } else { 4 }];
                for (m, sketch) in [local, explicit].into_iter().enumerate() {
                    let ctx = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
                    for max_c in c.ceilings[m].clone() {
                        let case = format!(
                            "{:?} t={t} n={} {:?} max_c={max_c}",
                            c.rotations, c.n, sketch.mode
                        );
                        let goals = grow_beside_a_scan(&ctx, max_c, &case);
                        if target_size[m] <= max_c {
                            assert!(goals[target_size[m]] > 0, "{case}: no target");
                        }
                        if t < 65537 && max_c >= 3 {
                            assert!(goals[max_c] > 0, "{case}: no chance goal");
                        }
                    }
                }
            }
        }
    }

    /// Shared sub-terms are counted once: the 2-input squared-distance
    /// chain `(x−y)·(x−y)` has size 2, not 3, so it is found at level 2.
    #[test]
    fn dag_sizing_counts_shared_subterms_once() {
        struct SqDiff;
        impl GenericReference for SqDiff {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                ct[0]
                    .iter()
                    .zip(&ct[1])
                    .map(|(a, b)| {
                        let d = a.sub(b);
                        d.mul(&d)
                    })
                    .collect()
            }
        }
        let spec = KernelSpec::new("sqdiff", 4, 2, 0, vec![true; 4], 65537, Box::new(SqDiff));
        let sketch = Sketch::new(
            vec![
                SketchOp::plain(ArithOp::SubCtCt),
                SketchOp::plain(ArithOp::MulCtCt),
            ],
            RotationSet::Explicit(Vec::new()),
            4,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let examples = vec![spec.sample_example(&mut rng)];
        let model = LatencyModel::uniform();
        let searcher = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
        match searcher.run_bottom_up(1, 4, jobs(1)) {
            BottomUpOutcome::Found { components, .. } => {
                assert_eq!(components, 2, "sub shared by both mul operands");
            }
            other => panic!("expected a solution, got {other:?}"),
        }
    }
}
