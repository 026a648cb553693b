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
//! * A candidate whose size equals the bank ceiling can never be consumed
//!   further, so it is only checked against the masked target (the DFS's
//!   goal-directed last level) and otherwise discarded without ever
//!   materializing its full value vector.
//! * Expanding the level just below the ceiling makes only such checks,
//!   so its partners are looked up rather than scanned: one index per
//!   ceiling expansion maps every partner's rotated value at the first
//!   masked slot to its `(id, rotation)` pairs, and each rotation of `x`
//!   asks it for the value the op needs there (`target − x` for add,
//!   `x − target` or `target + x` for sub, `target · x⁻¹` for mul). Only
//!   the hits go through the full masked check; a multiply by a value
//!   with no inverse falls back to every partner. The pairs, symmetry
//!   rules and goal set are those of the scan.
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
    /// Exact DFS-consistent costs are computed at goal selection.
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
    /// `rotated[id][k]` = the term's value rotated by `ctx.rots[k]`
    /// (`rotated[id][0]` is the value itself).
    rotated: Vec<Vec<Vec<u64>>>,
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

/// The ceiling level's partners (the inputs and the cross pool) by their
/// rotated value at the first masked slot.
struct PartnerIndex {
    by_value: HashMap<u64, Vec<(u32, usize)>>,
    /// Every `(partner, rotation index)`, for slots that do not pin the
    /// partner down.
    all: Vec<(u32, usize)>,
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
            bank.classes.insert(vec.clone());
            bank.rotated.push(
                ctx.rots
                    .iter()
                    .map(|&r| ctx.rotate_concat(&vec, r))
                    .collect(),
            );
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
        // At the ceiling every pair is a goal check; look its partners up.
        let index = (level + 1 == self.max_c && !self.ctx.mask_idx.is_empty())
            .then(|| self.partner_index());
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

    /// Indexes the partners of a ceiling expansion; see [`PartnerIndex`].
    fn partner_index(&self) -> PartnerIndex {
        let m0 = self.ctx.mask_idx[0];
        let all: Vec<(u32, usize)> = (0..self.ctx.num_inputs as u32)
            .chain(self.pool.iter().copied())
            .flat_map(|p| (0..self.ctx.rots.len()).map(move |k| (p, k)))
            .collect();
        let mut by_value: HashMap<u64, Vec<(u32, usize)>> = HashMap::new();
        for &(p, k) in &all {
            by_value
                .entry(self.rotated[p as usize][k][m0])
                .or_default()
                .push((p, k));
        }
        PartnerIndex { by_value, all }
    }

    /// All combinations rooted at `x`: unary sketch ops, `(x, x)`,
    /// `(x, p)`/`(p, x)` for every older partner `p` (inputs always; other
    /// terms only through the cross pool), and explicit rotations. With a
    /// ceiling `index`, the partners come from the lookup instead of a
    /// scan. Candidate order is a pure function of the bank, never of
    /// thread timing.
    fn expand_unit(
        &self,
        x: u32,
        index: Option<&PartnerIndex>,
        ticker: &Ticker<'_>,
        local: &mut u64,
    ) -> Option<Vec<GenCand>> {
        let mut out = Vec::new();
        let explicit = self.ctx.sketch.mode == SketchMode::ExplicitRotate;
        let num_inputs = self.ctx.num_inputs as u32;
        for (op_idx, sop) in self.ctx.sketch.ops.iter().enumerate() {
            if sop.op.binary_ct() {
                self.expand_pair(op_idx, sop, x, x, &mut out, ticker, local)?;
                if let Some(index) = index {
                    self.expand_ceiling_partners(op_idx, sop, x, index, &mut out, ticker, local)?;
                    continue;
                }
                for p in 0..num_inputs.min(x) {
                    self.expand_pair(op_idx, sop, x, p, &mut out, ticker, local)?;
                    self.expand_pair(op_idx, sop, p, x, &mut out, ticker, local)?;
                }
                for &p in self.pool.iter().filter(|&&p| p < x) {
                    self.expand_pair(op_idx, sop, x, p, &mut out, ticker, local)?;
                    self.expand_pair(op_idx, sop, p, x, &mut out, ticker, local)?;
                }
            } else {
                for lr in 0..self.ctx.hole_rots(sop).0 {
                    if ticker.check(local) {
                        return None;
                    }
                    self.emit(op_idx, sop, x, lr, None, &mut out);
                }
            }
        }
        if explicit && !self.terms[x as usize].is_rot {
            for &amount in &self.ctx.sketch.rotation_amounts {
                if ticker.check(local) {
                    return None;
                }
                self.emit_rot(x, amount, &mut out);
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

    /// Enumerates the rotation assignments of one ordered operand pair.
    #[allow(clippy::too_many_arguments)]
    fn expand_pair(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        a: u32,
        b: u32,
        out: &mut Vec<GenCand>,
        ticker: &Ticker<'_>,
        local: &mut u64,
    ) -> Option<()> {
        let (lhs_rots, rhs_rots) = self.ctx.hole_rots(sop);
        for lr in 0..lhs_rots {
            for rr in 0..rhs_rots {
                if ticker.check(local) {
                    return None;
                }
                if !self.pair_skipped(sop, a, lr, b, rr) {
                    self.emit(op_idx, sop, a, lr, Some((b, rr)), out);
                }
            }
        }
        Some(())
    }

    /// The `(x, p)` and `(p, x)` pairs of a ceiling expansion. Each is only
    /// a goal check, so for every rotation of `x` the partners come from
    /// `index` by the value the op needs at the first masked slot; `emit`
    /// then checks every masked slot. The pairs emitted, and the rules
    /// that admit them, are exactly those of the scan in
    /// [`Self::expand_unit`].
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
        let (lhs_rots, rhs_rots) = self.ctx.hole_rots(sop);
        for (x_is_lhs, x_rots, p_rots) in [(true, lhs_rots, rhs_rots), (false, rhs_rots, lhs_rots)]
        {
            for xr in 0..x_rots {
                if ticker.check(local) {
                    return None;
                }
                let known = &self.rotated[x as usize][xr];
                let hits: &[(u32, usize)] = match self.ctx.partner_need(&sop.op, known, x_is_lhs) {
                    PartnerValue::Exactly(v) => index.by_value.get(&v).map_or(&[], Vec::as_slice),
                    PartnerValue::Nothing => continue,
                    PartnerValue::Any => &index.all,
                };
                for &(p, pr) in hits.iter().filter(|&&(p, pr)| p < x && pr < p_rots) {
                    let (a, lr, b, rr) = if x_is_lhs {
                        (x, xr, p, pr)
                    } else {
                        (p, pr, x, xr)
                    };
                    if !self.pair_skipped(sop, a, lr, b, rr) {
                        self.emit(op_idx, sop, a, lr, Some((b, rr)), out);
                    }
                }
            }
        }
        Some(())
    }

    /// Builds (or goal-checks) one arithmetic candidate.
    fn emit(
        &self,
        op_idx: usize,
        sop: &SketchOp,
        a: u32,
        lr: usize,
        rhs: Option<(u32, usize)>,
        out: &mut Vec<GenCand>,
    ) {
        let a_term = &self.terms[a as usize];
        let lhs_v = &self.rotated[a as usize][lr];
        let (b_sup, b_md, b_cost, rhs_v, rr) = match rhs {
            Some((b, rr)) => {
                let bt = &self.terms[b as usize];
                let extra = if b != a { bt.cost } else { 0.0 };
                (
                    bt.support.as_slice(),
                    bt.mdepth,
                    extra,
                    Some(&self.rotated[b as usize][rr]),
                    rr,
                )
            }
            None => (&[] as &[u32], 0, 0.0, None, 0),
        };
        // Cheapest possible size: the larger operand DAG plus this node.
        let floor = a_term.support.len().max(b_sup.len()) + 1;
        if floor > self.max_c {
            return;
        }
        // Ceiling fast path: a candidate that can only be goal-sized is
        // checked on the masked slots before anything is allocated.
        let at_ceiling_for_sure = floor == self.max_c;
        if at_ceiling_for_sure
            && !self
                .ctx
                .masked_match(&sop.op, op_idx, lhs_v, rhs_v.map(|v| v.as_slice()))
        {
            return;
        }
        let support = union_support(&a_term.support, b_sup);
        let size = support.len() + 1;
        if size > self.max_c {
            return;
        }
        let is_mul = sop.op.is_mul();
        let mdepth = a_term.mdepth.max(b_md) + is_mul as u32;
        let mut cost = a_term.cost + b_cost + self.ctx.op_latencies[op_idx];
        if self.ctx.rots[lr] != 0 {
            cost += self.ctx.rot_latency;
        }
        if rhs.is_some() && self.ctx.rots[rr] != 0 {
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
        let cand = Cand {
            node,
            support,
            mdepth,
            cost,
            chain,
        };
        if size == self.max_c {
            // Only a goal can live here; the masked check already passed
            // for `at_ceiling_for_sure`, otherwise run it now.
            if at_ceiling_for_sure
                || self
                    .ctx
                    .masked_match(&sop.op, op_idx, lhs_v, rhs_v.map(|v| v.as_slice()))
            {
                out.push(GenCand {
                    cand,
                    vec: None,
                    goal: true,
                });
            }
            return;
        }
        let vec = self
            .ctx
            .apply_op(&sop.op, op_idx, lhs_v, rhs_v.map(|v| v.as_slice()));
        let goal = size >= self.min_c && self.ctx.matches_target(&vec);
        out.push(GenCand {
            cand,
            vec: Some(vec),
            goal,
        });
    }

    /// Builds one explicit-rotation candidate (ablation mode).
    fn emit_rot(&self, x: u32, amount: i64, out: &mut Vec<GenCand>) {
        let xt = &self.terms[x as usize];
        let size = xt.support.len() + 1;
        if size > self.max_c {
            return;
        }
        let vec = self.ctx.rotate_concat(&self.rotated[x as usize][0], amount);
        let cand = Cand {
            node: Node::Rot { src: x, amount },
            support: xt.support.clone(),
            mdepth: xt.mdepth,
            cost: xt.cost + self.ctx.rot_latency,
            chain: x < self.ctx.num_inputs as u32 || xt.chain,
        };
        let goal = size >= self.min_c && self.ctx.matches_target(&vec);
        if size == self.max_c {
            if goal {
                out.push(GenCand {
                    cand,
                    vec: None,
                    goal: true,
                });
            }
            return;
        }
        out.push(GenCand {
            cand,
            vec: Some(vec),
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
            self.rotated.push(
                self.ctx
                    .rots
                    .iter()
                    .map(|&r| self.ctx.rotate_concat(&vec, r))
                    .collect(),
            );
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
            let (prog, cost) = self.materialize_goal(g);
            let bits = cost.to_bits();
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
    /// topological because ids are assigned in finalization order) and
    /// prices it exactly the way the DFS does: op latencies, one rotation
    /// charge per distinct `(value, rotation)` pair, times `1 + mdepth`.
    fn materialize_goal(&self, g: &Cand) -> (Program, f64) {
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
        let mut latency = 0.0;
        let mut rots_used: HashSet<(usize, i64)> = HashSet::new();
        for c in &comps {
            match c {
                Comp::Arith { op_idx, lhs, rhs } => {
                    latency += self.ctx.op_latencies[*op_idx];
                    if lhs.1 != 0 {
                        rots_used.insert(*lhs);
                    }
                    if let Some(r) = rhs {
                        if r.1 != 0 {
                            rots_used.insert(*r);
                        }
                    }
                }
                Comp::Rot { .. } => latency += self.ctx.rot_latency,
            }
        }
        latency += self.ctx.rot_latency * rots_used.len() as f64;
        let cost = latency * (1.0 + g.mdepth as f64);
        (self.ctx.materialize(&comps), cost)
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

    type Rank = (u64, (u32, u32, i64, u32, i64));

    /// Grows a bank up to its ceiling level and returns the ceiling goals
    /// its lookup emits, as sorted ranks, with the bank.
    fn lookup_goals<'s, 'a>(
        ctx: &'s SearchContext<'a>,
        max_c: usize,
        jobs: NonZeroUsize,
    ) -> (Vec<Rank>, Bank<'s, 'a>) {
        let mut bank = Bank::new(ctx, 1, max_c);
        for d in 0..max_c - 1 {
            bank.expand_level(d, jobs).expect("no deadline");
            bank.finalize_level(d + 1);
        }
        bank.goals[max_c].clear();
        bank.expand_level(max_c - 1, jobs).expect("no deadline");
        let mut ranks: Vec<Rank> = bank.goals[max_c].iter().map(cand_rank).collect();
        ranks.sort_unstable();
        (ranks, bank)
    }

    /// The brute-force oracle: every `(term, partner, rotation pair)` of
    /// the ceiling level through `emit`'s `masked_match`, as the levels
    /// below the ceiling are expanded.
    fn scanned_goals(bank: &Bank<'_, '_>) -> Vec<Rank> {
        let timed_out = AtomicBool::new(false);
        let ticker = Ticker {
            deadline: None,
            timed_out: &timed_out,
        };
        let mut ranks: Vec<Rank> = Vec::new();
        for &x in &bank.levels[bank.max_c - 1] {
            let unit = bank
                .expand_unit(x, None, &ticker, &mut 0)
                .expect("no deadline");
            ranks.extend(
                unit.iter()
                    .filter(|gc| gc.goal)
                    .map(|gc| cand_rank(&gc.cand)),
            );
        }
        ranks.sort_unstable();
        ranks
    }

    /// The ceiling lookup emits exactly the goals a scan of every pair
    /// does: on a reduction and a stencil rotation set, in both sketch
    /// modes, under the kernels' `t = 65537`, a small prime and a
    /// composite `t`, at one and two jobs. A small `t` makes chance goals
    /// common, so every op meets the lookup with the partner on either
    /// side, and under `t = 16` half the multiplies have no inverse.
    #[test]
    fn ceiling_lookup_matches_a_scan_of_every_pair() {
        let ops = vec![
            SketchOp::rotated(ArithOp::SubCtCt),
            SketchOp::rhs_rotated(ArithOp::AddCtCt),
            SketchOp::rotated(ArithOp::MulCtCt),
        ];
        let sketches = [
            (8, RotationSet::PowersOfTwo { extent: 8 }),
            (
                9,
                RotationSet::Window {
                    stride: 3,
                    radius: 1,
                },
            ),
        ];
        let model = LatencyModel::profiled_default();
        for (n, rotations) in sketches {
            for t in [65537, 17, 16] {
                let mut mask = vec![false; n];
                mask[0] = true;
                let spec = KernelSpec::new("mixed", n, 2, 0, mask, t, Box::new(Mixed));
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                let examples = vec![spec.sample_example(&mut rng), spec.sample_example(&mut rng)];
                let local = Sketch::new(ops.clone(), rotations.clone(), 3);
                let explicit = local.clone().with_explicit_rotations();
                for (sketch, max_c) in [(local, 2), (explicit, 3)] {
                    let ctx = SearchContext::new(&spec, &sketch, &examples, &model, None, None);
                    let (lookup, bank) = lookup_goals(&ctx, max_c, jobs(1));
                    let scan = scanned_goals(&bank);
                    let case = format!("n={n} t={t} {:?}", sketch.mode);
                    // Under t = 65537 chance goals are rare, and explicit
                    // rotations build the target in four components, past
                    // this ceiling.
                    let chance_goals = t < 65537 || sketch.mode == SketchMode::LocalRotate;
                    assert!(!chance_goals || !scan.is_empty(), "{case}: no goal");
                    assert_eq!(lookup, scan, "{case}");
                    assert_eq!(lookup_goals(&ctx, max_c, jobs(2)).0, scan, "{case} jobs=2");
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
