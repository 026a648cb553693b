//! The Quill cost model: per-instruction latencies and the paper's
//! `cost(p) = latency(p) × (1 + mdepth(p))` objective (§5.2).
//!
//! The paper derives instruction latencies by profiling SEAL; we derive them
//! by profiling the in-repo backends. perfbench's op layer (a `--trace 1`
//! run) times every evaluator op, and `porcupine-bench`'s
//! `profile_latency` turns its result into paste-ready blocks for
//! [`LatencyModel::profiled_default`] (BFV) and
//! [`LatencyModel::profiled_bgv`]. What the synthesizer
//! consumes is only their *ratios*, which are stable across machines
//! (rotation and ct×ct multiply dominate because both key-switch).
//! [`LatencyModel::profiled_for`] picks the table for a
//! [`crate::scheme::SchemeId`].

use crate::analysis::rotation_fans;
use crate::program::{Instr, Program};
use crate::scheme::SchemeId;

/// Per-instruction latency in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// ct + ct.
    pub add_ct_ct: f64,
    /// ct − ct.
    pub sub_ct_ct: f64,
    /// ct × ct, **excluding** relinearization — the raw tensor/rescale
    /// cost. Relinearization is its own op ([`LatencyModel::relin_ct`]) so
    /// the middle-end's lazy-relinearization savings are visible to both
    /// the search and [`LatencyModel::program_latency`].
    pub mul_ct_ct: f64,
    /// ct + pt.
    pub add_ct_pt: f64,
    /// ct − pt.
    pub sub_ct_pt: f64,
    /// ct × pt.
    pub mul_ct_pt: f64,
    /// Slot rotation (Galois automorphism + key switch).
    pub rot_ct: f64,
    /// Relinearization of a size-3 ciphertext (one key switch).
    pub relin_ct: f64,
    /// One-time decompose phase of a hoisted rotation fan: the `k` inverse
    /// and `k² − k` forward NTTs of the key-switch digit decomposition, paid
    /// once per fan source (see `rlwe_ring::keyswitch::hoist_decompose`).
    pub rot_hoist_setup: f64,
    /// Per-member accumulate of a hoisted rotation: digit-row permutations
    /// plus the pointwise key inner products — no NTTs. The shipped
    /// tables keep `rot_hoist_setup + rot_hoisted ≥ rot_ct` (a one-member
    /// "fan" is never cheaper than a plain rotation, which also keeps
    /// [`LatencyModel::program_latency`] monotone under appending
    /// rotations to a fan).
    pub rot_hoisted: f64,
}

impl LatencyModel {
    /// Latencies measured on the in-repo BFV backend at `N = 4096`,
    /// 3 × 46-bit primes (the `fast_4096` preset), median of repeated runs.
    /// Regenerate from perfbench's op timings: run `perfbench --workload
    /// bfv-pipelines-par2 --seed 1 --seconds 2 --trace 1 > traced.out`, then
    /// `cargo run -p porcupine-bench --release --bin profile_latency --
    /// traced.out` and paste its bfv n4096k3 block. `relin_ct` is the
    /// measured standalone key switch; `mul_ct_ct` is the *raw*
    /// tensor/rescale (the seed model folded the relin key switch into
    /// it), so lazy relinearization placement shows up in
    /// `program_latency`.
    ///
    /// These constants reflect the allocation-free, encode-once hot path:
    /// plaintext operands are cached `EvalPlaintext`s (the forward NTTs
    /// are paid once at `Evaluator::preencode`, not per op), destinations
    /// are mutated in place, and scratch comes from the evaluator's pool —
    /// exactly what `BfvRunner::run` executes. That makes `add_ct_pt` /
    /// `sub_ct_pt` *cheaper* than `add_ct_ct` (one ciphertext part touched
    /// instead of two) where the previous calibration had them ~4× more
    /// expensive from the per-op re-encode. The key-switching ops
    /// (rotation, multiply plus relin) still dominate, so the
    /// synthesizer's incentives are unchanged in direction, only in
    /// magnitude.
    pub fn profiled_default() -> Self {
        LatencyModel {
            add_ct_ct: 45.4,
            sub_ct_ct: 45.6,
            mul_ct_ct: 5_100.0,
            add_ct_pt: 22.4,
            sub_ct_pt: 22.1,
            mul_ct_pt: 67.0,
            rot_ct: 1_050.0,
            relin_ct: 1_140.0,
            // Measured with the op timers that predate perfbench: setup
            // ~720 µs, ~175 µs per member. Setup is carried at 880 so the
            // pair stays monotone against this table's (older-calibration)
            // rot_ct — see the field docs; the fan credit is slightly
            // conservative rather than ever negative.
            rot_hoist_setup: 880.0,
            rot_hoisted: 175.0,
        }
    }

    /// Latencies measured on the in-repo BGV backend under the same
    /// conditions as [`LatencyModel::profiled_default`] (`N = 4096`,
    /// 3 × 46-bit primes, cached `EvalPlaintext`s, pooled scratch).
    ///
    /// The componentwise ops and the key switches run the *same* shared-ring
    /// code as BFV, so those entries match the BFV table. The difference is
    /// `mul_ct_ct`: BGV's multiply is a plain evaluation-domain tensor over
    /// `Q` — no auxiliary-base extension, no `t/Q` rescale — so the raw
    /// multiply measures ~140 µs against BFV's ~4.8 ms, an order of
    /// magnitude *below* a key switch. Under BGV the relinearization (when
    /// the scheme requests one) dominates the multiply it follows.
    /// Regenerate alongside the BFV table: `profile_latency` prints this
    /// table's candidate as a derived block. perfbench measures BGV at
    /// n1024k3 and n16384k9 only, so the block is the n1024k3 row rescaled
    /// to this calibration point with [`LatencyModel::scaled_to`]'s
    /// factors.
    pub fn profiled_bgv() -> Self {
        LatencyModel {
            add_ct_ct: 45.4,
            sub_ct_ct: 45.6,
            mul_ct_ct: 140.0,
            add_ct_pt: 22.4,
            sub_ct_pt: 22.1,
            mul_ct_pt: 67.0,
            rot_ct: 1_050.0,
            relin_ct: 1_140.0,
            // Measured with the op timers that predate perfbench: setup
            // ~720 µs, ~175 µs per member. Setup is carried at 880 so the
            // pair stays monotone against this table's (older-calibration)
            // rot_ct — see the field docs; the fan credit is slightly
            // conservative rather than ever negative.
            rot_hoist_setup: 880.0,
            rot_hoisted: 175.0,
        }
    }

    /// The profiled latency table for a scheme backend.
    pub fn profiled_for(scheme: SchemeId) -> Self {
        match scheme {
            SchemeId::Bfv => LatencyModel::profiled_default(),
            SchemeId::Bgv => LatencyModel::profiled_bgv(),
        }
    }

    /// A uniform model (every instruction costs 1): makes `cost` rank by
    /// instruction count × (1 + mdepth), useful in tests and ablations.
    pub fn uniform() -> Self {
        LatencyModel {
            add_ct_ct: 1.0,
            sub_ct_ct: 1.0,
            mul_ct_ct: 1.0,
            add_ct_pt: 1.0,
            sub_ct_pt: 1.0,
            mul_ct_pt: 1.0,
            rot_ct: 1.0,
            relin_ct: 1.0,
            // setup + r·hoisted ≥ r·rot_ct for every r, so the uniform
            // model never credits hoisting — it stays a pure
            // instruction-count model.
            rot_hoist_setup: 1.0,
            rot_hoisted: 1.0,
        }
    }

    /// Every entry of the table with its field name, in declaration order.
    pub fn entries(&self) -> [(&'static str, f64); 10] {
        [
            ("add_ct_ct", self.add_ct_ct),
            ("sub_ct_ct", self.sub_ct_ct),
            ("mul_ct_ct", self.mul_ct_ct),
            ("add_ct_pt", self.add_ct_pt),
            ("sub_ct_pt", self.sub_ct_pt),
            ("mul_ct_pt", self.mul_ct_pt),
            ("rot_ct", self.rot_ct),
            ("relin_ct", self.relin_ct),
            ("rot_hoist_setup", self.rot_hoist_setup),
            ("rot_hoisted", self.rot_hoisted),
        ]
    }

    /// Latency of one instruction.
    pub fn instr_latency(&self, instr: &Instr) -> f64 {
        match instr {
            Instr::AddCtCt(..) => self.add_ct_ct,
            Instr::SubCtCt(..) => self.sub_ct_ct,
            Instr::MulCtCt(..) => self.mul_ct_ct,
            Instr::AddCtPt(..) => self.add_ct_pt,
            Instr::SubCtPt(..) => self.sub_ct_pt,
            Instr::MulCtPt(..) => self.mul_ct_pt,
            Instr::RotCt(..) => self.rot_ct,
            Instr::Relin(..) => self.relin_ct,
        }
    }

    /// Total straight-line latency of a program (µs), pricing same-source
    /// rotation fans at their hoisted cost.
    ///
    /// The runner executes every group of ≥2 rotations sharing a source
    /// through one hoisted decomposition
    /// ([`crate::analysis::rotation_fans`]), so an `r`-member fan costs
    /// `rot_hoist_setup + r·rot_hoisted` instead of `r·rot_ct` — the
    /// credit applies only when that is actually cheaper, so latency never
    /// exceeds the plain per-instruction sum and (because
    /// `rot_hoist_setup + rot_hoisted ≥ rot_ct` in the shipped tables)
    /// never drops below what one fewer rotation would cost.
    pub fn program_latency(&self, prog: &Program) -> f64 {
        let base: f64 = prog.instrs.iter().map(|i| self.instr_latency(i)).sum();
        let hoist_credit: f64 = rotation_fans(prog)
            .iter()
            .map(|fan| {
                let r = fan.members.len() as f64;
                (r * self.rot_ct - (self.rot_hoist_setup + r * self.rot_hoisted)).max(0.0)
            })
            .sum();
        base - hoist_credit
    }

    /// Rescales the table from its calibration point (`N = 4096`, `k = 3`
    /// primes) to the given ring parameters, so modeled latencies are
    /// comparable to measurements taken under per-kernel resolved params.
    ///
    /// Componentwise ops (adds, subs, plaintext ops) scale with the residue
    /// volume `k·N`; key-switching ops (rotation, relinearization, ct×ct
    /// multiply, and both hoisting entries) are dominated by `k²` NTTs and
    /// scale with `k²·N·log₂N`. This is a first-order model — constants and
    /// cache effects are not captured — but it turns the cross-parameter
    /// `model_ratio` of the `reproduce` harness's `-O0`/`-O2` comparison
    /// from tens into order-1.
    pub fn scaled_to(&self, n: usize, primes: usize) -> LatencyModel {
        const N0: f64 = 4096.0;
        const K0: f64 = 3.0;
        let n = n as f64;
        let k = primes as f64;
        let comp = (k * n) / (K0 * N0);
        let ks = (k * k * n * n.log2()) / (K0 * K0 * N0 * N0.log2());
        LatencyModel {
            add_ct_ct: self.add_ct_ct * comp,
            sub_ct_ct: self.sub_ct_ct * comp,
            mul_ct_ct: self.mul_ct_ct * ks,
            add_ct_pt: self.add_ct_pt * comp,
            sub_ct_pt: self.sub_ct_pt * comp,
            mul_ct_pt: self.mul_ct_pt * comp,
            rot_ct: self.rot_ct * ks,
            relin_ct: self.relin_ct * ks,
            rot_hoist_setup: self.rot_hoist_setup * ks,
            rot_hoisted: self.rot_hoisted * ks,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::profiled_default()
    }
}

/// Straight-line sum of per-instruction latencies, with no hoisting
/// credit — the synthesis-time pricing.
fn instr_sum(prog: &Program, model: &LatencyModel) -> f64 {
    prog.instrs.iter().map(|i| model.instr_latency(i)).sum()
}

/// The paper's compound objective: `latency × (1 + multiplicative depth)`,
/// penalizing high-noise programs that would force larger HE parameters.
/// Sums the latencies of exactly the instructions present — a program with
/// explicit `relin-ct` pays for each one, and a lazily-relinearized program
/// is cheaper than its eagerly-lowered sibling.
///
/// Rotations are priced *unhoisted* here, unlike
/// [`LatencyModel::program_latency`]: the searcher's branch-and-bound
/// accounts cost instruction-by-instruction as it extends candidates, so
/// the objective must stay a local sum (and §5.2's objective is exactly
/// that). Rotation hoisting is an execution-engine effect the runner
/// applies after lowering; the fan credit belongs to the measurement-side
/// latency model, not the search ranking.
pub fn cost(prog: &Program, model: &LatencyModel) -> f64 {
    instr_sum(prog, model) * (1.0 + prog.mult_depth() as f64)
}

/// The synthesis-time objective: [`cost`] plus one implicit
/// relinearization per not-yet-relinearized ct×ct multiply.
///
/// The searcher emits programs with no explicit `relin-ct` (relinearization
/// placement is the middle-end's job), but every multiply will cost at
/// least its eager relinearization once lowered at `-O0`. Charging that
/// here keeps the CEGIS cost bound consistent with the search's internal
/// accounting and with what the `-O0` lowering actually executes; the
/// `-O2` lazy placement can only improve on it.
pub fn eager_cost(prog: &Program, model: &LatencyModel) -> f64 {
    let implicit = prog.ct_ct_mul_count().saturating_sub(prog.relin_count());
    (instr_sum(prog, model) + implicit as f64 * model.relin_ct) * (1.0 + prog.mult_depth() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Instr, Program, PtOperand, ValRef};

    #[test]
    fn entries_name_every_field() {
        let m = LatencyModel::profiled_default();
        let debug = format!("{m:?}");
        for (field, us) in m.entries() {
            assert!(debug.contains(&format!("{field}: {us:?}")), "{field}");
        }
        assert_eq!(debug.matches(": ").count(), m.entries().len());
    }

    #[test]
    fn cost_penalizes_depth() {
        let flat = Program::new(
            "flat",
            2,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        let deep = Program::new(
            "deep",
            2,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        let uniform = LatencyModel::uniform();
        assert_eq!(cost(&flat, &uniform), 1.0);
        assert_eq!(cost(&deep, &uniform), 2.0); // same latency, 1 mult level
    }

    #[test]
    fn profiled_model_orders_instructions_sanely() {
        let m = LatencyModel::profiled_default();
        assert!(m.add_ct_ct < m.mul_ct_pt);
        assert!(m.mul_ct_pt < m.rot_ct);
        assert!(m.rot_ct < m.mul_ct_ct);
        // Relinearization is one key switch, like the one inside a
        // rotation, and far below the raw multiply.
        assert!(m.mul_ct_pt < m.relin_ct);
        assert!(m.relin_ct < m.mul_ct_ct);
    }

    /// Per-scheme profiles: BGV's raw multiply avoids BFV's auxiliary-base
    /// machinery, so it must be strictly cheaper, while the shared-ring ops
    /// (adds, key switches) coincide.
    #[test]
    fn bgv_profile_reflects_the_cheaper_multiply() {
        let bfv = LatencyModel::profiled_for(crate::scheme::SchemeId::Bfv);
        let bgv = LatencyModel::profiled_for(crate::scheme::SchemeId::Bgv);
        assert_eq!(bfv, LatencyModel::profiled_default());
        assert!(bgv.mul_ct_ct < bfv.mul_ct_ct);
        assert_eq!(bgv.add_ct_ct, bfv.add_ct_ct);
        assert_eq!(bgv.rot_ct, bfv.rot_ct);
        assert_eq!(bgv.relin_ct, bfv.relin_ct);
        // Key-switching ops still dominate the componentwise ones under
        // both profiles, so the synthesizer's incentives keep direction.
        assert!(bgv.mul_ct_pt < bgv.mul_ct_ct);
        assert!(bgv.add_ct_ct < bgv.rot_ct);
    }

    /// `eager_cost` charges one implicit relinearization per multiply that
    /// lacks an explicit one, and coincides with `cost` on programs whose
    /// relinearizations are all explicit.
    #[test]
    fn eager_cost_charges_implicit_relins() {
        let raw = Program::new(
            "raw",
            2,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        let lowered = Program::new(
            "lowered",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::Relin(ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        for m in [LatencyModel::uniform(), LatencyModel::profiled_default()] {
            assert_eq!(eager_cost(&raw, &m), eager_cost(&lowered, &m));
            assert_eq!(eager_cost(&lowered, &m), cost(&lowered, &m));
            assert!(cost(&raw, &m) < eager_cost(&raw, &m));
        }
    }

    /// Single-instruction kernels must rank add ≤ rotate ≤ multiply under
    /// both shipped models — rotation and ct×ct multiply key-switch, so any
    /// calibration that inverts this ordering would steer the synthesizer
    /// toward expensive programs. The uniform model ties on raw latency but
    /// still ranks multiplies last through the depth penalty.
    #[test]
    fn uniform_and_profiled_agree_on_add_rotate_multiply_ordering() {
        let single = |instr: Instr| Program::new("one", 2, 0, vec![instr], ValRef::Instr(0));
        let add = single(Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1)));
        let rot = single(Instr::RotCt(ValRef::Input(0), 1));
        let mul = single(Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)));
        for m in [LatencyModel::uniform(), LatencyModel::profiled_default()] {
            assert!(cost(&add, &m) <= cost(&rot, &m));
            assert!(cost(&rot, &m) <= cost(&mul, &m));
        }
        // The profiled model separates them strictly.
        let p = LatencyModel::profiled_default();
        assert!(cost(&add, &p) < cost(&rot, &p));
        assert!(cost(&rot, &p) < cost(&mul, &p));
    }

    /// Appending any instruction can only increase the objective: latency is
    /// a sum of positive terms and multiplicative depth never decreases.
    #[test]
    fn cost_is_monotone_under_instruction_append() {
        let base = Program::new(
            "base",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        let appendables = [
            Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(0)),
            Instr::SubCtCt(ValRef::Instr(1), ValRef::Instr(0)),
            Instr::MulCtCt(ValRef::Instr(1), ValRef::Instr(0)),
            Instr::AddCtPt(ValRef::Instr(1), PtOperand::Splat(3)),
            Instr::SubCtPt(ValRef::Instr(1), PtOperand::Splat(3)),
            Instr::MulCtPt(ValRef::Instr(1), PtOperand::Splat(3)),
            Instr::RotCt(ValRef::Instr(1), 2),
        ];
        for m in [LatencyModel::uniform(), LatencyModel::profiled_default()] {
            let before = cost(&base, &m);
            for extra in &appendables {
                let mut instrs = base.instrs.clone();
                instrs.push(extra.clone());
                let last = instrs.len() - 1;
                let longer = Program::new("longer", 1, 0, instrs, ValRef::Instr(last));
                longer.validate().expect("appended program stays valid");
                assert!(
                    cost(&longer, &m) > before,
                    "appending {extra:?} must increase cost under {m:?}"
                );
            }
        }
    }

    /// An r-member same-source rotation fan is priced at
    /// `setup + r·hoisted` when that beats `r·rot_ct`, and the credit never
    /// makes latency exceed the plain sum (uniform model: no credit at all).
    #[test]
    fn program_latency_prices_rotation_fans_hoisted() {
        let fan3 = Program::new(
            "fan3",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Input(0), 5),
                Instr::RotCt(ValRef::Input(0), 6),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Instr(1)),
                Instr::AddCtCt(ValRef::Instr(3), ValRef::Instr(2)),
            ],
            ValRef::Instr(4),
        );
        let m = LatencyModel::profiled_default();
        let expected = m.rot_hoist_setup + 3.0 * m.rot_hoisted + 2.0 * m.add_ct_ct;
        assert!((m.program_latency(&fan3) - expected).abs() < 1e-6);
        let plain_sum: f64 = fan3.instrs.iter().map(|i| m.instr_latency(i)).sum();
        assert!(m.program_latency(&fan3) < plain_sum);
        // The synthesis objective stays a plain per-instruction sum: the
        // searcher prices rotations unhoisted (see `cost`'s docs).
        assert!((cost(&fan3, &m) - plain_sum).abs() < 1e-6);
        // A lone rotation gets no credit: hoisting it would cost more.
        let lone = Program::new(
            "lone",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 1)],
            ValRef::Instr(0),
        );
        assert_eq!(m.program_latency(&lone), m.rot_ct);
        // The uniform model's entries never credit hoisting, keeping it a
        // pure instruction-count model.
        let u = LatencyModel::uniform();
        assert_eq!(u.program_latency(&fan3), 5.0);
    }

    /// The shipped tables keep one hoisted member at least as expensive as
    /// a plain rotation (`setup + hoisted ≥ rot_ct`), which is what makes
    /// the fan credit monotone under appending rotations.
    #[test]
    fn hoist_entries_never_undercut_a_single_rotation() {
        for m in [
            LatencyModel::profiled_default(),
            LatencyModel::profiled_bgv(),
            LatencyModel::uniform(),
        ] {
            assert!(m.rot_hoist_setup + m.rot_hoisted >= m.rot_ct);
            assert!(m.rot_hoisted > 0.0);
            // ...while a realistic fan of 3 is cheaper hoisted under the
            // profiled tables.
            if m != LatencyModel::uniform() {
                assert!(m.rot_hoist_setup + 3.0 * m.rot_hoisted < 3.0 * m.rot_ct);
            }
        }
    }

    /// `scaled_to` is the identity at the calibration point and scales
    /// key-switch ops superlinearly vs componentwise ops as N and the prime
    /// count grow.
    #[test]
    fn scaled_to_tracks_ring_parameters() {
        let m = LatencyModel::profiled_default();
        let same = m.scaled_to(4096, 3);
        assert_eq!(same, m);
        let big = m.scaled_to(8192, 4);
        // Componentwise: volume ratio (4·8192)/(3·4096) = 8/3.
        let comp = (4.0 * 8192.0) / (3.0 * 4096.0);
        assert!((big.add_ct_ct / m.add_ct_ct - comp).abs() < 1e-9);
        // Key switches grow faster than componentwise ops.
        assert!(big.rot_ct / m.rot_ct > comp);
        assert!(big.rot_hoist_setup / m.rot_hoist_setup > comp);
        // Shrinking params shrinks the model.
        let small = m.scaled_to(1024, 1);
        assert!(small.rot_ct < m.rot_ct);
        assert!(small.add_ct_ct < m.add_ct_ct);
    }

    #[test]
    fn program_latency_sums_instructions() {
        let m = LatencyModel::uniform();
        let p = Program::new(
            "three",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
                Instr::MulCtPt(ValRef::Instr(1), PtOperand::Splat(2)),
            ],
            ValRef::Instr(2),
        );
        assert_eq!(m.program_latency(&p), 3.0);
        assert_eq!(cost(&p, &m), 6.0); // mdepth 1 from mul-ct-pt
    }
}
