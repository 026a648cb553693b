//! A static, worst-case model of BFV invariant-noise growth.
//!
//! The model predicts, per operation, an upper bound on the **relative
//! invariant noise** of a ciphertext — `ε = ‖t·w mod Q‖∞ / Q`, where `w` is
//! the decryption phase `Σ c_j·s^j` and the centered remainder is taken.
//! Decryption is correct while `ε < 1/2`; the measured probe
//! [`crate::encrypt::Decryptor::invariant_noise_budget`] reports
//! `⌊log2(1/(2ε))⌋` in bits. Everything here works in the log domain:
//! noise values are `log2 ε` (more negative = quieter), and
//! [`NoiseModel::budget`] converts back to bits of budget.
//!
//! # Soundness contract
//!
//! Every transfer rule is a *worst-case* bound: for any program and any
//! inputs, the measured remaining budget after evaluation is at least the
//! predicted remaining budget. This is what lets the parameter selector
//! ([`crate::params::ParamSelector`]) certify a parameter set without
//! running the program, and it is property-tested at the workspace root
//! (`tests/noise.rs`) against the real evaluator at `-O0` and `-O2`.
//!
//! # Derivation sketch
//!
//! With `B` the error-sampler bound (the centered binomial in
//! [`crate::poly::RingContext::sample_error`] has `‖e‖ ≤ 10`), `N` the ring
//! degree, `t` the plaintext modulus, and `k` ciphertext primes of at most
//! `q_max` bits:
//!
//! * **fresh**: the phase is `Δm − e·u + e₁ + e₂·s`, so
//!   `‖t·w mod Q‖ ≤ t·((2N+1)·B + t)` (the `t²` term is the `(Q mod t)·m`
//!   encoding remainder).
//! * **add/sub**: noises add — `ε ≤ ε₁ + ε₂`.
//! * **add/sub-plain**: adds only the encoding remainder, `ε += t²/Q`.
//! * **mul-plain**: a negacyclic convolution with a plaintext of entries
//!   `< t`: `ε ≤ N·t·ε`.
//! * **mul**: writing `(t/Q)·w = m + v + t·A` with `‖A‖ ≤ (N+3)/2`, the
//!   product's invariant noise is dominated by the cross terms
//!   `t·A·v'`: `ε ≤ t·N·((N+3)/2 + 1)·(ε₁ + ε₂) + t·N²/Q` (the last term
//!   is the tensor-rescale rounding). The model rounds the coefficient up
//!   to `2·t·N²`.
//! * **key switch** (relinearization, rotation): RNS-decomposition key
//!   switching adds `Σᵢ dᵢ·eᵢ` with digits `‖dᵢ‖ < qᵢ`, so
//!   `ε += t·k·N·q_max·B / Q`. A rotation's slot permutation itself is
//!   noise-neutral.
//!
//! # Calibration
//!
//! The only empirical constant is the error bound [`LogSizes::ERR_BOUND`]
//! (exactly the sampler's support). The predicted budget additionally
//! keeps one guard bit (see [`NoiseModel::budget`]) to stay under the
//! integer rounding of the measured probe. To re-calibrate after changing
//! the sampler or the key-switching scheme, run the unit test
//! `model_is_sound_and_tight_against_the_evaluator` below: it measures the
//! budget of fresh, multiply+relin and rotated ciphertexts and compares it
//! with [`NoiseModel`]'s per-op predictions. perfbench's
//! `noise_budget_bits` metric tracks the budget the paper kernels end with.

use crate::params::BfvParams;
use quill::analysis::NoiseSemantics;
use quill::program::Program;
use rlwe_ring::noise::{lse, LogSizes};

pub use quill::analysis::NoiseReport;

/// Worst-case BFV invariant-noise model for one parameter set.
///
/// Values produced and consumed by the transfer rules are `log2` of the
/// relative invariant noise (see the module docs). Implements
/// [`quill::analysis::NoiseSemantics`], so
/// [`quill::analysis::noise_levels`] walks whole programs with it.
///
/// # Examples
///
/// ```
/// use bfv::noise::NoiseModel;
/// use bfv::params::BfvParams;
///
/// let model = NoiseModel::for_params(&BfvParams::test_small());
/// // A fresh encryption has a large predicted budget...
/// assert!(model.fresh_budget() > 60.0);
/// // ...and a multiply consumes a predictable chunk of it.
/// use quill::analysis::NoiseSemantics;
/// let after = model.mul_ct_ct(model.fresh(), model.fresh());
/// assert!(model.budget(after) < model.fresh_budget() - 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    sizes: LogSizes,
}

impl NoiseModel {
    /// Builds the model for a parameter set.
    pub fn for_params(params: &BfvParams) -> Self {
        NoiseModel {
            sizes: LogSizes::of(params),
        }
    }

    /// Remaining noise budget, in bits, for a (log-domain) noise level
    /// (see [`LogSizes::budget`]).
    pub fn budget(&self, noise_bits: f64) -> f64 {
        LogSizes::budget(noise_bits)
    }

    /// Predicted budget of a fresh encryption.
    pub fn fresh_budget(&self) -> f64 {
        self.budget(self.fresh())
    }

    /// Analyzes a lowered program: walks it with the model and reports the
    /// worst-case output noise, the predicted remaining budget, and the
    /// consumed budget relative to a fresh encryption.
    pub fn analyze(&self, prog: &Program) -> NoiseReport {
        let output_noise_bits = quill::analysis::output_noise(prog, self);
        let predicted_budget_bits = self.budget(output_noise_bits);
        NoiseReport {
            output_noise_bits,
            predicted_budget_bits,
            fresh_budget_bits: self.fresh_budget(),
            consumed_bits: self.fresh_budget() - predicted_budget_bits,
        }
    }
}

impl NoiseSemantics for NoiseModel {
    fn fresh(&self) -> f64 {
        // t·((2N+1)·B + t) / Q
        let inner = (2.0f64.powf(self.sizes.log_n + 1.0) + 1.0) * LogSizes::ERR_BOUND
            + 2.0f64.powf(self.sizes.t_bits);
        self.sizes.t_bits + inner.log2() - self.sizes.q_bits
    }

    fn add_ct_ct(&self, a: f64, b: f64) -> f64 {
        lse(a, b)
    }

    fn mul_ct_ct(&self, a: f64, b: f64) -> f64 {
        // 2·t·N²·(ε₁ + ε₂), plus the t·N²/Q rescale-rounding floor.
        let scaled = self.sizes.t_bits + 2.0 * self.sizes.log_n + 1.0 + lse(a, b);
        let floor = self.sizes.t_bits + 2.0 * self.sizes.log_n - self.sizes.q_bits;
        lse(scaled, floor)
    }

    fn add_ct_pt(&self, a: f64) -> f64 {
        // + (Q mod t)·m / Q with ‖m‖ < t (coefficient-wise, no convolution).
        lse(a, 2.0 * self.sizes.t_bits - self.sizes.q_bits)
    }

    fn mul_ct_pt(&self, a: f64) -> f64 {
        // Negacyclic convolution with plaintext coefficients < t.
        a + self.sizes.t_bits + self.sizes.log_n
    }

    fn rot_ct(&self, a: f64) -> f64 {
        // The automorphism permutes coefficients (noise-neutral); the key
        // switch afterwards is additive.
        lse(a, self.sizes.key_switch_bits())
    }

    fn relin_ct(&self, a: f64) -> f64 {
        lse(a, self.sizes.key_switch_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::evaluator::Evaluator;
    use crate::keys::KeyGenerator;
    use crate::params::{BfvContext, BfvParams};
    use rand::{Rng, SeedableRng};

    struct Session<'a> {
        encoder: BatchEncoder<'a>,
        enc: Encryptor<'a>,
        dec: Decryptor<'a>,
        ev: Evaluator<'a>,
        kg: KeyGenerator<'a>,
        rng: rand::rngs::StdRng,
    }

    fn session(ctx: &BfvContext) -> Session<'_> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x401);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let enc = Encryptor::new(ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(ctx, kg.secret_key().clone());
        Session {
            encoder: BatchEncoder::new(ctx),
            enc,
            dec,
            ev: Evaluator::new(ctx),
            kg,
            rng,
        }
    }

    fn random_ct(s: &mut Session<'_>, t: u64) -> crate::encrypt::Ciphertext {
        let v: Vec<u64> = (0..s.encoder.slot_count())
            .map(|_| s.rng.gen_range(0..t))
            .collect();
        s.enc.encrypt(&s.encoder.encode(&v), &mut s.rng)
    }

    /// Calibration: the model's per-op predictions are sound (never above
    /// the measured budget) yet within a sane distance of it, for fresh,
    /// multiply+relin and rotated ciphertexts — the check to re-run when
    /// re-calibrating the model (see the module doc).
    #[test]
    fn model_is_sound_and_tight_against_the_evaluator() {
        let params = BfvParams::test_small();
        let ctx = BfvContext::new(params.clone()).unwrap();
        let model = NoiseModel::for_params(&params);
        let t = params.plain_modulus;
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let gk = s.kg.galois_keys_for_rotations(&[1], false, &mut s.rng);

        let a = random_ct(&mut s, t);
        let b = random_ct(&mut s, t);

        let fresh_measured = s.dec.invariant_noise_budget(&a) as f64;
        let fresh_predicted = model.fresh_budget();
        assert!(
            fresh_predicted <= fresh_measured,
            "fresh: predicted {fresh_predicted:.1} > measured {fresh_measured}"
        );
        assert!(
            fresh_measured - fresh_predicted < 20.0,
            "fresh: model too loose ({fresh_predicted:.1} vs {fresh_measured})"
        );

        let prod = s.ev.relinearize(&s.ev.multiply(&a, &b), &rk);
        let mul_measured = s.dec.invariant_noise_budget(&prod) as f64;
        let mul_predicted =
            model.budget(model.relin_ct(model.mul_ct_ct(model.fresh(), model.fresh())));
        assert!(
            mul_predicted <= mul_measured,
            "mul: predicted {mul_predicted:.1} > measured {mul_measured}"
        );
        assert!(
            mul_measured - mul_predicted < 30.0,
            "mul: model too loose ({mul_predicted:.1} vs {mul_measured})"
        );

        let rotated = s.ev.rotate_rows(&a, 1, &gk);
        let rot_measured = s.dec.invariant_noise_budget(&rotated) as f64;
        let rot_predicted = model.budget(model.rot_ct(model.fresh()));
        assert!(
            rot_predicted <= rot_measured,
            "rot: predicted {rot_predicted:.1} > measured {rot_measured}"
        );
        assert!(
            rot_measured - rot_predicted < 20.0,
            "rot: model too loose ({rot_predicted:.1} vs {rot_measured})"
        );
    }

    /// Depth-2 squaring chains stay sound too (the multiply rule compounds).
    #[test]
    fn model_is_sound_for_a_depth_two_chain() {
        let params = BfvParams::test_small();
        let ctx = BfvContext::new(params.clone()).unwrap();
        let model = NoiseModel::for_params(&params);
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let a = random_ct(&mut s, params.plain_modulus);
        let sq = s.ev.relinearize(&s.ev.multiply(&a, &a), &rk);
        let quad = s.ev.relinearize(&s.ev.multiply(&sq, &sq), &rk);
        let measured = s.dec.invariant_noise_budget(&quad) as f64;
        let n1 = model.relin_ct(model.mul_ct_ct(model.fresh(), model.fresh()));
        let n2 = model.relin_ct(model.mul_ct_ct(n1, n1));
        assert!(
            model.budget(n2) <= measured,
            "depth 2: predicted {:.1} > measured {measured}",
            model.budget(n2)
        );
    }

    #[test]
    fn larger_modulus_chains_predict_more_budget() {
        let small = NoiseModel::for_params(&BfvParams::test_small());
        let large = NoiseModel::for_params(&BfvParams::secure_128());
        assert!(large.fresh_budget() > small.fresh_budget());
    }

    #[test]
    fn analyze_reports_consumed_budget() {
        use quill::program::{Instr, Program, ValRef};
        let model = NoiseModel::for_params(&BfvParams::test_small());
        let prog = Program::new(
            "square",
            1,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
                Instr::Relin(ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        let report = model.analyze(&prog);
        assert!(report.consumed_bits > 20.0);
        assert!(
            (report.fresh_budget_bits - report.predicted_budget_bits - report.consumed_bits).abs()
                < 1e-9
        );
    }
}
