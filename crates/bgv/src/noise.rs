//! A static, worst-case model of BGV noise growth.
//!
//! The model predicts, per operation, an upper bound on the **relative
//! phase magnitude** of a ciphertext — `ε = ‖w mod Q‖∞ / Q` where
//! `w = m + t·E` is the decryption phase `Σ c_j·s^j` with the centered
//! remainder taken. Decryption is correct while `ε < 1/2`; the measured
//! probe [`crate::encrypt::Decryptor::invariant_noise_budget`] reports
//! `⌊log2(1/(2ε))⌋` in bits — the same contract as the BFV model's, so the
//! two are directly comparable and the scheme-generic synthesizer can walk
//! either. Everything here works in the log domain: noise values are
//! `log2 ε` (more negative = quieter), and [`NoiseModel::budget`] converts
//! back to bits of budget.
//!
//! # Soundness contract
//!
//! Every transfer rule is a *worst-case* bound: for any program and any
//! inputs, the measured remaining budget after evaluation is at least the
//! predicted remaining budget. This is what lets the parameter selector
//! ([`crate::params::ParamSelector`]) certify a parameter set without
//! running the program.
//!
//! # Derivation sketch
//!
//! With `B` the error-sampler bound, `N` the ring degree, `t` the plaintext
//! modulus, and `k` ciphertext primes of at most `q_max` bits:
//!
//! * **fresh**: the phase is `m + t·(e₁ + e₂·s − e·u)`, so
//!   `‖w‖ ≤ t·((2N+1)·B + 1)`.
//! * **add/sub**: phases add — `ε ≤ ε₁ + ε₂`.
//! * **add/sub-plain**: adds `‖m‖ < t` coefficient-wise, `ε += t/Q`.
//! * **mul-plain**: a negacyclic convolution with a plaintext of entries
//!   `< t`: `ε ≤ N·t·ε`.
//! * **mul**: the product phase is *literally* `w₁·w₂` (no rescale), so
//!   `‖w'‖ ≤ N·‖w₁‖·‖w₂‖` and `ε' ≤ N·Q·ε₁·ε₂`. In bits:
//!   `ν' = ν₁ + ν₂ + log N + log Q` — noise **bits double** per multiply
//!   where BFV's grow additively. This single rule is why the BGV
//!   parameter selector escalates chains faster than BFV's, and why
//!   [`crate::evaluator::ModSwitch::mod_switch_to_next`] exists.
//! * **key switch** (relinearization, rotation): identical machinery to
//!   BFV's with `t`-scaled key errors, adding `t·k·N·q_max·B / Q`.
//!
//! # Calibration
//!
//! The only empirical constant is the error bound [`LogSizes::ERR_BOUND`]
//! (exactly the sampler's support); the budget keeps one guard bit for the
//! probe's integer rounding, as in the BFV model. The unit tests below pin
//! the model against the real evaluator for the fresh / multiply+relin /
//! rotate probes.

use crate::params::BgvParams;
use quill::analysis::NoiseSemantics;
use quill::program::Program;
use rlwe_ring::noise::{lse, LogSizes};

pub use quill::analysis::NoiseReport;

/// Worst-case BGV noise model for one parameter set.
///
/// Values produced and consumed by the transfer rules are `log2` of the
/// relative phase magnitude (see the module docs). Implements
/// [`quill::analysis::NoiseSemantics`], so
/// [`quill::analysis::noise_levels`] walks whole programs with it.
///
/// # Examples
///
/// ```
/// use bgv::noise::NoiseModel;
/// use bgv::params::BgvParams;
///
/// let model = NoiseModel::for_params(&BgvParams::test_small());
/// assert!(model.fresh_budget() > 60.0);
/// // One multiply roughly doubles the consumed bits rather than adding a
/// // fixed chunk — the defining BGV noise behavior.
/// use quill::analysis::NoiseSemantics;
/// let after = model.mul_ct_ct(model.fresh(), model.fresh());
/// assert!(model.budget(after) < model.fresh_budget() / 2.0 + 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    sizes: LogSizes,
}

impl NoiseModel {
    /// Builds the model for a parameter set.
    pub fn for_params(params: &BgvParams) -> Self {
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
        // t·((2N+1)·B + 1) / Q
        let inner = (2.0f64.powf(self.sizes.log_n + 1.0) + 1.0) * LogSizes::ERR_BOUND + 1.0;
        self.sizes.t_bits + inner.log2() - self.sizes.q_bits
    }

    fn add_ct_ct(&self, a: f64, b: f64) -> f64 {
        lse(a, b)
    }

    fn mul_ct_ct(&self, a: f64, b: f64) -> f64 {
        // ‖w₁·w₂‖ ≤ N·‖w₁‖·‖w₂‖, i.e. ε' = N·Q·ε₁·ε₂: bits double.
        a + b + self.sizes.log_n + self.sizes.q_bits
    }

    fn add_ct_pt(&self, a: f64) -> f64 {
        // + m with ‖m‖ < t (coefficient-wise, no convolution, no Δ).
        lse(a, self.sizes.t_bits - self.sizes.q_bits)
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
    use crate::params::{self, BgvContext};
    use rand::{Rng, SeedableRng};

    struct Session<'a> {
        encoder: BatchEncoder<'a>,
        enc: Encryptor<'a>,
        dec: Decryptor<'a>,
        ev: Evaluator<'a>,
        kg: KeyGenerator<'a>,
        rng: rand::rngs::StdRng,
    }

    fn session(ctx: &BgvContext) -> Session<'_> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB402);
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
    /// the measured budget) yet within a sane distance of it.
    #[test]
    fn model_is_sound_and_tight_against_the_evaluator() {
        let params = params::test_small();
        let ctx = BgvContext::new(params.clone()).unwrap();
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

        let prod = s.ev.multiply_relin(&a, &b, &rk);
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

    /// Depth-2 squaring chains stay sound (the doubling rule compounds).
    #[test]
    fn model_is_sound_for_a_depth_two_chain() {
        let params = params::test_small();
        let ctx = BgvContext::new(params.clone()).unwrap();
        let model = NoiseModel::for_params(&params);
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let a = random_ct(&mut s, params.plain_modulus);
        let sq = s.ev.multiply_relin(&a, &a, &rk);
        let quad = s.ev.multiply_relin(&sq, &sq, &rk);
        let measured = s.dec.invariant_noise_budget(&quad) as f64;
        let n1 = model.relin_ct(model.mul_ct_ct(model.fresh(), model.fresh()));
        let n2 = model.relin_ct(model.mul_ct_ct(n1, n1));
        assert!(
            model.budget(n2) <= measured,
            "depth 2: predicted {:.1} > measured {measured}",
            model.budget(n2)
        );
    }

    /// The BGV multiply rule consumes more than BFV's at equal parameters
    /// once the inputs are already noisy — the quantitative reason the BGV
    /// selector escalates chains faster.
    #[test]
    fn multiply_noise_doubles_rather_than_adds() {
        let model = NoiseModel::for_params(&params::test_small());
        let fresh = model.fresh();
        let one = model.mul_ct_ct(fresh, fresh);
        let two = model.mul_ct_ct(one, one);
        let first_cost = one - fresh;
        let second_cost = two - one;
        assert!(
            second_cost > first_cost * 1.5,
            "noise growth should compound: {first_cost:.1} then {second_cost:.1}"
        );
    }

    #[test]
    fn larger_modulus_chains_predict_more_budget() {
        let small = NoiseModel::for_params(&params::test_small());
        let large = NoiseModel::for_params(
            &params::generate_mod_switch_friendly(4096, 65537, 46, 4).unwrap(),
        );
        assert!(large.fresh_budget() > small.fresh_budget());
    }

    #[test]
    fn analyze_reports_consumed_budget() {
        use quill::program::{Instr, Program, ValRef};
        let model = NoiseModel::for_params(&params::test_small());
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
