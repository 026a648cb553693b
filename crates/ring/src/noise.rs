//! Log-domain building blocks of the schemes' static worst-case noise
//! models (`bfv::noise`, `bgv::noise`).
//!
//! Both models track `log2` of a relative noise level per value, written in
//! the same few log-sizes of a parameter set ([`LogSizes`]). They share the
//! key-switch rule — RNS-decomposition key switching adds the same relative
//! noise under either scheme — and the budget convention; they differ in
//! the fresh, plaintext-add and multiply rules.

use crate::params::RlweParams;

/// Adds two magnitudes in the log2 domain: `log2(2^a + 2^b)`.
pub fn lse(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// The `log2` sizes of one parameter set that noise transfer rules are
/// written in.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSizes {
    /// `log2 Q` (exact, summed over the chain).
    pub q_bits: f64,
    /// `log2 t`.
    pub t_bits: f64,
    /// `log2 N`.
    pub log_n: f64,
    /// `log2 k` (number of ciphertext primes).
    pub log_k: f64,
    /// `log2` of the largest chain prime.
    pub q_max_bits: f64,
}

impl LogSizes {
    /// Worst-case magnitude of one coefficient of the error sampler
    /// ([`crate::poly::RingContext::sample_error`], a centered binomial
    /// with parameter η = 10) — the models' only empirical constant.
    pub const ERR_BOUND: f64 = 10.0;

    /// The sizes of a parameter set.
    pub fn of(params: &RlweParams) -> Self {
        LogSizes {
            q_bits: params.moduli.iter().map(|&p| (p as f64).log2()).sum(),
            t_bits: (params.plain_modulus as f64).log2(),
            log_n: (params.poly_degree as f64).log2(),
            log_k: (params.moduli.len() as f64).log2(),
            q_max_bits: (*params.moduli.iter().max().expect("nonempty chain") as f64).log2(),
        }
    }

    /// The additive relative noise of one RNS-decomposition key switch,
    /// `t·k·N·q_max·B / Q`: `k` digits `‖dᵢ‖ < qᵢ` against key errors of
    /// size `B`, scaled by `t` (BFV's invariant noise is `t·w`; BGV's key
    /// errors are `t·e`).
    pub fn key_switch_bits(&self) -> f64 {
        let err_bits = Self::ERR_BOUND.log2();
        self.t_bits + self.log_k + self.log_n + self.q_max_bits + err_bits - self.q_bits
    }

    /// Remaining noise budget, in bits, for a (log-domain) noise level.
    ///
    /// The exact budget of noise `ε` is `-log2(ε) - 1`; the models keep one
    /// extra guard bit because the measured probe rounds the phase norm and
    /// `Q` to integer bit counts, which can shave up to one bit off the
    /// comparison.
    pub fn budget(noise_bits: f64) -> f64 {
        -noise_bits - 2.0
    }
}
