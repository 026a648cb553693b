//! BGV parameter sets, the shared evaluation context, and the candidate
//! table for automatic parameter selection ([`CANDIDATES`]).
//!
//! The parameter *struct* and its structural validation are scheme-neutral
//! and live in [`rlwe_ring::params`] ([`BgvParams`] is an alias of
//! [`rlwe_ring::params::RlweParams`]); this module adds what is
//! BGV-specific: the [`BgvContext`] precomputation (the `t mod q_i`
//! residues that scale every error term onto the multiples-of-`t` lattice,
//! and the modulus-chain truncation behind
//! [`crate::evaluator::ModSwitch::mod_switch_to_next`]), its
//! [`SchemePolicy`] impl, and the candidate chains the compiler's parameter
//! walk certifies with the BGV [`NoiseModel`](crate::noise::NoiseModel).
//!
//! # Modulus-switch-friendly chains
//!
//! BGV's level management drops the last chain prime `q_k`; the plaintext
//! digit survives unchanged only when `q_k ≡ 1 (mod t)`. The candidate
//! table therefore generates its primes in the arithmetic
//! progression `1 mod 2N·t` ([`generate_mod_switch_friendly`]) — every
//! prime is simultaneously NTT-friendly and switch-friendly. Chains built
//! for BFV (plain `1 mod 2N` primes) still run on this backend for every
//! operation *except* `mod_switch_to_next`, which is what the cross-scheme
//! differential tests rely on.

use crate::bigint::BigInt;
use crate::encrypt::Ciphertext;
use crate::evaluator::Evaluator;
use crate::ntt::NttTables;
use crate::poly::{RingContext, RnsPoly};
use rlwe_ring::params::Candidate;
use rlwe_ring::scheme::SchemePolicy;

pub use rlwe_ring::params::{ParamError, ParamPolicy, SelectError, DEFAULT_MARGIN_BITS};

/// A BGV parameter set. Alias of the scheme-neutral
/// [`rlwe_ring::params::RlweParams`] — a set selected for BFV can be handed
/// to the BGV backend unchanged (and vice versa), which is what the
/// cross-scheme differential tests rely on.
pub type BgvParams = rlwe_ring::params::RlweParams;

/// Generates a parameter set whose `count` fresh `bits`-bit primes are all
/// `≡ 1 (mod 2N·t)`, so every prefix of the chain supports
/// plaintext-invariant modulus switching.
///
/// # Errors
///
/// See [`rlwe_ring::params::RlweParams::generate_in_progression`]; a `t`
/// so large that no `bits`-bit prime is `≡ 1 (mod 2N·t)` is
/// [`ParamError::NoChainPrimes`].
pub fn generate_mod_switch_friendly(
    poly_degree: usize,
    plain_modulus: u64,
    bits: u32,
    count: usize,
) -> Result<BgvParams, ParamError> {
    BgvParams::generate_in_progression(poly_degree, plain_modulus, bits, count, plain_modulus)
}

/// Small switch-friendly parameters for unit tests: `N = 1024`,
/// `t = 65537`, 3 × 45-bit primes `≡ 1 mod 2N·t`. **Toy security.**
pub fn test_small() -> BgvParams {
    generate_mod_switch_friendly(1024, 65537, 45, 3).expect("static parameters are valid")
}

/// The BGV candidate table, ascending by cost: degree first, then total
/// modulus bits. The compiler's parameter walk
/// (`porcupine::scheme::resolve_params`) returns the first row whose
/// switch-friendly chain ([`generate_mod_switch_friendly`]) leaves the
/// requested margin of predicted noise budget under the BGV
/// [`NoiseModel`](crate::noise::NoiseModel) and whose batching rows hold
/// the program's slots.
///
/// Compared with BFV's table the chains run longer at each degree: the BGV
/// multiply rule *doubles* the noise bit count instead of adding a fixed
/// chunk, so depth is bought with modulus, not margin, and deep
/// multiplication chains escalate through the table much faster than
/// under BFV.
pub const CANDIDATES: &[Candidate] = &[
    Candidate {
        poly_degree: 1024,
        prime_bits: 45,
        count: 2,
    },
    Candidate {
        poly_degree: 1024,
        prime_bits: 45,
        count: 3,
    },
    Candidate {
        poly_degree: 2048,
        prime_bits: 46,
        count: 3,
    },
    Candidate {
        poly_degree: 4096,
        prime_bits: 46,
        count: 4,
    },
    Candidate {
        poly_degree: 4096,
        prime_bits: 46,
        count: 5,
    },
    Candidate {
        poly_degree: 8192,
        prime_bits: 50,
        count: 5,
    },
    Candidate {
        poly_degree: 8192,
        prime_bits: 53,
        count: 6,
    },
    Candidate {
        poly_degree: 8192,
        prime_bits: 54,
        count: 7,
    },
    Candidate {
        poly_degree: 16384,
        prime_bits: 55,
        count: 9,
    },
    Candidate {
        poly_degree: 16384,
        prime_bits: 55,
        count: 12,
    },
];

/// Shared precomputation for one parameter set: the ciphertext ring, the
/// `t mod q_i` residues (the error scale every BGV sample carries), and
/// the batching NTT. Create once, share by reference everywhere.
///
/// Unlike [`bfv`-style contexts](rlwe_ring) there is no auxiliary
/// multiplication base: the BGV tensor runs directly over `Q` because the
/// plaintext sits in the least-significant digit — no rescale, so no need
/// for exact rational rounding machinery.
#[derive(Debug)]
pub struct BgvContext {
    params: BgvParams,
    ring: RingContext,
    /// `t mod q_i` for each ciphertext prime — the scalar that lifts every
    /// error sample onto the `t·e` lattice.
    t_mod_q: Vec<u64>,
    /// NTT over `Z_t` used by the batch encoder.
    plain_ntt: NttTables,
}

impl BgvContext {
    /// Builds a context.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are invalid.
    pub fn new(params: BgvParams) -> Result<Self, ParamError> {
        params.validate()?;
        let n = params.poly_degree;
        let ring = RingContext::new(n, params.moduli.clone());
        let t_mod_q = params
            .moduli
            .iter()
            .map(|&q| params.plain_modulus % q)
            .collect();
        let plain_ntt = NttTables::new(params.plain_modulus, n);
        Ok(BgvContext {
            params,
            ring,
            t_mod_q,
            plain_ntt,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &BgvParams {
        &self.params
    }

    /// The ciphertext ring `R_Q`.
    pub fn ring(&self) -> &RingContext {
        &self.ring
    }

    /// The context one level down the chain: the same parameters with the
    /// last RNS prime dropped. Ciphertexts produced by
    /// [`crate::evaluator::ModSwitch::mod_switch_to_next`] and secrets
    /// truncated by [`crate::keys::ModSwitchKey::mod_switched`] live under
    /// this context.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::TooFewPrimes`] if the chain is already at its
    /// two-prime floor (RNS key switching needs at least two primes).
    pub fn reduced(&self) -> Result<BgvContext, ParamError> {
        if self.params.moduli.len() <= 2 {
            return Err(ParamError::TooFewPrimes(self.params.moduli.len() - 1));
        }
        let mut params = self.params.clone();
        params.moduli.pop();
        BgvContext::new(params)
    }
}

/// BGV as a [`SchemePolicy`]: the message sits in the bottom digit of the
/// phase (`m + t·E`), so every error is scaled by `t`, plaintexts enter
/// `c0` unscaled, multiplication is a plain tensor ([`crate::evaluator`]),
/// and decryption reduces the centered phase mod `t`.
impl SchemePolicy for BgvContext {
    fn params(&self) -> &BgvParams {
        &self.params
    }

    fn ring(&self) -> &RingContext {
        &self.ring
    }

    fn plain_ntt(&self) -> &NttTables {
        &self.plain_ntt
    }

    fn error_scale(&self) -> Option<&[u64]> {
        Some(&self.t_mod_q)
    }

    fn lift_plain(&self, _m: &RnsPoly) -> Option<RnsPoly> {
        None
    }

    fn multiply(ev: &Evaluator<'_>, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        crate::evaluator::multiply(ev, a, b)
    }

    fn decrypt_rescale(&self) -> Option<(&[(u64, u64)], u64)> {
        None
    }

    /// The whole centered phase `w = m + t·E` counts as noise.
    fn noise_bits(&self, w: &BigInt) -> u32 {
        w.mag.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_friendly_primes_are_one_mod_two_n_t() {
        let p = test_small();
        let stride = 2 * p.poly_degree as u64 * p.plain_modulus;
        for &q in &p.moduli {
            assert_eq!(q % stride, 1, "prime {q} not ≡ 1 mod 2N·t");
        }
        assert!(p.validate().is_ok());
    }

    #[test]
    fn candidate_table_rows_generate() {
        // Every table row must produce a valid switch-friendly chain for
        // the workhorse t = 65537.
        for cand in CANDIDATES {
            let p =
                generate_mod_switch_friendly(cand.poly_degree, 65537, cand.prime_bits, cand.count)
                    .expect("table row generates");
            assert_eq!(p.moduli.len(), cand.count);
        }
    }

    #[test]
    fn reduced_context_drops_exactly_the_last_prime() {
        let ctx = BgvContext::new(test_small()).unwrap();
        let next = ctx.reduced().unwrap();
        assert_eq!(
            next.params().moduli,
            ctx.params().moduli[..ctx.params().moduli.len() - 1]
        );
        // The two-prime floor is enforced.
        assert!(matches!(next.reduced(), Err(ParamError::TooFewPrimes(_))));
    }
}
