//! BFV parameter sets, the shared evaluation context, and the candidate
//! table for automatic parameter selection ([`CANDIDATES`]).
//!
//! The parameter *struct* and its structural validation are scheme-neutral
//! and live in [`rlwe_ring::params`] ([`BfvParams`] is an alias of
//! [`rlwe_ring::params::RlweParams`]); this module adds what is BFV-specific:
//! the [`BfvContext`] precomputation (`Δ = ⌊Q/t⌋` encoding constants and the
//! auxiliary multiplication base), its [`SchemePolicy`] impl, and the
//! candidate chains the compiler's parameter walk certifies with the BFV
//! [`NoiseModel`](crate::noise::NoiseModel).

use crate::bigint::{center, BigInt, BigUint};
use crate::encrypt::Ciphertext;
use crate::evaluator::Evaluator;
use crate::ntt::NttTables;
use crate::poly::{RingContext, RnsPoly};
use crate::rns::RnsBaseConverter;
use crate::zq;
use rlwe_ring::params::Candidate;
use rlwe_ring::scheme::SchemePolicy;

pub use rlwe_ring::params::{ParamError, ParamPolicy, SelectError, DEFAULT_MARGIN_BITS};

/// A BFV parameter set. Alias of the scheme-neutral
/// [`rlwe_ring::params::RlweParams`] — a set selected for BFV can be handed
/// to the BGV backend unchanged (and vice versa), which is what the
/// cross-scheme differential tests rely on.
pub type BfvParams = rlwe_ring::params::RlweParams;

/// The BFV candidate table, ascending by cost: degree first, then total
/// modulus bits (key switching and NTTs scale with `N·log N·k²`, so smaller
/// `N` wins). The compiler's parameter walk
/// (`porcupine::scheme::resolve_params`) returns the first row whose
/// chain ([`BfvParams::generate`]) leaves the requested margin of
/// predicted noise budget under the BFV
/// [`NoiseModel`](crate::noise::NoiseModel) and whose batching rows hold
/// the program's slots.
///
/// Prime sizes stay ≥ 45 bits: RNS-decomposition key switching adds noise
/// proportional to the *largest* chain prime over `Q`, so chains of few
/// large primes beat many small ones.
///
/// **Security caveat**: like the rest of this crate, the table trades
/// lattice-security margin for speed at small degrees (the sub-`N = 8192`
/// rows mirror the repo's test presets). The first `N = 8192` row equals
/// [`BfvParams::paper`].
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
        count: 3,
    },
    Candidate {
        poly_degree: 4096,
        prime_bits: 46,
        count: 4,
    },
    Candidate {
        poly_degree: 8192,
        prime_bits: 50,
        count: 4,
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
        poly_degree: 16384,
        prime_bits: 55,
        count: 7,
    },
    Candidate {
        poly_degree: 16384,
        prime_bits: 55,
        count: 9,
    },
];

/// Shared precomputation for one parameter set: the ciphertext ring, the
/// auxiliary multiplication base with its exact base converters, the
/// rescale constants, plaintext-side constants, and the batching NTT.
/// Create once, share by reference everywhere.
#[derive(Debug)]
pub struct BfvContext {
    params: BfvParams,
    ring: RingContext,
    /// Auxiliary base `B` extending `Q` for the RNS tensor: the combined
    /// base satisfies `Q·B > 4·N·(Q/2)²` so degree-2 tensor coefficients
    /// are exact, and `B > t·N·Q` so the rescaled product fits `B` alone.
    aux_ring: RingContext,
    /// Exact centered conversion `Q → B` (operand extension, and the
    /// `t·x mod Q` remainder lift inside the rescale).
    q_to_aux: RnsBaseConverter,
    /// Exact centered conversion `B → Q` (shrinking the rescaled product).
    aux_to_q: RnsBaseConverter,
    /// `Q⁻¹ mod b_j` — the exact division by `Q` in the rescale — with its
    /// Shoup companion.
    q_inv_mod_aux: Vec<(u64, u64)>,
    /// `t·Q⁻¹ mod b_j` with its Shoup companion (the fused multiplier of
    /// the rescale's `x·(t·Q⁻¹)` term).
    t_q_inv_mod_aux: Vec<(u64, u64)>,
    /// `t mod q_i` with its Shoup companion (the `t·x mod Q` scaling).
    t_mod_q: Vec<(u64, u64)>,
    /// NTT over `Z_t` used by the batch encoder.
    plain_ntt: NttTables,
    /// `Δ = floor(Q / t)`.
    delta: BigUint,
    /// `Δ mod q_i`.
    delta_residues: Vec<u64>,
    /// `Q mod t`.
    q_mod_t: u64,
    /// `−Q⁻¹ mod t`, decryption's post-factor.
    neg_q_inv_mod_t: u64,
}

impl BfvContext {
    /// Builds a context.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are invalid.
    pub fn new(params: BfvParams) -> Result<Self, ParamError> {
        params.validate()?;
        let n = params.poly_degree;
        let ring = RingContext::new(n, params.moduli.clone());

        // The tensor runs over the combined base Q·B, so B itself only
        // needs q_bits + log2(N) + t_bits + slack bits: the binding
        // constraint is holding the rescaled product y = round(t·x/Q)
        // (|y| ≤ t·N·Q/2) in B alone, which dominates the exactness
        // requirement Q·B > 4·N·(Q/2)² = N·Q².
        let q_bits = ring.modulus().bits() as u64;
        let t_bits = u64::from(64 - params.plain_modulus.leading_zeros());
        let aux_bits_needed = q_bits + t_bits + u64::from((n as u64).trailing_zeros()) + 2;
        // 60-bit auxiliary primes minimize the prime count (fewer NTTs on
        // the multiply hot path); Barrett/Shoup arithmetic is exact up to
        // 2^62 moduli.
        let aux_prime_bits = 60u32;
        let aux_count = aux_bits_needed.div_ceil(u64::from(aux_prime_bits) - 1) as usize;
        let mut exclude = params.moduli.clone();
        exclude.push(params.plain_modulus);
        let aux_primes = zq::ntt_primes(aux_prime_bits, 2 * n as u64, aux_count, &exclude);
        let aux_ring = RingContext::new(n, aux_primes.clone());

        let q_to_aux = RnsBaseConverter::new(ring.rns(), &aux_primes);
        let aux_to_q = RnsBaseConverter::new(aux_ring.rns(), &params.moduli);
        let with_shoup = |w: u64, p: u64| (w, zq::shoup_precompute(w, p));
        let q_inv_mod_aux: Vec<(u64, u64)> = aux_primes
            .iter()
            .map(|&b| with_shoup(zq::inv_mod(ring.modulus().rem_u64(b), b), b))
            .collect();
        let t_q_inv_mod_aux = aux_primes
            .iter()
            .zip(&q_inv_mod_aux)
            .map(|(&b, &(q_inv, _))| with_shoup(zq::mul_mod(params.plain_modulus % b, q_inv, b), b))
            .collect();
        let t_mod_q = params
            .moduli
            .iter()
            .map(|&q| with_shoup(params.plain_modulus % q, q))
            .collect();

        let plain_ntt = NttTables::new(params.plain_modulus, n);

        let (delta, _) = ring.modulus().div_rem_u64(params.plain_modulus);
        let delta_residues = params.moduli.iter().map(|&q| delta.rem_u64(q)).collect();
        let q_mod_t = ring.modulus().rem_u64(params.plain_modulus);
        let neg_q_inv_mod_t = params.plain_modulus - zq::inv_mod(q_mod_t, params.plain_modulus);

        Ok(BfvContext {
            params,
            ring,
            aux_ring,
            q_to_aux,
            aux_to_q,
            q_inv_mod_aux,
            t_q_inv_mod_aux,
            t_mod_q,
            plain_ntt,
            delta,
            delta_residues,
            q_mod_t,
            neg_q_inv_mod_t,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The ciphertext ring `R_Q`.
    pub fn ring(&self) -> &RingContext {
        &self.ring
    }

    /// The auxiliary ring used for exact tensoring.
    pub fn aux_ring(&self) -> &RingContext {
        &self.aux_ring
    }

    /// Exact centered base converter `Q → B`.
    pub fn q_to_aux(&self) -> &RnsBaseConverter {
        &self.q_to_aux
    }

    /// Exact centered base converter `B → Q`.
    pub fn aux_to_q(&self) -> &RnsBaseConverter {
        &self.aux_to_q
    }

    /// `(Q⁻¹ mod b_j, shoup)` for each auxiliary prime.
    pub fn q_inv_mod_aux(&self) -> &[(u64, u64)] {
        &self.q_inv_mod_aux
    }

    /// `(t·Q⁻¹ mod b_j, shoup)` for each auxiliary prime.
    pub fn t_q_inv_mod_aux(&self) -> &[(u64, u64)] {
        &self.t_q_inv_mod_aux
    }

    /// `(t mod q_i, shoup)` for each ciphertext prime.
    pub fn t_mod_q(&self) -> &[(u64, u64)] {
        &self.t_mod_q
    }

    /// `Δ = floor(Q/t)`.
    pub fn delta(&self) -> &BigUint {
        &self.delta
    }

    /// `Δ mod q_i` for each ciphertext prime.
    pub fn delta_residues(&self) -> &[u64] {
        &self.delta_residues
    }

    /// `Q mod t`.
    pub fn q_mod_t(&self) -> u64 {
        self.q_mod_t
    }
}

/// BFV as a [`SchemePolicy`]: the message sits at the top of the phase
/// (`Δ·m`), errors are unscaled, multiplication rescales by `t/Q`
/// ([`crate::evaluator`]), and decryption rounds `t·w/Q`.
impl SchemePolicy for BfvContext {
    fn params(&self) -> &BfvParams {
        &self.params
    }

    fn ring(&self) -> &RingContext {
        &self.ring
    }

    fn plain_ntt(&self) -> &NttTables {
        &self.plain_ntt
    }

    fn error_scale(&self) -> Option<&[u64]> {
        None
    }

    fn lift_plain(&self, m: &RnsPoly) -> Option<RnsPoly> {
        Some(self.ring.mul_scalar_residues(m, &self.delta_residues))
    }

    fn multiply(ev: &Evaluator<'_>, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        crate::evaluator::multiply(ev, a, b)
    }

    /// `m_c = round(t·w_c/Q) mod t = −[t·w_c]_Q·Q⁻¹ mod t`: `Q` is odd and
    /// coprime to `t`, so `t·w = Q·y + r` with `|r| < Q/2` has no ties and
    /// `y ≡ −r·Q⁻¹ (mod t)`.
    fn decrypt_rescale(&self) -> Option<(&[(u64, u64)], u64)> {
        Some((&self.t_mod_q, self.neg_q_inv_mod_t))
    }

    /// SEAL's invariant noise: the bits of `‖t·w mod Q‖` (centered).
    fn noise_bits(&self, w: &BigInt) -> u32 {
        let q = self.ring.modulus();
        let tw = BigInt {
            mag: w.mag.mul_u64(self.params.plain_modulus),
            neg: w.neg,
        };
        center(&tw.rem_euclid_big(q), q).mag.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Duplicate chain primes used to sail through validation and panic
    /// deep in the CRT/NTT setup (`inv_mod` of zero); context construction
    /// must report them instead of panicking.
    #[test]
    fn context_rejects_duplicate_primes_without_panicking() {
        let mut p = BfvParams::test_small();
        p.moduli[1] = p.moduli[0];
        let dup = p.moduli[0];
        assert_eq!(
            BfvContext::new(p).err(),
            Some(ParamError::DuplicatePrime(dup))
        );
    }

    #[test]
    fn context_constants() {
        let ctx = BfvContext::new(BfvParams::test_small()).unwrap();
        let t = ctx.params().plain_modulus;
        // Δ·t + (Q mod t) == Q
        let recomposed = ctx
            .delta()
            .mul_u64(t)
            .add(&crate::bigint::BigUint::from_u64(ctx.q_mod_t()));
        assert_eq!(&recomposed, ctx.ring().modulus());
        // The combined tensor base Q·B must hold degree-2 tensor
        // coefficients exactly (|coeff| ≤ 2N(Q/2)², so Q·B > N·Q² works),
        // and B alone must hold the rescaled product (|y| ≤ t·N·Q/2).
        let q_bits = ctx.ring().modulus().bits();
        let aux_bits = ctx.aux_ring().modulus().bits();
        let log_n = (ctx.params().poly_degree as u64).trailing_zeros();
        let t_bits = 64 - ctx.params().plain_modulus.leading_zeros();
        assert!(q_bits + aux_bits > 2 * q_bits + log_n);
        assert!(aux_bits > q_bits + t_bits + log_n);
    }

    #[test]
    fn aux_primes_disjoint_from_ciphertext_primes() {
        let ctx = BfvContext::new(BfvParams::test_small()).unwrap();
        for p in ctx.aux_ring().primes() {
            assert!(!ctx.params().moduli.contains(p));
            assert_ne!(*p, ctx.params().plain_modulus);
        }
    }
}
