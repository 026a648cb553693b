//! BFV parameter sets, the shared evaluation context, and noise-aware
//! automatic parameter selection ([`ParamSelector`]).
//!
//! The parameter *struct* and its structural validation are scheme-neutral
//! and live in [`rlwe_ring::params`] ([`BfvParams`] is an alias of
//! [`rlwe_ring::params::RlweParams`]); this module adds what is BFV-specific:
//! the [`BfvContext`] precomputation (`Δ = ⌊Q/t⌋` encoding constants and the
//! auxiliary multiplication base), its [`SchemePolicy`] impl, and the
//! [`ParamSelector`] candidate table driven by the BFV [`NoiseModel`].

use crate::bigint::{center, BigInt, BigUint};
use crate::encrypt::Ciphertext;
use crate::evaluator::Evaluator;
use crate::noise::{NoiseModel, NoiseReport};
use crate::ntt::NttTables;
use crate::poly::{RingContext, RnsPoly};
use crate::rns::RnsBaseConverter;
use crate::zq;
use quill::analysis::NoiseSemantics;
use quill::program::Program;
use rlwe_ring::params::{Candidate, SelectionTable};
use rlwe_ring::scheme::SchemePolicy;

pub use rlwe_ring::params::{ParamError, ParamPolicy, SelectError, DEFAULT_MARGIN_BITS};

/// A BFV parameter set. Alias of the scheme-neutral
/// [`rlwe_ring::params::RlweParams`] — a set selected for BFV can be handed
/// to the BGV backend unchanged (and vice versa), which is what the
/// cross-scheme differential tests rely on.
pub type BfvParams = rlwe_ring::params::RlweParams;

/// Resolves a [`ParamPolicy`] for a lowered program under the **BFV** noise
/// model: a `Fixed` set is validated structurally and for capacity; an
/// `Auto` policy runs the [`ParamSelector`] over its candidate table.
///
/// # Errors
///
/// See [`SelectError`].
pub fn resolve_policy(
    policy: &ParamPolicy,
    prog: &Program,
    min_slots: usize,
    t: u64,
) -> Result<BfvParams, SelectError> {
    ParamSelector::resolve(policy, prog, min_slots, t)
}

/// Noise-aware automatic parameter selection.
///
/// Given a *lowered* program (post `-O`, explicit relinearizations), the
/// selector walks a table of NTT-friendly candidate parameter sets in
/// ascending cost order (degree first, then total modulus size — key
/// switching and NTTs scale with `N·log N·k²`, so smaller `N` wins) and
/// returns the first set whose worst-case predicted noise budget
/// ([`NoiseModel`]) leaves at least the configured safety margin at
/// decryption, and whose batching rows hold the program's slots.
///
/// Because the noise model is a sound upper bound, the selected set is
/// *certified*: the measured budget at decryption is at least the margin.
///
/// **Security caveat**: like the rest of this crate, the table trades
/// lattice-security margin for speed at small degrees (the sub-`N = 8192`
/// rows mirror the repo's test presets). The `N = 8192` row equals
/// [`BfvParams::paper`].
///
/// # Examples
///
/// ```
/// use bfv::params::ParamSelector;
/// use quill::program::{Instr, Program, ValRef};
///
/// // A rotate-and-add kernel needs only a small set...
/// let shallow = Program::new(
///     "pairsum", 1, 0,
///     vec![
///         Instr::RotCt(ValRef::Input(0), 1),
///         Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
///     ],
///     ValRef::Instr(1),
/// );
/// let sel = ParamSelector::new(65537);
/// let small = sel.select(&shallow, 8).unwrap();
/// // ...and deeper programs force a larger modulus chain.
/// let square = Program::new(
///     "square", 1, 0,
///     vec![
///         Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
///         Instr::Relin(ValRef::Instr(0)),
///     ],
///     ValRef::Instr(1),
/// );
/// let larger = sel.select(&square, 8).unwrap();
/// let q_bits = |p: &bfv::params::BfvParams| p.moduli.iter()
///     .map(|&q| 64 - q.leading_zeros()).sum::<u32>();
/// assert!(q_bits(&larger.params) >= q_bits(&small.params));
/// ```
pub type ParamSelector = rlwe_ring::params::ParamSelector<BfvContext>;

/// A successful selection: the parameters plus the analysis that
/// certified them.
pub type Selection = rlwe_ring::params::Selection<NoiseReport>;

/// The candidate table the shared [`ParamSelector`] walks, certified by the
/// BFV [`NoiseModel`].
impl SelectionTable for BfvContext {
    type Program = Program;
    type Report = NoiseReport;

    /// The candidate table, ascending by degree then total modulus bits.
    /// Prime sizes stay ≥ 45 bits: RNS-decomposition key switching adds
    /// noise proportional to the *largest* chain prime over `Q`, so chains
    /// of few large primes beat many small ones.
    const CANDIDATES: &'static [Candidate] = &[
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

    fn generate(
        poly_degree: usize,
        plain_modulus: u64,
        prime_bits: u32,
        count: usize,
    ) -> Result<BfvParams, ParamError> {
        BfvParams::generate(poly_degree, plain_modulus, prime_bits, count)
    }

    fn analyze(params: &BfvParams, prog: &Program) -> (NoiseReport, f64) {
        let report = NoiseModel::for_params(params).analyze(prog);
        let budget = report.predicted_budget_bits;
        (report, budget)
    }
}

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
    fn selector_scales_params_with_program_depth() {
        use quill::program::{Instr, Program, ValRef};
        let sel = ParamSelector::new(65537);
        let rot_add = Program::new(
            "pairsum",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        let shallow = sel.select(&rot_add, 8).expect("shallow program selects");
        assert!(shallow.report.predicted_budget_bits >= DEFAULT_MARGIN_BITS);

        // A depth-3 squaring chain needs strictly more modulus.
        let mut instrs = Vec::new();
        let mut cur = ValRef::Input(0);
        for _ in 0..3 {
            instrs.push(Instr::MulCtCt(cur, cur));
            instrs.push(Instr::Relin(ValRef::Instr(instrs.len() - 1)));
            cur = ValRef::Instr(instrs.len() - 1);
        }
        let deep = Program::new("pow8", 1, 0, instrs, cur);
        let selected = sel.select(&deep, 8).expect("depth-3 program selects");
        let q_bits =
            |p: &BfvParams| -> u32 { p.moduli.iter().map(|&q| 64 - q.leading_zeros()).sum() };
        assert!(q_bits(&selected.params) > q_bits(&shallow.params));
        assert!(selected.params.validate().is_ok());
    }

    #[test]
    fn selector_honors_min_slots() {
        use quill::program::{Instr, Program, ValRef};
        let prog = Program::new(
            "rot",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 1)],
            ValRef::Instr(0),
        );
        let sel = ParamSelector::new(65537);
        let s = sel.select(&prog, 4000).expect("needs N ≥ 8192");
        assert!(s.params.row_size() >= 4000);
        assert!(s.params.poly_degree >= 8192);
    }

    #[test]
    fn selector_reports_exhaustion_with_best_attempt() {
        use quill::program::{Instr, Program, ValRef};
        // An absurdly deep chain no table entry can absorb.
        let mut instrs = Vec::new();
        let mut cur = ValRef::Input(0);
        for _ in 0..20 {
            instrs.push(Instr::MulCtCt(cur, cur));
            instrs.push(Instr::Relin(ValRef::Instr(instrs.len() - 1)));
            cur = ValRef::Instr(instrs.len() - 1);
        }
        let deep = Program::new("pow-2-20", 1, 0, instrs, cur);
        match ParamSelector::new(65537).select(&deep, 8) {
            Err(SelectError::NoCandidate {
                best: Some((n, remaining)),
                ..
            }) => {
                assert!(n >= 16384);
                assert!(remaining < DEFAULT_MARGIN_BITS);
            }
            other => panic!("expected NoCandidate with best attempt, got {other:?}"),
        }
    }

    #[test]
    fn policy_resolution() {
        use quill::program::{Instr, Program, ValRef};
        let prog = Program::new(
            "rot",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 1)],
            ValRef::Instr(0),
        );
        let auto = resolve_policy(&ParamPolicy::auto(), &prog, 8, 65537).unwrap();
        assert!(auto.validate().is_ok());
        let fixed = resolve_policy(
            &ParamPolicy::Fixed(BfvParams::test_small()),
            &prog,
            8,
            65537,
        )
        .unwrap();
        assert_eq!(fixed, BfvParams::test_small());
        // A fixed set that cannot hold the slots is rejected.
        let err = resolve_policy(
            &ParamPolicy::Fixed(BfvParams::test_small()),
            &prog,
            4096,
            65537,
        );
        assert!(matches!(err, Err(SelectError::BadFixedParams(_))));
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
