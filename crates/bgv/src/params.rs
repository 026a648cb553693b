//! BGV parameter sets, the shared evaluation context, and noise-aware
//! automatic parameter selection ([`ParamSelector`]).
//!
//! The parameter *struct* and its structural validation are scheme-neutral
//! and live in [`rlwe_ring::params`] ([`BgvParams`] is an alias of
//! [`rlwe_ring::params::RlweParams`]); this module adds what is
//! BGV-specific: the [`BgvContext`] precomputation (the `t mod q_i`
//! residues that scale every error term onto the multiples-of-`t` lattice,
//! and the modulus-chain truncation behind
//! [`crate::evaluator::ModSwitch::mod_switch_to_next`]), its
//! [`SchemePolicy`] impl, and the [`ParamSelector`] candidate table driven
//! by the BGV [`NoiseModel`].
//!
//! # Modulus-switch-friendly chains
//!
//! BGV's level management drops the last chain prime `q_k`; the plaintext
//! digit survives unchanged only when `q_k ≡ 1 (mod t)`. The selector's
//! candidate table therefore generates its primes in the arithmetic
//! progression `1 mod 2N·t` ([`generate_mod_switch_friendly`]) — every
//! prime is simultaneously NTT-friendly and switch-friendly. Chains built
//! for BFV (plain `1 mod 2N` primes) still run on this backend for every
//! operation *except* `mod_switch_to_next`, which is what the cross-scheme
//! differential tests rely on.

use crate::bigint::BigInt;
use crate::encrypt::Ciphertext;
use crate::evaluator::Evaluator;
use crate::noise::{NoiseModel, NoiseReport};
use crate::ntt::NttTables;
use crate::poly::{RingContext, RnsPoly};
use crate::zq;
use quill::program::Program;
use rlwe_ring::params::{Candidate, SelectionTable};
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
/// Returns an error if the resulting set fails
/// [`rlwe_ring::params::RlweParams::validate`].
pub fn generate_mod_switch_friendly(
    poly_degree: usize,
    plain_modulus: u64,
    bits: u32,
    count: usize,
) -> Result<BgvParams, ParamError> {
    if !poly_degree.is_power_of_two() || !(16..=32768).contains(&poly_degree) {
        return Err(ParamError::BadDegree(poly_degree));
    }
    let stride = 2 * poly_degree as u64 * plain_modulus;
    let moduli = zq::primes_in_progression(bits, stride, count, &[plain_modulus]);
    let params = BgvParams {
        poly_degree,
        plain_modulus,
        moduli,
    };
    params.validate()?;
    Ok(params)
}

/// Small switch-friendly parameters for unit tests: `N = 1024`,
/// `t = 65537`, 3 × 45-bit primes `≡ 1 mod 2N·t`. **Toy security.**
pub fn test_small() -> BgvParams {
    generate_mod_switch_friendly(1024, 65537, 45, 3).expect("static parameters are valid")
}

/// Resolves a [`ParamPolicy`] for a lowered program under the **BGV** noise
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
) -> Result<BgvParams, SelectError> {
    ParamSelector::resolve(policy, prog, min_slots, t)
}

/// Noise-aware automatic parameter selection for BGV.
///
/// Same contract as the BFV selector (walk a candidate table in ascending
/// cost order, return the first set whose worst-case predicted budget
/// clears the margin), but driven by the BGV [`NoiseModel`] — whose
/// multiply rule *doubles* the noise bit count instead of adding a fixed
/// chunk — over switch-friendly chains. Deep multiplication chains
/// therefore escalate through the table much faster than under BFV, which
/// is the scheme trade-off the cost model and selector make visible.
pub type ParamSelector = rlwe_ring::params::ParamSelector<BgvContext>;

/// A successful selection: the parameters plus the analysis that
/// certified them.
pub type Selection = rlwe_ring::params::Selection<NoiseReport>;

/// The candidate table the shared [`ParamSelector`] walks, certified by the
/// BGV [`NoiseModel`].
impl SelectionTable for BgvContext {
    type Program = Program;
    type Report = NoiseReport;

    /// The candidate table, ascending by degree then total modulus bits.
    /// Compared with BFV's table the chains run longer at each degree:
    /// BGV noise bits double per multiplication, so depth is bought with
    /// modulus, not margin.
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

    fn generate(
        poly_degree: usize,
        plain_modulus: u64,
        prime_bits: u32,
        count: usize,
    ) -> Result<BgvParams, ParamError> {
        generate_mod_switch_friendly(poly_degree, plain_modulus, prime_bits, count)
    }

    fn analyze(params: &BgvParams, prog: &Program) -> (NoiseReport, f64) {
        let report = NoiseModel::for_params(params).analyze(prog);
        let budget = report.predicted_budget_bits;
        (report, budget)
    }
}

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

    fn decrypt_coeff(&self, w: &BigInt) -> u64 {
        w.rem_euclid_u64(self.params.plain_modulus)
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
        // the workhorse t = 65537 (the selector unwraps this).
        for cand in BgvContext::CANDIDATES {
            let p =
                generate_mod_switch_friendly(cand.poly_degree, 65537, cand.prime_bits, cand.count)
                    .expect("table row generates");
            assert_eq!(p.moduli.len(), cand.count);
        }
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

        let mut instrs = Vec::new();
        let mut cur = ValRef::Input(0);
        for _ in 0..2 {
            instrs.push(Instr::MulCtCt(cur, cur));
            instrs.push(Instr::Relin(ValRef::Instr(instrs.len() - 1)));
            cur = ValRef::Instr(instrs.len() - 1);
        }
        let deep = Program::new("pow4", 1, 0, instrs, cur);
        let selected = sel.select(&deep, 8).expect("depth-2 program selects");
        let q_bits =
            |p: &BgvParams| -> u32 { p.moduli.iter().map(|&q| 64 - q.leading_zeros()).sum() };
        assert!(q_bits(&selected.params) > q_bits(&shallow.params));
    }

    /// BGV noise bits double per multiply, so the same program must select
    /// at least as much modulus under BGV as under BFV.
    #[test]
    fn bgv_selects_no_smaller_than_bfv_on_deep_programs() {
        use quill::program::{Instr, Program, ValRef};
        let mut instrs = Vec::new();
        let mut cur = ValRef::Input(0);
        for _ in 0..2 {
            instrs.push(Instr::MulCtCt(cur, cur));
            instrs.push(Instr::Relin(ValRef::Instr(instrs.len() - 1)));
            cur = ValRef::Instr(instrs.len() - 1);
        }
        let deep = Program::new("pow4", 1, 0, instrs, cur);
        let bgv = ParamSelector::new(65537).select(&deep, 8).unwrap();
        let bfv = bfv::params::ParamSelector::new(65537)
            .select(&deep, 8)
            .unwrap();
        let q_bits =
            |p: &BgvParams| -> u32 { p.moduli.iter().map(|&q| 64 - q.leading_zeros()).sum() };
        assert!(q_bits(&bgv.params) >= q_bits(&bfv.params));
    }

    #[test]
    fn selector_reports_exhaustion_with_best_attempt() {
        use quill::program::{Instr, Program, ValRef};
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
                // Unlike BFV, the least-bad attempt is a *small* degree:
                // the mul rule doubles noise bits, so the log2 N term
                // compounds 2^20-fold and dwarfs what extra modulus buys.
                assert!(n >= 1024);
                assert!(remaining < DEFAULT_MARGIN_BITS);
            }
            other => panic!("expected NoCandidate with best attempt, got {other:?}"),
        }
    }

    #[test]
    fn policy_resolution_accepts_bfv_style_fixed_sets() {
        use quill::program::{Instr, Program, ValRef};
        let prog = Program::new(
            "rot",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 1)],
            ValRef::Instr(0),
        );
        // A plain-NTT-prime set (BFV's test preset) is structurally valid
        // for BGV too — the alias types make this a round trip.
        let fixed = resolve_policy(
            &ParamPolicy::Fixed(BgvParams::test_small()),
            &prog,
            8,
            65537,
        )
        .unwrap();
        assert_eq!(fixed, BgvParams::test_small());
        let auto = resolve_policy(&ParamPolicy::auto(), &prog, 8, 65537).unwrap();
        assert!(auto.validate().is_ok());
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
