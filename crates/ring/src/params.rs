//! Scheme-neutral RLWE parameter sets and the shared parameter-policy
//! vocabulary.
//!
//! Every scheme backend (BFV, BGV) runs over the same ring shape — a
//! power-of-two degree `N`, a batching-friendly plaintext modulus `t`, and
//! an RNS chain of NTT-friendly ciphertext primes — so the parameter
//! *struct*, its structural validation, and the compiler-facing
//! [`ParamPolicy`] live here, as does the noise-aware [`ParamSelector`].
//! What differs per scheme is *noise*: each scheme crate provides its own
//! `NoiseModel` and a [`SelectionTable`] — its candidate chains, certified
//! by that model — for the selector to walk.

use crate::ntt::MAX_MODULUS;
use crate::zq;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;

/// Errors from parameter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `N` is not a power of two in the supported range.
    BadDegree(usize),
    /// The plaintext modulus is not a batching-compatible prime below
    /// 2^62.
    BadPlainModulus(u64),
    /// A ciphertext modulus prime is invalid for this `N`, or not below
    /// 2^62 (the NTT's lazy butterflies hold values up to `4p`).
    BadPrime(u64),
    /// The same prime appears twice in the ciphertext chain (CRT needs
    /// pairwise-coprime moduli; a duplicate used to panic inside the RNS
    /// setup).
    DuplicatePrime(u64),
    /// The plaintext modulus is not coprime to the ciphertext modulus (it
    /// appears in the chain), which breaks plaintext encoding in every
    /// scheme (BFV's `Δ = ⌊Q/t⌋` scaling and BGV's mod-`t` digit alike).
    PlainNotCoprime(u64),
    /// Fewer than two RNS primes (RNS-decomposition key switching needs ≥ 2).
    TooFewPrimes(usize),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::BadDegree(n) => {
                write!(
                    f,
                    "polynomial degree {n} must be a power of two in [16, 32768]"
                )
            }
            ParamError::BadPlainModulus(t) => write!(
                f,
                "plaintext modulus {t} must be a prime below 2^62 congruent to 1 mod 2N for batching"
            ),
            ParamError::BadPrime(p) => {
                write!(
                    f,
                    "ciphertext modulus prime {p} must be a prime below 2^62 and 1 mod 2N"
                )
            }
            ParamError::DuplicatePrime(p) => {
                write!(f, "ciphertext modulus prime {p} appears more than once")
            }
            ParamError::PlainNotCoprime(t) => write!(
                f,
                "plaintext modulus {t} must be coprime to the ciphertext modulus chain"
            ),
            ParamError::TooFewPrimes(k) => {
                write!(f, "need at least 2 RNS primes for key switching, got {k}")
            }
        }
    }
}

impl Error for ParamError {}

/// An RLWE parameter set: ring degree, plaintext modulus, and the RNS
/// ciphertext modulus chain. Shared by every scheme backend — `BfvParams`
/// and `BgvParams` are aliases of this type, so a parameter set selected
/// for one scheme can be handed to the other.
///
/// # Examples
///
/// ```
/// use rlwe_ring::params::RlweParams;
///
/// let params = RlweParams::test_small();
/// assert!(params.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlweParams {
    /// Ring degree `N` (a power of two). Ciphertexts hold `N` slots arranged
    /// as a 2 × N/2 matrix.
    pub poly_degree: usize,
    /// Plaintext modulus `t` (prime, `t ≡ 1 mod 2N`).
    pub plain_modulus: u64,
    /// RNS ciphertext primes `q_i` (each `≡ 1 mod 2N`).
    pub moduli: Vec<u64>,
}

impl RlweParams {
    /// Generates a parameter set with `count` fresh primes of `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns an error if the resulting set fails [`RlweParams::validate`].
    pub fn generate(
        poly_degree: usize,
        plain_modulus: u64,
        bits: u32,
        count: usize,
    ) -> Result<Self, ParamError> {
        if !poly_degree.is_power_of_two() || !(16..=32768).contains(&poly_degree) {
            return Err(ParamError::BadDegree(poly_degree));
        }
        let moduli = zq::ntt_primes(bits, 2 * poly_degree as u64, count, &[plain_modulus]);
        let params = RlweParams {
            poly_degree,
            plain_modulus,
            moduli,
        };
        params.validate()?;
        Ok(params)
    }

    /// Small parameters for unit tests: `N = 1024`, `t = 65537`, 3 × 45-bit
    /// primes. **Toy security** — fast, not safe.
    pub fn test_small() -> Self {
        RlweParams::generate(1024, 65537, 45, 3).expect("static parameters are valid")
    }

    /// Mid-size parameters used by the synthesis-to-backend integration
    /// tests: `N = 4096`, `t = 65537`, 3 × 46-bit primes (`Q ≈ 138` bits).
    /// At `N = 4096` the homomorphic-encryption standard allows ~109 bits for
    /// 128-bit security, so this set trades security margin for speed; use
    /// [`RlweParams::secure_128`] for benchmark-grade settings.
    pub fn fast_4096() -> Self {
        RlweParams::generate(4096, 65537, 46, 3).expect("static parameters are valid")
    }

    /// Benchmark parameters mirroring the paper's SEAL settings: `N = 8192`,
    /// `t = 65537`, 4 × 50-bit primes (`Q = 200` bits ≤ the 218-bit bound for
    /// 128-bit security at `N = 8192` from the HE security standard).
    pub fn secure_128() -> Self {
        RlweParams::generate(8192, 65537, 50, 4).expect("static parameters are valid")
    }

    /// The fixed parameter set the paper evaluates every kernel under
    /// (alias of [`RlweParams::secure_128`]) — the baseline the per-scheme
    /// automatic selectors replace.
    pub fn paper() -> Self {
        RlweParams::secure_128()
    }

    /// Checks all structural requirements.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn validate(&self) -> Result<(), ParamError> {
        let n = self.poly_degree;
        if !n.is_power_of_two() || !(16..=32768).contains(&n) {
            return Err(ParamError::BadDegree(n));
        }
        let two_n = 2 * n as u64;
        let t = self.plain_modulus;
        // Both `t` and every `q` get NTT tables, whose lazy butterflies
        // need p < 2^62; wider moduli would also wrap add_mod/mul_mod_shoup.
        if t >= MAX_MODULUS || !zq::is_prime(t) || !(t - 1).is_multiple_of(two_n) {
            return Err(ParamError::BadPlainModulus(t));
        }
        if self.moduli.len() < 2 {
            return Err(ParamError::TooFewPrimes(self.moduli.len()));
        }
        for (i, &q) in self.moduli.iter().enumerate() {
            if q >= MAX_MODULUS || !zq::is_prime(q) || (q - 1) % two_n != 0 {
                return Err(ParamError::BadPrime(q));
            }
            if q == t {
                return Err(ParamError::PlainNotCoprime(t));
            }
            if self.moduli[..i].contains(&q) {
                return Err(ParamError::DuplicatePrime(q));
            }
        }
        Ok(())
    }

    /// Number of SIMD slots (`N`; arranged as two rows of `N/2`).
    pub fn slot_count(&self) -> usize {
        self.poly_degree
    }

    /// Slots per batching row (`N / 2`) — the unit `rotate_rows` acts on.
    pub fn row_size(&self) -> usize {
        self.poly_degree / 2
    }
}

/// Default safety margin for automatic parameter selection: the selected
/// set must leave at least this many bits of predicted noise budget at
/// decryption.
pub const DEFAULT_MARGIN_BITS: f64 = 10.0;

/// How the compiler obtains RLWE parameters for a program. The policy is
/// scheme-neutral data; resolving it runs the *selected scheme's* noise
/// analysis (see [`ParamSelector::resolve`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamPolicy {
    /// Select the smallest satisfying set from the scheme's candidate table
    /// via its static noise analysis.
    Auto {
        /// Required predicted budget (bits) left at decryption.
        margin_bits: f64,
    },
    /// Use a caller-supplied parameter set unconditionally.
    Fixed(RlweParams),
}

impl Default for ParamPolicy {
    fn default() -> Self {
        ParamPolicy::auto()
    }
}

impl ParamPolicy {
    /// Automatic selection with the default margin.
    pub fn auto() -> Self {
        ParamPolicy::Auto {
            margin_bits: DEFAULT_MARGIN_BITS,
        }
    }

    /// Resolves the policy: a `Fixed` set is validated structurally and for
    /// capacity; an `Auto` policy defers to `select`, the scheme-specific
    /// noise-aware selector (called with the requested margin).
    ///
    /// # Errors
    ///
    /// [`SelectError`] if the selector finds no candidate, or if a `Fixed`
    /// set fails validation / has too few slots.
    pub fn resolve_with(
        &self,
        min_slots: usize,
        t: u64,
        select: impl FnOnce(f64) -> Result<RlweParams, SelectError>,
    ) -> Result<RlweParams, SelectError> {
        match self {
            ParamPolicy::Auto { margin_bits } => select(*margin_bits),
            ParamPolicy::Fixed(params) => {
                params
                    .validate()
                    .map_err(|e| SelectError::BadFixedParams(e.to_string()))?;
                if params.row_size() < min_slots || params.plain_modulus != t {
                    return Err(SelectError::BadFixedParams(format!(
                        "fixed set (N = {}, t = {}) cannot hold {min_slots} slots of a \
                         t = {t} program",
                        params.poly_degree, params.plain_modulus
                    )));
                }
                Ok(params.clone())
            }
        }
    }
}

/// Why automatic parameter selection failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// No candidate in the table satisfies the noise bound with the
    /// requested margin (the program is too deep, or needs too many slots).
    NoCandidate {
        /// The requested margin.
        margin_bits: f64,
        /// Slots the program needs per batching row.
        min_slots: usize,
        /// Best predicted remaining budget over all size-compatible
        /// candidates, with the `N` that achieved it.
        best: Option<(usize, f64)>,
    },
    /// The plaintext modulus is incompatible with every candidate degree
    /// (`t` must be prime and `≡ 1 mod 2N`).
    UnsupportedPlainModulus(u64),
    /// A `Fixed` policy carried an unusable parameter set.
    BadFixedParams(String),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::NoCandidate {
                margin_bits,
                min_slots,
                best,
            } => {
                write!(
                    f,
                    "no candidate parameter set leaves {margin_bits} bits of noise budget \
                     with {min_slots} slots"
                )?;
                if let Some((n, remaining)) = best {
                    write!(f, " (best: N = {n} with {remaining:.1} bits remaining)")?;
                }
                Ok(())
            }
            SelectError::UnsupportedPlainModulus(t) => {
                write!(
                    f,
                    "plaintext modulus {t} is incompatible with every candidate degree"
                )
            }
            SelectError::BadFixedParams(why) => write!(f, "fixed parameter set unusable: {why}"),
        }
    }
}

impl Error for SelectError {}

/// One row of a scheme's candidate table: `count` fresh primes of
/// `prime_bits` bits at degree `poly_degree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Ring degree `N`.
    pub poly_degree: usize,
    /// Bits per chain prime.
    pub prime_bits: u32,
    /// Chain length.
    pub count: usize,
}

/// A successful selection: the parameters plus the analysis `R` that
/// certified them.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection<R> {
    /// The smallest satisfying parameter set.
    pub params: RlweParams,
    /// The noise analysis of the program under `params`.
    pub report: R,
    /// How many size-compatible candidates were rejected first.
    pub candidates_tried: usize,
}

/// A scheme's parameter-selection table: its candidates, how a candidate's
/// chain is generated, and the noise analysis that certifies a set.
pub trait SelectionTable {
    /// What is analyzed (a lowered program).
    type Program: ?Sized;
    /// The analysis that certifies a selection.
    type Report;
    /// The candidates, ascending by cost (degree, then total modulus bits).
    const CANDIDATES: &'static [Candidate];
    /// Builds the parameter set of one candidate row.
    ///
    /// # Errors
    ///
    /// Returns an error if the set fails [`RlweParams::validate`].
    fn generate(
        poly_degree: usize,
        plain_modulus: u64,
        prime_bits: u32,
        count: usize,
    ) -> Result<RlweParams, ParamError>;
    /// Analyzes `prog` under `params`: the report and the predicted
    /// remaining noise budget in bits.
    fn analyze(params: &RlweParams, prog: &Self::Program) -> (Self::Report, f64);
}

/// Noise-aware automatic parameter selection over a scheme's
/// [`SelectionTable`].
///
/// Given a *lowered* program (post `-O`, explicit relinearizations), the
/// selector walks the table in ascending cost order and returns the first
/// set whose worst-case predicted noise budget leaves at least the
/// configured safety margin at decryption, and whose batching rows hold
/// the program's slots. Because the scheme's noise model is a sound upper
/// bound, the selected set is *certified*: the measured budget at
/// decryption is at least the margin.
#[derive(Debug)]
pub struct ParamSelector<S> {
    plain_modulus: u64,
    margin_bits: f64,
    table: PhantomData<S>,
}

impl<S: SelectionTable> ParamSelector<S> {
    /// A selector for plaintext modulus `t` with the default margin.
    pub fn new(plain_modulus: u64) -> Self {
        ParamSelector {
            plain_modulus,
            margin_bits: DEFAULT_MARGIN_BITS,
            table: PhantomData,
        }
    }

    /// Overrides the safety margin.
    pub fn with_margin_bits(mut self, margin_bits: f64) -> Self {
        self.margin_bits = margin_bits;
        self
    }

    /// Selects the smallest satisfying parameter set for a lowered program
    /// that needs `min_slots` slots per batching row.
    ///
    /// # Errors
    ///
    /// [`SelectError::UnsupportedPlainModulus`] if `t` batches at no
    /// candidate degree, else [`SelectError::NoCandidate`] with the best
    /// budget seen.
    pub fn select(
        &self,
        prog: &S::Program,
        min_slots: usize,
    ) -> Result<Selection<S::Report>, SelectError> {
        let t = self.plain_modulus;
        let batches = |n: usize| zq::is_prime(t) && (t - 1).is_multiple_of(2 * n as u64);
        let mut best: Option<(usize, f64)> = None;
        let mut tried = 0usize;
        for cand in S::CANDIDATES {
            if cand.poly_degree / 2 < min_slots || !batches(cand.poly_degree) {
                continue;
            }
            let params = S::generate(cand.poly_degree, t, cand.prime_bits, cand.count)
                .expect("table candidates are valid");
            let (report, predicted) = S::analyze(&params, prog);
            if predicted >= self.margin_bits {
                return Ok(Selection {
                    params,
                    report,
                    candidates_tried: tried,
                });
            }
            tried += 1;
            if best.is_none_or(|(_, b)| predicted > b) {
                best = Some((cand.poly_degree, predicted));
            }
        }
        // Distinguish "t can never batch" from "table exhausted".
        if best.is_none() && !S::CANDIDATES.iter().any(|c| batches(c.poly_degree)) {
            return Err(SelectError::UnsupportedPlainModulus(t));
        }
        Err(SelectError::NoCandidate {
            margin_bits: self.margin_bits,
            min_slots,
            best,
        })
    }

    /// Resolves a [`ParamPolicy`] for a lowered program: a `Fixed` set is
    /// validated structurally and for capacity; an `Auto` policy runs the
    /// selector over the table.
    ///
    /// # Errors
    ///
    /// See [`SelectError`].
    pub fn resolve(
        policy: &ParamPolicy,
        prog: &S::Program,
        min_slots: usize,
        t: u64,
    ) -> Result<RlweParams, SelectError> {
        policy.resolve_with(min_slots, t, |margin_bits| {
            Self::new(t)
                .with_margin_bits(margin_bits)
                .select(prog, min_slots)
                .map(|s| s.params)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [RlweParams::test_small(), RlweParams::fast_4096()] {
            assert!(p.validate().is_ok());
            assert_eq!(p.plain_modulus, 65537);
        }
    }

    #[test]
    fn secure_preset_modulus_size() {
        let p = RlweParams::secure_128();
        assert!(p.validate().is_ok());
        let total_bits: u32 = p.moduli.iter().map(|&q| 64 - q.leading_zeros()).sum();
        assert!(
            total_bits <= 218,
            "Q must stay under the 128-bit security bound"
        );
    }

    #[test]
    fn rejects_bad_degree() {
        let mut p = RlweParams::test_small();
        p.poly_degree = 1000;
        assert_eq!(p.validate(), Err(ParamError::BadDegree(1000)));
    }

    #[test]
    fn rejects_bad_plain_modulus() {
        let mut p = RlweParams::test_small();
        p.plain_modulus = 65536; // not prime
        assert!(matches!(p.validate(), Err(ParamError::BadPlainModulus(_))));
        p.plain_modulus = 97; // prime but 2N does not divide 96
        assert!(matches!(p.validate(), Err(ParamError::BadPlainModulus(_))));
    }

    #[test]
    fn rejects_single_prime() {
        let mut p = RlweParams::test_small();
        p.moduli.truncate(1);
        assert_eq!(p.validate(), Err(ParamError::TooFewPrimes(1)));
    }

    #[test]
    fn rejects_non_ntt_friendly_prime() {
        let mut p = RlweParams::test_small();
        // Prime, but 2N = 2048 does not divide p − 1.
        p.moduli[1] = 65539;
        assert_eq!(p.validate(), Err(ParamError::BadPrime(65539)));
        // Not prime at all.
        p.moduli[1] = (1 << 45) - 1;
        assert!(matches!(p.validate(), Err(ParamError::BadPrime(_))));
    }

    /// The largest prime `≡ 1 (mod stride)` below 2^63: NTT-friendly, but
    /// too wide for the lazy transform.
    fn prime_63_bits(stride: u64) -> u64 {
        (1..)
            .map(|k| (1u64 << 63) - k * stride + 1)
            .find(|&p| zq::is_prime(p))
            .unwrap()
    }

    #[test]
    fn rejects_63_bit_moduli() {
        let mut p = RlweParams::test_small();
        let wide = prime_63_bits(2 * p.poly_degree as u64);
        assert!(wide >= 1 << 62);
        p.moduli[1] = wide;
        assert_eq!(p.validate(), Err(ParamError::BadPrime(wide)));
        let mut p = RlweParams::test_small();
        p.plain_modulus = wide;
        assert_eq!(p.validate(), Err(ParamError::BadPlainModulus(wide)));
    }

    #[test]
    fn rejects_duplicate_primes() {
        let mut p = RlweParams::test_small();
        p.moduli[1] = p.moduli[0];
        let dup = p.moduli[0];
        assert_eq!(p.validate(), Err(ParamError::DuplicatePrime(dup)));
    }

    /// `t` sharing a prime with the chain is its own error (it used to be
    /// misreported as a bad ciphertext prime).
    #[test]
    fn rejects_plain_modulus_in_chain() {
        let mut p = RlweParams::test_small();
        // 65537 ≡ 1 mod 2048, so it is chain-eligible at N = 1024 — the
        // coprimality check is what must reject it.
        p.moduli[2] = p.plain_modulus;
        assert_eq!(p.validate(), Err(ParamError::PlainNotCoprime(65537)));
    }

    #[test]
    fn paper_params_alias_secure_128() {
        assert_eq!(RlweParams::paper(), RlweParams::secure_128());
    }

    #[test]
    fn fixed_policy_capacity_checks() {
        let ok = ParamPolicy::Fixed(RlweParams::test_small())
            .resolve_with(8, 65537, |_| unreachable!("fixed policy never selects"))
            .unwrap();
        assert_eq!(ok, RlweParams::test_small());
        // A fixed set that cannot hold the slots is rejected.
        let err = ParamPolicy::Fixed(RlweParams::test_small()).resolve_with(
            4096,
            65537,
            |_| unreachable!(),
        );
        assert!(matches!(err, Err(SelectError::BadFixedParams(_))));
        // Auto defers to the scheme selector with its margin.
        let auto = ParamPolicy::auto()
            .resolve_with(8, 65537, |margin| {
                assert_eq!(margin.to_bits(), DEFAULT_MARGIN_BITS.to_bits());
                Ok(RlweParams::fast_4096())
            })
            .unwrap();
        assert_eq!(auto, RlweParams::fast_4096());
    }
}
