//! Scheme-neutral RLWE parameter sets and the shared parameter-policy
//! vocabulary.
//!
//! Every scheme backend (BFV, BGV) runs over the same ring shape — a
//! power-of-two degree `N`, a batching-friendly plaintext modulus `t`, and
//! an RNS chain of NTT-friendly ciphertext primes — so the parameter
//! *struct*, its structural validation, the compiler-facing
//! [`ParamPolicy`] and the [`Candidate`] row type live here. What differs
//! per scheme is *noise*: each scheme crate provides its own `NoiseModel`
//! and a table of candidate chains, which the compiler walks in
//! `porcupine::scheme::resolve_params`.

use crate::ntt::MAX_MODULUS;
use crate::zq;
use std::error::Error;
use std::fmt;

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
    /// A chain of `count` distinct `bits`-bit primes in the required
    /// progression does not exist: `bits` is outside `[20, 62]`, or the
    /// progression's stride leaves too few primes of that size.
    NoChainPrimes {
        /// Requested bits per prime.
        bits: u32,
        /// Requested chain length.
        count: usize,
    },
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
            ParamError::NoChainPrimes { bits, count } => write!(
                f,
                "no chain of {count} distinct {bits}-bit primes exists for this degree and \
                 plaintext modulus (chain primes have 20 to 62 bits)"
            ),
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
    /// [`ParamError::NoChainPrimes`] if no such chain exists, else an error
    /// if the resulting set fails [`RlweParams::validate`].
    pub fn generate(
        poly_degree: usize,
        plain_modulus: u64,
        bits: u32,
        count: usize,
    ) -> Result<Self, ParamError> {
        RlweParams::generate_in_progression(poly_degree, plain_modulus, bits, count, 1)
    }

    /// Generates a parameter set whose `count` fresh `bits`-bit primes are
    /// all `≡ 1 (mod 2N·stride_factor)`: a factor of 1 gives plain
    /// NTT-friendly primes ([`RlweParams::generate`]), a factor of `t` the
    /// modulus-switch-friendly chains BGV wants.
    ///
    /// # Errors
    ///
    /// [`ParamError::BadDegree`] for an unsupported `N`,
    /// [`ParamError::NoChainPrimes`] if no such chain exists, else an error
    /// if the resulting set fails [`RlweParams::validate`].
    pub fn generate_in_progression(
        poly_degree: usize,
        plain_modulus: u64,
        bits: u32,
        count: usize,
        stride_factor: u64,
    ) -> Result<Self, ParamError> {
        if !poly_degree.is_power_of_two() || !(16..=32768).contains(&poly_degree) {
            return Err(ParamError::BadDegree(poly_degree));
        }
        let no_chain = ParamError::NoChainPrimes { bits, count };
        let stride = (2 * poly_degree as u64)
            .checked_mul(stride_factor)
            .ok_or(no_chain.clone())?;
        let moduli =
            zq::primes_in_progression(bits, stride, count, &[plain_modulus]).ok_or(no_chain)?;
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
/// scheme-neutral data; resolving it (`porcupine::scheme::resolve_params`)
/// runs the *selected scheme's* noise analysis.
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
        /// Best predicted remaining budget over the size-compatible
        /// candidates whose chains could be built, with the `N` that
        /// achieved it (`None` if no such candidate was left).
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

    /// A chain that cannot be built is an error, not a panic: 70-bit
    /// primes are out of range, and a 40-bit `t` leaves no 45-bit prime
    /// `≡ 1 mod 2N·t`.
    #[test]
    fn unbuildable_chains_are_errors() {
        assert_eq!(
            RlweParams::generate(1024, 65537, 70, 3),
            Err(ParamError::NoChainPrimes { bits: 70, count: 3 })
        );
        let t = 1_099_511_922_689;
        assert_eq!(
            RlweParams::generate_in_progression(1024, t, 45, 2, t),
            Err(ParamError::NoChainPrimes { bits: 45, count: 2 })
        );
        // 2N·t overflows 64 bits.
        assert_eq!(
            RlweParams::generate_in_progression(32768, 1 << 60, 55, 2, 1 << 60),
            Err(ParamError::NoChainPrimes { bits: 55, count: 2 })
        );
    }

    #[test]
    fn paper_params_alias_secure_128() {
        assert_eq!(RlweParams::paper(), RlweParams::secure_128());
    }
}
