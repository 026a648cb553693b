//! Residue number system (RNS) contexts: CRT decomposition, exact Garner
//! reconstruction, and exact centered base conversion between RNS bases.
//!
//! BFV ciphertext coefficients live modulo `Q = q_0 · q_1 · ... · q_{k-1}`.
//! Cheap operations stay componentwise. The multiply hot path never leaves
//! machine words: [`RnsBaseConverter`] moves centered values between bases
//! through Garner's mixed-radix digits (u64-only), and so does decryption
//! (the phase converted onto the one-prime base `[t]`). Big-integer
//! reconstruction via [`RnsContext::reconstruct`] is reserved for noise
//! metering, where exact magnitudes are genuinely needed.

use crate::bigint::BigUint;
use crate::zq::{add_mod, inv_mod, mul_mod, mul_mod_shoup, shoup_precompute, sub_mod};

/// Precomputed CRT data for a fixed list of distinct primes.
///
/// # Examples
///
/// ```
/// use rlwe_ring::rns::RnsContext;
/// use rlwe_ring::bigint::BigUint;
///
/// let ctx = RnsContext::new(vec![97, 101, 103]);
/// let x = BigUint::from_u64(123_456);
/// let residues = ctx.decompose(&x);
/// assert_eq!(ctx.reconstruct(&residues), x);
/// ```
#[derive(Debug, Clone)]
pub struct RnsContext {
    primes: Vec<u64>,
    modulus: BigUint,
    /// `pp[j][i] = (p_0 * ... * p_{j-1}) mod p_i` for `j <= i` (Garner).
    partial_mod: Vec<Vec<u64>>,
    /// Shoup companions of `partial_mod` (fixed multiplicands on the digit
    /// hot path).
    partial_mod_shoup: Vec<Vec<u64>>,
    /// `garner_inv[i] = ((p_0 * ... * p_{i-1}) mod p_i)^{-1} mod p_i`.
    garner_inv: Vec<u64>,
    garner_inv_shoup: Vec<u64>,
}

impl RnsContext {
    /// Builds a context for `primes` (must be distinct primes).
    ///
    /// # Panics
    ///
    /// Panics if `primes` is empty or contains duplicates.
    pub fn new(primes: Vec<u64>) -> Self {
        assert!(!primes.is_empty(), "need at least one prime");
        for (i, &p) in primes.iter().enumerate() {
            assert!(p > 1);
            assert!(!primes[..i].contains(&p), "duplicate prime {p}");
        }
        let k = primes.len();
        let mut modulus = BigUint::one();
        for &p in &primes {
            modulus = modulus.mul_u64(p);
        }
        // partial_mod[j][i]: product of first j primes mod p_i.
        let mut partial_mod = vec![vec![0u64; k]; k];
        for i in 0..k {
            let mut acc = 1u64 % primes[i];
            for j in 0..k {
                partial_mod[j][i] = acc;
                acc = mul_mod(acc, primes[j] % primes[i], primes[i]);
            }
        }
        let partial_mod_shoup = partial_mod
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, &w)| shoup_precompute(w, primes[i]))
                    .collect()
            })
            .collect();
        let garner_inv: Vec<u64> = (0..k)
            .map(|i| inv_mod(partial_mod[i][i], primes[i]))
            .collect();
        let garner_inv_shoup = garner_inv
            .iter()
            .zip(&primes)
            .map(|(&w, &p)| shoup_precompute(w, p))
            .collect();
        RnsContext {
            primes,
            modulus,
            partial_mod,
            partial_mod_shoup,
            garner_inv,
            garner_inv_shoup,
        }
    }

    /// The prime list.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Number of primes.
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// True if the context has no primes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// The full modulus `Q`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Reduces `x` modulo each prime.
    pub fn decompose(&self, x: &BigUint) -> Vec<u64> {
        self.primes.iter().map(|&p| x.rem_u64(p)).collect()
    }

    /// Computes the Garner mixed-radix digits `d_i` of the value with the
    /// given residues: `x = d_0 + d_1·p_0 + d_2·p_0·p_1 + ...` with
    /// `0 ≤ d_i < p_i`. This is the u64-only workhorse behind both exact
    /// reconstruction and [`RnsBaseConverter`].
    ///
    /// # Panics
    ///
    /// Panics if `residues` or `digits` differ in length from the prime
    /// count.
    pub fn mixed_radix_digits_into(&self, residues: &[u64], digits: &mut [u64]) {
        let k = self.primes.len();
        assert_eq!(residues.len(), k);
        assert_eq!(digits.len(), k);
        for i in 0..k {
            let p = self.primes[i];
            let mut acc = 0u64;
            for (j, &dj) in digits.iter().enumerate().take(i) {
                // d_j < p_j may exceed p; mul_mod_shoup is valid for any
                // u64 left operand.
                acc = add_mod(
                    acc,
                    mul_mod_shoup(dj, self.partial_mod[j][i], self.partial_mod_shoup[j][i], p),
                    p,
                );
            }
            let diff = sub_mod(residues[i] % p, acc, p);
            digits[i] = mul_mod_shoup(diff, self.garner_inv[i], self.garner_inv_shoup[i], p);
        }
    }

    /// Garner mixed-radix digits for a whole residue matrix
    /// (`residues[prime][coeff]`, each entry `< p_i`), vectorized over
    /// coefficients: the sequential Garner recurrence runs as per-prime
    /// vector passes with fixed (Shoup) multiplicands. The digits land in
    /// caller-provided buffers — `digits` is the `k × n` output and `acc`
    /// an `n`-length scratch row — so the multiply hot path allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if any buffer shape does not match.
    pub fn mixed_radix_digit_matrix_into(
        &self,
        residues: &[Vec<u64>],
        digits: &mut [Vec<u64>],
        acc: &mut [u64],
    ) {
        let k = self.primes.len();
        assert_eq!(residues.len(), k);
        assert_eq!(digits.len(), k);
        let n = residues[0].len();
        assert_eq!(acc.len(), n);
        for (i, res_i) in residues.iter().enumerate() {
            let p = self.primes[i];
            // acc = Σ_{j<i} d_j · P_{j,i} (mod p_i)
            acc.iter_mut().for_each(|a| *a = 0);
            let (prev, rest) = digits.split_at_mut(i);
            for (j, dj) in prev.iter().enumerate() {
                let w = self.partial_mod[j][i];
                let ws = self.partial_mod_shoup[j][i];
                for (a, &d) in acc.iter_mut().zip(dj) {
                    *a = add_mod(*a, mul_mod_shoup(d, w, ws, p), p);
                }
            }
            let gi = self.garner_inv[i];
            let gis = self.garner_inv_shoup[i];
            for ((d, &r), &a) in rest[0].iter_mut().zip(res_i).zip(acc.iter()) {
                *d = mul_mod_shoup(sub_mod(r, a, p), gi, gis, p);
            }
        }
    }

    /// Exact CRT reconstruction into `[0, Q)` via Garner's mixed-radix
    /// algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the prime count.
    pub fn reconstruct(&self, residues: &[u64]) -> BigUint {
        let k = self.primes.len();
        let mut digits = vec![0u64; k];
        self.mixed_radix_digits_into(residues, &mut digits);
        // Horner evaluation: x = d_0 + p_0 (d_1 + p_1 (d_2 + ...)).
        let mut x = BigUint::from_u64(digits[k - 1]);
        for i in (0..k - 1).rev() {
            x = x.mul_u64(self.primes[i]);
            x.add_assign_u64(digits[i]);
        }
        x
    }
}

/// Exact centered base conversion between RNS bases, u64-only.
///
/// Given residues of `x ∈ [0, A)` over a source base `A = ∏ p_i`, computes
/// the residues of the **centered** representative `x̂ ∈ (-A/2, A/2]`
/// (`x̂ = x` if `x ≤ ⌊A/2⌋`, else `x - A`) modulo each target prime. Unlike
/// the floating-point "fast base conversion" of BEHZ, the mixed-radix route
/// is exact — no `α·A` overflow term — while still touching nothing wider
/// than a machine word. This is the primitive the BFV multiply uses to
/// extend operands into the auxiliary tensoring base and to shrink the
/// rescaled product back (see the scheme evaluators), and the one
/// decryption uses to move the phase from `Q` onto `t`.
#[derive(Debug, Clone)]
pub struct RnsBaseConverter {
    src: RnsContext,
    targets: Vec<u64>,
    /// `partials[b][j] = (p_0 ... p_{j-1}) mod targets[b]`.
    partials: Vec<Vec<u64>>,
    partials_shoup: Vec<Vec<u64>>,
    /// `A mod targets[b]` — the centering correction.
    src_mod: Vec<u64>,
    /// Mixed-radix digits of `⌊A/2⌋`, for the centered-sign comparison.
    half_digits: Vec<u64>,
}

impl RnsBaseConverter {
    /// Builds a converter from the base of `src` onto `targets` (primes
    /// coprime to the source base).
    pub fn new(src: &RnsContext, targets: &[u64]) -> Self {
        let k = src.len();
        let mut partials = Vec::with_capacity(targets.len());
        let mut partials_shoup = Vec::with_capacity(targets.len());
        for &b in targets {
            let mut row = Vec::with_capacity(k);
            let mut acc = 1u64 % b;
            for &p in src.primes() {
                row.push(acc);
                acc = mul_mod(acc, p % b, b);
            }
            partials_shoup.push(row.iter().map(|&w| shoup_precompute(w, b)).collect());
            partials.push(row);
        }
        let src_mod = targets.iter().map(|&b| src.modulus().rem_u64(b)).collect();
        let half = src.modulus().shr_bits(1);
        let half_residues = src.decompose(&half);
        let mut half_digits = vec![0u64; k];
        src.mixed_radix_digits_into(&half_residues, &mut half_digits);
        RnsBaseConverter {
            src: src.clone(),
            targets: targets.to_vec(),
            partials,
            partials_shoup,
            src_mod,
            half_digits,
        }
    }

    /// The target primes.
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Converts a residue matrix (`src_residues[prime][coeff]`, coefficient
    /// domain, entries `< p_i`) into target residues of the centered
    /// values, allocating the output. Runs as vector passes: Garner digits
    /// via [`RnsContext::mixed_radix_digit_matrix_into`], a per-coefficient sign
    /// mask, then Shoup dot products per target prime with a branchless
    /// centering correction.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the source base.
    pub fn convert_centered(&self, src_residues: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let pool = crate::pool::ScratchPool::new();
        let n = src_residues[0].len();
        let mut out = vec![vec![0u64; n]; self.targets.len()];
        self.convert_centered_into(src_residues, &pool, &mut out);
        out
    }

    /// [`RnsBaseConverter::convert_centered`] into a caller-provided
    /// `targets × n` output matrix, drawing all internal scratch (Garner
    /// digits, accumulator, sign mask) from `pool` — the allocation-free
    /// variant the evaluator's multiply uses. Output rows are fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes do not match the bases.
    pub fn convert_centered_into(
        &self,
        src_residues: &[Vec<u64>],
        pool: &crate::pool::ScratchPool,
        out: &mut [Vec<u64>],
    ) {
        let k = self.src.len();
        assert_eq!(src_residues.len(), k);
        assert_eq!(out.len(), self.targets.len());
        let n = src_residues[0].len();
        let mut digits = pool.take_matrix(k, n);
        let mut acc = pool.take_row(n);
        self.src
            .mixed_radix_digit_matrix_into(src_residues, &mut digits, &mut acc);
        // neg[c] = all-ones mask when the value's centered representative
        // is negative (mixed-radix lexicographic compare against ⌊A/2⌋);
        // the Garner accumulator row is dead, so it doubles as the mask.
        let mut neg = acc;
        for (c, m) in neg.iter_mut().enumerate() {
            let mut is_neg = false;
            for i in (0..k).rev() {
                let d = digits[i][c];
                let h = self.half_digits[i];
                if d != h {
                    is_neg = d > h;
                    break;
                }
            }
            *m = (is_neg as u64).wrapping_neg();
        }
        for (t, &b) in self.targets.iter().enumerate() {
            let row = &mut out[t];
            assert_eq!(row.len(), n);
            row.iter_mut().for_each(|o| *o = 0);
            for (j, dj) in digits.iter().enumerate() {
                let w = self.partials[t][j];
                let ws = self.partials_shoup[t][j];
                for (o, &d) in row.iter_mut().zip(dj) {
                    *o = add_mod(*o, mul_mod_shoup(d, w, ws, b), b);
                }
            }
            let a_mod = self.src_mod[t];
            for (o, &mask) in row.iter_mut().zip(neg.iter()) {
                *o = sub_mod(*o, a_mod & mask, b);
            }
        }
        pool.put_row(neg);
        pool.put_matrix(digits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_small_primes() {
        let ctx = RnsContext::new(vec![3, 5, 7]);
        for v in 0..105u64 {
            let x = BigUint::from_u64(v);
            assert_eq!(ctx.reconstruct(&ctx.decompose(&x)), x, "v = {v}");
        }
    }

    #[test]
    fn roundtrip_large_primes() {
        let primes = crate::zq::ntt_primes(50, 1 << 13, 5, &[]);
        let ctx = RnsContext::new(primes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            // random value < Q via random residues
            let residues: Vec<u64> = ctx.primes().iter().map(|&p| rng.gen_range(0..p)).collect();
            let x = ctx.reconstruct(&residues);
            assert!(x.cmp_big(ctx.modulus()) == std::cmp::Ordering::Less);
            assert_eq!(ctx.decompose(&x), residues);
        }
    }

    #[test]
    fn modulus_is_product() {
        let ctx = RnsContext::new(vec![97, 101]);
        assert_eq!(ctx.modulus().to_u64(), Some(97 * 101));
    }

    #[test]
    fn single_prime_context() {
        let ctx = RnsContext::new(vec![65537]);
        let x = BigUint::from_u64(1234);
        assert_eq!(ctx.reconstruct(&ctx.decompose(&x)), x);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicates() {
        RnsContext::new(vec![97, 97]);
    }

    #[test]
    fn mixed_radix_digits_recompose() {
        let ctx = RnsContext::new(vec![97, 101, 103]);
        for v in [0u64, 1, 96, 97, 12345, 97 * 101 * 103 - 1] {
            let residues = ctx.decompose(&BigUint::from_u64(v));
            let mut digits = vec![0u64; 3];
            ctx.mixed_radix_digits_into(&residues, &mut digits);
            let recomposed = digits[0] + digits[1] * 97 + digits[2] * 97 * 101;
            assert_eq!(recomposed, v);
        }
    }

    /// Every value in the source base converts to the residues of its
    /// centered representative — exhaustive over a tiny base.
    #[test]
    fn base_conversion_is_exact_and_centered() {
        let src = RnsContext::new(vec![11, 13]); // A = 143
        let targets = [17u64, 19, 23];
        let conv = RnsBaseConverter::new(&src, &targets);
        let a = 11u64 * 13;
        for v in 0..a {
            let residues: Vec<Vec<u64>> = src.primes().iter().map(|&p| vec![v % p]).collect();
            let out = conv.convert_centered(&residues);
            let centered: i64 = if v <= a / 2 {
                v as i64
            } else {
                v as i64 - a as i64
            };
            for (t, &b) in targets.iter().enumerate() {
                assert_eq!(
                    out[t][0],
                    centered.rem_euclid(b as i64) as u64,
                    "v = {v}, target {b}"
                );
            }
        }
    }

    /// Large-base conversion agrees with exact BigUint arithmetic.
    #[test]
    fn base_conversion_matches_bigint() {
        let src_primes = crate::zq::ntt_primes(45, 64, 3, &[]);
        let tgt_primes = crate::zq::ntt_primes(44, 64, 4, &src_primes);
        let src = RnsContext::new(src_primes);
        let conv = RnsBaseConverter::new(&src, &tgt_primes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 8;
        let residues: Vec<Vec<u64>> = src
            .primes()
            .iter()
            .map(|&p| (0..n).map(|_| rng.gen_range(0..p)).collect())
            .collect();
        let out = conv.convert_centered(&residues);
        let half = src.modulus().shr_bits(1);
        for c in 0..n {
            let col: Vec<u64> = residues.iter().map(|r| r[c]).collect();
            let x = src.reconstruct(&col);
            for (t, &b) in tgt_primes.iter().enumerate() {
                let expect = if x.cmp_big(&half) == std::cmp::Ordering::Greater {
                    // centered negative: (x - A) mod b
                    let diff = src.modulus().sub(&x); // A - x > 0
                    (b - diff.rem_u64(b)) % b
                } else {
                    x.rem_u64(b)
                };
                assert_eq!(out[t][c], expect, "coeff {c}, target {b}");
            }
        }
    }
}
