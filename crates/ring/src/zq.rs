//! Arithmetic in 64-bit prime fields: modular ops, deterministic
//! Miller–Rabin primality, NTT-friendly prime search, and primitive roots.
//!
//! Every RNS component of a ciphertext lives in `Z_p` for a prime
//! `p ≡ 1 (mod 2N)` so the negacyclic NTT exists. This module finds those
//! primes and the 2N-th roots of unity the NTT tables need. A root of unity
//! is a power of the smallest generator of `Z_p^*`, found by testing
//! candidates against the distinct prime factors of `p − 1`; those come
//! from Pollard–Brent rho and Miller–Rabin, so rooting a 60-bit prime costs
//! microseconds, not the ~√(p − 1) divisions of trial division.

/// `(a + b) mod m` for `a, b < m < 2^63`.
///
/// Branchless (`min` select): the reduction decision depends on the data,
/// so a conditional here mispredicts ~half the time inside NTT butterflies;
/// the select form costs a fixed three ops instead.
#[inline]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b < m && m < (1 << 63));
    let s = a + b; // no overflow: s < 2m < 2^64
    s.min(s.wrapping_sub(m))
}

/// `(a - b) mod m` for `a, b < m < 2^63` (branchless, see [`add_mod`]).
#[inline]
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b < m && m < (1 << 63));
    let d = a.wrapping_sub(b);
    // a ≥ b: d < m and d + m ≥ m, so min picks d. a < b: d wraps near 2^64
    // and d + m wraps to the correct d + m − 2^64 = a − b + m < m.
    d.min(d.wrapping_add(m))
}

/// `(a * b) mod m` via 128-bit widening.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `a^e mod m` by square-and-multiply.
pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    a %= m;
    let mut acc = 1u64 % m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo prime `p` (Fermat).
///
/// # Panics
///
/// Panics if `a ≡ 0 (mod p)`.
pub fn inv_mod(a: u64, p: u64) -> u64 {
    assert!(!a.is_multiple_of(p), "zero has no inverse");
    pow_mod(a, p - 2, p)
}

/// Barrett reduction context for a fixed modulus `p < 2^62`: replaces the
/// 128-bit hardware division of [`mul_mod`] with two rounds of 64-bit
/// multiplies. Unlike [`mul_mod_shoup`] neither operand needs to be fixed,
/// so this is the right primitive for pointwise products of two variable
/// evaluation-form vectors (the double-CRT tensor).
#[derive(Debug, Clone, Copy)]
pub struct Barrett {
    p: u64,
    /// `floor(2^128 / p)`, split into low/high 64-bit words.
    m_lo: u64,
    m_hi: u64,
}

impl Barrett {
    /// Builds a reducer for `p` (requires `1 < p < 2^62`, not a power of
    /// two — every modulus here is an odd prime).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or a power of two (for which the
    /// quotient estimate below would overflow; use shifts instead).
    pub fn new(p: u64) -> Self {
        assert!(
            p > 1 && p < (1 << 62) && !p.is_power_of_two(),
            "Barrett modulus out of range"
        );
        // floor(2^128 / p) == floor((2^128 - 1) / p) since p ∤ 2^128 for
        // any p that is not a power of two.
        let mu = u128::MAX / p as u128;
        Barrett {
            p,
            m_lo: mu as u64,
            m_hi: (mu >> 64) as u64,
        }
    }

    /// The modulus.
    pub fn modulus(self) -> u64 {
        self.p
    }

    /// Reduces any `z < 2^128` modulo `p`, provided the true remainder path
    /// stays in a machine word (always, for `p < 2^62`).
    #[inline]
    pub fn reduce(self, z: u128) -> u64 {
        let z0 = z as u64;
        let z1 = (z >> 64) as u64;
        // q ≈ floor(z·mu / 2^128); dropping sub-word carries underestimates
        // the true quotient by at most 3, corrected below.
        let mid = z1 as u128 * self.m_lo as u128
            + z0 as u128 * self.m_hi as u128
            + ((z0 as u128 * self.m_lo as u128) >> 64);
        let q = (z1 as u128 * self.m_hi as u128 + (mid >> 64)) as u64;
        // True remainder is in [0, 4p); fold branchlessly (4p < 2^64).
        let r = z0.wrapping_sub(q.wrapping_mul(self.p));
        let r = r.min(r.wrapping_sub(2 * self.p));
        r.min(r.wrapping_sub(self.p))
    }

    /// Reduces a single word modulo `p`.
    #[inline]
    pub fn reduce_u64(self, x: u64) -> u64 {
        self.reduce(x as u128)
    }

    /// `(a * b) mod p` for `a, b < 2^62`.
    #[inline]
    pub fn mul_mod(self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }
}

/// Shoup precomputation: `floor(w * 2^64 / p)` for fast `mul_mod_shoup`.
#[inline]
pub fn shoup_precompute(w: u64, p: u64) -> u64 {
    (((w as u128) << 64) / p as u128) as u64
}

/// `(a * w) mod p` using a Shoup-precomputed `w_shoup` (`p < 2^63`); much
/// faster than `mul_mod` for fixed multiplicands (NTT twiddles, keys,
/// converter tables). Branchless final reduction, see [`add_mod`].
#[inline]
pub fn mul_mod_shoup(a: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((a as u128 * w_shoup as u128) >> 64) as u64;
    let r = a.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p));
    // r < 2p < 2^64 exactly as in sub_mod's wrap-free case.
    r.min(r.wrapping_sub(p))
}

/// Deterministic Miller–Rabin for `u64` (fixed witness set, correct for all
/// 64-bit inputs).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns `count` distinct primes `p ≡ 1 (mod modulus)` just below
/// `2^bits`, descending, skipping any in `exclude`.
///
/// # Panics
///
/// Panics if `modulus` is not a power of two, or if
/// [`primes_in_progression`] finds too few primes (never happens for the
/// sizes used here).
pub fn ntt_primes(bits: u32, modulus: u64, count: usize, exclude: &[u64]) -> Vec<u64> {
    assert!(modulus.is_power_of_two());
    primes_in_progression(bits, modulus, count, exclude).expect("enough NTT-friendly primes")
}

/// Returns `count` distinct primes `p ≡ 1 (mod stride)` just below
/// `2^bits`, descending, skipping any in `exclude` — the general form of
/// [`ntt_primes`] for non-power-of-two strides. BGV uses it with
/// `stride = 2N·t` so every chain prime is simultaneously NTT-friendly
/// (`≡ 1 mod 2N`) and modulus-switch-friendly (`≡ 1 mod t`, which keeps
/// dropping a prime plaintext-invariant).
///
/// Returns `None` if `bits` is out of `[20, 62]` or fewer than `count`
/// such primes lie in `(2^(bits−1), 2^bits)`.
///
/// # Panics
///
/// Panics if `stride` is odd (candidates must be odd).
pub fn primes_in_progression(
    bits: u32,
    stride: u64,
    count: usize,
    exclude: &[u64],
) -> Option<Vec<u64>> {
    assert!(
        stride >= 2 && stride.is_multiple_of(2),
        "stride must be even"
    );
    if !(20..=62).contains(&bits) {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    // Largest candidate ≡ 1 mod `stride` below 2^bits.
    let mut cand = ((1u64 << bits) - 1) / stride * stride + 1;
    while out.len() < count {
        if cand <= 1u64 << (bits - 1) {
            return None;
        }
        if is_prime(cand) && !exclude.contains(&cand) && !out.contains(&cand) {
            out.push(cand);
        }
        cand -= stride;
    }
    Some(out)
}

/// Finds the smallest generator of the multiplicative group of `Z_p`
/// (p prime).
///
/// `g` generates the group exactly when `g^((p−1)/f) ≠ 1` for every
/// distinct prime `f | p − 1`, so the candidates `2, 3, …` are tested
/// against those primes, found by Pollard–Brent rho and Miller–Rabin
/// (microseconds even for a 60-bit `p`). That set is a property of `p − 1`
/// alone, whatever algorithm finds it, so the root returned — and with it
/// every NTT twiddle, key and ciphertext derived from it — depends only on
/// `p`.
pub fn primitive_root(p: u64) -> u64 {
    let phi = p - 1;
    let factors = factorize(phi);
    'g: for g in 2..p {
        for &f in &factors {
            if pow_mod(g, phi / f, p) == 1 {
                continue 'g;
            }
        }
        return g;
    }
    unreachable!("no primitive root found for prime {p}")
}

/// Returns a primitive `order`-th root of unity modulo prime `p`.
///
/// # Panics
///
/// Panics if `order` does not divide `p - 1`.
pub fn root_of_unity(order: u64, p: u64) -> u64 {
    assert!(
        (p - 1).is_multiple_of(order),
        "order {order} must divide p-1 ({p})"
    );
    let g = primitive_root(p);
    let root = pow_mod(g, (p - 1) / order, p);
    debug_assert_eq!(pow_mod(root, order, p), 1);
    debug_assert_ne!(pow_mod(root, order / 2, p), 1);
    root
}

/// The distinct prime factors of `n ≥ 1`, ascending.
///
/// Strips the power of two, then splits the odd cofactor with
/// Pollard–Brent rho ([`rho_divisor`]) until every part passes the
/// deterministic [`is_prime`]. An NTT prime's `p − 1 = 2N·m` usually has a
/// large prime or semiprime cofactor `m` (for a 60-bit `p`, `m` can exceed
/// 2^45), which trial division pays ~√m divisions for; rho splits a
/// composite `m` in about `√f` steps for its smallest prime factor `f`
/// (at most `m^¼`), and a prime `m` costs one Miller–Rabin test. The
/// result is sorted and deduplicated, so it is the same set in the same
/// order however the cofactor happened to split.
fn factorize(n: u64) -> Vec<u64> {
    debug_assert!(n > 0);
    let mut factors = Vec::new();
    if n.is_multiple_of(2) {
        factors.push(2);
    }
    let mut pending = vec![n >> n.trailing_zeros()];
    while let Some(m) = pending.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            factors.push(m);
            continue;
        }
        let d = rho_divisor(m);
        pending.push(d);
        pending.push(m / d);
    }
    factors.sort_unstable();
    factors.dedup();
    factors
}

/// A proper divisor of the odd composite `n`, by Brent's variant of
/// Pollard's rho over `x ↦ x² + c (mod n)`: the walk cycles modulo an
/// unknown prime factor long before it cycles modulo `n`, and the gcd of
/// the accumulated differences with `n` exposes that factor. Differences
/// are multiplied together in batches so one gcd serves many steps; a
/// batch whose product collapses to `0 (mod n)` is replayed step by step,
/// and a walk that only finds `n` itself restarts with the next `c`.
/// Deterministic: the same `n` always takes the same walk.
fn rho_divisor(n: u64) -> u64 {
    debug_assert!(n % 2 == 1 && n > 1 && !is_prime(n));
    const BATCH: u64 = 128;
    let step = |x: u64, c: u64| ((x as u128 * x as u128 + c as u128) % n as u128) as u64;
    for c in 1..n {
        let (mut x, mut y, mut ys) = (0u64, 2u64, 2u64);
        let (mut g, mut r, mut q) = (1u64, 1u64, 1u64);
        while g == 1 {
            x = y;
            for _ in 0..r {
                y = step(y, c);
            }
            let mut k = 0;
            while k < r && g == 1 {
                ys = y;
                for _ in 0..BATCH.min(r - k) {
                    y = step(y, c);
                    q = mul_mod(q, x.abs_diff(y), n);
                }
                g = gcd(q, n);
                k += BATCH;
            }
            r *= 2;
        }
        if g == n {
            // The batch overshot (or the walk closed on itself): replay it
            // one difference at a time.
            loop {
                ys = step(ys, c);
                g = gcd(x.abs_diff(ys), n);
                if g > 1 {
                    break;
                }
            }
        }
        if g != n {
            return g;
        }
    }
    unreachable!("rho found no divisor of composite {n}")
}

/// Greatest common divisor (Euclid).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_mod_ops() {
        let p = 65537;
        assert_eq!(add_mod(65536, 1, p), 0);
        assert_eq!(sub_mod(0, 1, p), 65536);
        assert_eq!(mul_mod(65536, 65536, p), 1); // (-1)^2 = 1
        assert_eq!(pow_mod(3, 65536, p), 1); // Fermat
        assert_eq!(mul_mod(inv_mod(12345, p), 12345, p), 1);
    }

    #[test]
    fn overflow_safe_add() {
        let p = (1u64 << 62) - 57; // not prime necessarily; add_mod only needs m
        let a = p - 1;
        assert_eq!(add_mod(a, a, p), p - 2);
    }

    #[test]
    fn barrett_matches_plain() {
        for p in [
            3u64,
            65537,
            ntt_primes(50, 1 << 13, 1, &[])[0],
            ntt_primes(60, 64, 1, &[])[0],
        ] {
            let bar = Barrett::new(p);
            for a in [0u64, 1, 2, p - 1, p / 2, 0xdead_beef % p] {
                for b in [0u64, 1, p - 1, p / 3, 0x1234_5678 % p] {
                    assert_eq!(bar.mul_mod(a, b), mul_mod(a, b, p), "p={p} a={a} b={b}");
                }
            }
            // reduce handles full-width inputs, not just products of residues
            assert_eq!(bar.reduce(u128::MAX), (u128::MAX % p as u128) as u64);
            assert_eq!(bar.reduce_u64(u64::MAX), u64::MAX % p);
        }
    }

    #[test]
    fn shoup_matches_plain() {
        let p = ntt_primes(50, 1 << 13, 1, &[])[0];
        let w = 0x1234_5678 % p;
        let ws = shoup_precompute(w, p);
        for a in [0u64, 1, 2, p - 1, p / 2, 0xdeadbeef % p] {
            assert_eq!(mul_mod_shoup(a, w, ws, p), mul_mod(a, w, p));
        }
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(65537));
        assert!(is_prime((1 << 61) - 1)); // Mersenne prime M61
        assert!(!is_prime(1));
        assert!(!is_prime(65536));
        assert!(!is_prime(3215031751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn ntt_prime_search() {
        let n = 8192u64;
        let ps = ntt_primes(50, 2 * n, 4, &[]);
        assert_eq!(ps.len(), 4);
        for &p in &ps {
            assert!(is_prime(p));
            assert_eq!(p % (2 * n), 1);
            assert!(p < (1 << 50));
        }
        // excluded primes are skipped
        let more = ntt_primes(50, 2 * n, 2, &ps);
        assert!(more.iter().all(|p| !ps.contains(p)));
    }

    #[test]
    fn roots_of_unity() {
        let p = 65537u64;
        let root = root_of_unity(16384, p); // 2N for N = 8192
        assert_eq!(pow_mod(root, 16384, p), 1);
        assert_ne!(pow_mod(root, 8192, p), 1);
        // psi^N = -1 for negacyclic
        assert_eq!(pow_mod(root, 8192, p), p - 1);
    }

    #[test]
    fn primitive_root_of_fermat_prime() {
        // 3 is the canonical primitive root of 65537.
        assert_eq!(primitive_root(65537), 3);
    }

    /// The factorization `primitive_root` used before Pollard–Brent rho:
    /// trial division up to the square root, distinct primes ascending.
    /// Kept as the oracle [`factorize`] must agree with.
    fn trial_division(mut n: u64) -> Vec<u64> {
        let mut factors = Vec::new();
        let mut d = 2u64;
        while d * d <= n {
            if n.is_multiple_of(d) {
                factors.push(d);
                while n.is_multiple_of(d) {
                    n /= d;
                }
            }
            d += 1;
        }
        if n > 1 {
            factors.push(n);
        }
        factors
    }

    /// Every prime a context roots, once each, in generation order: the plaintext
    /// modulus 65537, the longest BFV chain per `(N, bits)` of
    /// `bfv::params`' candidate table (`≡ 1 mod 2N`), the longest BGV chain
    /// per `(N, bits)` of `bgv::params`' table (`≡ 1 mod 2N·t`), and the
    /// first twelve 60-bit BEHZ auxiliary primes at each degree — more
    /// than the longest chain in either table needs.
    fn context_primes() -> Vec<u64> {
        const T: u64 = 65537;
        const BFV_CHAINS: [(u64, u32, usize); 6] = [
            (1024, 45, 3),
            (2048, 46, 3),
            (4096, 46, 4),
            (8192, 50, 5),
            (8192, 53, 6),
            (16384, 55, 9),
        ];
        const BGV_CHAINS: [(u64, u32, usize); 7] = [
            (1024, 45, 3),
            (2048, 46, 3),
            (4096, 46, 5),
            (8192, 50, 5),
            (8192, 53, 6),
            (8192, 54, 7),
            (16384, 55, 12),
        ];
        let mut primes = vec![T];
        for (n, bits, count) in BFV_CHAINS {
            primes.extend(ntt_primes(bits, 2 * n, count, &[T]));
        }
        for (n, bits, count) in BGV_CHAINS {
            primes.extend(primes_in_progression(bits, 2 * n * T, count, &[T]).unwrap());
        }
        for log_n in 10..=14 {
            primes.extend(ntt_primes(60, 2 << log_n, 12, &[T]));
        }
        let mut seen = std::collections::HashSet::new();
        primes.retain(|&p| seen.insert(p));
        primes
    }

    /// `(p, primitive_root(p))` for [`context_primes`], recorded with the
    /// trial-division factorization. A root that moves changes ψ, every
    /// twiddle, key and ciphertext.
    const ROOT_TABLE: &[(u64, u64)] = &[
        (65537, 3),
        (35184372060161, 3),
        (35184371986433, 3),
        (35184371961857, 3),
        (70368744067073, 5),
        (70368743755777, 5),
        (70368743669761, 7),
        (70368743587841, 3),
        (70368743489537, 3),
        (70368743374849, 14),
        (1125899906826241, 22),
        (1125899906629633, 10),
        (1125899905744897, 7),
        (1125899905351681, 13),
        (1125899905220609, 3),
        (9007199254429697, 3),
        (9007199254364161, 31),
        (9007199254331393, 3),
        (9007199253921793, 5),
        (9007199252840449, 7),
        (9007199252807681, 3),
        (36028797017456641, 7),
        (36028797016178689, 11),
        (36028797014704129, 7),
        (36028797014573057, 3),
        (36028797014376449, 3),
        (36028797014081537, 3),
        (36028797013327873, 5),
        (36028797013098497, 3),
        (36028797013000193, 3),
        (35182090344449, 3),
        (35180748146689, 11),
        (35180479707137, 3),
        (70366059765761, 3),
        (70358275018753, 5),
        (70356664381441, 23),
        (70346732118017, 3),
        (70335457656833, 3),
        (70320425041921, 7),
        (70306466185217, 3),
        (1125889168998401, 3),
        (1125874136383489, 14),
        (1125873062625281, 3),
        (1125818300956673, 3),
        (1125812932165633, 7),
        (9007176703721473, 5),
        (9007131605876737, 10),
        (9007092950581249, 7),
        (9007072549175297, 3),
        (9007053221527553, 3),
        (9007038188912641, 13),
        (18014384546430977, 3),
        (18014343743619073, 5),
        (18014336227311617, 3),
        (18014333006036993, 3),
        (18014297572016129, 3),
        (18014269654302721, 26),
        (18014234220281857, 10),
        (36028786272993281, 6),
        (36028700372336641, 11),
        (36028681044688897, 5),
        (36028674602139649, 17),
        (36028638094360577, 3),
        (36028635946844161, 17),
        (36028509243375617, 3),
        (36028481325662209, 7),
        (36028457702981633, 3),
        (36028449112915969, 7),
        (36028438375333889, 3),
        (36028384687423489, 73),
        (1152921504606830593, 10),
        (1152921504606791681, 3),
        (1152921504606748673, 3),
        (1152921504606683137, 5),
        (1152921504606631937, 3),
        (1152921504606601217, 3),
        (1152921504606588929, 3),
        (1152921504606584833, 10),
        (1152921504606570497, 3),
        (1152921504606515201, 6),
        (1152921504606504961, 7),
        (1152921504606441473, 5),
        (1152921504606375937, 5),
        (1152921504606195713, 3),
        (1152921504606109697, 3),
        (1152921504606031873, 5),
        (1152921504605962241, 3),
        (1152921504605913089, 3),
        (1152921504605847553, 7),
        (1152921504605822977, 5),
        (1152921504605618177, 5),
        (1152921504605331457, 7),
        (1152921504604979201, 3),
        (1152921504604766209, 14),
        (1152921504600260609, 3),
        (1152921504599080961, 3),
        (1152921504598720513, 5),
        (1152921504597114881, 6),
        (1152921504597016577, 3),
        (1152921504596525057, 3),
        (1152921504595968001, 13),
    ];

    #[test]
    fn primitive_roots_of_context_primes_are_pinned() {
        let table: Vec<(u64, u64)> = context_primes()
            .into_iter()
            .map(|p| (p, primitive_root(p)))
            .collect();
        if table != ROOT_TABLE {
            let rows: String = table
                .iter()
                .map(|(p, g)| format!("    ({p}, {g}),\n"))
                .collect();
            panic!("primitive-root table moved; new table:\n{rows}");
        }
    }

    #[test]
    fn factorize_matches_trial_division() {
        for p in context_primes() {
            assert_eq!(factorize(p - 1), trial_division(p - 1), "p - 1 = {}", p - 1);
        }
        // Every small value, including prime powers and the squares of
        // small primes that a rho walk can close on without splitting.
        for n in 1..20_000 {
            assert_eq!(factorize(n), trial_division(n), "n = {n}");
        }
    }

    /// 62-bit values whose cofactor defeats trial division: a product of
    /// two ~31-bit primes, `2·q` with `q` prime, a prime square, and a
    /// prime times a 2^k·3^j smooth part. Trial division on these takes
    /// ~2^31 steps, so each is checked against its construction; the same
    /// shapes at ~40 bits are also checked against [`trial_division`].
    #[test]
    fn factorize_splits_large_cofactors() {
        let below = |bits: u32, k: usize| primes_in_progression(bits, 2, k, &[]).unwrap();
        let [a, b] = below(31, 2)[..] else {
            unreachable!()
        };
        let q61 = below(61, 1)[0];
        let c = below(44, 1)[0];
        let cases: [(u64, Vec<u64>); 4] = [
            (a * b, vec![b, a]),
            (2 * q61, vec![2, q61]),
            (a * a, vec![a]),
            ((1 << 12) * 9 * 5 * c, vec![2, 3, 5, c]),
        ];
        for (n, want) in cases {
            assert!(n >= 1 << 61, "{n} is not a 62-bit case");
            assert_eq!(factorize(n), want, "n = {n}");
        }
        let [a, b] = below(20, 2)[..] else {
            unreachable!()
        };
        let q39 = below(39, 1)[0];
        for n in [a * b, 2 * q39, a * a, a * a * b, 9 * 7 * q39] {
            assert_eq!(factorize(n), trial_division(n), "n = {n}");
        }
    }
}
