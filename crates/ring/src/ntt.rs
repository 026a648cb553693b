//! Negacyclic number-theoretic transform over `Z_p[x]/(x^N + 1)`.
//!
//! The forward transform maps coefficients to evaluations at the odd powers
//! of a primitive 2N-th root of unity ψ, in the **natural order**
//! `out[j] = m(ψ^(2j+1))`. Pinning the evaluation order (instead of the usual
//! bit-reversed convention) is what lets the batch encoder map SIMD slots to
//! Galois-orbit positions directly; see [`crate::encoding`]. Both directions
//! take and return canonical residues in `[0, p)`.
//!
//! # Algorithm
//!
//! **Forward:** Cooley–Tukey butterflies on natural-order input with the ψ
//! twist merged into the twiddles (Longa–Naehrig): stage `m` (`m = 1, 2, …,
//! N/2`) multiplies by `ψ^brv(m + i)`, where `brv` reverses `log2 N` bits, so
//! no separate `ψ^i` pass runs. The butterflies leave the evaluations in
//! bit-reversed order; one bit-reversal at the end restores natural order.
//!
//! **Inverse:** one bit-reversal, then Gentleman–Sande butterflies with the
//! merged `ψ^-brv(h + i)` twiddles. The `N^-1` scaling is folded into the
//! last stage: its sum output is multiplied by `N^-1` and its difference
//! output by `ψ^-brv(1)·N^-1`, so no separate scaling pass runs either.
//!
//! # Lazy-range invariants
//!
//! Butterflies use Harvey's lazy reduction: a Shoup product `a·w mod p` is
//! left in `[0, 2p)` for any `a < 2^64`, and sums are not reduced to `[0, p)`
//! until the last stage.
//!
//! - Forward: every value stays in `[0, 4p)` between stages. A butterfly
//!   folds its first input into `[0, 2p)` and computes `x + w·y` and
//!   `x − w·y + 2p`, both in `[0, 4p)`. The last stage reduces to `[0, p)`.
//! - Inverse: every value stays in `[0, 2p)` between stages. A butterfly
//!   computes `x + y` folded into `[0, 2p)` and `w·(x − y + 2p)` in
//!   `[0, 2p)`. The last stage's two products are reduced to `[0, p)`.
//!
//! Debug builds assert these ranges at every butterfly.
//!
//! # Precondition
//!
//! `p < 2^62`, so that `4p < 2^64` and no lazy value wraps. The tables
//! assert it; [`crate::params::RlweParams::validate`] rejects larger primes
//! before any table is built.

use crate::zq::{add_mod, inv_mod, mul_mod, pow_mod, shoup_precompute, sub_mod};

/// Largest modulus (exclusive) the lazy butterflies support: `4p < 2^64`.
pub const MAX_MODULUS: u64 = 1 << 62;

/// Log2 of the tile side of the cache-blocked bit-reversal.
const LOG_B: u32 = 3;

/// `x` with its low `bits` bits reversed (`1 ≤ bits ≤ 32`).
#[inline(always)]
fn brv(x: usize, bits: u32) -> usize {
    (x as u32).reverse_bits() as usize >> (32 - bits)
}

/// A fixed multiplicand `w < p` with its Shoup companion `⌊w·2^64 / p⌋`.
#[derive(Debug, Clone, Copy)]
struct Twiddle {
    w: u64,
    w_shoup: u64,
}

impl Twiddle {
    fn new(w: u64, p: u64) -> Self {
        Twiddle {
            w,
            w_shoup: shoup_precompute(w, p),
        }
    }

    /// `a·w mod p`, lazily in `[0, 2p)`, for any `a < 2^64`.
    #[inline(always)]
    fn mul_lazy(self, a: u64, p: u64) -> u64 {
        let q = ((a as u128 * self.w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(self.w).wrapping_sub(q.wrapping_mul(p))
    }
}

/// `x mod p` for `x < 2p` (branchless, see [`add_mod`]).
#[inline(always)]
fn reduce_2p(x: u64, p: u64) -> u64 {
    x.min(x.wrapping_sub(p))
}

/// `x mod p` for `x < 4p`.
#[inline(always)]
fn reduce_4p(x: u64, p: u64) -> u64 {
    reduce_2p(x.min(x.wrapping_sub(2 * p)), p)
}

/// Lazy Cooley–Tukey butterfly: `(x + w·y, x − w·y)` for `x, y < 4p`,
/// results in `[0, 4p)`.
#[inline(always)]
fn ct_butterfly(x: u64, y: u64, w: Twiddle, p: u64) -> (u64, u64) {
    let two_p = 2 * p;
    debug_assert!(
        x < 2 * two_p && y < 2 * two_p,
        "forward input out of [0, 4p)"
    );
    let x = x.min(x.wrapping_sub(two_p));
    let v = w.mul_lazy(y, p);
    (x + v, x + two_p - v)
}

/// Lazy Gentleman–Sande butterfly: `(x + y, w·(x − y))` for `x, y < 2p`,
/// results in `[0, 2p)`.
#[inline(always)]
fn gs_butterfly(x: u64, y: u64, w: Twiddle, p: u64) -> (u64, u64) {
    let two_p = 2 * p;
    debug_assert!(x < two_p && y < two_p, "inverse input out of [0, 2p)");
    let s = x + y;
    (s.min(s.wrapping_sub(two_p)), w.mul_lazy(x + two_p - y, p))
}

/// One butterfly stage: block `i` of `2t` entries pairs entry `j` with
/// entry `j + t` under twiddle `tw[i]`.
#[inline(always)]
fn stage(
    a: &mut [u64],
    t: usize,
    tw: &[Twiddle],
    butterfly: impl Fn(u64, u64, Twiddle) -> (u64, u64),
) {
    if t == 1 {
        for (pair, &w) in a.chunks_exact_mut(2).zip(tw) {
            (pair[0], pair[1]) = butterfly(pair[0], pair[1], w);
        }
        return;
    }
    for (block, &w) in a.chunks_exact_mut(2 * t).zip(tw) {
        let (lo, hi) = block.split_at_mut(t);
        // Two butterflies per iteration: LLVM vectorizes a one-butterfly
        // body with emulated 64×64-bit products, slower than scalar code.
        for (x, y) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
            let (x0, y0) = butterfly(x[0], y[0], w);
            let (x1, y1) = butterfly(x[1], y[1], w);
            (x[0], y[0], x[1], y[1]) = (x0, y0, x1, y1);
        }
    }
}

/// Swaps `a[i]` and `a[brv(i)]` for every `i` (`a.len()` a power of two
/// ≥ 2).
fn bit_reverse(a: &mut [u64]) {
    let n = a.len();
    let k = n.trailing_zeros();
    if k < 2 * LOG_B {
        // Too short for one tile; and cache-resident, so blocking gains
        // nothing.
        for i in 0..n {
            let j = brv(i, k);
            if i < j {
                a.swap(i, j);
            }
        }
        return;
    }
    // Cache-blocked: index bits split as (hi: LOG_B, mid, lo: LOG_B), and
    // brv(hi, mid, lo) = (brv(lo), brv(mid), brv(hi)). Tile `mid` holds
    // B rows of B contiguous entries; it swaps with tile brv(mid)
    // through two stack buffers, transposing each. The tile side is a
    // constant so the transposes unroll: with a run-time side the
    // transform was ~20% slower at N = 4096.
    const B: usize = 1 << LOG_B;
    let mid_bits = k - 2 * LOG_B;
    let row = 1usize << (k - LOG_B);
    let mut ta = [[0u64; B]; B];
    let mut tb = [[0u64; B]; B];
    let load = |a: &[u64], mid: usize, t: &mut [[u64; B]; B]| {
        for (hi, r) in t.iter_mut().enumerate() {
            let off = hi * row + mid * B;
            r.copy_from_slice(&a[off..off + B]);
        }
    };
    let store = |a: &mut [u64], mid: usize, t: &[[u64; B]; B]| {
        for r in 0..B {
            let off = r * row + mid * B;
            let rb = brv(r, LOG_B);
            for (c, x) in a[off..off + B].iter_mut().enumerate() {
                *x = t[brv(c, LOG_B)][rb];
            }
        }
    };
    for mid in 0..1usize << mid_bits {
        let rev = if mid_bits == 0 { 0 } else { brv(mid, mid_bits) };
        if rev < mid {
            continue;
        }
        load(a, mid, &mut ta);
        if rev == mid {
            store(a, mid, &ta);
        } else {
            load(a, rev, &mut tb);
            store(a, rev, &ta);
            store(a, mid, &tb);
        }
    }
}

/// Precomputed tables for a fixed `(p, N)` pair.
///
/// # Examples
///
/// ```
/// use rlwe_ring::{ntt::NttTables, zq};
///
/// let p = zq::ntt_primes(50, 16, 1, &[])[0];
/// let tables = NttTables::new(p, 8);
/// let mut a: Vec<u64> = (0..8).collect();
/// let orig = a.clone();
/// tables.forward(&mut a);
/// tables.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTables {
    p: u64,
    n: usize,
    psi: u64,
    /// `fwd[k] = ψ^brv(k)`; entry 0 is unused.
    fwd: Vec<Twiddle>,
    /// `inv[k] = ψ^-brv(k)` for `k ≥ 2`; `inv[1] = ψ^-brv(1)·N^-1` and
    /// `inv[0] = N^-1` carry the scaling into the last stage.
    inv: Vec<Twiddle>,
}

impl NttTables {
    /// Builds tables for ring degree `n` (a power of two ≥ 2) modulo prime
    /// `p ≡ 1 (mod 2n)`, `p < 2^62`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, `2n ∤ p - 1` or `p ≥ 2^62`.
    pub fn new(p: u64, n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "n must be a power of two");
        assert!(p < MAX_MODULUS, "NTT modulus must be below 2^62");
        assert!((p - 1).is_multiple_of(2 * n as u64), "p must be 1 mod 2n");
        let psi_root = crate::zq::root_of_unity(2 * n as u64, p);
        Self::with_root(p, n, psi_root)
    }

    /// Builds tables with an explicit primitive 2n-th root ψ (used by the
    /// batch encoder so the slot map and the transform agree on ψ).
    ///
    /// Requires `p < 2^62` ([`MAX_MODULUS`]): the lazy butterflies hold
    /// values up to `4p`, which must fit a machine word.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ 2^62` or ψ is not a primitive 2n-th root of unity.
    pub fn with_root(p: u64, n: usize, psi_root: u64) -> Self {
        assert!(p < MAX_MODULUS, "NTT modulus must be below 2^62");
        assert_eq!(pow_mod(psi_root, 2 * n as u64, p), 1);
        assert_eq!(
            pow_mod(psi_root, n as u64, p),
            p - 1,
            "psi must be primitive"
        );
        let log_n = n.trailing_zeros();
        // Twiddles in bit-reversed order: table[k] = base^brv(k).
        let merged = |base: u64| -> Vec<Twiddle> {
            let mut pows = Vec::with_capacity(n);
            let mut cur = 1u64;
            for _ in 0..n {
                pows.push(cur);
                cur = mul_mod(cur, base, p);
            }
            (0..n)
                .map(|k| Twiddle::new(pows[brv(k, log_n)], p))
                .collect()
        };
        let fwd = merged(psi_root);
        let mut inv = merged(inv_mod(psi_root, p));
        let n_inv = inv_mod(n as u64, p);
        inv[1] = Twiddle::new(mul_mod(inv[1].w, n_inv, p), p);
        inv[0] = Twiddle::new(n_inv, p);
        NttTables {
            p,
            n,
            psi: psi_root,
            fwd,
            inv,
        }
    }

    /// The prime modulus.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The ring degree.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The primitive 2n-th root ψ used by this table (ψ^1).
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Forward negacyclic NTT, in place: coefficients → evaluations
    /// `out[j] = m(ψ^(2j+1))` in natural `j` order.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let (p, n) = (self.p, self.n);
        // Every stage but the last: block i of 2t entries uses fwd[m + i].
        let (mut m, mut t) = (1, n / 2);
        while t > 1 {
            stage(a, t, &self.fwd[m..2 * m], |x, y, w| {
                ct_butterfly(x, y, w, p)
            });
            m *= 2;
            t /= 2;
        }
        // Last stage (t = 1), fused with the reduction to [0, p).
        for (pair, &w) in a.chunks_exact_mut(2).zip(&self.fwd[n / 2..]) {
            let (x, y) = ct_butterfly(pair[0], pair[1], w, p);
            pair[0] = reduce_4p(x, p);
            pair[1] = reduce_4p(y, p);
        }
        bit_reverse(a);
    }

    /// Inverse negacyclic NTT, in place: evaluations → coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let (p, n) = (self.p, self.n);
        bit_reverse(a);
        // Every stage but the last: block i of 2t entries uses inv[h + i].
        let (mut h, mut t) = (n / 2, 1);
        while h > 1 {
            stage(a, t, &self.inv[h..2 * h], |x, y, w| {
                gs_butterfly(x, y, w, p)
            });
            h /= 2;
            t *= 2;
        }
        // Last stage (h = 1), fused with the N^-1 scaling and the reduction
        // to [0, p).
        let two_p = 2 * p;
        let (n_inv, w) = (self.inv[0], self.inv[1]);
        let (lo, hi) = a.split_at_mut(n / 2);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            debug_assert!(*x < two_p && *y < two_p, "inverse input out of [0, 2p)");
            let (u, v) = (*x, *y);
            *x = reduce_2p(n_inv.mul_lazy(u + v, p), p);
            *y = reduce_2p(w.mul_lazy(u + two_p - v, p), p);
        }
    }

    /// Negacyclic convolution `a * b mod (x^n + 1, p)` out of place.
    pub fn multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        fa = pointwise_mul(&fa, &fb, self.p);
        self.inverse(&mut fa);
        fa
    }
}

/// Pointwise (dyadic) product of two evaluation-form residue vectors mod
/// `p` — the whole multiply for operands already resident in the transform
/// domain, as double-CRT ciphertexts are. Barrett-reduced: the one-off
/// reducer setup amortizes over the vector, replacing a 128-bit division
/// per slot with a few word multiplies. Allocates; hot paths use the
/// `_into`/`_assign` variants with a precomputed reducer instead.
pub fn pointwise_mul(a: &[u64], b: &[u64], p: u64) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len());
    let bar = crate::zq::Barrett::new(p);
    let mut out = vec![0u64; a.len()];
    pointwise_mul_into(a, b, bar, &mut out);
    out
}

/// `out[i] = a[i] * b[i] mod p` into an existing buffer (no allocation).
pub fn pointwise_mul_into(a: &[u64], b: &[u64], bar: crate::zq::Barrett, out: &mut [u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = bar.mul_mod(x, y);
    }
}

/// `a[i] *= b[i] mod p` in place (no allocation).
pub fn pointwise_mul_assign(a: &mut [u64], b: &[u64], bar: crate::zq::Barrett) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = bar.mul_mod(*x, y);
    }
}

/// `acc[i] += a[i] * b[i] mod p` in place (no allocation) — the
/// fused-multiply-accumulate the tensor's cross term needs.
pub fn pointwise_mul_add_into(acc: &mut [u64], a: &[u64], b: &[u64], bar: crate::zq::Barrett) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), acc.len());
    let p = bar.modulus();
    for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *o = add_mod(*o, bar.mul_mod(x, y), p);
    }
}

/// Schoolbook negacyclic multiplication, O(n²) — reference for tests.
pub fn negacyclic_mul_schoolbook(a: &[u64], b: &[u64], p: u64) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let prod = mul_mod(ai, bj, p);
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], prod, p);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zq;
    use rand::{Rng, SeedableRng};

    fn table(n: usize) -> NttTables {
        let p = zq::ntt_primes(50, 2 * n as u64, 1, &[])[0];
        NttTables::new(p, n)
    }

    /// Largest degree the tests transform.
    const MAX_N: usize = 1 << 14;

    /// Tables over one NTT-friendly prime of each width the transform must
    /// support: the plaintext modulus 65537 (17 bits), the 46-bit primes of
    /// the benchmark sets, 60-bit auxiliary primes, and the 62-bit maximum.
    /// Every `n` uses the same primes (those `≡ 1 mod 2·MAX_N`).
    fn tables_for(n: usize) -> Vec<NttTables> {
        let two_max_n = 2 * MAX_N as u64;
        let mut ps = vec![65537];
        for bits in [46, 60, 62] {
            ps.push(zq::ntt_primes(bits, two_max_n, 1, &[])[0]);
        }
        ps.into_iter().map(|p| NttTables::new(p, n)).collect()
    }

    /// Random residues, plus the all-`(p − 1)` vector that drives every
    /// lazy butterfly to the top of its range.
    fn inputs(n: usize, p: u64, seed: u64) -> [Vec<u64>; 2] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        [
            (0..n).map(|_| rng.gen_range(0..p)).collect(),
            vec![p - 1; n],
        ]
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for log_n in 1..=MAX_N.trailing_zeros() {
            let n = 1usize << log_n;
            for t in tables_for(n) {
                let p = t.modulus();
                for orig in inputs(n, p, n as u64) {
                    let mut a = orig.clone();
                    t.forward(&mut a);
                    assert!(
                        a.iter().all(|&x| x < p),
                        "forward not canonical: n = {n}, p = {p}"
                    );
                    t.inverse(&mut a);
                    assert_eq!(a, orig, "n = {n}, p = {p}");
                }
            }
        }
    }

    #[test]
    fn evaluation_order_is_natural_odd_powers() {
        for log_n in 1..=6 {
            let n = 1usize << log_n;
            for t in tables_for(n) {
                let p = t.modulus();
                let psi = t.psi();
                for coeffs in inputs(n, p, 7) {
                    let mut a = coeffs.clone();
                    t.forward(&mut a);
                    for (j, &aj) in a.iter().enumerate() {
                        let point = zq::pow_mod(psi, (2 * j + 1) as u64, p);
                        // Horner evaluation
                        let mut acc = 0u64;
                        for &c in coeffs.iter().rev() {
                            acc = add_mod(mul_mod(acc, point, p), c, p);
                        }
                        assert_eq!(aj, acc, "n = {n}, p = {p}, slot {j}");
                    }
                }
            }
        }
    }

    /// The cache-blocked reversal (n ≥ 64) and the plain one (smaller n)
    /// both apply exactly `a[i] ↔ a[brv(i)]`.
    #[test]
    fn bit_reverse_matches_definition() {
        for log_n in 1..=MAX_N.trailing_zeros() {
            let n = 1usize << log_n;
            let mut a: Vec<u64> = (0..n as u64).collect();
            bit_reverse(&mut a);
            for (i, &x) in a.iter().enumerate() {
                assert_eq!(
                    x as usize,
                    (i as u32).reverse_bits() as usize >> (32 - log_n)
                );
            }
        }
    }

    #[test]
    fn multiply_matches_schoolbook() {
        for n in [4usize, 16, 64] {
            for t in tables_for(n) {
                let p = t.modulus();
                for (a, b) in inputs(n, p, 42 + n as u64).iter().zip(&inputs(n, p, 43)) {
                    assert_eq!(t.multiply(a, b), negacyclic_mul_schoolbook(a, b, p));
                }
            }
        }
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // x^(n-1) * x = x^n = -1 in the negacyclic ring.
        let n = 16;
        let t = table(n);
        let p = t.modulus();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let c = t.multiply(&a, &b);
        let mut expect = vec![0u64; n];
        expect[0] = p - 1;
        assert_eq!(c, expect);
    }

    #[test]
    fn works_over_plaintext_modulus_65537() {
        // Batching uses the same transform over Z_t.
        let n = 32;
        let t = NttTables::new(65537, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..65537)).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    #[should_panic(expected = "below 2^62")]
    fn rejects_modulus_at_2_pow_62() {
        // An NTT-friendly 63-bit prime: 4p would overflow the lazy range.
        let p = (1..)
            .map(|k: u64| (1u64 << 63) - k * 64 + 1)
            .find(|&p| zq::is_prime(p))
            .unwrap();
        NttTables::new(p, 32);
    }
}
