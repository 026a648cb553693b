//! RNS-decomposition key switching, shared by every RLWE scheme in the
//! workspace.
//!
//! A key-switch key from `s'` to `s` has one part per RNS prime:
//! `ksk_i = (b_i, a_i)` with `b_i = -(a_i·s + ε_i) + γ_i·s'`, where `γ_i` is
//! the CRT unit (`1 mod q_i`, `0 mod q_j`) and `ε_i` is the key-generation
//! error — raw `e_i` for BFV, `t·e_i` for BGV (whose noise lives on the
//! multiples-of-`t` lattice). Key switching a polynomial `d` under `s'`
//! computes `Σ_i lift([d]_{q_i}) ⊙ ksk_i`, whose parts sum to `≈ d·s'`
//! under `s` with only small added noise (each digit is `< q_i`).
//!
//! All key polynomials are stored in **evaluation (double-CRT) form**, so
//! the inner products of key switching are pointwise. They are summed
//! lazily: per output coefficient, `acc + Σ_i digit_i·key_i` runs in a
//! `u128` and meets one exact Barrett reduction (SEAL's key-switch inner
//! product), so a key stores only its `2·k²·N` residues and no per-residue
//! precomputation. That is 8 bytes per residue: 21.2 MB at N = 16384 with
//! nine primes, 1.6 MB at N = 4096 with five, 0.59 MB at N = 4096 with
//! three and 0.15 MB at N = 1024 with three. A stored Shoup companion per
//! residue would double each.

use crate::poly::{PolyForm, RingContext, RnsPoly};
use crate::pool::ScratchPool;
use crate::zq::{add_mod, Barrett};
use rand::Rng;

/// A key-switch key from some `s'` back to `s` (one part per RNS prime).
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `(b_i, a_i)` in evaluation form.
    pub parts: Vec<(RnsPoly, RnsPoly)>,
}

/// Samples an error polynomial in evaluation form, multiplied by the
/// scalar with per-prime residues `scale` when given (BGV's `t·e`).
pub fn sample_scaled_error<R: Rng + ?Sized>(
    ring: &RingContext,
    scale: Option<&[u64]>,
    rng: &mut R,
) -> RnsPoly {
    let mut e = sample_scaled_error_coeff(ring, scale, rng);
    ring.make_eval(&mut e);
    e
}

/// [`sample_scaled_error`] left in coefficient form, for callers that add
/// more terms before paying the transform.
pub fn sample_scaled_error_coeff<R: Rng + ?Sized>(
    ring: &RingContext,
    scale: Option<&[u64]>,
    rng: &mut R,
) -> RnsPoly {
    let e = ring.sample_error(rng);
    match scale {
        Some(scale) => ring.mul_scalar_residues(&e, scale),
        None => e,
    }
}

/// Builds a key-switch key whose source key is `target` (e.g. `s²` or
/// `σ_g(s)`, in evaluation form) under destination secret `s`.
///
/// `error_scale`, when present, gives per-prime residues a scalar to fold
/// into each sampled error (`ε_i = scale·e_i`) — BGV passes `t mod q_j`
/// here so key-switch noise stays a multiple of the plaintext modulus;
/// BFV passes `None`. The sampling order (per prime: uniform `a_i`, then
/// error `e_i`) is part of the determinism contract — changing it changes
/// every derived key for a given seed.
pub fn key_switch_key<R: Rng + ?Sized>(
    ring: &RingContext,
    s: &RnsPoly,
    target: &RnsPoly,
    error_scale: Option<&[u64]>,
    rng: &mut R,
) -> KeySwitchKey {
    let k = ring.num_primes();
    let mut parts = Vec::with_capacity(k);
    for i in 0..k {
        let a_i = ring.sample_uniform(rng);
        let e_i = sample_scaled_error(ring, error_scale, rng);
        let mut b_i = ring.neg(&ring.add(&ring.mul(&a_i, s), &e_i));
        // Add γ_i · target: in RNS, γ_i is the unit vector at component
        // i, so only component i of `target` contributes — and because
        // reduction commutes with the NTT, the same componentwise add
        // is valid in evaluation form.
        let p = ring.primes()[i];
        for c in 0..ring.degree() {
            b_i.residues[i][c] = add_mod(b_i.residues[i][c], target.residues[i][c], p);
        }
        parts.push((b_i, a_i));
    }
    KeySwitchKey { parts }
}

/// Lifts digit `i` of the coefficient view `d_coeff` (row `i`) into prime
/// `j`'s residue field (the identity when `i == j`, a Barrett reduction
/// otherwise) and forward-transforms it there: `NTT_j(lift([d]_{q_i}))`.
/// The shared decompose kernel of [`key_switch_into`] and
/// [`hoist_decompose`].
#[inline]
fn lift_digit_row(ring: &RingContext, d_coeff: &[Vec<u64>], i: usize, j: usize, out: &mut [u64]) {
    let src = &d_coeff[i];
    if i == j {
        out.copy_from_slice(src);
    } else {
        let bar = ring.barretts()[j];
        for (dst, &x) in out.iter_mut().zip(src) {
            *dst = bar.reduce_u64(x);
        }
    }
    ring.ntt(j).forward(out);
}

/// The diagonal digit row `NTT_i(lift([d]_{q_i}))` at prime `i`, when `d`
/// already holds it: for an evaluation-form `d` the lift at its own prime
/// is the identity and `NTT_i(NTT_i⁻¹(d_i)) = d_i`, so the row is
/// `d.residues[i]` itself and costs no transform. `None` off the diagonal
/// or for a coefficient-form `d`.
#[inline]
fn diagonal_digit_row<'a>(
    ring: &RingContext,
    d: &'a RnsPoly,
    i: usize,
    j: usize,
) -> Option<&'a [u64]> {
    if i != j || d.form() != PolyForm::Eval {
        return None;
    }
    let row = &d.residues[i];
    let p = ring.primes()[i];
    debug_assert!(
        row.iter().all(|&x| x < p),
        "reused diagonal digit row is not canonical mod {p}"
    );
    Some(row)
}

/// How many digit × key products a `u128` accumulator seeded with a
/// canonical residue mod `p` absorbs before it must be reduced:
/// `⌊(2^128 − p)/(p − 1)²⌋`, so that `(p − 1) + m·(p − 1)² < 2^128`. At
/// least 16 for any `p < 2^62`, and at least 64 below 2^61.
fn lazy_fold_limit(p: u64) -> usize {
    let top = u128::from(p - 1);
    usize::try_from((u128::MAX - top) / (top * top)).unwrap_or(usize::MAX)
}

/// The lazy inner product at one prime, shared by [`key_switch_into`] and
/// [`key_switch_hoisted_into`]: two pooled `u128` rows absorb every digit
/// row's products with key part `i`'s residues unreduced, and each output
/// coefficient meets one exact reduction. The first fold seeds the rows
/// from the accumulators and the last one reduces straight back into
/// them, so the wide rows are written once and read once per digit. A
/// partial reduction runs whenever one more product could overflow, which
/// only chains of more than 16 primes ever reach.
struct LazyAccumulator {
    b: Vec<u128>,
    a: Vec<u128>,
    bar: Barrett,
    /// Products the rows absorb between reductions.
    limit: usize,
    /// Products the rows can still absorb before the next reduction.
    room: usize,
    /// Digits folded so far at this prime, and how many there are.
    folded: usize,
    digits: usize,
}

impl LazyAccumulator {
    /// Pooled rows for `ring`; [`LazyAccumulator::start`] picks the prime.
    fn take(ring: &RingContext, pool: &ScratchPool) -> Self {
        LazyAccumulator {
            b: pool.take_wide_row(ring.degree()),
            a: pool.take_wide_row(ring.degree()),
            bar: ring.barretts()[0],
            limit: 0,
            room: 0,
            folded: 0,
            digits: 0,
        }
    }

    /// Starts the sum of the `k` digit rows at prime `j`.
    fn start(&mut self, ring: &RingContext, j: usize) {
        self.bar = ring.barretts()[j];
        self.limit = lazy_fold_limit(ring.primes()[j]);
        self.room = self.limit;
        self.folded = 0;
        self.digits = ring.num_primes();
    }

    /// Adds `digit ⊙ key_b` and `digit ⊙ key_a` (canonical residues) to
    /// `acc_b`/`acc_a`, which hold canonical residues before the first
    /// fold and the reduced sums after the last.
    #[inline]
    fn fold(
        &mut self,
        digit: &[u64],
        key_b: &[u64],
        key_a: &[u64],
        acc_b: &mut [u64],
        acc_a: &mut [u64],
    ) {
        let first = self.folded == 0;
        self.folded += 1;
        let last = self.folded == self.digits;
        let bar = self.bar;
        if self.room == 0 {
            for w in self.b.iter_mut().chain(self.a.iter_mut()) {
                *w = u128::from(bar.reduce(*w));
            }
            self.room = self.limit;
        }
        self.room -= 1;
        debug_assert!(
            !first || acc_b.iter().chain(&*acc_a).all(|&x| x < bar.modulus()),
            "key-switch accumulator is not canonical mod {}",
            bar.modulus()
        );
        let mul = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let wide = self.b.iter_mut().zip(self.a.iter_mut());
        let acc = acc_b.iter_mut().zip(acc_a.iter_mut());
        let rows = digit.iter().zip(key_b).zip(key_a);
        match (first, last) {
            (true, true) => {
                for ((xb, xa), ((&d, &kb), &ka)) in acc.zip(rows) {
                    *xb = bar.reduce(u128::from(*xb) + mul(d, kb));
                    *xa = bar.reduce(u128::from(*xa) + mul(d, ka));
                }
            }
            (true, false) => {
                for (((wb, wa), (xb, xa)), ((&d, &kb), &ka)) in wide.zip(acc).zip(rows) {
                    *wb = u128::from(*xb) + mul(d, kb);
                    *wa = u128::from(*xa) + mul(d, ka);
                }
            }
            (false, false) => {
                for ((wb, wa), ((&d, &kb), &ka)) in wide.zip(rows) {
                    *wb += mul(d, kb);
                    *wa += mul(d, ka);
                }
            }
            (false, true) => {
                for (((wb, wa), (xb, xa)), ((&d, &kb), &ka)) in wide.zip(acc).zip(rows) {
                    *xb = bar.reduce(*wb + mul(d, kb));
                    *xa = bar.reduce(*wa + mul(d, ka));
                }
            }
        }
    }

    fn recycle(self, pool: &ScratchPool) {
        pool.put_wide_row(self.b);
        pool.put_wide_row(self.a);
    }
}

/// Borrows the coefficient-domain view of `d` that the off-diagonal
/// digits are lifted from: the residues themselves if already there, else
/// a pooled copy through `k` inverse transforms stored in `store` (return
/// it to the pool when done).
fn coeff_view<'a>(
    ring: &RingContext,
    pool: &ScratchPool,
    d: &'a RnsPoly,
    store: &'a mut Option<Vec<Vec<u64>>>,
) -> &'a [Vec<u64>] {
    if d.form() == PolyForm::Coeff {
        &d.residues
    } else {
        let mut m = pool.take_matrix(ring.num_primes(), ring.degree());
        for ((i, row), src) in m.iter_mut().enumerate().zip(&d.residues) {
            row.copy_from_slice(src);
            ring.ntt(i).inverse(row);
        }
        &*store.insert(m)
    }
}

/// Key-switches `d` (any form) through `ksk`, accumulating the result into
/// `acc_b`/`acc_a` (evaluation form): digit-decomposes `d` per RNS prime,
/// lifts each digit to all primes, and folds the pointwise key inner
/// products into the accumulators. Scratch rows come from `pool`.
///
/// This is the streaming one-shot form — each digit row is lifted,
/// transformed, and consumed in place through a single scratch row. An
/// evaluation-form `d` (the steady state) costs `k` inverse plus `k² − k`
/// forward NTTs: digit `i` at its own prime `i` is `d`'s residue row `i`
/// (the lift there is the identity and the transform round-trips), read
/// without a transform; a coefficient-form `d` costs `k²` forward NTTs.
/// When several key switches share the same `d` (rotations of one
/// ciphertext), [`hoist_decompose`] + [`key_switch_hoisted_into`] pay the
/// transforms once instead.
pub fn key_switch_into(
    ring: &RingContext,
    pool: &ScratchPool,
    d: &RnsPoly,
    ksk: &KeySwitchKey,
    acc_b: &mut RnsPoly,
    acc_a: &mut RnsPoly,
) {
    let k = ring.num_primes();
    let n = ring.degree();
    assert_eq!(ksk.parts.len(), k, "key-switch key from a different ring");
    let mut d_store: Option<Vec<Vec<u64>>> = None;
    let d_coeff = coeff_view(ring, pool, d, &mut d_store);
    let mut digit = pool.take_row(n);
    let mut lazy = LazyAccumulator::take(ring, pool);
    for j in 0..k {
        lazy.start(ring, j);
        let (acc_b, acc_a) = (&mut acc_b.residues[j], &mut acc_a.residues[j]);
        for (i, (b_i, a_i)) in ksk.parts.iter().enumerate() {
            let row = match diagonal_digit_row(ring, d, i, j) {
                Some(row) => row,
                None => {
                    lift_digit_row(ring, d_coeff, i, j, &mut digit);
                    &digit
                }
            };
            lazy.fold(row, &b_i.residues[j], &a_i.residues[j], acc_b, acc_a);
        }
    }
    lazy.recycle(pool);
    pool.put_row(digit);
    if let Some(m) = d_store {
        pool.put_matrix(m);
    }
}

/// The reusable decompose phase of a key switch: every RNS digit of one
/// polynomial, lifted to all `k` primes and forward-NTT'd — for an
/// evaluation-form polynomial the `k` inverse plus `k² − k` forward
/// transforms that dominate key switching (the `k` diagonal rows are
/// copies of the input's rows), paid once and shared by every subsequent
/// accumulate ("hoisting").
///
/// `σ_g` is a ring automorphism, so applying it to the already-lifted
/// digits `D_i` preserves the decomposition identity
/// (`Σ_i σ_g(D_i)·γ_i = σ_g(Σ_i D_i·γ_i) = σ_g(d) mod Q`) and the digit
/// norms (`‖σ_g(D_i)‖ = ‖D_i‖`, so the key-switch noise bound is
/// unchanged) — and in evaluation form `σ_g` on each digit row is just the
/// cached index permutation. That is what lets `r` rotations of the same
/// ciphertext share one decomposition: each accumulate permutes the stored
/// rows instead of re-deriving digits from the rotated polynomial. The
/// permuted digits are *a* valid decomposition of `σ_g(d)`, not the
/// canonical one (`σ_g` does not commute with the coefficient-wise lift),
/// so hoisted ciphertext bits differ from the sequential rotation's while
/// decrypting identically.
#[derive(Debug)]
pub struct HoistedDecomposition {
    /// `digits[i][j]` = `NTT_j(lift([d]_{q_i}))` — digit `i` at prime `j`.
    digits: Vec<Vec<Vec<u64>>>,
}

impl HoistedDecomposition {
    /// The number of digits (= RNS primes) in the decomposition.
    pub fn num_digits(&self) -> usize {
        self.digits.len()
    }

    /// Returns the digit matrices to a scratch pool.
    pub fn recycle(self, pool: &ScratchPool) {
        for m in self.digits {
            pool.put_matrix(m);
        }
    }
}

/// Runs the decompose phase of a key switch on `d` (any form), producing a
/// [`HoistedDecomposition`] whose matrices come from `pool` (recycle with
/// [`HoistedDecomposition::recycle`]). Same transform count as
/// [`key_switch_into`]: `k` inverse plus `k² − k` forward NTTs for an
/// evaluation-form `d`, whose diagonal digit rows are copies of its own
/// rows, and `k²` forward NTTs for a coefficient-form one.
pub fn hoist_decompose(
    ring: &RingContext,
    pool: &ScratchPool,
    d: &RnsPoly,
) -> HoistedDecomposition {
    let k = ring.num_primes();
    let n = ring.degree();
    let mut d_store: Option<Vec<Vec<u64>>> = None;
    let d_coeff = coeff_view(ring, pool, d, &mut d_store);
    let mut digits = Vec::with_capacity(k);
    for i in 0..k {
        let mut m = pool.take_matrix(k, n);
        for (j, row) in m.iter_mut().enumerate() {
            match diagonal_digit_row(ring, d, i, j) {
                Some(diag) => row.copy_from_slice(diag),
                None => lift_digit_row(ring, d_coeff, i, j, row),
            }
        }
        digits.push(m);
    }
    if let Some(m) = d_store {
        pool.put_matrix(m);
    }
    HoistedDecomposition { digits }
}

/// The accumulate phase of a hoisted key switch: folds a prepared
/// decomposition through `ksk` into `acc_b`/`acc_a` (evaluation form,
/// canonical residues), optionally applying the evaluation-domain
/// automorphism permutation `perm` to every digit row first (the hoisted
/// rotation path; `None` reproduces [`key_switch_into`] bit for bit).
/// Per call this costs only `k²` row permutations, `2k²` pointwise
/// 128-bit multiply-adds and one reduction per output residue — no NTTs.
pub fn key_switch_hoisted_into(
    ring: &RingContext,
    pool: &ScratchPool,
    hd: &HoistedDecomposition,
    perm: Option<&[u32]>,
    ksk: &KeySwitchKey,
    acc_b: &mut RnsPoly,
    acc_a: &mut RnsPoly,
) {
    let k = ring.num_primes();
    let n = ring.degree();
    assert_eq!(hd.num_digits(), k, "decomposition from a different ring");
    assert_eq!(ksk.parts.len(), k, "key-switch key from a different ring");
    let mut scratch = pool.take_row(n);
    let mut lazy = LazyAccumulator::take(ring, pool);
    for j in 0..k {
        lazy.start(ring, j);
        let (acc_b, acc_a) = (&mut acc_b.residues[j], &mut acc_a.residues[j]);
        for (digit, (b_i, a_i)) in hd.digits.iter().zip(&ksk.parts) {
            let row: &[u64] = match perm {
                Some(perm) => {
                    for (dst, &src) in scratch.iter_mut().zip(perm) {
                        *dst = digit[j][src as usize];
                    }
                    &scratch
                }
                None => &digit[j],
            };
            lazy.fold(row, &b_i.residues[j], &a_i.residues[j], acc_b, acc_a);
        }
    }
    lazy.recycle(pool);
    pool.put_row(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx(n: usize, k: usize) -> RingContext {
        let primes = crate::zq::ntt_primes(45, 2 * n as u64, k, &[]);
        RingContext::new(n, primes)
    }

    /// The hoisted accumulate over canonical digits (`perm = None`) is the
    /// same computation as the streaming one-shot key switch, reassociated;
    /// and an evaluation-form input, which reuses its own rows as the
    /// diagonal digits, must by the NTT round trip key-switch exactly like
    /// its coefficient form, which transforms every digit. All four
    /// accumulators must match bit for bit at every prime count.
    #[test]
    fn hoisted_accumulate_matches_one_shot_key_switch() {
        let pool = ScratchPool::new();
        for k in 1..=3 {
            let ring = ctx(64, k);
            let mut rng = rand::rngs::StdRng::seed_from_u64(42 + k as u64);
            let s = ring.to_eval(&ring.sample_error(&mut rng));
            let s_prime = ring.to_eval(&ring.sample_error(&mut rng));
            let ksk = key_switch_key(&ring, &s, &s_prime, None, &mut rng);
            let d = ring.sample_uniform(&mut rng);
            assert_eq!(d.form(), PolyForm::Eval);
            let mut accs = Vec::new();
            for input in [d.clone(), ring.to_coeff(&d)] {
                let (mut b, mut a) = (ring.zero_eval(), ring.zero_eval());
                key_switch_into(&ring, &pool, &input, &ksk, &mut b, &mut a);
                accs.push((b, a));
                let hd = hoist_decompose(&ring, &pool, &input);
                let (mut b, mut a) = (ring.zero_eval(), ring.zero_eval());
                key_switch_hoisted_into(&ring, &pool, &hd, None, &ksk, &mut b, &mut a);
                hd.recycle(&pool);
                accs.push((b, a));
            }
            // Order: eval one-shot, eval hoisted, coeff one-shot, coeff hoisted.
            for (idx, acc) in accs.iter().enumerate().skip(1) {
                assert_eq!(acc, &accs[0], "k = {k}: accumulator {idx} diverged");
            }
        }
    }

    /// The lazy inner product at its overflow bound. With every key and
    /// accumulator residue at `p − 1`, the widest primes, and more primes
    /// than a `u128` absorbs products, each prime's sum must reduce part
    /// way through; a missed reduction overflows (a panic under overflow
    /// checks, a wrong residue without them). Hoisted digits are all
    /// `p − 1`. The one-shot input has every evaluation residue at `p − 1`,
    /// i.e. the constant `−1` at each prime, so digit `i` at prime `j` is
    /// the constant `(p_i − 1) mod p_j`; at the largest prime that is every
    /// digit within a hair of its maximum. Each output is checked against a
    /// per-element `mul_mod`/`add_mod` sum.
    #[test]
    fn lazy_accumulation_is_exact_past_the_reduction_bound() {
        use crate::zq::{mul_mod, ntt_primes};
        let n = 8;
        let pool = ScratchPool::new();
        for bits in [61, 62] {
            let limit = lazy_fold_limit(ntt_primes(bits, 2 * n as u64, 1, &[])[0]);
            let k = limit + 2;
            let ring = RingContext::new(n, ntt_primes(bits, 2 * n as u64, k, &[]));
            assert!(ring.primes().iter().all(|&p| lazy_fold_limit(p) < k));
            let mut full = ring.zero_eval();
            for (row, &p) in full.residues.iter_mut().zip(ring.primes()) {
                row.fill(p - 1);
            }
            let ksk = KeySwitchKey {
                parts: vec![(full.clone(), full.clone()); k],
            };
            // The expected residue at prime `j` when digit `i` is
            // `digit(i, j)` everywhere: acc + Σ_i digit·key, all at p − 1.
            let expect = |digit: &dyn Fn(usize, usize) -> u64| -> Vec<u64> {
                let primes = ring.primes();
                (0..k)
                    .map(|j| {
                        let p = primes[j];
                        (0..k).fold(p - 1, |acc, i| {
                            add_mod(acc, mul_mod(digit(i, j), p - 1, p), p)
                        })
                    })
                    .collect()
            };
            let check = |what: &str, acc: &RnsPoly, want: &[u64]| {
                for (j, (row, &w)) in acc.residues.iter().zip(want).enumerate() {
                    assert!(row.iter().all(|&x| x == w), "{bits}-bit {what}: prime {j}");
                }
            };
            let perm = ring.galois_eval_permutation(3);
            let primes = ring.primes().to_vec();

            let hd = HoistedDecomposition {
                digits: vec![full.residues.clone(); k],
            };
            let want = expect(&|_, j| primes[j] - 1);
            for p in [None, Some(&perm[..])] {
                let (mut b, mut a) = (full.clone(), full.clone());
                key_switch_hoisted_into(&ring, &pool, &hd, p, &ksk, &mut b, &mut a);
                check("hoisted b", &b, &want);
                check("hoisted a", &a, &want);
            }

            let want = expect(&|i, j| (primes[i] - 1) % primes[j]);
            let (mut b, mut a) = (full.clone(), full.clone());
            key_switch_into(&ring, &pool, &full, &ksk, &mut b, &mut a);
            check("one-shot b", &b, &want);
            check("one-shot a", &a, &want);
            let hd = hoist_decompose(&ring, &pool, &full);
            for p in [None, Some(&perm[..])] {
                let (mut b, mut a) = (full.clone(), full.clone());
                key_switch_hoisted_into(&ring, &pool, &hd, p, &ksk, &mut b, &mut a);
                check("decomposed b", &b, &want);
                check("decomposed a", &a, &want);
            }
            hd.recycle(&pool);
        }
    }

    /// The identity permutation through the perm path is also bit-identical
    /// (pins the permutation plumbing itself, independent of Galois data).
    #[test]
    fn identity_permutation_is_transparent() {
        let ring = ctx(32, 2);
        let pool = ScratchPool::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = ring.to_eval(&ring.sample_error(&mut rng));
        let s_prime = ring.to_eval(&ring.sample_error(&mut rng));
        let ksk = key_switch_key(&ring, &s, &s_prime, None, &mut rng);
        let d = ring.sample_uniform(&mut rng);
        let hd = hoist_decompose(&ring, &pool, &d);
        let (mut b1, mut a1) = (ring.zero_eval(), ring.zero_eval());
        key_switch_hoisted_into(&ring, &pool, &hd, None, &ksk, &mut b1, &mut a1);
        let id: Vec<u32> = (0..ring.degree() as u32).collect();
        let (mut b2, mut a2) = (ring.zero_eval(), ring.zero_eval());
        key_switch_hoisted_into(&ring, &pool, &hd, Some(&id), &ksk, &mut b2, &mut a2);
        hd.recycle(&pool);
        assert_eq!(b1, b2);
        assert_eq!(a1, a2);
    }
}
