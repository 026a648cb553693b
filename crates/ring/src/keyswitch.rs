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
//! the inner products of key switching are pointwise; every key residue
//! additionally carries a Shoup precomputation (keys are the fixed
//! multiplicand of the digit product, the textbook Shoup setting).

use crate::poly::{PolyForm, RingContext, RnsPoly};
use crate::pool::ScratchPool;
use crate::zq::{add_mod, mul_mod_shoup, shoup_precompute};
use rand::Rng;

/// Shoup companion table of one evaluation-form key polynomial, indexed
/// `[prime][coeff]`.
pub type ShoupTable = Vec<Vec<u64>>;

/// A key-switch key from some `s'` back to `s` (one part per RNS prime),
/// with Shoup companions for the digit inner products.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `(b_i, a_i)` in evaluation form.
    pub parts: Vec<(RnsPoly, RnsPoly)>,
    /// Shoup precomputations of `parts`: `shoup[i] = (b_shoup, a_shoup)`.
    pub shoup: Vec<(ShoupTable, ShoupTable)>,
}

/// Shoup precomputations for every residue of an evaluation-form key
/// polynomial.
pub fn shoup_tables(ring: &RingContext, poly: &RnsPoly) -> ShoupTable {
    ring.primes()
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            poly.residues[i]
                .iter()
                .map(|&w| shoup_precompute(w, p))
                .collect()
        })
        .collect()
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
    let shoup = parts
        .iter()
        .map(|(b_i, a_i)| (shoup_tables(ring, b_i), shoup_tables(ring, a_i)))
        .collect();
    KeySwitchKey { parts, shoup }
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

/// Folds one NTT'd digit row into the two accumulators at prime `j`: the
/// pointwise Shoup inner product against key part `i`. The shared
/// accumulate kernel of [`key_switch_into`] and [`key_switch_hoisted_into`].
#[inline]
fn accumulate_digit_row(
    digit: &[u64],
    ksk: &KeySwitchKey,
    i: usize,
    j: usize,
    p: u64,
    acc_b: &mut [u64],
    acc_a: &mut [u64],
) {
    let (b_i, a_i) = &ksk.parts[i];
    let (b_shoup, a_shoup) = &ksk.shoup[i];
    let (bb, aa) = (&b_i.residues[j], &a_i.residues[j]);
    let (bs, asg) = (&b_shoup[j], &a_shoup[j]);
    for c in 0..digit.len() {
        acc_b[c] = add_mod(acc_b[c], mul_mod_shoup(digit[c], bb[c], bs[c], p), p);
        acc_a[c] = add_mod(acc_a[c], mul_mod_shoup(digit[c], aa[c], asg[c], p), p);
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
    let mut d_store: Option<Vec<Vec<u64>>> = None;
    let d_coeff = coeff_view(ring, pool, d, &mut d_store);
    let mut digit = pool.take_row(n);
    for i in 0..k {
        for j in 0..k {
            let p = ring.primes()[j];
            let row = match diagonal_digit_row(ring, d, i, j) {
                Some(row) => row,
                None => {
                    lift_digit_row(ring, d_coeff, i, j, &mut digit);
                    &digit
                }
            };
            accumulate_digit_row(
                row,
                ksk,
                i,
                j,
                p,
                &mut acc_b.residues[j],
                &mut acc_a.residues[j],
            );
        }
    }
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
/// pre-zeroed by the caller), optionally applying the evaluation-domain
/// automorphism permutation `perm` to every digit row first (the hoisted
/// rotation path; `None` reproduces [`key_switch_into`] bit for bit).
/// Per call this costs only `k²` row permutations and `2k²` pointwise
/// Shoup multiply-adds — no NTTs.
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
    let mut scratch = pool.take_row(n);
    for (i, digit) in hd.digits.iter().enumerate() {
        for (j, row) in digit.iter().enumerate() {
            let p = ring.primes()[j];
            let row: &[u64] = match perm {
                Some(perm) => {
                    for (dst, &src) in scratch.iter_mut().zip(perm) {
                        *dst = row[src as usize];
                    }
                    &scratch
                }
                None => row,
            };
            accumulate_digit_row(
                row,
                ksk,
                i,
                j,
                p,
                &mut acc_b.residues[j],
                &mut acc_a.residues[j],
            );
        }
    }
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
