//! Homomorphic evaluation: the SIMD instruction set Porcupine targets,
//! RNS-native end to end, shared by every scheme.
//!
//! Mirrors the SEAL evaluator surface the paper compiles to: ciphertext
//! add/sub/negate, plaintext add/sub/multiply, ciphertext multiply with
//! relinearization, and slot rotations via Galois automorphisms. Only the
//! ciphertext multiply is scheme-specific ([`SchemePolicy::multiply`]);
//! plaintext add/sub use the scheme's cached `c0` term.
//!
//! # The double-CRT invariant
//!
//! Ciphertexts and keys stay in **evaluation (double-CRT) form**
//! ([`crate::poly::PolyForm::Eval`]) between operations, so the cheap ops
//! never touch an NTT:
//!
//! * `add`/`sub`/`negate` and the plaintext ops are componentwise on
//!   evaluation residues — a plaintext operand is converted to evaluation
//!   form **once** at [`Evaluator::preencode`] (an [`EvalPlaintext`]) and
//!   reused by every later op;
//! * the Galois automorphism inside rotations is a cached index
//!   permutation of evaluation slots ([`GaloisKeys`] stores one per
//!   element);
//! * key switching transforms only the RNS *digits* of the switched
//!   polynomial (`k` inverse + `k²` forward NTTs) and then runs pointwise
//!   inner products against the NTT-resident key, Shoup-accelerated.

use crate::batch::{galois_element_for_column_swap, galois_element_for_rotation};
use crate::encoding::{EvalPlaintext, Plaintext};
use crate::encrypt::Ciphertext;
use crate::keys::{GaloisKeys, RelinKey};
use crate::keyswitch::{self, HoistedDecomposition};
use crate::ntt::{pointwise_mul_add_into, pointwise_mul_into};
use crate::poly::{PolyForm, RingContext, RnsPoly};
use crate::pool::{PoolStats, ScratchPool};
use crate::scheme::SchemePolicy;
use crate::zq::Barrett;

/// Evaluator over one context, with a private [`ScratchPool`] backing the
/// allocation-free hot path.
///
/// Every operation comes in two flavors: a pure function returning a fresh
/// ciphertext (`add`, `mul_plain`, `rotate_rows`, ...) and an in-place
/// `_assign` variant mutating its first operand (`add_assign`,
/// `mul_plain_assign`, `rotate_rows_assign`, ...). The `_assign` variants
/// plus cached [`EvalPlaintext`]s (see [`Evaluator::preencode`]) are the
/// hot path: after a warm-up call per operation shape they perform **zero**
/// heap allocations — temporaries come from the pool, and dead ciphertexts
/// can be returned to it with [`Evaluator::recycle`]. The pure variants are
/// `clone` + `_assign`, so both flavors are bit-identical.
///
/// The pool uses interior mutability, so an `Evaluator` is not `Sync`;
/// create one per worker thread over a shared context.
#[derive(Debug)]
pub struct Evaluator<'a, C> {
    ctx: &'a C,
    pool: ScratchPool,
}

impl<'a, C: SchemePolicy> Evaluator<'a, C> {
    /// Creates an evaluator with an empty scratch pool.
    pub fn new(ctx: &'a C) -> Self {
        Evaluator {
            ctx,
            pool: ScratchPool::new(),
        }
    }

    /// The context this evaluator runs over.
    pub fn context(&self) -> &'a C {
        self.ctx
    }

    /// The scratch pool (for scheme-specific operations built on top).
    pub fn pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Allocation counters of the scratch pool — `fresh` staying constant
    /// across a window of operations proves the window allocated nothing
    /// (the allocation-regression tests pin exactly that).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Returns a dead ciphertext's buffers to the scratch pool so later
    /// operations reuse them instead of allocating. Callers that know a
    /// value's last use (e.g. the IR runner's liveness analysis) feed the
    /// steady state this way.
    pub fn recycle(&self, ct: Ciphertext) {
        let mut parts = ct.parts;
        for part in parts.drain(..) {
            self.pool.put_matrix(part.residues);
        }
        self.pool.put_parts(parts);
    }

    /// A pooled all-zero polynomial in evaluation form.
    fn take_poly_zeroed(&self) -> RnsPoly {
        let ring = self.ctx.ring();
        RnsPoly {
            residues: self
                .pool
                .take_matrix_zeroed(ring.num_primes(), ring.degree()),
            form: PolyForm::Eval,
        }
    }

    fn put_poly(&self, p: RnsPoly) {
        self.pool.put_matrix(p.residues);
    }

    /// Slot-wise sum of two ciphertexts. Mismatched sizes zero-pad the
    /// shorter operand (a missing part is the zero polynomial).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        self.add_assign(&mut out, b);
        out
    }

    /// `a += b` slot-wise, in place and allocation-free in the steady
    /// state (pool buffers pad `a` if `b` is larger).
    pub fn add_assign(&self, a: &mut Ciphertext, b: &Ciphertext) {
        self.zip_assign(a, b, RingContext::add_assign)
    }

    /// Slot-wise difference of two ciphertexts (same zero-padding contract
    /// as [`Evaluator::add`]).
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        self.sub_assign(&mut out, b);
        out
    }

    /// `a -= b` slot-wise, in place (same contract as
    /// [`Evaluator::add_assign`]).
    pub fn sub_assign(&self, a: &mut Ciphertext, b: &Ciphertext) {
        self.zip_assign(a, b, RingContext::sub_assign)
    }

    fn zip_assign(
        &self,
        a: &mut Ciphertext,
        b: &Ciphertext,
        f: fn(&RingContext, &mut RnsPoly, &RnsPoly),
    ) {
        let ring = self.ctx.ring();
        // Extra parts of `a` combine with zero and are already correct;
        // extra parts of `b` need explicit zero-padding on `a`.
        while a.parts.len() < b.parts.len() {
            a.parts.push(self.take_poly_zeroed());
        }
        for (x, y) in a.parts.iter_mut().zip(&b.parts) {
            f(ring, x, y);
        }
    }

    /// Slot-wise negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        self.negate_assign(&mut out);
        out
    }

    /// `a = -a` slot-wise, in place, allocation-free.
    pub fn negate_assign(&self, a: &mut Ciphertext) {
        let ring = self.ctx.ring();
        for p in a.parts.iter_mut() {
            ring.neg_assign(p);
        }
    }

    /// Lifts a plaintext into cached evaluation form for reuse across many
    /// operations — encode once, then feed the `_plain_assign` ops. See
    /// [`EvalPlaintext`].
    pub fn preencode(&self, pt: &Plaintext) -> EvalPlaintext {
        EvalPlaintext::new(self.ctx, pt)
    }

    /// Adds an encoded plaintext to a ciphertext. Encodes on the fly; for
    /// plaintexts used more than once, [`Evaluator::preencode`] +
    /// [`Evaluator::add_plain_assign`] skips the repeated transforms.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let mut out = a.clone();
        self.add_plain_assign(&mut out, &self.preencode(pt));
        out
    }

    /// `c0 += [m]` with a cached plaintext (`[m]` is the scheme's lift):
    /// one componentwise vector add, no transforms, no allocation.
    pub fn add_plain_assign(&self, a: &mut Ciphertext, pt: &EvalPlaintext) {
        self.ctx.ring().add_assign(&mut a.parts[0], pt.c0_term());
    }

    /// Subtracts an encoded plaintext from a ciphertext (encodes on the
    /// fly; see [`Evaluator::sub_plain_assign`] for the cached path).
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let mut out = a.clone();
        self.sub_plain_assign(&mut out, &self.preencode(pt));
        out
    }

    /// `c0 -= [m]` with a cached plaintext (no transforms, no allocation).
    pub fn sub_plain_assign(&self, a: &mut Ciphertext, pt: &EvalPlaintext) {
        self.ctx.ring().sub_assign(&mut a.parts[0], pt.c0_term());
    }

    /// Multiplies a ciphertext by an encoded plaintext (slot-wise).
    /// Encodes on the fly; see [`Evaluator::mul_plain_assign`] for the
    /// cached path.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let mut out = a.clone();
        self.mul_plain_assign(&mut out, &self.preencode(pt));
        out
    }

    /// `a *= m` slot-wise with a cached plaintext: pointwise products on
    /// every part, no transforms, no allocation.
    pub fn mul_plain_assign(&self, a: &mut Ciphertext, pt: &EvalPlaintext) {
        let ring = self.ctx.ring();
        for p in a.parts.iter_mut() {
            ring.mul_assign(p, &pt.m);
        }
    }

    /// Ciphertext–ciphertext multiply, producing a size-3 ciphertext (see
    /// the scheme's [`SchemePolicy::multiply`]). Relinearize with
    /// [`Evaluator::relinearize`] before further rotations or multiplies.
    ///
    /// # Panics
    ///
    /// Panics if either input is not size 2.
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        for x in [a, b] {
            assert_eq!(
                x.size(),
                2,
                "multiply requires size-2 inputs (relinearize first)"
            );
        }
        C::multiply(self, a, b)
    }

    /// Relinearizes a size-3 ciphertext back to size 2.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not size 3.
    pub fn relinearize(&self, a: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        let mut out = a.clone();
        self.relinearize_assign(&mut out, rk);
        out
    }

    /// In-place relinearization: drops `c2`, folds its key switch into
    /// `c0`/`c1`, and recycles the dead part — allocation-free in the
    /// steady state.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not size 3.
    pub fn relinearize_assign(&self, a: &mut Ciphertext, rk: &RelinKey) {
        assert_eq!(a.size(), 3, "relinearize expects a size-3 ciphertext");
        let ring = self.ctx.ring();
        let mut acc_b = self.take_poly_zeroed();
        let mut acc_a = self.take_poly_zeroed();
        let c2 = a.parts.pop().expect("size checked");
        keyswitch::key_switch_into(ring, &self.pool, &c2, &rk.0, &mut acc_b, &mut acc_a);
        self.put_poly(c2);
        ring.add_assign(&mut a.parts[0], &acc_b);
        ring.add_assign(&mut a.parts[1], &acc_a);
        self.put_poly(acc_b);
        self.put_poly(acc_a);
    }

    /// Multiply then relinearize — the shape Porcupine's codegen emits for
    /// every ct×ct product.
    pub fn multiply_relin(&self, a: &Ciphertext, b: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        let mut prod = self.multiply(a, b);
        self.relinearize_assign(&mut prod, rk);
        prod
    }

    /// Applies the Galois automorphism `x → x^g` homomorphically. In
    /// evaluation form the automorphism itself is a cached index
    /// permutation; only the key switch afterwards does modular work.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not size 2 or no key for `g` is present.
    pub fn apply_galois(&self, a: &Ciphertext, g: u64, gk: &GaloisKeys) -> Ciphertext {
        let mut out = a.clone();
        self.apply_galois_assign(&mut out, g, gk);
        out
    }

    /// In-place Galois automorphism: permutes both parts through one
    /// pooled scratch row, key-switches `c1` into pooled accumulators, and
    /// recycles the dead part — allocation-free in the steady state.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not size 2 or no key for `g` is present.
    pub fn apply_galois_assign(&self, a: &mut Ciphertext, g: u64, gk: &GaloisKeys) {
        assert_eq!(
            a.size(),
            2,
            "apply_galois expects size-2 (relinearize first)"
        );
        if g == 1 {
            return;
        }
        let ring = self.ctx.ring();
        let entry = gk
            .keys
            .get(&g)
            .unwrap_or_else(|| panic!("missing Galois key for element {g}"));
        let mut scratch = self.pool.take_row(ring.degree());
        for part in a.parts.iter_mut() {
            ring.make_eval(part);
            ring.apply_eval_permutation_assign(part, &entry.perm, &mut scratch);
        }
        self.pool.put_row(scratch);
        let mut acc_b = self.take_poly_zeroed();
        let mut acc_a = self.take_poly_zeroed();
        keyswitch::key_switch_into(
            ring,
            &self.pool,
            &a.parts[1],
            &entry.key,
            &mut acc_b,
            &mut acc_a,
        );
        ring.add_assign(&mut a.parts[0], &acc_b);
        self.put_poly(acc_b);
        let old_c1 = std::mem::replace(&mut a.parts[1], acc_a);
        self.put_poly(old_c1);
    }

    /// Rotates both batching rows left by `steps` (negative = right) —
    /// SEAL's `rotate_rows`. Any `i64` step is accepted; rotation is cyclic
    /// with period `N/2`.
    ///
    /// # Panics
    ///
    /// Panics if the required Galois key is missing.
    pub fn rotate_rows(&self, a: &Ciphertext, steps: i64, gk: &GaloisKeys) -> Ciphertext {
        let mut out = a.clone();
        self.rotate_rows_assign(&mut out, steps, gk);
        out
    }

    /// In-place [`Evaluator::rotate_rows`].
    ///
    /// # Panics
    ///
    /// Panics if the required Galois key is missing.
    pub fn rotate_rows_assign(&self, a: &mut Ciphertext, steps: i64, gk: &GaloisKeys) {
        let n = self.ctx.params().poly_degree;
        self.apply_galois_assign(a, galois_element_for_rotation(n, steps), gk)
    }

    /// Swaps the two batching rows — SEAL's `rotate_columns`.
    ///
    /// # Panics
    ///
    /// Panics if the required Galois key is missing.
    pub fn rotate_columns(&self, a: &Ciphertext, gk: &GaloisKeys) -> Ciphertext {
        let mut out = a.clone();
        self.rotate_columns_assign(&mut out, gk);
        out
    }

    /// In-place [`Evaluator::rotate_columns`].
    ///
    /// # Panics
    ///
    /// Panics if the required Galois key is missing.
    pub fn rotate_columns_assign(&self, a: &mut Ciphertext, gk: &GaloisKeys) {
        let n = self.ctx.params().poly_degree;
        self.apply_galois_assign(a, galois_element_for_column_swap(n), gk)
    }

    /// The decompose phase of a hoisted rotation: digit-decomposes `c1`
    /// once (`k` inverse + `k²` forward NTTs — the dominant cost of a
    /// rotation's key switch) so that any number of
    /// [`Evaluator::rotate_rows_hoisted`] calls on the same ciphertext can
    /// skip it. Return the decomposition with
    /// [`Evaluator::recycle_hoisted`] when the fan is done.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not size 2.
    pub fn hoist(&self, a: &Ciphertext) -> HoistedDecomposition {
        assert_eq!(a.size(), 2, "hoist expects size-2 (relinearize first)");
        keyswitch::hoist_decompose(self.ctx.ring(), &self.pool, &a.parts[1])
    }

    /// Rotates rows by `steps` through a decomposition prepared by
    /// [`Evaluator::hoist`] on the *same* ciphertext: the stored digit rows
    /// are permuted by `σ_g` (a valid decomposition of `σ_g(c1)`, since the
    /// automorphism preserves the CRT identity and digit norms) and folded
    /// through the Galois key — per rotation only `k²` row permutations and
    /// `2k²` pointwise Shoup multiply-adds, no NTTs. Decrypts identically
    /// to [`Evaluator::rotate_rows`] with the same noise bound (a scaled
    /// key error such as BGV's `t·e` is untouched by hoisting); the raw
    /// ciphertext bits differ (the permuted digits are not the canonical
    /// decomposition of the rotated polynomial).
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not size 2 or the Galois key is missing.
    pub fn rotate_rows_hoisted(
        &self,
        a: &Ciphertext,
        hd: &HoistedDecomposition,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Ciphertext {
        assert_eq!(a.size(), 2, "hoisted rotation expects size-2");
        let ring = self.ctx.ring();
        let n = self.ctx.params().poly_degree;
        let g = galois_element_for_rotation(n, steps);
        if g == 1 {
            return a.clone();
        }
        let entry = gk
            .keys
            .get(&g)
            .unwrap_or_else(|| panic!("missing Galois key for element {g}"));
        // σ_g(c0), straight into a pooled evaluation-form poly.
        let mut c0_store = None;
        let c0 = eval_ref(ring, &a.parts[0], &mut c0_store);
        let mut b = RnsPoly {
            residues: self.pool.take_matrix(ring.num_primes(), ring.degree()),
            form: PolyForm::Eval,
        };
        for (dst_row, src_row) in b.residues.iter_mut().zip(&c0.residues) {
            for (dst, &src) in dst_row.iter_mut().zip(&entry.perm) {
                *dst = src_row[src as usize];
            }
        }
        if let Some(p) = c0_store {
            self.put_poly(p);
        }
        let mut acc_b = self.take_poly_zeroed();
        let mut acc_a = self.take_poly_zeroed();
        keyswitch::key_switch_hoisted_into(
            ring,
            &self.pool,
            hd,
            Some(&entry.perm),
            &entry.key,
            &mut acc_b,
            &mut acc_a,
        );
        ring.add_assign(&mut b, &acc_b);
        self.put_poly(acc_b);
        let mut parts = self.pool.take_parts();
        parts.push(b);
        parts.push(acc_a);
        Ciphertext { parts }
    }

    /// Returns a hoisted decomposition's buffers to the scratch pool.
    pub fn recycle_hoisted(&self, hd: HoistedDecomposition) {
        hd.recycle(&self.pool);
    }
}

/// Borrows `p` if already evaluation-resident, otherwise converts into
/// `store` (cold path) and borrows that.
pub fn eval_ref<'p>(
    ring: &RingContext,
    p: &'p RnsPoly,
    store: &'p mut Option<RnsPoly>,
) -> &'p RnsPoly {
    if p.form() == PolyForm::Eval {
        p
    } else {
        &*store.insert(ring.to_eval(p))
    }
}

/// The degree-2 tensor of `(c0, c1)` and `(d0, d1)`, pointwise per prime
/// (one [`Barrett`] reducer each) into pooled matrices:
/// `[c0·d0, c0·d1 + c1·d0, c1·d1]`. Operands are evaluation-domain residue
/// matrices over any base — `Q`, or an auxiliary base.
pub fn tensor(
    pool: &ScratchPool,
    barretts: &[Barrett],
    [c0, c1]: [&[Vec<u64>]; 2],
    [d0, d1]: [&[Vec<u64>]; 2],
) -> [Vec<Vec<u64>>; 3] {
    let n = c0[0].len();
    let product = |x: &[Vec<u64>], y: &[Vec<u64>]| {
        let mut out = pool.take_matrix(barretts.len(), n);
        for (i, &bar) in barretts.iter().enumerate() {
            pointwise_mul_into(&x[i], &y[i], bar, &mut out[i]);
        }
        out
    };
    let e0 = product(c0, d0);
    let mut e1 = product(c0, d1);
    for (i, &bar) in barretts.iter().enumerate() {
        pointwise_mul_add_into(&mut e1[i], &c1[i], &d0[i], bar);
    }
    let e2 = product(c1, d1);
    [e0, e1, e2]
}
