//! SIMD batch encoding: packs `N` integers mod `t` into one plaintext
//! polynomial so HE ops act slot-wise, with the SEAL-compatible 2 × (N/2)
//! slot geometry of [`crate::batch`].
//!
//! Encoding itself is scheme-neutral — BFV and BGV encode the same slot
//! vector to the same polynomial, which is what makes cross-scheme
//! differential testing slot-exact. The scheme shows up only in the
//! ciphertext-ring lift cached by [`EvalPlaintext`]
//! ([`SchemePolicy::lift_plain`]).

use crate::poly::RnsPoly;
use crate::scheme::SchemePolicy;

/// A plaintext polynomial (coefficients mod `t`, degree `< N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    /// The coefficients (mod `t`).
    pub coeffs: Vec<u64>,
}

impl Plaintext {
    /// The raw coefficients (mod `t`).
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }
}

/// A plaintext pre-lifted into the ciphertext ring and NTT-transformed —
/// SEAL's "plaintext in NTT form", the encode-once half of the evaluator
/// hot path.
///
/// It caches what every plaintext op needs: the raw lift `m` (what
/// `mul_plain` multiplies by) and, when the scheme scales it, the `c0` term
/// of `add_plain`/`sub_plain` (BFV's `Δ·m`). Build one per distinct
/// plaintext — via [`EvalPlaintext::new`], [`BatchEncoder::encode_eval`],
/// or `Evaluator::preencode` — and reuse it: each reuse skips the per-op
/// RNS lift and `k` forward NTTs the `Plaintext`-taking entry points pay.
///
/// Results are bit-identical to the on-the-fly path: scalar multiplication
/// commutes with the NTT, so transforming `m` once and scaling in the
/// evaluation domain yields exactly the residues the coefficient-domain
/// order produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalPlaintext {
    /// The plaintext lifted to `R_Q`, evaluation form.
    pub(crate) m: RnsPoly,
    /// [`SchemePolicy::lift_plain`] of `m`, when it is not `m` itself.
    pub(crate) lifted: Option<RnsPoly>,
}

impl EvalPlaintext {
    /// Lifts and transforms `pt` once for the given context.
    pub fn new<C: SchemePolicy>(ctx: &C, pt: &Plaintext) -> Self {
        let ring = ctx.ring();
        let m = ring.to_eval(&ring.from_u64_coeffs(&pt.coeffs));
        let lifted = ctx.lift_plain(&m);
        EvalPlaintext { m, lifted }
    }

    /// What the plaintext adds to `c0`.
    pub(crate) fn c0_term(&self) -> &RnsPoly {
        self.lifted.as_ref().unwrap_or(&self.m)
    }
}

/// Encoder/decoder between slot vectors and plaintext polynomials.
#[derive(Debug)]
pub struct BatchEncoder<'a, C> {
    ctx: &'a C,
    /// `slot_to_eval[slot] = j` where the slot's value is the evaluation at
    /// `ψ^(2j+1)` (the natural-order output index of the plaintext NTT).
    slot_to_eval: Vec<usize>,
}

impl<'a, C: SchemePolicy> BatchEncoder<'a, C> {
    /// Builds the slot map for a context.
    pub fn new(ctx: &'a C) -> Self {
        let slot_to_eval = crate::batch::slot_to_eval_map(ctx.params().poly_degree);
        BatchEncoder { ctx, slot_to_eval }
    }

    /// Total number of slots (`N`).
    pub fn slot_count(&self) -> usize {
        self.ctx.params().poly_degree
    }

    /// Slots per row (`N/2`).
    pub fn row_size(&self) -> usize {
        self.ctx.params().poly_degree / 2
    }

    /// Encodes a slot vector (values mod `t`; shorter vectors are
    /// zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > N`.
    pub fn encode(&self, values: &[u64]) -> Plaintext {
        let n = self.slot_count();
        assert!(values.len() <= n, "too many values for {n} slots");
        let t = self.ctx.params().plain_modulus;
        let mut evals = vec![0u64; n];
        for (slot, &v) in values.iter().enumerate() {
            evals[self.slot_to_eval[slot]] = v % t;
        }
        self.ctx.plain_ntt().inverse(&mut evals);
        Plaintext { coeffs: evals }
    }

    /// Encodes a slot vector straight into evaluation form — the
    /// encode-once entry point for plaintexts reused across many ops.
    pub fn encode_eval(&self, values: &[u64]) -> EvalPlaintext {
        EvalPlaintext::new(self.ctx, &self.encode(values))
    }

    /// Encodes signed values (centered mod `t`).
    pub fn encode_signed(&self, values: &[i64]) -> Plaintext {
        let t = self.ctx.params().plain_modulus as i64;
        let unsigned: Vec<u64> = values.iter().map(|&v| (v.rem_euclid(t)) as u64).collect();
        self.encode(&unsigned)
    }

    /// Decodes a plaintext back to its `N` slot values.
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        let mut evals = pt.coeffs.clone();
        self.ctx.plain_ntt().forward(&mut evals);
        let mut out = vec![0u64; self.slot_count()];
        for (slot, &j) in self.slot_to_eval.iter().enumerate() {
            out[slot] = evals[j];
        }
        out
    }

    /// Decodes to centered signed values in `(-t/2, t/2]`.
    pub fn decode_signed(&self, pt: &Plaintext) -> Vec<i64> {
        let t = self.ctx.params().plain_modulus;
        self.decode(pt)
            .into_iter()
            .map(|v| {
                if v > t / 2 {
                    v as i64 - t as i64
                } else {
                    v as i64
                }
            })
            .collect()
    }
}
