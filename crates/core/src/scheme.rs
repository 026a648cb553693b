//! The scheme abstraction: one trait binding the compiler to an HE backend.
//!
//! Everything above this layer — CEGIS, the middle-end, codegen, parameter
//! resolution — is generic over *which* RLWE scheme executes the kernel.
//! [`quill::scheme::SchemeId`] is the lightweight identity the IR layers
//! share (legality rules, cost tables, cache keys); this module supplies
//! the *capability* side: the [`Scheme`] trait maps that identity onto a
//! backend's types (context, keys, ciphertexts, evaluator) and operations,
//! so [`crate::codegen::Runner`] lowers Quill IR 1:1 onto any
//! instantiation.
//!
//! Two instantiations ship:
//!
//! * [`BfvScheme`] — the `bfv` crate (Δ = ⌊Q/t⌋ most-significant-digit
//!   encoding, scale-invariant multiply with the BEHZ `t/Q` rescale).
//! * [`BgvScheme`] — the `bgv` crate (least-significant-digit encoding,
//!   plain tensor multiply, noise managed by modulus switching).
//!
//! Both are policies over one shared RLWE core in `rlwe-ring` (encoder,
//! keys, encryption, evaluator, generic over
//! [`rlwe_ring::scheme::SchemePolicy`]), and their parameter sets are the
//! *same type* ([`rlwe_ring::params::RlweParams`]) — which is what makes
//! cross-scheme differential testing (one parameter set, two backends,
//! slot-identical decryptions) possible at all. So the operations of
//! [`Scheme`] are written once, in a blanket impl over [`RlweScheme`]; a
//! backend declares only its identity and its context (the policy).
//!
//! Parameter selection is written once too, keyed by a runtime
//! [`SchemeId`]: [`analyze_noise`] runs the scheme's static noise model,
//! and [`resolve_params`] walks the scheme's candidate table
//! (`bfv::params::CANDIDATES`, `bgv::params::CANDIDATES`) with it — the
//! BGV walk escalates faster because its noise *doubles* per multiply.

use quill::analysis::{NoiseReport, NoiseSemantics};
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::Rng;
use rlwe_ring::encoding::{BatchEncoder, EvalPlaintext, Plaintext};
use rlwe_ring::encrypt::{Ciphertext, Decryptor, Encryptor};
use rlwe_ring::evaluator::Evaluator;
use rlwe_ring::keys::{GaloisKeys, KeyGenerator, RelinKey};
use rlwe_ring::keyswitch::HoistedDecomposition;
use rlwe_ring::params::{Candidate, ParamError, ParamPolicy, RlweParams, SelectError};
use rlwe_ring::scheme::SchemePolicy;
use rlwe_ring::zq;

/// A homomorphic-encryption backend the compiler can lower onto.
///
/// Methods are associated functions (not `&self`) because a scheme is a
/// type-level tag — [`BfvScheme`] and [`BgvScheme`] are unit structs that
/// are never constructed. Every [`RlweScheme`] implements this trait
/// through one blanket impl.
pub trait Scheme: 'static {
    /// The scheme's identity (legality rules, cost table, cache-key tag).
    const ID: SchemeId;

    /// The precomputed per-parameter-set state (ring, NTT tables, …).
    /// `Sync` so the DAG-parallel runner can share one context across
    /// worker threads (each worker builds its own non-`Sync` evaluator
    /// over it).
    type Context: Sync;
    /// A coefficient-form plaintext polynomial.
    type Plaintext;
    /// A plaintext pre-lifted to the evaluation domain (encode-once fast
    /// path for `ct ∘ pt` ops). `Sync`: the runner's splat cache is read
    /// concurrently by workers.
    type EvalPlaintext: Sync;
    /// An RLWE ciphertext (size ≥ 2 parts). `Send + Sync`: instruction
    /// results move between and are read by worker threads.
    type Ciphertext: Clone + Send + Sync;
    /// The relinearization key-switch key (`Sync`: shared by workers).
    type RelinKey: Sync;
    /// The Galois rotation key set (`Sync`: shared by workers).
    type GaloisKeys: Sync;
    /// A prepared hoisted key-switch decomposition (see [`Scheme::hoist`]);
    /// produced by one worker, read by the fan's members on others.
    type Hoisted: Send + Sync;
    /// The batching encoder borrowed from a context.
    type Encoder<'a>;
    /// The evaluator borrowed from a context.
    type Evaluator<'a>;
    /// The key generator borrowed from a context.
    type KeyGenerator<'a>;
    /// The public-key encryptor borrowed from a context.
    type Encryptor<'a>;
    /// The secret-key decryptor borrowed from a context.
    type Decryptor<'a>;

    /// Builds the scheme context for a parameter set.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`ParamError`] for unusable parameters.
    fn context(params: RlweParams) -> Result<Self::Context, ParamError>;
    /// The parameter set behind a context.
    fn params(ctx: &Self::Context) -> &RlweParams;

    /// A batching encoder over the context.
    fn encoder(ctx: &Self::Context) -> Self::Encoder<'_>;
    /// An evaluator over the context.
    fn evaluator(ctx: &Self::Context) -> Self::Evaluator<'_>;
    /// Samples a fresh secret key.
    fn keygen<'a, R: Rng + ?Sized>(ctx: &'a Self::Context, rng: &mut R) -> Self::KeyGenerator<'a>;
    /// An encryptor under a fresh public key from `keygen`.
    fn encryptor<'a, R: Rng + ?Sized>(
        ctx: &'a Self::Context,
        keygen: &Self::KeyGenerator<'a>,
        rng: &mut R,
    ) -> Self::Encryptor<'a>;
    /// A decryptor under `keygen`'s secret key.
    fn decryptor<'a>(
        ctx: &'a Self::Context,
        keygen: &Self::KeyGenerator<'a>,
    ) -> Self::Decryptor<'a>;
    /// The relinearization key.
    fn relin_key<R: Rng + ?Sized>(kg: &Self::KeyGenerator<'_>, rng: &mut R) -> Self::RelinKey;
    /// Galois keys covering the given rotation steps (and the column swap
    /// when `include_columns`).
    fn galois_keys<R: Rng + ?Sized>(
        kg: &Self::KeyGenerator<'_>,
        steps: &[i64],
        include_columns: bool,
        rng: &mut R,
    ) -> Self::GaloisKeys;
    /// The Galois elements a key set covers (diagnostics).
    fn galois_elements(gk: &Self::GaloisKeys) -> Vec<u64>;

    /// Batching slots of the encoder (= the ring degree).
    fn slot_count(enc: &Self::Encoder<'_>) -> usize;
    /// Packs slot values into a plaintext.
    fn encode(enc: &Self::Encoder<'_>, values: &[u64]) -> Self::Plaintext;
    /// Packs slot values directly into the evaluation domain.
    fn encode_eval(enc: &Self::Encoder<'_>, values: &[u64]) -> Self::EvalPlaintext;
    /// Unpacks a plaintext into slot values.
    fn decode(enc: &Self::Encoder<'_>, pt: &Self::Plaintext) -> Vec<u64>;

    /// Public-key encryption.
    fn encrypt<R: Rng + ?Sized>(
        enc: &Self::Encryptor<'_>,
        pt: &Self::Plaintext,
        rng: &mut R,
    ) -> Self::Ciphertext;
    /// Decryption (exact while noise budget remains positive).
    fn decrypt(dec: &Self::Decryptor<'_>, ct: &Self::Ciphertext) -> Self::Plaintext;
    /// The measured invariant noise budget in bits (≤ 0 ⇒ decryption is no
    /// longer guaranteed).
    fn noise_budget(dec: &Self::Decryptor<'_>, ct: &Self::Ciphertext) -> i64;

    /// Lifts a plaintext into the evaluation domain once, for reuse.
    fn preencode(ev: &Self::Evaluator<'_>, pt: &Self::Plaintext) -> Self::EvalPlaintext;
    /// `a += b`, slotwise.
    fn add_assign(ev: &Self::Evaluator<'_>, a: &mut Self::Ciphertext, b: &Self::Ciphertext);
    /// `a -= b`, slotwise.
    fn sub_assign(ev: &Self::Evaluator<'_>, a: &mut Self::Ciphertext, b: &Self::Ciphertext);
    /// `a × b` as a size-3 ciphertext (no relinearization).
    fn multiply(
        ev: &Self::Evaluator<'_>,
        a: &Self::Ciphertext,
        b: &Self::Ciphertext,
    ) -> Self::Ciphertext;
    /// Key-switches a size-3 ciphertext back to size 2.
    fn relinearize_assign(ev: &Self::Evaluator<'_>, ct: &mut Self::Ciphertext, rk: &Self::RelinKey);
    /// `ct += pt`, slotwise.
    fn add_plain_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        pt: &Self::EvalPlaintext,
    );
    /// `ct -= pt`, slotwise.
    fn sub_plain_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        pt: &Self::EvalPlaintext,
    );
    /// `ct ×= pt`, slotwise.
    fn mul_plain_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        pt: &Self::EvalPlaintext,
    );
    /// Rotates the batching rows by `steps`.
    fn rotate_rows_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        steps: i64,
        gk: &Self::GaloisKeys,
    );
    /// Returns a dead ciphertext's buffers to the evaluator's scratch pool.
    fn recycle(ev: &Self::Evaluator<'_>, ct: Self::Ciphertext);

    /// Prepares a reusable key-switch decomposition of `ct` so that a fan
    /// of rotations on it can share the digit-decomposition NTTs
    /// ("hoisting"). Every backend on the shared RLWE core hoists, and the
    /// runner requires it: `None` is never returned.
    fn hoist(ev: &Self::Evaluator<'_>, ct: &Self::Ciphertext) -> Option<Self::Hoisted>;
    /// Rotates `ct` by `steps` through a decomposition obtained from
    /// [`Scheme::hoist`] **on the same ciphertext**. Decrypts identically
    /// to the plain rotation (the raw ciphertext bits may differ).
    fn rotate_hoisted(
        ev: &Self::Evaluator<'_>,
        ct: &Self::Ciphertext,
        h: &Self::Hoisted,
        steps: i64,
        gk: &Self::GaloisKeys,
    ) -> Self::Ciphertext;
    /// Returns a hoisted decomposition's buffers to the evaluator's
    /// scratch pool.
    fn recycle_hoisted(ev: &Self::Evaluator<'_>, h: Self::Hoisted);
}

/// What a backend on the shared RLWE core declares to become a [`Scheme`]:
/// its identity and its context, which implements the `rlwe-ring`
/// [`SchemePolicy`].
pub trait RlweScheme: 'static {
    /// The scheme's identity (legality rules, cost table, cache-key tag).
    const ID: SchemeId;
    /// The scheme's context, carrying its policy.
    type Context: SchemePolicy + Sync;
    /// Builds the context for a parameter set.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`ParamError`] for unusable parameters.
    fn context(params: RlweParams) -> Result<Self::Context, ParamError>;
}

/// The shared RLWE core's types and operations, once for every backend.
impl<B: RlweScheme> Scheme for B {
    const ID: SchemeId = B::ID;

    type Context = B::Context;
    type Plaintext = Plaintext;
    type EvalPlaintext = EvalPlaintext;
    type Ciphertext = Ciphertext;
    type RelinKey = RelinKey;
    type GaloisKeys = GaloisKeys;
    type Hoisted = HoistedDecomposition;
    type Encoder<'a> = BatchEncoder<'a, B::Context>;
    type Evaluator<'a> = Evaluator<'a, B::Context>;
    type KeyGenerator<'a> = KeyGenerator<'a, B::Context>;
    type Encryptor<'a> = Encryptor<'a, B::Context>;
    type Decryptor<'a> = Decryptor<'a, B::Context>;

    fn context(params: RlweParams) -> Result<Self::Context, ParamError> {
        B::context(params)
    }
    fn params(ctx: &Self::Context) -> &RlweParams {
        ctx.params()
    }
    fn encoder(ctx: &Self::Context) -> Self::Encoder<'_> {
        BatchEncoder::new(ctx)
    }
    fn evaluator(ctx: &Self::Context) -> Self::Evaluator<'_> {
        Evaluator::new(ctx)
    }
    fn keygen<'a, R: Rng + ?Sized>(ctx: &'a Self::Context, rng: &mut R) -> Self::KeyGenerator<'a> {
        KeyGenerator::new(ctx, rng)
    }
    fn encryptor<'a, R: Rng + ?Sized>(
        ctx: &'a Self::Context,
        keygen: &Self::KeyGenerator<'a>,
        rng: &mut R,
    ) -> Self::Encryptor<'a> {
        Encryptor::new(ctx, keygen.public_key(rng))
    }
    fn decryptor<'a>(
        ctx: &'a Self::Context,
        keygen: &Self::KeyGenerator<'a>,
    ) -> Self::Decryptor<'a> {
        Decryptor::new(ctx, keygen.secret_key().clone())
    }
    fn relin_key<R: Rng + ?Sized>(kg: &Self::KeyGenerator<'_>, rng: &mut R) -> Self::RelinKey {
        kg.relin_key(rng)
    }
    fn galois_keys<R: Rng + ?Sized>(
        kg: &Self::KeyGenerator<'_>,
        steps: &[i64],
        include_columns: bool,
        rng: &mut R,
    ) -> Self::GaloisKeys {
        kg.galois_keys_for_rotations(steps, include_columns, rng)
    }
    fn galois_elements(gk: &Self::GaloisKeys) -> Vec<u64> {
        gk.elements()
    }

    fn slot_count(enc: &Self::Encoder<'_>) -> usize {
        enc.slot_count()
    }
    fn encode(enc: &Self::Encoder<'_>, values: &[u64]) -> Self::Plaintext {
        enc.encode(values)
    }
    fn encode_eval(enc: &Self::Encoder<'_>, values: &[u64]) -> Self::EvalPlaintext {
        enc.encode_eval(values)
    }
    fn decode(enc: &Self::Encoder<'_>, pt: &Self::Plaintext) -> Vec<u64> {
        enc.decode(pt)
    }

    fn encrypt<R: Rng + ?Sized>(
        enc: &Self::Encryptor<'_>,
        pt: &Self::Plaintext,
        rng: &mut R,
    ) -> Self::Ciphertext {
        enc.encrypt(pt, rng)
    }
    fn decrypt(dec: &Self::Decryptor<'_>, ct: &Self::Ciphertext) -> Self::Plaintext {
        dec.decrypt(ct)
    }
    fn noise_budget(dec: &Self::Decryptor<'_>, ct: &Self::Ciphertext) -> i64 {
        dec.invariant_noise_budget(ct)
    }

    fn preencode(ev: &Self::Evaluator<'_>, pt: &Self::Plaintext) -> Self::EvalPlaintext {
        ev.preencode(pt)
    }
    fn add_assign(ev: &Self::Evaluator<'_>, a: &mut Self::Ciphertext, b: &Self::Ciphertext) {
        ev.add_assign(a, b);
    }
    fn sub_assign(ev: &Self::Evaluator<'_>, a: &mut Self::Ciphertext, b: &Self::Ciphertext) {
        ev.sub_assign(a, b);
    }
    fn multiply(
        ev: &Self::Evaluator<'_>,
        a: &Self::Ciphertext,
        b: &Self::Ciphertext,
    ) -> Self::Ciphertext {
        ev.multiply(a, b)
    }
    fn relinearize_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        rk: &Self::RelinKey,
    ) {
        ev.relinearize_assign(ct, rk);
    }
    fn add_plain_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        pt: &Self::EvalPlaintext,
    ) {
        ev.add_plain_assign(ct, pt);
    }
    fn sub_plain_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        pt: &Self::EvalPlaintext,
    ) {
        ev.sub_plain_assign(ct, pt);
    }
    fn mul_plain_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        pt: &Self::EvalPlaintext,
    ) {
        ev.mul_plain_assign(ct, pt);
    }
    fn rotate_rows_assign(
        ev: &Self::Evaluator<'_>,
        ct: &mut Self::Ciphertext,
        steps: i64,
        gk: &Self::GaloisKeys,
    ) {
        ev.rotate_rows_assign(ct, steps, gk);
    }
    fn recycle(ev: &Self::Evaluator<'_>, ct: Self::Ciphertext) {
        ev.recycle(ct);
    }

    fn hoist(ev: &Self::Evaluator<'_>, ct: &Self::Ciphertext) -> Option<Self::Hoisted> {
        Some(ev.hoist(ct))
    }
    fn rotate_hoisted(
        ev: &Self::Evaluator<'_>,
        ct: &Self::Ciphertext,
        h: &Self::Hoisted,
        steps: i64,
        gk: &Self::GaloisKeys,
    ) -> Self::Ciphertext {
        ev.rotate_rows_hoisted(ct, h, steps, gk)
    }
    fn recycle_hoisted(ev: &Self::Evaluator<'_>, h: Self::Hoisted) {
        ev.recycle_hoisted(h);
    }
}

/// The `bfv` crate as a [`Scheme`] instantiation.
#[derive(Debug, Clone, Copy)]
pub struct BfvScheme;

impl RlweScheme for BfvScheme {
    const ID: SchemeId = SchemeId::Bfv;
    type Context = bfv::params::BfvContext;

    fn context(params: RlweParams) -> Result<Self::Context, ParamError> {
        bfv::params::BfvContext::new(params)
    }
}

/// The `bgv` crate as a [`Scheme`] instantiation.
#[derive(Debug, Clone, Copy)]
pub struct BgvScheme;

impl RlweScheme for BgvScheme {
    const ID: SchemeId = SchemeId::Bgv;
    type Context = bgv::params::BgvContext;

    fn context(params: RlweParams) -> Result<Self::Context, ParamError> {
        bgv::params::BgvContext::new(params)
    }
}

/// Static noise analysis of a lowered program under `params` and the
/// scheme's noise model.
pub fn analyze_noise(scheme: SchemeId, params: &RlweParams, prog: &Program) -> NoiseReport {
    match scheme {
        SchemeId::Bfv => bfv::NoiseModel::for_params(params).analyze(prog),
        SchemeId::Bgv => bgv::NoiseModel::for_params(params).analyze(prog),
    }
}

/// Resolves a parameter policy for a *lowered* program (post `-O`,
/// explicit relinearizations) that needs `min_slots` slots per batching row
/// and plaintext modulus `t`.
///
/// A `Fixed` set is validated structurally and for capacity. An `Auto`
/// policy walks the scheme's candidate table in ascending cost order and
/// returns the first generated chain that batches `t`, holds the slots, and
/// leaves at least the policy's margin of predicted noise budget
/// ([`analyze_noise`]) at decryption; a row whose chain cannot be built is
/// skipped. Because each noise model is a sound upper bound, the selected
/// set is *certified*: the measured budget at decryption is at least the
/// margin.
///
/// # Errors
///
/// [`SelectError::BadFixedParams`] for an unusable `Fixed` set,
/// [`SelectError::UnsupportedPlainModulus`] if `t` batches at no candidate
/// degree, else [`SelectError::NoCandidate`] with the best budget seen.
///
/// # Examples
///
/// ```
/// use porcupine::scheme::resolve_params;
/// use quill::program::{Instr, Program, ValRef};
/// use quill::scheme::SchemeId;
/// use rlwe_ring::params::{ParamPolicy, RlweParams};
///
/// // A rotate-and-add kernel needs only a small set...
/// let shallow = Program::new(
///     "pairsum", 1, 0,
///     vec![
///         Instr::RotCt(ValRef::Input(0), 1),
///         Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
///     ],
///     ValRef::Instr(1),
/// );
/// let auto = ParamPolicy::auto();
/// let small = resolve_params(SchemeId::Bfv, &auto, &shallow, 8, 65537).unwrap();
/// // ...and deeper programs force a larger modulus chain.
/// let square = Program::new(
///     "square", 1, 0,
///     vec![
///         Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
///         Instr::Relin(ValRef::Instr(0)),
///     ],
///     ValRef::Instr(1),
/// );
/// let larger = resolve_params(SchemeId::Bfv, &auto, &square, 8, 65537).unwrap();
/// let q_bits = |p: &RlweParams| p.moduli.iter()
///     .map(|&q| 64 - q.leading_zeros()).sum::<u32>();
/// assert!(q_bits(&larger) >= q_bits(&small));
/// ```
pub fn resolve_params(
    scheme: SchemeId,
    policy: &ParamPolicy,
    prog: &Program,
    min_slots: usize,
    t: u64,
) -> Result<RlweParams, SelectError> {
    let margin_bits = match policy {
        ParamPolicy::Auto { margin_bits } => *margin_bits,
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
            return Ok(params.clone());
        }
    };
    type Generate = fn(usize, u64, u32, usize) -> Result<RlweParams, ParamError>;
    let (candidates, generate): (&[Candidate], Generate) = match scheme {
        SchemeId::Bfv => (bfv::params::CANDIDATES, RlweParams::generate),
        SchemeId::Bgv => (
            bgv::params::CANDIDATES,
            bgv::params::generate_mod_switch_friendly,
        ),
    };
    let batches = |n: usize| zq::is_prime(t) && (t - 1).is_multiple_of(2 * n as u64);
    if !candidates.iter().any(|c| batches(c.poly_degree)) {
        return Err(SelectError::UnsupportedPlainModulus(t));
    }
    let mut best: Option<(usize, f64)> = None;
    for cand in candidates {
        if cand.poly_degree / 2 < min_slots || !batches(cand.poly_degree) {
            continue;
        }
        let Ok(params) = generate(cand.poly_degree, t, cand.prime_bits, cand.count) else {
            continue;
        };
        let predicted = analyze_noise(scheme, &params, prog).predicted_budget_bits;
        if predicted >= margin_bits {
            return Ok(params);
        }
        if best.is_none_or(|(_, b)| predicted > b) {
            best = Some((cand.poly_degree, predicted));
        }
    }
    Err(SelectError::NoCandidate {
        margin_bits,
        min_slots,
        best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill::program::{Instr, ValRef};
    use rand::SeedableRng;
    use rlwe_ring::params::DEFAULT_MARGIN_BITS;

    /// One generic encrypt–evaluate–decrypt round trip, instantiated for
    /// both schemes: the trait surface is sufficient to drive a backend
    /// end to end, and both backends agree slot-for-slot on the same
    /// parameter set (the foundation of cross-scheme differential testing).
    fn roundtrip<S: Scheme>() -> Vec<u64> {
        let ctx = S::context(RlweParams::test_small()).expect("test params valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5C4E);
        let kg = S::keygen(&ctx, &mut rng);
        let enc = S::encryptor(&ctx, &kg, &mut rng);
        let dec = S::decryptor(&ctx, &kg);
        let coder = S::encoder(&ctx);
        let ev = S::evaluator(&ctx);
        let rk = S::relin_key(&kg, &mut rng);
        let gk = S::galois_keys(&kg, &[1], false, &mut rng);

        let n = S::slot_count(&coder);
        let a: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (3 * i + 1) % 89).collect();
        let mut x = S::encrypt(&enc, &S::encode(&coder, &a), &mut rng);
        let y = S::encrypt(&enc, &S::encode(&coder, &b), &mut rng);
        // (x*y relin) + y, rotated by 1, minus splat(5)
        let mut prod = S::multiply(&ev, &x, &y);
        S::relinearize_assign(&ev, &mut prod, &rk);
        S::add_assign(&ev, &mut prod, &y);
        S::rotate_rows_assign(&ev, &mut prod, 1, &gk);
        let five = S::encode_eval(&coder, &vec![5; n]);
        S::sub_plain_assign(&ev, &mut prod, &five);
        S::recycle(&ev, x.clone());
        S::add_assign(&ev, &mut x, &y);
        assert!(S::noise_budget(&dec, &prod) > 0);
        S::decode(&coder, &S::decrypt(&dec, &prod))
    }

    #[test]
    fn both_schemes_drive_the_same_generic_pipeline_to_the_same_slots() {
        let bfv_out = roundtrip::<BfvScheme>();
        let bgv_out = roundtrip::<BgvScheme>();
        assert_eq!(bfv_out, bgv_out, "cross-scheme slot divergence");
        // Spot-check the model: slot 0 after rot(1) reads index 1 of
        // x*y + y = a[1]*b[1] + b[1] = 1*4 + 4, then minus the splat 5.
        let t = RlweParams::test_small().plain_modulus;
        let expect = (8 + t - 5) % t;
        assert_eq!(bfv_out[0], expect);
    }

    /// `x^(2^depth)` by repeated squaring, each product relinearized.
    fn squarings(depth: usize) -> Program {
        let mut instrs = Vec::new();
        let mut cur = ValRef::Input(0);
        for _ in 0..depth {
            instrs.push(Instr::MulCtCt(cur, cur));
            instrs.push(Instr::Relin(ValRef::Instr(instrs.len() - 1)));
            cur = ValRef::Instr(instrs.len() - 1);
        }
        Program::new("squarings", 1, 0, instrs, cur)
    }

    fn rot() -> Program {
        Program::new(
            "rot",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 1)],
            ValRef::Instr(0),
        )
    }

    fn auto(scheme: SchemeId, prog: &Program, min_slots: usize) -> Result<RlweParams, SelectError> {
        resolve_params(scheme, &ParamPolicy::auto(), prog, min_slots, 65537)
    }

    fn q_bits(p: &RlweParams) -> u32 {
        p.moduli.iter().map(|&q| 64 - q.leading_zeros()).sum()
    }

    #[test]
    fn selection_certificate_holds_under_its_own_model() {
        for &id in SchemeId::ALL {
            let prog = squarings(1);
            let params =
                auto(id, &prog, 8).expect("depth-1 square must be selectable under both schemes");
            let report = analyze_noise(id, &params, &prog);
            assert!(
                report.predicted_budget_bits >= DEFAULT_MARGIN_BITS,
                "{id}: selector certificate must hold under its own model"
            );
        }
    }

    #[test]
    fn selection_scales_params_with_program_depth() {
        let pairsum = Program::new(
            "pairsum",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        // BGV noise bits double per multiply, so a shallower squaring chain
        // already needs more modulus there.
        for (id, depth) in [(SchemeId::Bfv, 3), (SchemeId::Bgv, 2)] {
            let shallow = auto(id, &pairsum, 8).expect("shallow program selects");
            let budget = analyze_noise(id, &shallow, &pairsum).predicted_budget_bits;
            assert!(budget >= DEFAULT_MARGIN_BITS);
            let deep = auto(id, &squarings(depth), 8).expect("squaring chain selects");
            assert!(q_bits(&deep) > q_bits(&shallow), "{id}");
            assert!(deep.validate().is_ok());
        }
    }

    #[test]
    fn bgv_selects_no_smaller_than_bfv_on_deep_programs() {
        let deep = squarings(2);
        let bgv = auto(SchemeId::Bgv, &deep, 8).unwrap();
        let bfv = auto(SchemeId::Bfv, &deep, 8).unwrap();
        assert!(q_bits(&bgv) >= q_bits(&bfv));
    }

    #[test]
    fn selection_honors_min_slots() {
        let params = auto(SchemeId::Bfv, &rot(), 4000).expect("needs N ≥ 8192");
        assert!(params.row_size() >= 4000);
        assert!(params.poly_degree >= 8192);
    }

    #[test]
    fn exhaustion_reports_the_best_attempt() {
        // An absurdly deep chain no table row can absorb. Under BFV the
        // least-bad attempt is the largest degree; under BGV it may be a
        // small one: the multiply rule doubles noise bits, so the log2 N
        // term compounds 2^20-fold and dwarfs what extra modulus buys.
        for (id, min_n) in [(SchemeId::Bfv, 16384), (SchemeId::Bgv, 1024)] {
            match auto(id, &squarings(20), 8) {
                Err(SelectError::NoCandidate {
                    margin_bits,
                    best: Some((n, remaining)),
                    ..
                }) => {
                    assert_eq!(margin_bits.to_bits(), DEFAULT_MARGIN_BITS.to_bits());
                    assert!(n >= min_n, "{id}");
                    assert!(remaining < DEFAULT_MARGIN_BITS);
                }
                other => panic!("{id}: expected NoCandidate with best attempt, got {other:?}"),
            }
        }
    }

    /// A 40-bit `t` leaves no 45- to 55-bit prime `≡ 1 mod 2N·t`, so every
    /// BGV row is skipped and the walk ends in an error, not a panic; BFV
    /// chains need only `≡ 1 mod 2N` and still select.
    #[test]
    fn unbuildable_rows_are_skipped() {
        let t = 1_099_511_922_689;
        let square = squarings(1);
        let bgv = resolve_params(SchemeId::Bgv, &ParamPolicy::auto(), &square, 8, t);
        assert!(
            matches!(bgv, Err(SelectError::NoCandidate { best: None, .. })),
            "{bgv:?}"
        );
        let bfv = resolve_params(SchemeId::Bfv, &ParamPolicy::auto(), &square, 8, t).unwrap();
        assert_eq!((bfv.poly_degree, bfv.moduli.len()), (4096, 4));
    }

    #[test]
    fn fixed_policy_capacity_checks() {
        for &id in SchemeId::ALL {
            // A plain-NTT-prime set (BFV's test preset) is structurally
            // valid for BGV too: the shared type makes this a round trip.
            let fixed = ParamPolicy::Fixed(RlweParams::test_small());
            let ok = resolve_params(id, &fixed, &rot(), 8, 65537).unwrap();
            assert_eq!(ok, RlweParams::test_small());
            // A fixed set that cannot hold the slots, or runs another `t`,
            // is rejected.
            for (min_slots, t) in [(4096, 65537), (8, 786433)] {
                let err = resolve_params(id, &fixed, &rot(), min_slots, t);
                assert!(matches!(err, Err(SelectError::BadFixedParams(_))), "{id}");
            }
            let auto = auto(id, &rot(), 8).unwrap();
            assert!(auto.validate().is_ok());
        }
    }
}
