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
//! backend declares only what differs: its identity, its context (the
//! policy), how parameters are auto-selected ([`RlweScheme::resolve_params`]
//! — the BGV selector escalates faster because its noise *doubles* per
//! multiply) and the static noise model behind the selection certificate
//! ([`RlweScheme::analyze_noise`]).
//!
//! The free functions ([`resolve_params`], [`analyze_noise`]) are the
//! value-level mirror for call sites that hold a runtime [`SchemeId`]
//! rather than a type parameter.

use quill::analysis::{NoiseReport, NoiseSemantics};
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::Rng;
use rlwe_ring::encoding::{BatchEncoder, EvalPlaintext, Plaintext};
use rlwe_ring::encrypt::{Ciphertext, Decryptor, Encryptor};
use rlwe_ring::evaluator::Evaluator;
use rlwe_ring::keys::{GaloisKeys, KeyGenerator, RelinKey};
use rlwe_ring::keyswitch::HoistedDecomposition;
use rlwe_ring::params::{ParamError, ParamPolicy, RlweParams, SelectError};
use rlwe_ring::scheme::SchemePolicy;

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
/// its identity, its context — which implements the `rlwe-ring`
/// [`SchemePolicy`] — and its parameter selection and noise model.
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
    /// Resolves a parameter policy against a lowered program under this
    /// scheme's noise model and candidate table.
    ///
    /// # Errors
    ///
    /// Returns the scheme selector's [`SelectError`] when no set satisfies
    /// the policy.
    fn resolve_params(
        policy: &ParamPolicy,
        prog: &Program,
        min_slots: usize,
        t: u64,
    ) -> Result<RlweParams, SelectError>;
    /// Static noise analysis of a lowered program under this scheme's model.
    fn analyze_noise(params: &RlweParams, prog: &Program) -> NoiseReport;
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
    fn resolve_params(
        policy: &ParamPolicy,
        prog: &Program,
        min_slots: usize,
        t: u64,
    ) -> Result<RlweParams, SelectError> {
        bfv::params::resolve_policy(policy, prog, min_slots, t)
    }
    fn analyze_noise(params: &RlweParams, prog: &Program) -> NoiseReport {
        bfv::NoiseModel::for_params(params).analyze(prog)
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
    fn resolve_params(
        policy: &ParamPolicy,
        prog: &Program,
        min_slots: usize,
        t: u64,
    ) -> Result<RlweParams, SelectError> {
        bgv::params::resolve_policy(policy, prog, min_slots, t)
    }
    fn analyze_noise(params: &RlweParams, prog: &Program) -> NoiseReport {
        bgv::NoiseModel::for_params(params).analyze(prog)
    }
}

/// Value-level dispatch of [`RlweScheme::resolve_params`] for call sites that
/// hold a runtime [`SchemeId`] (the CEGIS driver, the CLI).
///
/// # Errors
///
/// Returns the scheme selector's [`SelectError`] when no parameter set
/// satisfies the policy for this program.
pub fn resolve_params(
    scheme: SchemeId,
    policy: &ParamPolicy,
    prog: &Program,
    min_slots: usize,
    t: u64,
) -> Result<RlweParams, SelectError> {
    match scheme {
        SchemeId::Bfv => BfvScheme::resolve_params(policy, prog, min_slots, t),
        SchemeId::Bgv => BgvScheme::resolve_params(policy, prog, min_slots, t),
    }
}

/// Value-level dispatch of [`RlweScheme::analyze_noise`].
pub fn analyze_noise(scheme: SchemeId, params: &RlweParams, prog: &Program) -> NoiseReport {
    match scheme {
        SchemeId::Bfv => BfvScheme::analyze_noise(params, prog),
        SchemeId::Bgv => BgvScheme::analyze_noise(params, prog),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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

    #[test]
    fn value_level_dispatch_matches_the_typed_path() {
        use quill::program::{Instr, Program, ValRef};
        let prog = Program::new(
            "square",
            1,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
                Instr::Relin(ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        for &id in SchemeId::ALL {
            let params = resolve_params(id, &ParamPolicy::auto(), &prog, 8, 65537)
                .expect("depth-1 square must be selectable under both schemes");
            let report = analyze_noise(id, &params, &prog);
            assert!(
                report.predicted_budget_bits > 0.0,
                "{id}: selector certificate must hold under its own model"
            );
        }
    }
}
