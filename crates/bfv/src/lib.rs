//! # bfv — a from-scratch BFV homomorphic encryption substrate
//!
//! This crate is the execution backend for the Porcupine reproduction: a
//! complete, exact implementation of the Brakerski/Fan–Vercauteren (BFV)
//! scheme standing in for Microsoft SEAL v3.5, which the paper compiles to.
//!
//! It provides everything the paper's instruction set needs:
//!
//! * **SIMD batching** over `N` slots arranged as a 2 × (N/2) matrix
//!   ([`encoding::BatchEncoder`]), with `rotate_rows` / `rotate_columns`
//!   slot semantics identical to SEAL's.
//! * **Ciphertext ops**: add/sub/negate, plaintext add/sub/multiply,
//!   ciphertext multiply with exact `t/Q` rescaling, RNS-decomposition
//!   relinearization and Galois key switching ([`evaluator::Evaluator`]).
//! * **Noise metering**: SEAL-style invariant noise budget
//!   ([`encrypt::Decryptor::invariant_noise_budget`]), a static worst-case
//!   noise-growth model ([`noise::NoiseModel`]), and noise-aware automatic
//!   parameter selection ([`params::ParamSelector`]).
//!
//! # The double-CRT representation
//!
//! Like production RNS stacks (SEAL, Sunscreen), ciphertexts and keys are
//! **NTT-resident** — the invariant the shared evaluator keeps (see
//! [`rlwe_ring::evaluator`]): componentwise add/sub and plaintext ops,
//! pointwise products, rotations as cached slot permutations. BFV's
//! multiply keeps it too, running entirely in 64-bit RNS arithmetic (exact
//! base conversion into an auxiliary base, a per-prime tensor, an exact
//! `t/Q` rescale — see [`evaluator`]) with no big-integer CRT on the hot
//! path. The representation is semantically invisible (property-tested:
//! both pipelines decrypt bit-identically).
//!
//! # What lives here
//!
//! The number theory — big integers, prime fields, NTTs, RNS base
//! conversion — and the scheme machinery on top of it — batch encoding,
//! key generation, encryption/decryption, the evaluator — live in the
//! shared [`rlwe_ring`] crate, written once and generic over a
//! [`rlwe_ring::scheme::SchemePolicy`]. This crate implements that policy
//! on [`params::BfvContext`] (`Δ·m` plaintext lift, unscaled errors, the
//! multiply, rounding decryption) and re-exports the shared types as
//! aliases at that context, so `bfv::evaluator::Evaluator` and friends
//! read like a standalone backend. BFV's own code is the context
//! precomputation, the multiply, the noise model and the selection table;
//! the ring modules are re-exported as [`bigint`], [`zq`], [`ntt`],
//! [`rns`], [`poly`], [`pool`].
//!
//! **Security caveat**: this is a research-grade implementation for
//! reproducing a compiler paper. The samplers use a non-hardened RNG and a
//! centered-binomial error distribution; do not use it to protect real data.
//!
//! ## Quick example
//!
//! ```
//! use bfv::params::{BfvContext, BfvParams};
//! use bfv::encoding::BatchEncoder;
//! use bfv::keys::KeyGenerator;
//! use bfv::encrypt::{Encryptor, Decryptor};
//! use bfv::evaluator::Evaluator;
//! use rand::SeedableRng;
//!
//! let ctx = BfvContext::new(BfvParams::test_small())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let keygen = KeyGenerator::new(&ctx, &mut rng);
//! let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
//! let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
//! let encoder = BatchEncoder::new(&ctx);
//! let evaluator = Evaluator::new(&ctx);
//!
//! // Encrypted dot-product step: elementwise multiply, then rotate+add.
//! let x = encryptor.encrypt(&encoder.encode(&[1, 2, 3, 4]), &mut rng);
//! let w = encoder.encode(&[5, 6, 7, 8]);
//! let prod = evaluator.mul_plain(&x, &w);
//! let gk = keygen.galois_keys_for_rotations(&[1, 2], false, &mut rng);
//! let s1 = evaluator.add(&prod, &evaluator.rotate_rows(&prod, 2, &gk));
//! let s2 = evaluator.add(&s1, &evaluator.rotate_rows(&s1, 1, &gk));
//! let out = encoder.decode(&decryptor.decrypt(&s2));
//! assert_eq!(out[0], 5 + 12 + 21 + 32);
//! # Ok::<(), bfv::params::ParamError>(())
//! ```

pub mod encoding;
pub mod encrypt;
pub mod evaluator;
pub mod keys;
pub mod noise;
pub mod params;

// The ring-arithmetic layer moved to the shared `rlwe-ring` crate when BGV
// arrived; re-export the modules so `bfv::poly::...`-style paths keep
// working.
pub use rlwe_ring::{bigint, keyswitch, ntt, poly, pool, rns, zq};

pub use encoding::{BatchEncoder, Plaintext};
pub use encrypt::{Ciphertext, Decryptor, Encryptor};
pub use evaluator::Evaluator;
pub use keys::{GaloisKeys, KeyGenerator, PublicKey, RelinKey, SecretKey};
pub use keyswitch::HoistedDecomposition;
pub use noise::{NoiseModel, NoiseReport};
pub use params::{
    BfvContext, BfvParams, ParamError, ParamPolicy, ParamSelector, SelectError, Selection,
};
