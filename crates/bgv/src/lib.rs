//! # bgv — a from-scratch BGV homomorphic encryption substrate
//!
//! The second scheme instantiation behind Porcupine's scheme-generic
//! backend layer: an exact implementation of Brakerski–Gentry–Vaikuntanathan
//! (BGV) over the same shared ring arithmetic ([`rlwe_ring`]) as the `bfv`
//! crate, exposing the same instruction surface — so the synthesizer,
//! interpreter, and differential harness can swap schemes without touching
//! kernels.
//!
//! # BFV vs. BGV in one paragraph
//!
//! Both schemes batch `N` integers mod `t` into the slots of a 2 × (N/2)
//! matrix and evaluate the same SIMD ops. They differ in *where the
//! message sits in the decryption phase*. BFV scales it to the top:
//! `w = Δ·m + noise` with `Δ = ⌊Q/t⌋`, so multiplication needs an exact
//! `t/Q` rescale through an auxiliary RNS base. BGV keeps it at the
//! bottom: `w = m + t·E`, so multiplication is three pointwise products
//! and *no rescale* — but noise **bits double** per multiply instead of
//! growing additively, which BGV counters by **modulus switching** down a
//! prime chain ([`evaluator::ModSwitch::mod_switch_to_next`]) after each
//! multiplicative level. Key material is the shared RNS-decomposition
//! construction with every key error scaled by `t` so it stays out of the
//! message digit ([`keys`]).
//!
//! Consequences for the compiler stack:
//!
//! * **Encoding is shared bit-for-bit** ([`encoding::BatchEncoder`] is
//!   the same encoder as BFV's), which is what makes cross-scheme
//!   differential testing slot-exact.
//! * **Parameters** want *switch-friendly* chains — primes
//!   `≡ 1 (mod 2N·t)` so dropping one is plaintext-invariant
//!   ([`params::generate_mod_switch_friendly`]); BFV-style chains still
//!   work for everything except modulus switching.
//! * **Noise** follows a different static model ([`noise::NoiseModel`],
//!   multiplicative rather than additive growth), so automatic parameter
//!   selection escalates through its candidate table
//!   ([`params::CANDIDATES`]) faster on deep programs.
//! * **Cost** differs per op (no BEHZ machinery in multiply, so ct×ct is
//!   far cheaper; everything else comparable), which the scheme-aware
//!   latency model upstream prices in.
//!
//! # What lives here
//!
//! Encoding, keys, encryption and the evaluator are `rlwe-ring`'s shared
//! implementations, generic over [`rlwe_ring::scheme::SchemePolicy`]; this
//! crate implements that policy on [`params::BgvContext`] (`t`-scaled
//! errors, unscaled plaintext lift, plain tensor multiply, mod-`t`
//! decryption) and re-exports the shared types as aliases at that context,
//! so `bgv::evaluator::Evaluator` and friends read like a standalone
//! backend. What is BGV's own: the context, the multiply, modulus
//! switching with key truncation ([`ModSwitch`], [`ModSwitchKey`]), the
//! noise model, and the parameter-selection candidate table.
//!
//! **Security caveat**: research-grade, non-hardened samplers — same
//! caveat as the `bfv` crate; do not use to protect real data.
//!
//! ## Quick example
//!
//! ```
//! use bgv::params::{self, BgvContext};
//! use bgv::encoding::BatchEncoder;
//! use bgv::keys::KeyGenerator;
//! use bgv::encrypt::{Encryptor, Decryptor};
//! use bgv::evaluator::Evaluator;
//! use rand::SeedableRng;
//!
//! let ctx = BgvContext::new(params::test_small())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let keygen = KeyGenerator::new(&ctx, &mut rng);
//! let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
//! let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
//! let encoder = BatchEncoder::new(&ctx);
//! let evaluator = Evaluator::new(&ctx);
//!
//! let x = encryptor.encrypt(&encoder.encode(&[1, 2, 3, 4]), &mut rng);
//! let w = encoder.encode(&[5, 6, 7, 8]);
//! let prod = evaluator.mul_plain(&x, &w);
//! let gk = keygen.galois_keys_for_rotations(&[1, 2], false, &mut rng);
//! let s1 = evaluator.add(&prod, &evaluator.rotate_rows(&prod, 2, &gk));
//! let s2 = evaluator.add(&s1, &evaluator.rotate_rows(&s1, 1, &gk));
//! let out = encoder.decode(&decryptor.decrypt(&s2));
//! assert_eq!(out[0], 5 + 12 + 21 + 32);
//! # Ok::<(), bgv::params::ParamError>(())
//! ```

pub mod encoding;
pub mod encrypt;
pub mod evaluator;
pub mod keys;
pub mod noise;
pub mod params;

// Shared ring-arithmetic layer, re-exported so `bgv::poly::...`-style
// paths mirror the `bfv` crate's.
pub use rlwe_ring::{bigint, keyswitch, ntt, poly, pool, rns, zq};

pub use encoding::{BatchEncoder, Plaintext};
pub use encrypt::{Ciphertext, Decryptor, Encryptor};
pub use evaluator::{Evaluator, ModSwitch};
pub use keys::{GaloisKeys, KeyGenerator, ModSwitchKey, PublicKey, RelinKey, SecretKey};
pub use keyswitch::HoistedDecomposition;
pub use noise::{NoiseModel, NoiseReport};
pub use params::{BgvContext, BgvParams, ParamError, ParamPolicy, SelectError};
