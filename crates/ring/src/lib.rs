//! # rlwe-ring — the shared RLWE core under the scheme backends
//!
//! Everything an RLWE backend in this workspace needs, written once:
//! power-of-two negacyclic rings `Z_Q[x]/(x^N + 1)` in RNS (double-CRT)
//! representation with exact big-integer fallbacks, and on top of them the
//! batch encoder, key generation, encryption/decryption and the evaluator,
//! all generic over a [`scheme::SchemePolicy`]. The BFV and BGV crates are
//! policies over this crate: each implements the policy on its context and
//! adds its noise model and parameter-selection table (and, for BGV,
//! modulus switching).
//!
//! * [`zq`] — scalar arithmetic mod word-size primes: Barrett and Shoup
//!   multiplication, primality testing, NTT-friendly prime generation.
//! * [`ntt`] — negacyclic number-theoretic transforms per prime
//!   (merged-twiddle, lazily reduced butterflies; primes below 2^62).
//! * [`rns`] — CRT contexts and exact centered base conversion between
//!   RNS bases.
//! * [`bigint`] — minimal arbitrary-precision integers backing CRT
//!   reconstruction and centered lifts.
//! * [`poly`] — [`poly::RingContext`] / [`poly::RnsPoly`]: polynomials in
//!   coefficient or evaluation form, arithmetic, sampling, and the
//!   RNS-decomposition step of key switching.
//! * [`pool`] — a scratch-buffer pool for allocation-free evaluator hot
//!   paths.
//! * [`params`] — the shared [`params::RlweParams`] parameter sets,
//!   validation, the compiler-facing [`params::ParamPolicy`] vocabulary,
//!   and the candidate-table selector loop the schemes' noise-aware
//!   selectors run.
//! * [`batch`] — the SEAL-compatible 2 × (N/2) slot geometry and the
//!   Galois elements for row rotation / column swap.
//! * [`keyswitch`] — RNS-decomposition key switching: key generation
//!   (with an optional error scale for BGV's `t·e` noise lattice), the
//!   digit-decomposition inner product, and hoisting.
//! * [`scheme`] — the [`scheme::SchemePolicy`] trait: what differs between
//!   schemes.
//! * [`encoding`], [`keys`], [`encrypt`], [`evaluator`] — the batch
//!   encoder, key material, ciphertexts with encryption/decryption, and
//!   the SIMD evaluator, generic over the policy.
//!
//! Like the scheme crates, this is research-grade code for reproducing a
//! paper: do not use it to protect real data.

pub mod batch;
pub mod bigint;
pub mod encoding;
pub mod encrypt;
pub mod evaluator;
pub mod keys;
pub mod keyswitch;
pub mod noise;
pub mod ntt;
pub mod params;
pub mod poly;
pub mod pool;
pub mod rns;
pub mod scheme;
pub mod zq;
