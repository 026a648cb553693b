//! Ciphertexts, public-key encryption, decryption, and the noise budget.
//!
//! A ciphertext `(c0, c1, …)` decrypts through its phase
//! `w = Σ_j c_j·s^j mod Q`, lifted to centered integers; the scheme policy
//! turns each phase coefficient into a plaintext coefficient (BFV rounds
//! `t·w/Q`, BGV reduces `w mod t`) and measures its noise. The budget is
//! SEAL's invariant-noise budget for BFV and the directly comparable
//! `log2(Q / (2·‖w‖))` for BGV, so the two meters line up in the
//! differential harness.

use crate::bigint::BigInt;
use crate::encoding::{EvalPlaintext, Plaintext};
use crate::keys::{PublicKey, SecretKey};
use crate::poly::RnsPoly;
use crate::scheme::SchemePolicy;
use rand::Rng;

/// An RLWE ciphertext: a vector of ring elements (size 2 fresh, size 3
/// after an unrelinearized multiply) decrypting via `Σ_j c_j · s^j`.
///
/// Parts are kept in evaluation (double-CRT) form on the hot path; the
/// form converters below exist for storage/serialization-style uses and
/// for testing that the representation is semantically transparent.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// The parts `c_j`.
    pub parts: Vec<RnsPoly>,
}

impl Ciphertext {
    /// Number of polynomial parts (2 or 3 in this implementation).
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// Number of RNS primes each part currently carries (drops as a BGV
    /// ciphertext modulus-switches down the chain).
    pub fn level_primes(&self) -> usize {
        self.parts[0].residues.len()
    }

    /// This ciphertext with every part in coefficient form.
    pub fn to_coeff_form<C: SchemePolicy>(&self, ctx: &C) -> Ciphertext {
        Ciphertext {
            parts: self.parts.iter().map(|p| ctx.ring().to_coeff(p)).collect(),
        }
    }

    /// This ciphertext with every part in evaluation (double-CRT) form.
    pub fn to_eval_form<C: SchemePolicy>(&self, ctx: &C) -> Ciphertext {
        Ciphertext {
            parts: self.parts.iter().map(|p| ctx.ring().to_eval(p)).collect(),
        }
    }
}

/// Public-key encryptor.
#[derive(Debug)]
pub struct Encryptor<'a, C> {
    ctx: &'a C,
    pk: PublicKey,
}

impl<'a, C: SchemePolicy> Encryptor<'a, C> {
    /// Creates an encryptor from a public key.
    pub fn new(ctx: &'a C, pk: PublicKey) -> Self {
        Encryptor { ctx, pk }
    }

    /// Encrypts a plaintext: `(b·u + ε_1 + [m], a·u + ε_2)` with `[m]` the
    /// scheme's lift of `m` (`Δ·m` or `m`) and `ε` the scheme-scaled
    /// errors, produced in evaluation form (the public key is already
    /// NTT-resident, so the two products are pointwise).
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let ring = self.ctx.ring();
        let scale = self.ctx.error_scale();
        let m = EvalPlaintext::new(self.ctx, pt);
        let u = ring.to_eval(&ring.sample_ternary(rng));
        let e1 = crate::keyswitch::sample_scaled_error(ring, scale, rng);
        let e2 = crate::keyswitch::sample_scaled_error(ring, scale, rng);
        let c0 = ring.add(&ring.add(&ring.mul(&self.pk.b, &u), &e1), m.c0_term());
        let c1 = ring.add(&ring.mul(&self.pk.a, &u), &e2);
        Ciphertext {
            parts: vec![c0, c1],
        }
    }
}

/// Secret-key decryptor and noise meter.
#[derive(Debug)]
pub struct Decryptor<'a, C> {
    ctx: &'a C,
    sk: SecretKey,
}

impl<'a, C: SchemePolicy> Decryptor<'a, C> {
    /// Creates a decryptor from the secret key. The key must live under the
    /// same chain as `ctx` (for a modulus-switched BGV ciphertext, the
    /// reduced context and a truncated key).
    pub fn new(ctx: &'a C, sk: SecretKey) -> Self {
        Decryptor { ctx, sk }
    }

    /// The raw phase `Σ_j c_j s^j mod Q`, lifted to centered integers.
    fn phase(&self, ct: &Ciphertext) -> Vec<BigInt> {
        let ring = self.ctx.ring();
        let mut acc = ct.parts[0].clone();
        let mut s_pow = self.sk.s.clone();
        for part in &ct.parts[1..] {
            acc = ring.add(&acc, &ring.mul(part, &s_pow));
            s_pow = ring.mul(&s_pow, &self.sk.s);
        }
        ring.lift_centered(&acc)
    }

    /// Decrypts each phase coefficient through the scheme policy.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let coeffs = self
            .phase(ct)
            .iter()
            .map(|w| self.ctx.decrypt_coeff(w))
            .collect();
        Plaintext { coeffs }
    }

    /// Noise budget in bits: `log2 Q` minus the largest per-coefficient
    /// noise (see [`SchemePolicy::noise_bits`]) minus one.
    ///
    /// A non-positive budget means decryption is no longer reliable.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> i64 {
        let q_bits = i64::from(self.ctx.ring().modulus().bits());
        let max_bits = self.phase(ct).iter().map(|w| self.ctx.noise_bits(w)).max();
        q_bits - i64::from(max_bits.unwrap_or(0)) - 1
    }
}
