//! Ciphertexts, public-key encryption, decryption, and the noise budget.
//!
//! A ciphertext `(c0, c1, …)` decrypts through its phase
//! `w = Σ_j c_j·s^j mod Q`. Decryption stays in machine words: one exact
//! centered base conversion moves the phase from `Q` onto `t`, between the
//! scheme's [`SchemePolicy::decrypt_rescale`] scalars (BFV rounds `t·w/Q`,
//! BGV reduces `w mod t`). Only the noise meter lifts the phase to centered
//! big integers and asks the policy how much noise each carries. The budget is
//! SEAL's invariant-noise budget for BFV and the directly comparable
//! `log2(Q / (2·‖w‖))` for BGV, so the two meters line up in the
//! differential harness.

use crate::encoding::Plaintext;
use crate::keys::{PublicKey, SecretKey};
use crate::keyswitch::{sample_scaled_error, sample_scaled_error_coeff};
use crate::poly::RnsPoly;
use crate::rns::RnsBaseConverter;
use crate::scheme::SchemePolicy;
use crate::zq::{mul_mod_shoup, shoup_precompute};
use rand::Rng;
use std::borrow::Cow;

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
    /// NTT-resident, so the two products are pointwise). `ε_1 + [m]` is
    /// summed in coefficient form and transformed once: the NTT is linear,
    /// so the residues match transforming each term on its own.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let ring = self.ctx.ring();
        let scale = self.ctx.error_scale();
        let u = ring.to_eval(&ring.sample_ternary(rng));
        let mut e1_m = sample_scaled_error_coeff(ring, scale, rng);
        let m = ring.from_u64_coeffs(&pt.coeffs);
        ring.add_assign(&mut e1_m, &self.ctx.lift_plain(&m).unwrap_or(m));
        ring.make_eval(&mut e1_m);
        let e2 = sample_scaled_error(ring, scale, rng);
        let mut c0 = ring.mul(&self.pk.b, &u);
        ring.add_assign(&mut c0, &e1_m);
        let mut c1 = ring.mul(&self.pk.a, &u);
        ring.add_assign(&mut c1, &e2);
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
    /// Exact centered conversion of the phase from `Q` onto `[t]`.
    to_plain: RnsBaseConverter,
}

impl<'a, C: SchemePolicy> Decryptor<'a, C> {
    /// Creates a decryptor from the secret key. The key must live under the
    /// same chain as `ctx` (for a modulus-switched BGV ciphertext, the
    /// reduced context and a truncated key).
    pub fn new(ctx: &'a C, sk: SecretKey) -> Self {
        let to_plain = RnsBaseConverter::new(ctx.ring().rns(), &[ctx.params().plain_modulus]);
        Decryptor { ctx, sk, to_plain }
    }

    /// The raw phase `Σ_j c_j s^j mod Q`, in coefficient form.
    fn phase(&self, ct: &Ciphertext) -> RnsPoly {
        let ring = self.ctx.ring();
        let mut acc = ct.parts[0].clone();
        let mut s_pow = Cow::Borrowed(&self.sk.s);
        for (j, part) in ct.parts.iter().enumerate().skip(1) {
            if j > 1 {
                s_pow = Cow::Owned(ring.mul(&s_pow, &self.sk.s));
            }
            ring.add_assign(&mut acc, &ring.mul(part, &s_pow));
        }
        ring.make_coeff(&mut acc);
        acc
    }

    /// Decrypts without leaving machine words: `[w]_Q mod t` for BGV, and
    /// for BFV `round(t·w/Q) mod t` as `−[t·w]_Q·Q⁻¹ mod t` (see
    /// [`SchemePolicy::decrypt_rescale`]). Exact for every ciphertext.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let ring = self.ctx.ring();
        let rescale = self.ctx.decrypt_rescale();
        let mut w = self.phase(ct);
        if let Some((t_mod_q, _)) = rescale {
            for ((row, &q), &(f, f_shoup)) in w.residues.iter_mut().zip(ring.primes()).zip(t_mod_q)
            {
                row.iter_mut()
                    .for_each(|x| *x = mul_mod_shoup(*x, f, f_shoup, q));
            }
        }
        let mut coeffs = self.to_plain.convert_centered(&w.residues).swap_remove(0);
        if let Some((_, post)) = rescale {
            let t = self.ctx.params().plain_modulus;
            let post_shoup = shoup_precompute(post, t);
            coeffs
                .iter_mut()
                .for_each(|c| *c = mul_mod_shoup(*c, post, post_shoup, t));
        }
        Plaintext { coeffs }
    }

    /// Noise budget in bits: `log2 Q` minus the largest per-coefficient
    /// noise (see [`SchemePolicy::noise_bits`]) minus one.
    ///
    /// A non-positive budget means decryption is no longer reliable.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> i64 {
        let ring = self.ctx.ring();
        let q_bits = i64::from(ring.modulus().bits());
        let max_bits = ring
            .lift_centered(&self.phase(ct))
            .iter()
            .map(|w| self.ctx.noise_bits(w))
            .max();
        q_bits - i64::from(max_bits.unwrap_or(0)) - 1
    }
}
