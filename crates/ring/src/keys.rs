//! Key material: secret/public keys, relinearization keys, and Galois keys,
//! all using RNS-decomposition key switching ([`crate::keyswitch`]).
//!
//! Every error sample entering a key is scaled by the scheme's
//! [`SchemePolicy::error_scale`] — unscaled for BFV, `t·e` for BGV, whose
//! decryption reads the message out of the least-significant digit of the
//! phase and so needs all key noise on the multiples-of-`t` lattice. The
//! public key is `b = -(a·s + ε)`; relinearization keys switch from
//! `s' = s²` and Galois keys from `s' = σ_g(s)`, the latter caching the
//! evaluation-domain index permutation of their automorphism so rotations
//! never recompute it.

use crate::batch::{galois_element_for_column_swap, galois_element_for_rotation};
use crate::keyswitch::KeySwitchKey;
use crate::poly::RnsPoly;
use crate::scheme::SchemePolicy;
use rand::Rng;
use std::collections::HashMap;

/// The secret key: a ternary polynomial `s` (stored in evaluation form).
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// `s`, evaluation form.
    pub s: RnsPoly,
}

/// The public key: an RLWE sample `(b, a)` with `b = -(a·s + ε)`, in
/// evaluation form.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = -(a·s + ε)`.
    pub b: RnsPoly,
    /// The uniform mask `a`.
    pub a: RnsPoly,
}

/// Relinearization key: key-switch key for `s' = s²`.
#[derive(Debug, Clone)]
pub struct RelinKey(pub KeySwitchKey);

/// One Galois element's material: the key-switch key for `s' = σ_g(s)`
/// together with the cached evaluation-domain permutation of `σ_g` — kept
/// in one entry so key and permutation cannot drift apart.
#[derive(Debug, Clone)]
pub struct GaloisKeyEntry {
    /// The key-switch key from `σ_g(s)` to `s`.
    pub key: KeySwitchKey,
    /// The evaluation-domain index permutation of `σ_g`.
    pub perm: Vec<u32>,
}

/// Galois keys: one [`GaloisKeyEntry`] per Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    /// Entries by Galois element.
    pub keys: HashMap<u64, GaloisKeyEntry>,
}

impl GaloisKeys {
    /// The Galois elements covered by this key set.
    pub fn elements(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.keys.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether a key for Galois element `g` is present.
    pub fn contains(&self, g: u64) -> bool {
        self.keys.contains_key(&g)
    }
}

/// Generates all key material for one secret.
#[derive(Debug)]
pub struct KeyGenerator<'a, C> {
    ctx: &'a C,
    sk: SecretKey,
}

impl<'a, C: SchemePolicy> KeyGenerator<'a, C> {
    /// Samples a fresh ternary secret.
    pub fn new<R: Rng + ?Sized>(ctx: &'a C, rng: &mut R) -> Self {
        let ring = ctx.ring();
        let s = ring.to_eval(&ring.sample_ternary(rng));
        KeyGenerator {
            ctx,
            sk: SecretKey { s },
        }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Generates a public key.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> PublicKey {
        let ring = self.ctx.ring();
        let a = ring.sample_uniform(rng);
        let e = crate::keyswitch::sample_scaled_error(ring, self.ctx.error_scale(), rng);
        let b = ring.neg(&ring.add(&ring.mul(&a, &self.sk.s), &e));
        PublicKey { b, a }
    }

    /// Builds a key-switch key whose source key is `target` (e.g. `s²` or
    /// `σ_g(s)`, in evaluation form).
    fn key_switch_key<R: Rng + ?Sized>(&self, target: &RnsPoly, rng: &mut R) -> KeySwitchKey {
        let (ring, scale) = (self.ctx.ring(), self.ctx.error_scale());
        crate::keyswitch::key_switch_key(ring, &self.sk.s, target, scale, rng)
    }

    /// Generates the relinearization key (`s' = s²`).
    pub fn relin_key<R: Rng + ?Sized>(&self, rng: &mut R) -> RelinKey {
        let ring = self.ctx.ring();
        let s2 = ring.mul(&self.sk.s, &self.sk.s);
        RelinKey(self.key_switch_key(&s2, rng))
    }

    /// Generates Galois keys for the given Galois elements, caching each
    /// element's evaluation-domain permutation alongside its key.
    ///
    /// # Panics
    ///
    /// Panics if an element is even or out of range (see
    /// [`crate::poly::RingContext::galois_eval_permutation`]).
    pub fn galois_keys<R: Rng + ?Sized>(&self, elements: &[u64], rng: &mut R) -> GaloisKeys {
        let ring = self.ctx.ring();
        let mut keys = HashMap::new();
        for &g in elements {
            if g == 1 || keys.contains_key(&g) {
                continue;
            }
            let perm = ring.galois_eval_permutation(g);
            let s_g = ring.apply_eval_permutation(&self.sk.s, &perm);
            keys.insert(
                g,
                GaloisKeyEntry {
                    key: self.key_switch_key(&s_g, rng),
                    perm,
                },
            );
        }
        GaloisKeys { keys }
    }

    /// Generates Galois keys sufficient for `rotate_rows` by each of
    /// `steps` and, if `include_column_swap`, for `rotate_columns`.
    pub fn galois_keys_for_rotations<R: Rng + ?Sized>(
        &self,
        steps: &[i64],
        include_column_swap: bool,
        rng: &mut R,
    ) -> GaloisKeys {
        let n = self.ctx.params().poly_degree;
        let mut elements: Vec<u64> = steps
            .iter()
            .map(|&s| galois_element_for_rotation(n, s))
            .collect();
        if include_column_swap {
            elements.push(galois_element_for_column_swap(n));
        }
        self.galois_keys(&elements, rng)
    }
}
