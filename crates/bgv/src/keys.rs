//! BGV key material: the shared RNS-decomposition keys
//! ([`rlwe_ring::keys`]) over a [`BgvContext`], plus their truncation down
//! the modulus chain ([`ModSwitchKey`]).
//!
//! Every error term entering a BGV key is **scaled by `t`** (the context's
//! [`rlwe_ring::scheme::SchemePolicy::error_scale`]). BGV decryption reads
//! the plaintext out of the least-significant digit of the phase
//! (`w = m + t·noise mod Q`), so key material whose noise were not a
//! multiple of `t` would corrupt the message digit rather than merely
//! consuming budget. The public key is `b = -(a·s + t·e)`, and key-switch
//! keys carry `b_i = -(a_i·s + t·e_i) + γ_i·s'`.

use crate::params::BgvContext;
use crate::poly::RnsPoly;

pub use rlwe_ring::keys::{GaloisKeyEntry, GaloisKeys, PublicKey, RelinKey, SecretKey};
pub use rlwe_ring::keyswitch::KeySwitchKey;

/// Generates all key material for one secret.
///
/// # Examples
///
/// ```
/// use bgv::params::{self, BgvContext};
/// use bgv::keys::KeyGenerator;
/// use rand::SeedableRng;
///
/// let ctx = BgvContext::new(params::test_small())?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let keygen = KeyGenerator::new(&ctx, &mut rng);
/// let pk = keygen.public_key(&mut rng);
/// let rk = keygen.relin_key(&mut rng);
/// # let _ = (pk, rk);
/// # Ok::<(), bgv::params::ParamError>(())
/// ```
pub type KeyGenerator<'a> = rlwe_ring::keys::KeyGenerator<'a, BgvContext>;

/// Key material under the next context down the modulus chain.
///
/// Truncation is valid because evaluation form is per-prime independent:
/// the surviving RNS rows of a key are exactly its NTT images under the
/// surviving primes, and the CRT unit `γ_i` of the full chain restricted to
/// the surviving primes is still the CRT unit of the truncated chain.
pub trait ModSwitchKey: Sized {
    /// This key under `next`, with the RNS rows beyond `next`'s chain
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `next`'s chain is longer than the key's.
    fn mod_switched(&self, next: &BgvContext) -> Self;
}

impl ModSwitchKey for SecretKey {
    fn mod_switched(&self, next: &BgvContext) -> SecretKey {
        let keep = next.ring().num_primes();
        assert!(
            keep <= self.s.residues.len(),
            "target context has a longer chain than the key"
        );
        let mut s = self.s.clone();
        s.residues.truncate(keep);
        SecretKey { s }
    }
}

/// Truncates a key-switch key to the first `keep` chain primes: drops the
/// digit rows for vanished primes and each surviving row's residues beyond
/// the new chain.
fn truncate_ksk(ksk: &KeySwitchKey, keep: usize) -> KeySwitchKey {
    assert!(keep <= ksk.parts.len(), "cannot extend a key-switch key");
    let trunc = |p: &RnsPoly| {
        let mut p = p.clone();
        p.residues.truncate(keep);
        p
    };
    KeySwitchKey {
        parts: ksk.parts[..keep]
            .iter()
            .map(|(b, a)| (trunc(b), trunc(a)))
            .collect(),
        shoup: ksk.shoup[..keep]
            .iter()
            .map(|(bs, as_)| (bs[..keep].to_vec(), as_[..keep].to_vec()))
            .collect(),
    }
}

impl ModSwitchKey for RelinKey {
    fn mod_switched(&self, next: &BgvContext) -> RelinKey {
        RelinKey(truncate_ksk(&self.0, next.ring().num_primes()))
    }
}

/// The cached permutations are modulus-independent and carry over
/// unchanged.
impl ModSwitchKey for GaloisKeys {
    fn mod_switched(&self, next: &BgvContext) -> GaloisKeys {
        let keep = next.ring().num_primes();
        let keys = self.keys.iter().map(|(&g, e)| {
            let key = truncate_ksk(&e.key, keep);
            (
                g,
                GaloisKeyEntry {
                    key,
                    perm: e.perm.clone(),
                },
            )
        });
        GaloisKeys {
            keys: keys.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;
    use rand::SeedableRng;

    #[test]
    fn keygen_produces_distinct_parts() {
        let ctx = BgvContext::new(params::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let rk = kg.relin_key(&mut rng);
        assert_eq!(rk.0.parts.len(), ctx.ring().num_primes());
        assert_eq!(rk.0.shoup.len(), ctx.ring().num_primes());
        assert_ne!(rk.0.parts[0].1, rk.0.parts[1].1);
    }

    #[test]
    fn galois_keys_skip_identity_and_dedup() {
        let ctx = BgvContext::new(params::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1, 3, 3, 9], &mut rng);
        assert_eq!(gk.elements(), vec![3, 9]);
        assert!(gk.contains(3));
        assert!(!gk.contains(1));
        for g in gk.elements() {
            assert_eq!(gk.keys[&g].perm.len(), ctx.params().poly_degree);
        }
    }

    #[test]
    fn truncated_secret_matches_reduced_ring() {
        let ctx = BgvContext::new(params::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let next = ctx.reduced().unwrap();
        let sk2 = kg.secret_key().mod_switched(&next);
        assert_eq!(sk2.s.residues.len(), next.ring().num_primes());
        // The surviving rows are untouched.
        for (row, orig) in sk2.s.residues.iter().zip(&kg.secret_key().s.residues) {
            assert_eq!(row, orig);
        }
    }
}
