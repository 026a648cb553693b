//! BFV key material: the shared RNS-decomposition keys
//! ([`rlwe_ring::keys`]) over a [`BfvContext`], with unscaled errors.

use crate::params::BfvContext;

pub use rlwe_ring::keys::{GaloisKeyEntry, GaloisKeys, PublicKey, RelinKey, SecretKey};
pub use rlwe_ring::keyswitch::KeySwitchKey;

/// Generates all key material for one secret.
///
/// # Examples
///
/// ```
/// use bfv::params::{BfvContext, BfvParams};
/// use bfv::keys::KeyGenerator;
/// use rand::SeedableRng;
///
/// let ctx = BfvContext::new(BfvParams::test_small())?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let keygen = KeyGenerator::new(&ctx, &mut rng);
/// let pk = keygen.public_key(&mut rng);
/// let rk = keygen.relin_key(&mut rng);
/// # let _ = (pk, rk);
/// # Ok::<(), bfv::params::ParamError>(())
/// ```
pub type KeyGenerator<'a> = rlwe_ring::keys::KeyGenerator<'a, BfvContext>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BfvParams;
    use rand::SeedableRng;

    #[test]
    fn keygen_produces_distinct_parts() {
        let ctx = BfvContext::new(BfvParams::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let rk = kg.relin_key(&mut rng);
        assert_eq!(rk.0.parts.len(), ctx.ring().num_primes());
        assert_eq!(rk.0.shoup.len(), ctx.ring().num_primes());
        assert_ne!(rk.0.parts[0].1, rk.0.parts[1].1);
    }

    #[test]
    fn galois_keys_skip_identity_and_dedup() {
        let ctx = BfvContext::new(BfvParams::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1, 3, 3, 9], &mut rng);
        assert_eq!(gk.elements(), vec![3, 9]);
        assert!(gk.contains(3));
        assert!(!gk.contains(1));
        // every key comes with its cached eval-domain permutation
        for g in gk.elements() {
            assert_eq!(gk.keys[&g].perm.len(), ctx.params().poly_degree);
        }
    }

    #[test]
    fn rotation_key_helper_collects_elements() {
        let ctx = BfvContext::new(BfvParams::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys_for_rotations(&[1, -1, 4], true, &mut rng);
        assert_eq!(gk.elements().len(), 4);
    }
}
