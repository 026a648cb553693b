//! BFV ciphertexts, encryption, decryption, and the invariant-noise
//! budget: the shared machinery ([`rlwe_ring::encrypt`]) over a
//! [`BfvContext`]. Encryption adds `Δ·m` to `c0`; decryption computes
//! `round(t·w/Q) mod t` per phase coefficient, and the budget is SEAL's
//! `log2(Q / (2·‖t·w mod Q‖))`.

use crate::params::BfvContext;

pub use rlwe_ring::encrypt::Ciphertext;

/// Public-key encryptor over a BFV context.
pub type Encryptor<'a> = rlwe_ring::encrypt::Encryptor<'a, BfvContext>;

/// Secret-key decryptor and noise meter over a BFV context.
pub type Decryptor<'a> = rlwe_ring::encrypt::Decryptor<'a, BfvContext>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::keys::KeyGenerator;
    use crate::params::BfvParams;
    use rand::{Rng, SeedableRng};

    fn setup() -> (BfvContext, rand::rngs::StdRng) {
        (
            BfvContext::new(BfvParams::test_small()).unwrap(),
            rand::rngs::StdRng::seed_from_u64(0xBF),
        )
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, mut rng) = setup();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);

        let t = ctx.params().plain_modulus;
        let v: Vec<u64> = (0..encoder.slot_count() as u64)
            .map(|i| (i * 31 + 5) % t)
            .collect();
        let ct = enc.encrypt(&encoder.encode(&v), &mut rng);
        assert_eq!(encoder.decode(&dec.decrypt(&ct)), v);
    }

    #[test]
    fn fresh_budget_is_large() {
        let (ctx, mut rng) = setup();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);
        let ct = enc.encrypt(&encoder.encode(&[1, 2, 3]), &mut rng);
        let budget = dec.invariant_noise_budget(&ct);
        assert!(budget > 60, "fresh budget {budget} too small");
    }

    #[test]
    fn different_randomness_different_ciphertexts() {
        let (ctx, mut rng) = setup();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let encoder = BatchEncoder::new(&ctx);
        let pt = encoder.encode(&[42]);
        let c1 = enc.encrypt(&pt, &mut rng);
        let c2 = enc.encrypt(&pt, &mut rng);
        assert_ne!(c1.parts[0], c2.parts[0]);
    }

    #[test]
    fn decrypts_random_full_slots() {
        let (ctx, mut rng) = setup();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);
        let t = ctx.params().plain_modulus;
        for trial in 0..3 {
            let v: Vec<u64> = (0..encoder.slot_count())
                .map(|_| rng.gen_range(0..t))
                .collect();
            let ct = enc.encrypt(&encoder.encode(&v), &mut rng);
            assert_eq!(encoder.decode(&dec.decrypt(&ct)), v, "trial {trial}");
        }
    }
}
