//! BGV ciphertexts, encryption, decryption, and the noise budget: the
//! shared machinery ([`rlwe_ring::encrypt`]) over a [`BgvContext`].
//!
//! BGV keeps the message in the **least-significant digit** of the phase:
//! a ciphertext `(c0, c1)` satisfies `c0 + c1·s = m + t·E (mod Q)` for a
//! small noise polynomial `E`. Encryption is `(b·u + t·e_1 + m,
//! a·u + t·e_2)`; decryption converts the phase exactly onto `t` from its
//! centered representative (correct while `‖m + t·E‖∞ < Q/2`), all in
//! machine words — no rounding, no `Δ` scaling. The noise budget is
//! correspondingly direct:
//! `log2(Q / (2·‖w‖))` bits where `w` is the centered phase. To decrypt a
//! modulus-switched ciphertext, build the decryptor over the
//! [`BgvContext::reduced`] context with a
//! [`crate::keys::ModSwitchKey::mod_switched`] key.

use crate::params::BgvContext;

pub use rlwe_ring::encrypt::Ciphertext;

/// Public-key encryptor over a BGV context.
pub type Encryptor<'a> = rlwe_ring::encrypt::Encryptor<'a, BgvContext>;

/// Secret-key decryptor and noise meter over a BGV context.
pub type Decryptor<'a> = rlwe_ring::encrypt::Decryptor<'a, BgvContext>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::keys::KeyGenerator;
    use crate::params;
    use rand::SeedableRng;

    fn setup() -> (BgvContext, rand::rngs::StdRng) {
        (
            BgvContext::new(params::test_small()).unwrap(),
            rand::rngs::StdRng::seed_from_u64(0xB64),
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
        use rand::Rng;
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

    /// BGV also runs over BFV-style chains (plain NTT primes) — the
    /// encryption/decryption path never needs switch-friendly primes.
    #[test]
    fn roundtrip_under_bfv_test_params() {
        let ctx = BgvContext::new(crate::params::BgvParams::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);
        let v = vec![9u64, 8, 7, 6];
        let ct = enc.encrypt(&encoder.encode(&v), &mut rng);
        assert_eq!(encoder.decode(&dec.decrypt(&ct))[..4], v[..]);
    }
}
