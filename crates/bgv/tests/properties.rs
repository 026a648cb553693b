//! Property-based tests for the BGV backend, mirroring the scheme-level
//! half of `crates/bfv/tests/properties.rs`: representation transparency
//! of the double-CRT form, homomorphic slot semantics of random circuits,
//! and (BGV-specific) plaintext invariance of modulus switching under
//! random ciphertexts. The number-theoretic proptests (bigints, NTT, CRT)
//! exercise the shared `rlwe-ring` crate and live with the BFV suite.

use bgv::encoding::BatchEncoder;
use bgv::encrypt::{Decryptor, Encryptor};
use bgv::evaluator::Evaluator;
use bgv::keys::KeyGenerator;
use bgv::params::{self, BgvContext};
use bgv::{ModSwitch, ModSwitchKey};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

struct Session<'a> {
    keygen: KeyGenerator<'a>,
    encryptor: Encryptor<'a>,
    decryptor: Decryptor<'a>,
    encoder: BatchEncoder<'a>,
    evaluator: Evaluator<'a>,
}

fn session<'a>(ctx: &'a BgvContext, rng: &mut rand::rngs::StdRng) -> Session<'a> {
    let keygen = KeyGenerator::new(ctx, rng);
    let encryptor = Encryptor::new(ctx, keygen.public_key(rng));
    let decryptor = Decryptor::new(ctx, keygen.secret_key().clone());
    Session {
        encryptor,
        decryptor,
        encoder: BatchEncoder::new(ctx),
        evaluator: Evaluator::new(ctx),
        keygen,
    }
}

// The double-CRT representation is semantically transparent: running the
// same random op sequence with ciphertexts bounced to coefficient form
// after every operation produces bit-identical decryptions to the
// evaluation-form-resident pipeline, and the noise budget never depends on
// the representation either.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn representation_is_transparent_to_every_op(seed in any::<u64>()) {
        let ctx = BgvContext::new(params::test_small()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = session(&ctx, &mut rng);
        let Session { keygen, encryptor, decryptor, encoder, evaluator: ev } = &s;
        let rk = keygen.relin_key(&mut rng);
        let gk = keygen.galois_keys_for_rotations(&[2], true, &mut rng);

        let t = ctx.params().plain_modulus;
        let va: Vec<u64> = (0..encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let vb: Vec<u64> = (0..encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let pt = encoder.encode(&vb);
        let other = encryptor.encrypt(&pt, &mut rng);
        // eval-resident pipeline vs coefficient-bounced pipeline
        let mut ct_eval = encryptor.encrypt(&encoder.encode(&va), &mut rng);
        let mut ct_coeff = ct_eval.to_coeff_form(&ctx);

        type Op<'s> = Box<dyn Fn(&bgv::Ciphertext) -> bgv::Ciphertext + 's>;
        let ops: Vec<(&str, Op)> = vec![
            ("add", Box::new(|c: &bgv::Ciphertext| ev.add(c, &other))),
            ("add_plain", Box::new(|c: &bgv::Ciphertext| ev.add_plain(c, &pt))),
            ("rotate", Box::new(|c: &bgv::Ciphertext| ev.rotate_rows(c, 2, &gk))),
            ("mul_plain", Box::new(|c: &bgv::Ciphertext| ev.mul_plain(c, &pt))),
            ("columns", Box::new(|c: &bgv::Ciphertext| ev.rotate_columns(c, &gk))),
            ("negate", Box::new(|c: &bgv::Ciphertext| ev.negate(c))),
            ("sub", Box::new(|c: &bgv::Ciphertext| ev.sub(c, &other))),
            ("mul_relin", Box::new(|c: &bgv::Ciphertext| ev.multiply_relin(c, &other, &rk))),
            ("sub_plain", Box::new(|c: &bgv::Ciphertext| ev.sub_plain(c, &pt))),
        ];
        for (name, op) in &ops {
            ct_eval = op(&ct_eval);
            ct_coeff = op(&ct_coeff).to_coeff_form(&ctx);
            let dec_eval = decryptor.decrypt(&ct_eval);
            let dec_coeff = decryptor.decrypt(&ct_coeff);
            prop_assert_eq!(
                dec_eval.coeffs(),
                dec_coeff.coeffs(),
                "decryptions diverged after {}", name
            );
            prop_assert_eq!(
                decryptor.invariant_noise_budget(&ct_eval),
                decryptor.invariant_noise_budget(&ct_coeff),
                "noise budget representation-dependent after {}", name
            );
            // converting back and forth is the identity on the ring element
            prop_assert_eq!(
                decryptor.invariant_noise_budget(&ct_eval),
                decryptor.invariant_noise_budget(&ct_eval.to_coeff_form(&ctx).to_eval_form(&ctx)),
                "form round-trip changed the ciphertext after {}", name
            );
        }
    }

    // Modulus switching is plaintext-invariant for arbitrary reachable
    // ciphertexts, not just the fixtures the unit tests pin: encrypt
    // random slots, optionally square, switch, decrypt under the
    // truncated secret.
    #[test]
    fn mod_switch_is_plaintext_invariant(seed in any::<u64>(), deep in any::<bool>()) {
        let ctx = BgvContext::new(params::test_small()).unwrap();
        let next = ctx.reduced().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = session(&ctx, &mut rng);
        let rk = s.keygen.relin_key(&mut rng);
        let t = ctx.params().plain_modulus;
        let v: Vec<u64> = (0..s.encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let ct = s.encryptor.encrypt(&s.encoder.encode(&v), &mut rng);
        let (ct, expect) = if deep {
            (
                s.evaluator.multiply_relin(&ct, &ct, &rk),
                v.iter().map(|&x| ((x as u128 * x as u128) % t as u128) as u64).collect(),
            )
        } else {
            (ct, v)
        };
        let switched = s.evaluator.mod_switch_to_next(&ct, &next);
        let dec2 = Decryptor::new(&next, s.keygen.secret_key().mod_switched(&next));
        let enc2 = BatchEncoder::new(&next);
        prop_assert!(dec2.invariant_noise_budget(&switched) > 0);
        prop_assert_eq!(enc2.decode(&dec2.decrypt(&switched)), expect);
    }
}

/// Hoisted rotations (one shared digit decomposition, permuted per Galois
/// element) decrypt slot-for-slot identically to sequential rotations,
/// with the same noise budget up to ±1 bit — mirrors the BFV suite's pin;
/// BGV's `t·e` key-switch error lattice is untouched by hoisting.
#[test]
fn hoisted_rotation_matches_sequential() {
    let ctx = BgvContext::new(params::test_small()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0157);
    let s = session(&ctx, &mut rng);
    let Session {
        keygen,
        encryptor,
        decryptor,
        encoder,
        evaluator: ev,
    } = &s;
    let gk = keygen.galois_keys_for_rotations(&[1, 2, 3], false, &mut rng);
    let t = ctx.params().plain_modulus;
    let va: Vec<u64> = (0..encoder.slot_count())
        .map(|_| rng.gen_range(0..t))
        .collect();
    let ct = encryptor.encrypt(&encoder.encode(&va), &mut rng);
    let hd = ev.hoist(&ct);
    for steps in [0i64, 1, 2, 3] {
        let hoisted = ev.rotate_rows_hoisted(&ct, &hd, steps, &gk);
        let sequential = ev.rotate_rows(&ct, steps, &gk);
        assert_eq!(
            encoder.decode(&decryptor.decrypt(&hoisted)),
            encoder.decode(&decryptor.decrypt(&sequential)),
            "steps={steps}"
        );
        let nb_h = decryptor.invariant_noise_budget(&hoisted);
        let nb_s = decryptor.invariant_noise_budget(&sequential);
        assert!(
            (nb_h - nb_s).abs() <= 1,
            "noise budget diverged at steps={steps}: hoisted {nb_h}, sequential {nb_s}"
        );
    }
    ev.recycle_hoisted(hd);
}

/// Homomorphic slot semantics: random circuits of adds/mults/rotations over
/// encrypted data agree with plaintext evaluation — the same circuit walk
/// as the BFV suite's, so a slot-semantics divergence between the two
/// backends shows up as exactly one of these failing.
#[test]
fn random_homomorphic_circuits_agree_with_plaintext() {
    let ctx = BgvContext::new(params::test_small()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let s = session(&ctx, &mut rng);
    let Session {
        keygen,
        encryptor,
        decryptor,
        encoder,
        evaluator: ev,
    } = &s;
    let rk = keygen.relin_key(&mut rng);
    let gk = keygen.galois_keys_for_rotations(&[1, 3], false, &mut rng);

    let t = ctx.params().plain_modulus;
    let half = encoder.row_size();
    for trial in 0..4 {
        let va: Vec<u64> = (0..encoder.slot_count())
            .map(|_| rng.gen_range(0..t))
            .collect();
        let vb: Vec<u64> = (0..encoder.slot_count())
            .map(|_| rng.gen_range(0..t))
            .collect();
        let mut ct = encryptor.encrypt(&encoder.encode(&va), &mut rng);
        let cb = encryptor.encrypt(&encoder.encode(&vb), &mut rng);
        let mut model = va.clone();

        for step in 0..5 {
            match (trial + step) % 4 {
                0 => {
                    ct = ev.add(&ct, &cb);
                    for i in 0..model.len() {
                        model[i] = (model[i] + vb[i]) % t;
                    }
                }
                1 => {
                    ct = ev.rotate_rows(&ct, 1, &gk);
                    let mut rotated = vec![0u64; model.len()];
                    for i in 0..half {
                        rotated[i] = model[(i + 1) % half];
                        rotated[half + i] = model[half + (i + 1) % half];
                    }
                    model = rotated;
                }
                2 => {
                    ct = ev.multiply_relin(&ct, &cb, &rk);
                    for i in 0..model.len() {
                        model[i] = ((model[i] as u128 * vb[i] as u128) % t as u128) as u64;
                    }
                }
                _ => {
                    ct = ev.sub(&ct, &cb);
                    for i in 0..model.len() {
                        model[i] = (model[i] + t - vb[i]) % t;
                    }
                }
            }
        }
        assert!(decryptor.invariant_noise_budget(&ct) > 0, "trial {trial}");
        assert_eq!(
            encoder.decode(&decryptor.decrypt(&ct)),
            model,
            "trial {trial}"
        );
    }
}
