//! Property-based tests for the number-theoretic core of the BFV
//! substrate: big integers against `u128` ground truth, NTT algebra, CRT
//! bijectivity, and homomorphic slot semantics.

use bfv::bigint::{center, BigInt, BigUint};
use bfv::ntt::{negacyclic_mul_schoolbook, NttTables};
use bfv::rns::RnsContext;
use bfv::zq;
use porcupine::codegen::Session;
use porcupine::scheme::BfvScheme;
use proptest::prelude::*;

proptest! {
    #[test]
    fn bigint_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
        let ba = BigUint::from_u128(a);
        let bb = BigUint::from_u128(b);
        let sum = ba.add(&bb);
        prop_assert_eq!(sum.sub(&bb), ba.clone());
        prop_assert_eq!(sum.sub(&ba), bb);
    }

    #[test]
    fn bigint_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn bigint_div_rem_reconstructs(a in any::<u128>(), b in 1..=u128::MAX) {
        let ba = BigUint::from_u128(a);
        let bb = BigUint::from_u128(b);
        let (q, r) = ba.div_rem(&bb);
        prop_assert_eq!(q.mul(&bb).add(&r), ba);
        prop_assert!(r.cmp_big(&bb) == std::cmp::Ordering::Less);
    }

    #[test]
    fn bigint_div_rem_multi_limb(limbs in prop::collection::vec(any::<u64>(), 3..6),
                                 dlimbs in prop::collection::vec(any::<u64>(), 2..4)) {
        let a = BigUint::from_limbs(limbs);
        let b = BigUint::from_limbs(dlimbs);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r.cmp_big(&b) == std::cmp::Ordering::Less);
    }

    #[test]
    fn bigint_shifts_are_mul_div_by_powers(a in any::<u128>(), sh in 0u32..100) {
        let ba = BigUint::from_u128(a);
        let shifted = ba.shl_bits(sh);
        prop_assert_eq!(shifted.shr_bits(sh), ba.clone());
        // shl then rem_u64 by 2 == 0 for sh >= 1
        if sh >= 1 && !ba.is_zero() {
            prop_assert_eq!(shifted.rem_u64(2), 0);
        }
    }

    #[test]
    fn signed_arithmetic_matches_i128(a in -(1i128 << 62)..(1i128 << 62),
                                      b in -(1i128 << 62)..(1i128 << 62)) {
        let ba = BigInt { mag: BigUint::from_u128(a.unsigned_abs()), neg: a < 0 };
        let bb = BigInt { mag: BigUint::from_u128(b.unsigned_abs()), neg: b < 0 };
        let sum = ba.add(&bb);
        let expect = a + b;
        prop_assert_eq!(sum.mag.to_u128(), Some(expect.unsigned_abs()));
        if expect != 0 {
            prop_assert_eq!(sum.neg, expect < 0);
        }
    }

    #[test]
    fn center_is_inverse_of_mod(v in any::<u64>()) {
        let q = BigUint::from_u64(1_000_003);
        let x = BigUint::from_u64(v % 1_000_003);
        let c = center(&x, &q);
        prop_assert_eq!(c.rem_euclid_u64(1_000_003), v % 1_000_003);
    }

    #[test]
    fn pow_mod_fermat(a in 2u64..65536) {
        // a^(p-1) = 1 mod p for prime p not dividing a
        prop_assert_eq!(zq::pow_mod(a, 65536, 65537), if a % 65537 == 0 { 0 } else { 1 });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ntt_multiply_matches_schoolbook(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let n = 32;
        let p = zq::ntt_primes(45, 2 * n as u64, 1, &[])[0];
        let t = NttTables::new(p, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        prop_assert_eq!(t.multiply(&a, &b), negacyclic_mul_schoolbook(&a, &b, p));
    }

    #[test]
    fn crt_roundtrip_random_residues(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let primes = zq::ntt_primes(45, 64, 4, &[]);
        let ctx = RnsContext::new(primes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let residues: Vec<u64> = ctx.primes().iter().map(|&p| rng.gen_range(0..p)).collect();
        let x = ctx.reconstruct(&residues);
        prop_assert_eq!(ctx.decompose(&x), residues);
    }
}

// The double-CRT representation is semantically transparent: running the
// same random op sequence with ciphertexts bounced to coefficient form
// after every operation produces bit-identical decryptions to the
// evaluation-form-resident pipeline, and the invariant noise budget never
// depends on the representation either.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn representation_is_transparent_to_every_op(seed in any::<u64>()) {
        use test_support::{seeded_rng, small_ctx};

        let ctx = small_ctx();
        let mut rng = seeded_rng(seed);
        let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
        let Session {
            keygen,
            encryptor,
            decryptor,
            runner,
        } = &session;
        let (encoder, ev) = (runner.encoder(), runner.evaluator());
        let rk = keygen.relin_key(&mut rng);
        let gk = keygen.galois_keys_for_rotations(&[2], true, &mut rng);

        use rand::Rng;
        let t = ctx.params().plain_modulus;
        let va: Vec<u64> = (0..encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let vb: Vec<u64> = (0..encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let pt = encoder.encode(&vb);
        let other = encryptor.encrypt(&pt, &mut rng);
        // eval-resident pipeline vs coefficient-bounced pipeline
        let mut ct_eval = encryptor.encrypt(&encoder.encode(&va), &mut rng);
        let mut ct_coeff = ct_eval.to_coeff_form(&ctx);

        type Op<'s> = Box<dyn Fn(&bfv::Ciphertext) -> bfv::Ciphertext + 's>;
        let ops: Vec<(&str, Op)> = vec![
            ("add", Box::new(|c: &bfv::Ciphertext| ev.add(c, &other))),
            ("add_plain", Box::new(|c: &bfv::Ciphertext| ev.add_plain(c, &pt))),
            ("rotate", Box::new(|c: &bfv::Ciphertext| ev.rotate_rows(c, 2, &gk))),
            ("mul_plain", Box::new(|c: &bfv::Ciphertext| ev.mul_plain(c, &pt))),
            ("columns", Box::new(|c: &bfv::Ciphertext| ev.rotate_columns(c, &gk))),
            ("negate", Box::new(|c: &bfv::Ciphertext| ev.negate(c))),
            ("sub", Box::new(|c: &bfv::Ciphertext| ev.sub(c, &other))),
            ("mul_relin", Box::new(|c: &bfv::Ciphertext| ev.multiply_relin(c, &other, &rk))),
            ("sub_plain", Box::new(|c: &bfv::Ciphertext| ev.sub_plain(c, &pt))),
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
}

// A square (one ciphertext passed as both multiply operands) extends its
// operand into the auxiliary base once and reuses it on both sides of the
// tensor; the result must be bit-for-bit the general two-operand multiply
// of a copy, relinearized or not, for evaluation- and coefficient-form
// operands alike.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn square_matches_multiply_by_a_copy(seed in any::<u64>()) {
        use rand::Rng;
        use test_support::{seeded_rng, small_ctx};

        let ctx = small_ctx();
        let mut rng = seeded_rng(seed);
        let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
        let Session { keygen, encryptor, runner, .. } = &session;
        let (encoder, ev) = (runner.encoder(), runner.evaluator());
        let rk = keygen.relin_key(&mut rng);
        let t = ctx.params().plain_modulus;
        let va: Vec<u64> = (0..encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let a = encryptor.encrypt(&encoder.encode(&va), &mut rng);
        for a in [a.to_coeff_form(&ctx), a] {
            let copy = a.clone();
            prop_assert_eq!(ev.multiply(&a, &a).parts, ev.multiply(&a, &copy).parts);
            prop_assert_eq!(
                ev.multiply_relin(&a, &a, &rk).parts,
                ev.multiply_relin(&a, &copy, &rk).parts
            );
        }
    }
}

/// Hoisted rotations (one shared digit decomposition, permuted per Galois
/// element) decrypt slot-for-slot identically to sequential rotations,
/// with the same noise budget up to ±1 bit — the permuted digits are a
/// different-but-equally-small decomposition of the rotated polynomial.
#[test]
fn hoisted_rotation_matches_sequential() {
    use rand::Rng;
    use test_support::{seeded_rng, small_ctx};

    let ctx = small_ctx();
    let mut rng = seeded_rng(0xB0157);
    let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
    let Session {
        keygen,
        encryptor,
        decryptor,
        runner,
    } = &session;
    let (encoder, ev) = (runner.encoder(), runner.evaluator());
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
/// encrypted data agree with plaintext evaluation.
#[test]
fn random_homomorphic_circuits_agree_with_plaintext() {
    use rand::Rng;
    use test_support::{seeded_rng, small_ctx};

    let ctx = small_ctx();
    let mut rng = seeded_rng(0x5EED);
    let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
    let Session {
        keygen,
        encryptor,
        decryptor,
        runner,
    } = &session;
    let (encoder, ev) = (runner.encoder(), runner.evaluator());
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

/// The parameter sets the decryption oracle tests cover: the unit-test
/// preset, the integration preset, and a nine-prime 60-bit chain (Garner
/// and Shoup arithmetic at the widest supported primes).
fn oracle_param_sets() -> Vec<bfv::BfvParams> {
    vec![
        bfv::BfvParams::test_small(),
        bfv::BfvParams::fast_4096(),
        bfv::BfvParams::generate(64, 65537, 60, 9).unwrap(),
    ]
}

/// BFV decryption by big integers: the centered phase `w = Σ c_j·s^j`,
/// then `round(t·w/Q) mod t` per coefficient.
fn bigint_oracle_decrypt(
    ctx: &bfv::BfvContext,
    sk: &bfv::SecretKey,
    ct: &bfv::Ciphertext,
) -> Vec<u64> {
    let ring = ctx.ring();
    let t = ctx.params().plain_modulus;
    let mut w = ct.parts[0].clone();
    let mut s_pow = sk.s.clone();
    for part in &ct.parts[1..] {
        w = ring.add(&w, &ring.mul(part, &s_pow));
        s_pow = ring.mul(&s_pow, &sk.s);
    }
    ring.lift_centered(&w)
        .iter()
        .map(|w| w.mul_div_round(t, ring.modulus()).rem_euclid_u64(t))
        .collect()
}

// Decryption never leaves machine words (an exact base conversion onto
// `t`); on arbitrary ciphertexts — uniform parts, so no noise bound holds —
// it still equals the big-integer rounding.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn decrypt_matches_bigint_oracle(seed in any::<u64>()) {
        let mut rng = test_support::seeded_rng(seed);
        for params in oracle_param_sets() {
            let ctx = bfv::BfvContext::new(params).unwrap();
            let sk = bfv::KeyGenerator::new(&ctx, &mut rng).secret_key().clone();
            let dec = bfv::Decryptor::new(&ctx, sk.clone());
            for size in [2, 3] {
                let parts = (0..size).map(|_| ctx.ring().sample_uniform(&mut rng)).collect();
                let ct = bfv::Ciphertext { parts };
                prop_assert_eq!(
                    dec.decrypt(&ct).coeffs,
                    bigint_oracle_decrypt(&ctx, &sk, &ct),
                    "N = {}, {} primes, size {}",
                    ctx.ring().degree(), ctx.ring().num_primes(), size
                );
            }
        }
    }
}

/// Crafted phases at the edges of the centered range and on both sides of
/// every rounding boundary `⌊(2y+1)·Q/(2t)⌋ + {0, 1}` (where `t·w/Q`
/// crosses `y + 1/2`) decrypt to the known rounding, as the big-integer
/// oracle does.
#[test]
fn decrypt_matches_bigint_oracle_on_crafted_phases() {
    let mut rng = test_support::seeded_rng(0xDEC);
    for params in oracle_param_sets() {
        let ctx = bfv::BfvContext::new(params).unwrap();
        let ring = ctx.ring();
        let q = ring.modulus();
        let t = ctx.params().plain_modulus;
        let neg = |m: u64| (t - m) % t;
        // (phase, round(t·phase/Q) mod t); ±⌊Q/2⌋ sits just inside ±t/2.
        let half_q = BigInt::from_biguint(q.shr_bits(1));
        let mut cases = vec![
            (BigInt::zero(), 0),
            (BigInt::from_i64(1), 0),
            (BigInt::from_i64(-1), 0),
            (half_q.clone(), t / 2),
            (half_q.negate(), neg(t / 2)),
        ];
        for y in [0, 1, t / 2 - 1, t / 2, t - 2, t - 1] {
            let (edge, _) = q.mul_u64(2 * y + 1).div_rem_u64(2 * t);
            let edge = BigInt::from_biguint(edge);
            let above = edge.add(&BigInt::from_i64(1));
            let y1 = (y + 1) % t;
            cases.extend([
                (edge.negate(), neg(y)),
                (above.negate(), neg(y1)),
                (edge, y),
                (above, y1),
            ]);
        }

        let sk = bfv::KeyGenerator::new(&ctx, &mut rng).secret_key().clone();
        let dec = bfv::Decryptor::new(&ctx, sk.clone());
        for chunk in cases.chunks(ring.degree()) {
            let mut phase: Vec<BigInt> = chunk.iter().map(|(w, _)| w.clone()).collect();
            phase.resize(ring.degree(), BigInt::zero());
            // (w − c1·s, c1) has phase exactly w.
            let c1 = ring.sample_uniform(&mut rng);
            let c0 = ring.sub(&ring.from_centered(&phase), &ring.mul(&c1, &sk.s));
            let ct = bfv::Ciphertext {
                parts: vec![c0, c1],
            };
            let oracle = bigint_oracle_decrypt(&ctx, &sk, &ct);
            let got = dec.decrypt(&ct).coeffs;
            assert_eq!(got, oracle, "N = {}", ring.degree());
            let known: Vec<u64> = chunk.iter().map(|&(_, m)| m).collect();
            assert_eq!(got[..chunk.len()], known[..], "N = {}", ring.degree());
        }
    }
}
