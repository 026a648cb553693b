//! Allocation-regression and in-place-equivalence tests for the
//! evaluator's hot path (ISSUE 6).
//!
//! The evaluator's `_assign` variants plus cached [`bfv::encoding::EvalPlaintext`]s
//! are required to (a) take **zero fresh buffers** from the scratch pool
//! once it is warm — every matrix and row request must be served from the
//! freelists — and (b) stay bit-identical to the pure operations, with the
//! same invariant noise budget. (a) is what keeps measured kernel latency
//! at the cost model's op-sum; (b) is why the runner may use them freely.

use bfv::Ciphertext;
use porcupine::codegen::Session;
use porcupine::scheme::BfvScheme;
use proptest::prelude::*;
use test_support::{seeded_rng, small_ctx};

/// After one warm-up pass, the steady-state hot path must be served
/// entirely from the pool's freelists: the `fresh` counter stays flat
/// while `reused` keeps climbing.
#[test]
fn hot_path_ops_take_no_fresh_buffers_after_warmup() {
    let ctx = small_ctx();
    let mut rng = seeded_rng(0xA110C);
    let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
    let Session {
        keygen,
        encryptor,
        runner,
        ..
    } = &session;
    let (encoder, ev) = (runner.encoder(), runner.evaluator());
    let rk = keygen.relin_key(&mut rng);
    let gk = keygen.galois_keys_for_rotations(&[1], true, &mut rng);
    let t = ctx.params().plain_modulus;
    let data: Vec<u64> = (0..encoder.slot_count() as u64).map(|i| i % t).collect();
    let pt = encoder.encode(&data);
    let ept = ev.preencode(&pt);
    let a = encryptor.encrypt(&pt, &mut rng);
    let b = encryptor.encrypt(&pt, &mut rng);

    let mut acc = a.clone();
    let mut acc_rot = a.clone();
    let pass = |acc: &mut Ciphertext, acc_rot: &mut Ciphertext| {
        ev.add_assign(acc, &b);
        ev.sub_assign(acc, &b);
        ev.add_plain_assign(acc, &ept);
        ev.sub_plain_assign(acc, &ept);
        ev.mul_plain_assign(acc, &ept);
        ev.negate_assign(acc);
        ev.rotate_rows_assign(acc_rot, 1, &gk);
        ev.rotate_columns_assign(acc_rot, &gk);
        ev.recycle(ev.multiply(&a, &b));
        ev.recycle(ev.multiply_relin(&a, &b, &rk));
        ev.recycle(ev.multiply(&a, &a));
        ev.recycle(ev.multiply_relin(&a, &a, &rk));
    };
    // Warm-up: the first pass may allocate its working set.
    pass(&mut acc, &mut acc_rot);
    let warm = ev.pool_stats();
    for _ in 0..5 {
        pass(&mut acc, &mut acc_rot);
    }
    let steady = ev.pool_stats();
    assert_eq!(
        steady.fresh, warm.fresh,
        "steady-state evaluator ops allocated fresh pool buffers \
         (warm: {warm:?}, steady: {steady:?})"
    );
    assert!(
        steady.reused > warm.reused,
        "steady-state ops never touched the pool (warm: {warm:?}, steady: {steady:?})"
    );
}

/// The outer `Ciphertext` part shells are pooled too (ISSUE 7): a
/// multiply → recycle loop reuses the product's part vector and residue
/// matrices, so the steady state performs **zero** fresh shell
/// allocations.
#[test]
fn recycled_ciphertext_shells_are_reused_by_multiply() {
    let ctx = small_ctx();
    let mut rng = seeded_rng(0x5E11);
    let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
    let Session {
        keygen,
        encryptor,
        runner,
        ..
    } = &session;
    let (encoder, ev) = (runner.encoder(), runner.evaluator());
    let rk = keygen.relin_key(&mut rng);
    let pt = encoder.encode(&[4, 5, 6]);
    let a = encryptor.encrypt(&pt, &mut rng);
    let b = encryptor.encrypt(&pt, &mut rng);

    // Warm-up: first multiply builds the working set (including the
    // size-3 part shell) from fresh allocations.
    ev.recycle(ev.multiply(&a, &b));
    ev.recycle(ev.multiply_relin(&a, &b, &rk));
    let warm = ev.pool_stats();
    for _ in 0..8 {
        ev.recycle(ev.multiply(&a, &b));
        ev.recycle(ev.multiply_relin(&a, &b, &rk));
    }
    let steady = ev.pool_stats();
    assert_eq!(
        steady.fresh, warm.fresh,
        "steady-state multiply/recycle allocated fresh shells \
         (warm: {warm:?}, steady: {steady:?})"
    );
    assert!(
        steady.reused > warm.reused,
        "multiply/recycle never touched the pool (warm: {warm:?}, steady: {steady:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every in-place variant and the cached-`EvalPlaintext` path decrypt
    /// bit-identically to the pure functions, with the same invariant
    /// noise budget.
    #[test]
    fn in_place_and_cached_paths_match_pure_ops(seed in any::<u64>()) {
        use rand::Rng;

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
        let gk = keygen.galois_keys_for_rotations(&[3], true, &mut rng);
        let t = ctx.params().plain_modulus;
        let vals: Vec<u64> = (0..encoder.slot_count()).map(|_| rng.gen_range(0..t)).collect();
        let pt = encoder.encode(&vals);
        // Both encode-once routes must agree with the per-op encode the
        // pure functions perform internally.
        let cached = ev.preencode(&pt);
        let direct = encoder.encode_eval(&vals);
        let a = encryptor.encrypt(&encoder.encode(&vals), &mut rng);
        let b = encryptor.encrypt(&pt, &mut rng);

        type Pure<'s> = Box<dyn Fn(&Ciphertext) -> Ciphertext + 's>;
        type Assign<'s> = Box<dyn Fn(&mut Ciphertext) + 's>;
        let pairs: Vec<(&str, Pure, Assign)> = vec![
            ("add", Box::new(|c: &_| ev.add(c, &b)), Box::new(|c: &mut _| ev.add_assign(c, &b))),
            ("sub", Box::new(|c: &_| ev.sub(c, &b)), Box::new(|c: &mut _| ev.sub_assign(c, &b))),
            ("negate", Box::new(|c: &_| ev.negate(c)), Box::new(|c: &mut _| ev.negate_assign(c))),
            (
                "add_plain",
                Box::new(|c: &_| ev.add_plain(c, &pt)),
                Box::new(|c: &mut _| ev.add_plain_assign(c, &cached)),
            ),
            (
                "sub_plain",
                Box::new(|c: &_| ev.sub_plain(c, &pt)),
                Box::new(|c: &mut _| ev.sub_plain_assign(c, &direct)),
            ),
            (
                "mul_plain",
                Box::new(|c: &_| ev.mul_plain(c, &pt)),
                Box::new(|c: &mut _| ev.mul_plain_assign(c, &cached)),
            ),
            (
                "rotate_rows",
                Box::new(|c: &_| ev.rotate_rows(c, 3, &gk)),
                Box::new(|c: &mut _| ev.rotate_rows_assign(c, 3, &gk)),
            ),
            (
                "rotate_columns",
                Box::new(|c: &_| ev.rotate_columns(c, &gk)),
                Box::new(|c: &mut _| ev.rotate_columns_assign(c, &gk)),
            ),
            (
                "multiply_relin",
                Box::new(|c: &_| ev.multiply_relin(c, &b, &rk)),
                Box::new(|c: &mut _| {
                    let prod = ev.multiply(c, &b);
                    *c = prod;
                    ev.relinearize_assign(c, &rk);
                }),
            ),
        ];
        let mut ct = a.clone();
        for (name, pure, assign) in &pairs {
            let want = pure(&ct);
            let mut got = ct.clone();
            assign(&mut got);
            let (dec_want, dec_got) = (decryptor.decrypt(&want), decryptor.decrypt(&got));
            prop_assert_eq!(
                dec_want.coeffs(),
                dec_got.coeffs(),
                "decryptions diverged after {}", name
            );
            prop_assert_eq!(
                decryptor.invariant_noise_budget(&want),
                decryptor.invariant_noise_budget(&got),
                "noise budget diverged after {}", name
            );
            ct = got;
        }
    }
}
