//! Property-based tests for the middle-end: every pass, and the full `-O`
//! pipelines, must preserve semantics on randomly generated valid programs
//! — exactly (interpreter slots) and on the encrypted backend (decryption
//! bit-identical between the `-O0` and `-O2` lowerings).

use porcupine::codegen::Session;
use porcupine::opt::{optimize, Cse, Dce, EagerRelin, LazyRelin, OptLevel, Pass, RotFold};
use porcupine::scheme::BfvScheme;
use proptest::prelude::*;
use quill::analysis;
use quill::interp;
use quill::program::Program;
use test_support::{arb_program, seeded_rng, small_ctx, T};

const N: usize = 8;

fn eval(prog: &Program, inputs: &[Vec<u64>]) -> Vec<u64> {
    interp::eval_concrete(prog, inputs, &[], T)
}

fn inputs_for(prog: &Program, seed: u64) -> Vec<Vec<u64>> {
    (0..prog.num_ct_inputs)
        .map(|j| {
            (0..N)
                .map(|i| (seed.wrapping_mul(31) + 7 * j as u64 + 13 * i as u64) % T)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each pass individually preserves interpreter semantics and program
    /// validity.
    #[test]
    fn every_pass_preserves_interpreter_semantics(
        prog in arb_program(2, 10),
        seed in any::<u64>(),
    ) {
        let passes: [&dyn Pass; 5] = [&EagerRelin, &Cse, &RotFold, &LazyRelin, &Dce];
        let inputs = inputs_for(&prog, seed);
        let want = eval(&prog, &inputs);
        for pass in passes {
            let (out, rewrites) = pass.run(&prog);
            prop_assert!(out.validate().is_ok(), "{} invalidated: {:?}", pass.name(), out.validate());
            prop_assert_eq!(
                eval(&out, &inputs), want.clone(),
                "{} changed semantics", pass.name()
            );
            prop_assert_eq!(rewrites == 0, out == prog, "{} rewrite-count contract", pass.name());
        }
    }

    /// The full pipeline at every level preserves interpreter semantics,
    /// produces backend-legal IR, and is idempotent (re-optimizing is a
    /// fixpoint with zero rewrites).
    #[test]
    fn pipelines_preserve_semantics_and_are_idempotent(
        prog in arb_program(2, 10),
        seed in any::<u64>(),
    ) {
        let inputs = inputs_for(&prog, seed);
        let want = eval(&prog, &inputs);
        for level in [OptLevel::O0, OptLevel::O2] {
            let (out, _) = optimize(&prog, level);
            prop_assert!(analysis::check_backend_legal(&out).is_ok(), "{level} illegal");
            prop_assert_eq!(eval(&out, &inputs), want.clone(), "{level} changed semantics");
            let (again, report) = optimize(&out, level);
            prop_assert_eq!(&again, &out, "{} not idempotent", level);
            prop_assert_eq!(report.total_rewrites, 0, "{} fixpoint reports rewrites", level);
        }
    }

    /// `-O2` never executes more work than `-O0`: no more instructions, no
    /// more relinearizations, no more rotations, and no higher modeled
    /// latency.
    #[test]
    fn o2_never_costs_more_than_o0(prog in arb_program(2, 10)) {
        let (o0, _) = optimize(&prog, OptLevel::O0);
        let (o2, _) = optimize(&prog, OptLevel::O2);
        prop_assert!(o2.len() <= o0.len());
        prop_assert!(o2.relin_count() <= o0.relin_count());
        prop_assert!(o2.rot_count() <= o0.rot_count());
        let m = quill::cost::LatencyModel::profiled_default();
        prop_assert!(m.program_latency(&o2) <= m.program_latency(&o0) + 1e-9);
    }
}

proptest! {
    // Encrypted execution is ~10⁵× slower than the interpreter; a handful
    // of random programs per run still covers the pass interactions.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The BFV backend decrypts the `-O0` and `-O2` lowerings of a random
    /// program bit-identically (and both match the interpreter on every
    /// slot), from one shared set of encrypted inputs.
    #[test]
    fn o0_and_o2_decrypt_bit_identically_under_encryption(
        prog in arb_program(2, 6),
        case_seed in any::<u64>(),
    ) {
        // Keep multiplicative depth within the small test parameters'
        // noise budget.
        prop_assume!(prog.mult_depth() <= 3);
        let ctx = small_ctx();
        let mut rng = seeded_rng(case_seed);
        let (o0, _) = optimize(&prog, OptLevel::O0);
        let (o2, _) = optimize(&prog, OptLevel::O2);
        let session = Session::<BfvScheme>::new(&ctx, &[&o0, &o2], &mut rng);

        let inputs = test_support::sample_model_inputs(prog.num_ct_inputs, N, 64, &mut rng);
        let cts: Vec<bfv::Ciphertext> = inputs.iter().map(|v| session.encrypt(v, &mut rng)).collect();
        let ct_refs: Vec<&bfv::Ciphertext> = cts.iter().collect();

        let run = |p: &Program| {
            let (slots, budget) = session.decrypt(&session.runner.run(p, &ct_refs, &[]));
            assert!(budget > 0, "noise budget exhausted ({budget})");
            slots
        };
        let dec0 = run(&o0);
        let dec2 = run(&o2);
        prop_assert_eq!(&dec0, &dec2, "-O0 and -O2 decryptions differ");

        // Both agree with the interpreter on the model slots (inputs are
        // zero-padded beyond N, and rotations may read padding — compare
        // the backend against the interpreter over the full row instead).
        let row = session.runner.encoder().row_size();
        let padded: Vec<Vec<u64>> = inputs
            .iter()
            .map(|v| {
                let mut p = v.clone();
                p.resize(row, 0);
                p
            })
            .collect();
        let want = interp::eval_concrete(&prog, &padded, &[], ctx.params().plain_modulus);
        prop_assert_eq!(&dec0[..row], &want[..], "backend diverged from interpreter");
    }
}
