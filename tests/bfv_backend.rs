//! Cross-crate integration: every baseline kernel, interpreted by Quill and
//! executed homomorphically on the BFV backend, must agree on the masked
//! output slots, with noise budget to spare.

use porcupine_kernels::{all_direct, composite, stencil};
use test_support::{assert_backend_matches_spec_mask, seeded_rng, small_ctx};

#[test]
fn all_baselines_execute_correctly_under_encryption() {
    let ctx = small_ctx();
    for (i, k) in all_direct().into_iter().enumerate() {
        let mut rng = seeded_rng(100 + i as u64);
        assert_backend_matches_spec_mask(&ctx, &k.baseline, &k.spec, 64, &mut rng);
    }
}

/// Kernel-level regression for the double-CRT representation: executing a
/// paper kernel with its encrypted inputs bounced to coefficient form
/// first must decrypt to the very same slots as the evaluation-form run —
/// the codegen path may not depend on which representation ciphertexts
/// arrive in.
#[test]
fn kernel_execution_is_representation_independent() {
    use porcupine::codegen::Session;
    use porcupine::scheme::BfvScheme;

    let ctx = small_ctx();
    let kernel = all_direct()
        .into_iter()
        .next()
        .expect("at least one kernel");
    let (lowered, _) = porcupine::opt::optimize(&kernel.baseline, porcupine::opt::OptLevel::O2);
    let prog = &lowered;
    let mut rng = seeded_rng(42);
    let session = Session::<BfvScheme>::new(&ctx, &[prog], &mut rng);

    let inputs = test_support::sample_model_inputs(prog.num_ct_inputs, kernel.spec.n, 64, &mut rng);
    let cts: Vec<bfv::Ciphertext> = inputs
        .iter()
        .map(|v| session.encrypt(v, &mut rng))
        .collect();
    let cts_coeff: Vec<bfv::Ciphertext> = cts.iter().map(|c| c.to_coeff_form(&ctx)).collect();

    let run = |cts: &[bfv::Ciphertext]| {
        let refs: Vec<&bfv::Ciphertext> = cts.iter().collect();
        session.decrypt(&session.runner.run(prog, &refs, &[])).0
    };
    assert_eq!(
        run(&cts),
        run(&cts_coeff),
        "{} diverged across input representations",
        prog.name
    );
}

#[test]
fn sobel_baseline_executes_correctly_under_encryption() {
    let ctx = small_ctx();
    let img = stencil::default_image();
    let mut rng = seeded_rng(7);
    assert_backend_matches_spec_mask(
        &ctx,
        &composite::sobel_baseline(img),
        &composite::sobel_spec(img),
        64,
        &mut rng,
    );
}

#[test]
fn harris_baseline_executes_correctly_under_encryption() {
    let ctx = small_ctx();
    let img = stencil::default_image();
    let mut rng = seeded_rng(8);
    assert_backend_matches_spec_mask(
        &ctx,
        &composite::harris_baseline(img),
        &composite::harris_spec(img),
        64,
        &mut rng,
    );
}

#[test]
fn figure_6a_gx_executes_correctly_under_encryption() {
    let ctx = small_ctx();
    let prog = quill::sexpr::parse_program(
        "(kernel gx (inputs (ct 1) (pt 0))
           (let c1 (rot-ct c0 -5))
           (let c2 (add-ct-ct c0 c1))
           (let c3 (rot-ct c2 5))
           (let c4 (add-ct-ct c2 c3))
           (let c5 (rot-ct c4 -1))
           (let c6 (rot-ct c4 1))
           (let c7 (sub-ct-ct c6 c5))
           (return c7))",
    )
    .expect("Figure 6a parses");
    let k = stencil::gx(stencil::default_image());
    let mut rng = seeded_rng(9);
    assert_backend_matches_spec_mask(&ctx, &prog, &k.spec, 64, &mut rng);
}
