//! The noise model's contracts, checked against the real evaluator:
//!
//! * **Soundness** (property test): for random valid programs, the
//!   *measured* remaining invariant-noise budget after encrypted
//!   evaluation is never below the static analyzer's *predicted*
//!   remaining budget — the model is a sound lower bound on safety, at
//!   `-O0` and `-O2` alike, under the fast `test_small` preset and under
//!   the parameters the selector picks for each program (exercising
//!   selection end to end).
//! * **Regression pins**: the predicted consumed budget of the nine
//!   Table 2/3 kernels plus Sobel and Harris, lowered at `-O2` under the
//!   paper parameters, is pinned — a cost-model or optimizer change that
//!   silently worsens noise fails loudly here.

use bfv::noise::NoiseModel;
use bfv::params::{BfvContext, BfvParams, ParamPolicy};
use porcupine::codegen::Session;
use porcupine::opt::{optimize, OptLevel};
use porcupine::scheme::{resolve_params, BfvScheme};
use porcupine_kernels::{all_direct, composite, stencil};
use proptest::prelude::*;
use quill::analysis::NoiseSemantics;
use quill::program::Program;
use quill::scheme::SchemeId;
use rand::Rng;
use test_support::{arb_program, seeded_rng, T};

/// Model size the generated programs' rotations stay within.
const MODEL_N: usize = 8;

/// The parameter sets the soundness property evaluates `prog` under: the
/// fast `test_small` preset and the auto-selected set. Auto selection that
/// exhausts the candidate table (a random program deeper than any real
/// kernel) falls back to the paper set — the property is an inequality
/// that holds under *any* parameters, so the fallback keeps it meaningful.
fn suite_params(prog: &Program) -> [(&'static str, BfvParams); 2] {
    let auto = resolve_params(SchemeId::Bfv, &ParamPolicy::auto(), prog, MODEL_N, T)
        .unwrap_or_else(|_| BfvParams::paper());
    [("test_small", BfvParams::test_small()), ("auto", auto)]
}

/// Evaluates the lowered `lowered` under `params` on encrypted full-range
/// inputs and returns (measured budget, predicted budget).
fn measured_vs_predicted(lowered: &Program, params: BfvParams, seed: u64) -> (i64, f64) {
    let predicted = NoiseModel::for_params(&params)
        .analyze(lowered)
        .predicted_budget_bits;

    let ctx = BfvContext::new(params).expect("suite params are valid");
    let mut rng = seeded_rng(seed);
    let session = Session::<BfvScheme>::new(&ctx, &[lowered], &mut rng);
    let slots = session.runner.encoder().slot_count();
    let ct_model: Vec<Vec<u64>> = (0..lowered.num_ct_inputs)
        .map(|_| (0..slots).map(|_| rng.gen_range(0..T)).collect())
        .collect();
    (session.run(lowered, &ct_model, &[], &mut rng).1, predicted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The static model never promises more budget than the evaluator
    /// delivers, whichever way the middle-end places relinearizations and
    /// whichever parameters the program runs under.
    #[test]
    fn measured_budget_never_below_predicted(
        prog in arb_program(2, 8),
        seed in any::<u64>(),
    ) {
        for level in [OptLevel::O0, OptLevel::O2] {
            let (lowered, _) = optimize(&prog, level);
            for (label, params) in suite_params(&lowered) {
                let (measured, predicted) = measured_vs_predicted(&lowered, params, seed);
                prop_assert!(
                    measured as f64 >= predicted,
                    "-{level} [{label}]: measured {measured} < predicted {predicted:.1}\n{prog}"
                );
            }
        }
    }
}

/// Predicted worst-case consumed budget (bits, at one decimal) for every
/// paper workload's baseline, lowered at `-O2`, under the paper's fixed
/// parameter set. These values are pure functions of the noise model, the
/// optimizer, and the parameter table — any change that silently worsens
/// (or improves) noise shows up as an exact-digit diff here. Regenerate by
/// running this test and copying the values from the failure message.
#[test]
fn predicted_consumed_budget_pins() {
    let model = NoiseModel::for_params(&BfvParams::paper());
    let img = stencil::default_image();
    let mut workloads: Vec<(String, Program)> = all_direct()
        .into_iter()
        .map(|k| (k.name.to_string(), k.baseline))
        .collect();
    workloads.push(("sobel".into(), composite::sobel_baseline(img)));
    workloads.push(("harris".into(), composite::harris_baseline(img)));

    let pins: &[(&str, f64)] = &[
        ("box-blur", 52.1),
        ("dot-product", 53.3),
        ("hamming-distance", 53.3),
        ("l2-distance", 54.4),
        ("linear-regression", 30.0),
        ("polynomial-regression", 73.0),
        ("gx", 53.5),
        ("gy", 53.5),
        ("roberts-cross", 96.1),
        ("sobel", 98.5),
        ("harris", 173.5),
    ];
    let mut failures = Vec::new();
    for ((name, baseline), (pin_name, pin)) in workloads.into_iter().zip(pins) {
        assert_eq!(name, *pin_name, "pin table out of order");
        let (lowered, _) = optimize(&baseline, OptLevel::O2);
        let consumed = model.analyze(&lowered).consumed_bits;
        if (consumed - pin).abs() > 0.05 {
            failures.push(format!("        (\"{name}\", {consumed:.1}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "consumed-budget pins moved; new values:\n{}",
        failures.join("\n")
    );
}

/// The consumed-budget ordering the pins encode is also stable in
/// qualitative terms: multiply-free stencils are the quietest, one-level
/// multiplies sit in the middle, and the depth-4 Harris response consumes
/// the most.
#[test]
fn consumed_budget_ordering_is_sane() {
    let model = NoiseModel::for_params(&BfvParams::paper());
    let consumed = |p: &Program| model.analyze(&optimize(p, OptLevel::O2).0).consumed_bits;
    let img = stencil::default_image();
    let blur = consumed(&stencil::box_blur(img).baseline);
    let roberts = consumed(&stencil::roberts_cross(img).baseline);
    let harris = consumed(&composite::harris_baseline(img));
    assert!(blur < roberts, "rotation-only < one multiply level");
    assert!(roberts < harris, "one multiply level < depth-4 pipeline");
}
