//! End-to-end synthesis tests: the CEGIS engine must reproduce the paper's
//! headline results on the fast kernels — minimal component counts,
//! Table 2 instruction counts, symbolic correctness, and padding
//! stability. (The slow kernels, L2 and Roberts cross, are exercised by the
//! bench harness with longer budgets.)

use bfv::params::ParamPolicy;
use porcupine::cegis::{synthesize, SynthesisOptions};
use porcupine::codegen::run_encrypted;
use porcupine::lift::check_padding_stable;
use porcupine::verify::verify;
use porcupine_kernels::{pointwise, reduction, stencil};
use quill::cost::{eager_cost, LatencyModel};
use quill::scheme::SchemeId;
use std::num::NonZeroUsize;
use test_support::{assert_masked_slots_eq, fast_synthesis_options, seeded_rng, with_jobs};

#[test]
fn box_blur_matches_figure_5() {
    let k = stencil::box_blur(stencil::default_image());
    let r =
        synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("box blur synthesizes");
    // Figure 5(a): 4 instructions (2 adds + 2 rotations) vs baseline 6.
    assert_eq!(r.program.len(), 4, "\n{}", r.program);
    assert_eq!(r.components, 2);
    assert!(r.program.len() < k.baseline.len());
    // The separable decomposition has higher logic depth but the same
    // multiplicative depth (the noise argument of §7.3).
    assert!(r.program.logic_depth() > k.baseline.logic_depth());
    assert_eq!(r.program.mult_depth(), k.baseline.mult_depth());
    // And strictly lower modelled cost.
    let m = LatencyModel::profiled_default();
    assert!(eager_cost(&r.program, &m) < eager_cost(&k.baseline, &m));
}

#[test]
fn gx_matches_table_2() {
    let k = stencil::gx(stencil::default_image());
    let r = synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("gx synthesizes");
    // Table 2: synthesized Gx has 7 instructions (3 arith + 4 rotations).
    assert_eq!(r.program.len(), 7, "\n{}", r.program);
    assert_eq!(r.components, 3);
    let mut rng = seeded_rng(2);
    verify(&r.program, &k.spec, &mut rng).expect("synthesized gx verifies");
    check_padding_stable(&r.program, k.spec.n, &k.spec.output_mask, k.spec.t)
        .expect("synthesized gx lifts");
}

#[test]
fn dot_product_matches_table_2() {
    let k = reduction::dot_product(8);
    let r =
        synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("dot product synthesizes");
    // Table 2: 7 instructions for both baseline and synthesized, depth 7.
    assert_eq!(r.program.len(), 7);
    assert_eq!(r.program.len(), k.baseline.len());
    assert_eq!(r.program.logic_depth(), 7);
}

#[test]
fn hamming_distance_matches_table_2() {
    let k = reduction::hamming_distance(4);
    let r = synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("hamming synthesizes");
    assert_eq!(r.program.len(), 6, "\n{}", r.program);
    assert_eq!(r.program.logic_depth(), 6);
    // Single-value outputs need more counter-examples (§7.4).
    assert!(r.examples_used >= 2);
}

#[test]
fn polynomial_regression_discovers_factorization() {
    let k = pointwise::polynomial_regression(8);
    let r =
        synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("poly reg synthesizes");
    // The factored form (a·x + b)·x + c: 4 instructions vs 5 in the
    // baseline, and one fewer plaintext multiply (§7.2's algebraic
    // optimization).
    assert_eq!(r.program.len(), 4, "\n{}", r.program);
    let synth_muls: usize = r
        .program
        .opcode_counts()
        .iter()
        .filter(|(op, _)| op.starts_with("mul"))
        .map(|(_, c)| c)
        .sum();
    let base_muls: usize = k
        .baseline
        .opcode_counts()
        .iter()
        .filter(|(op, _)| op.starts_with("mul"))
        .map(|(_, c)| c)
        .sum();
    assert!(synth_muls < base_muls, "factoring must drop a multiply");
}

#[test]
fn linear_regression_matches_baseline() {
    let k = pointwise::linear_regression(8);
    let r = synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("lin reg synthesizes");
    // Paper: baseline and synthesized coincide (4 instructions).
    assert_eq!(r.program.len(), 4);
    assert!(r.proved_optimal);
}

/// Synthesis for the second backend, end to end: box blur and an
/// 8-element dot product synthesize with `scheme: SchemeId::Bgv` and
/// auto-selected parameters, and the lowered programs decrypt under BGV to
/// the spec's reference on every masked slot.
#[test]
fn bgv_synthesis_decrypts_to_the_spec() {
    let options = SynthesisOptions {
        scheme: SchemeId::Bgv,
        latency: LatencyModel::profiled_for(SchemeId::Bgv),
        params: ParamPolicy::auto(),
        ..fast_synthesis_options()
    };
    for (i, k) in [
        stencil::box_blur(stencil::default_image()),
        reduction::dot_product(8),
    ]
    .into_iter()
    .enumerate()
    {
        let r =
            synthesize(&k.spec, &k.sketch, &options).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let params = r
            .params
            .unwrap_or_else(|e| panic!("{}: auto selection failed: {e}", k.name));
        let mut rng = seeded_rng(0xB6F + i as u64);
        let ex = k.spec.sample_example(&mut rng);
        let (slots, budget) = run_encrypted(
            SchemeId::Bgv,
            params,
            &r.optimized,
            &ex.ct_inputs,
            &ex.pt_inputs,
            NonZeroUsize::MIN,
            &mut rng,
        )
        .expect("auto-selected parameters are valid");
        assert!(budget > 0, "{}: noise budget exhausted ({budget})", k.name);
        assert_masked_slots_eq(&slots, &ex.output, &k.spec.output_mask, k.name);
    }
}

/// The §7.4 ablation: box blur with *explicit* rotation components instead
/// of the local-rotate sketch. The search space is far larger than the
/// local-rotate one (the paper reports minutes instead of seconds) and this
/// was `#[ignore]`d as a budget risk, but measured against the parallel
/// search rework it finishes in well under a second at any worker count —
/// comfortably inside the tier-1 budget — so it now runs in the normal
/// suite.
#[test]
fn box_blur_synthesizes_with_explicit_rotation_sketch() {
    let k = stencil::box_blur(stencil::default_image());
    let mut sketch = k.sketch.clone().with_explicit_rotations();
    sketch.max_components += 4; // room for materialized rotations
    let mut options = fast_synthesis_options();
    options.timeout = std::time::Duration::from_secs(1800);
    let r = synthesize(&k.spec, &sketch, &options).expect("explicit box blur synthesizes");
    let mut rng = seeded_rng(4);
    verify(&r.program, &k.spec, &mut rng).expect("explicit box blur verifies");
}

/// Guard for future parallel-search work: with a fixed seed and options,
/// `synthesize` is a pure function of the spec and sketch — two runs on a
/// real paper kernel return identical programs and identical costs.
#[test]
fn synthesis_of_paper_kernels_is_deterministic() {
    for k in [reduction::dot_product(8), reduction::hamming_distance(4)] {
        let a = synthesize(&k.spec, &k.sketch, &fast_synthesis_options())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let b = synthesize(&k.spec, &k.sketch, &fast_synthesis_options())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        assert_eq!(a.program, b.program, "{}: program differs", k.name);
        assert_eq!(
            a.final_cost.to_bits(),
            b.final_cost.to_bits(),
            "{}: cost differs",
            k.name
        );
        assert_eq!(a.components, b.components, "{}", k.name);
        assert_eq!(a.examples_used, b.examples_used, "{}", k.name);
    }
}

/// The parallel-search determinism contract, end to end: for the same seed,
/// synthesis at 2 and 4 worker threads returns programs and costs
/// bit-identical to the sequential run, on real paper kernels spanning both
/// search modes (first-solution deepening and exhaustive optimization).
#[test]
fn parallel_synthesis_matches_sequential_bit_for_bit() {
    let img = stencil::default_image();
    for k in [
        stencil::box_blur(img),
        reduction::dot_product(8),
        reduction::hamming_distance(4),
    ] {
        let seq = synthesize(&k.spec, &k.sketch, &with_jobs(fast_synthesis_options(), 1))
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        for jobs in [2, 4] {
            let par = synthesize(
                &k.spec,
                &k.sketch,
                &with_jobs(fast_synthesis_options(), jobs),
            )
            .unwrap_or_else(|e| panic!("{} (jobs={jobs}): {e}", k.name));
            assert_eq!(
                seq.program, par.program,
                "{}: program differs at jobs={jobs}",
                k.name
            );
            assert_eq!(
                seq.initial_program, par.initial_program,
                "{}: initial program differs at jobs={jobs}",
                k.name
            );
            assert_eq!(
                seq.final_cost.to_bits(),
                par.final_cost.to_bits(),
                "{}: cost differs at jobs={jobs}",
                k.name
            );
            assert_eq!(seq.components, par.components, "{}", k.name);
            assert_eq!(seq.examples_used, par.examples_used, "{}", k.name);
            assert_eq!(seq.proved_optimal, par.proved_optimal, "{}", k.name);
        }
    }
}

#[test]
fn synthesized_kernels_are_all_verified_and_liftable() {
    let mut rng = seeded_rng(3);
    let img = stencil::default_image();
    for k in [
        stencil::box_blur(img),
        stencil::gx(img),
        stencil::gy(img),
        reduction::dot_product(8),
        reduction::hamming_distance(4),
    ] {
        let r = synthesize(&k.spec, &k.sketch, &fast_synthesis_options())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        verify(&r.program, &k.spec, &mut rng).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        check_padding_stable(&r.program, k.spec.n, &k.spec.output_mask, k.spec.t)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        // Synthesized never loses to the expert baseline under the model.
        let m = LatencyModel::profiled_default();
        assert!(
            eager_cost(&r.program, &m) <= eager_cost(&k.baseline, &m) + 1e-9,
            "{}: synthesized cost must not exceed baseline",
            k.name
        );
    }
}
