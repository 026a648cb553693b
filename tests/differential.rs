//! Differential testing across the whole pipeline: every paper kernel's
//! program runs through the Quill interpreter and through every scheme
//! backend (BFV and BGV), each under its own noise-aware auto-selected
//! parameters and (noise model permitting) the paper's fixed set — all
//! must agree slot for slot, and each auto leg must retain at least the
//! selection margin of *measured* noise budget and no less than its noise
//! model predicted (the selector's certificate, checked in practice).
//!
//! The backend legs execute the program lowered at `-O2`, so every
//! assertion here also exercises the middle-end. A seeded sweep
//! additionally runs randomized kernel sizes through the same harness —
//! sizes the paper never measured.

use porcupine::cegis::synthesize;
use porcupine_kernels::{all_direct, direct_kernel, reduction};
use quill::scheme::SchemeId;
use rand::Rng;
use test_support::differential::{assert_cross_scheme_spec, CrossSchemeLeg};
use test_support::{fast_synthesis_options, seeded_rng};

/// The auto-parameter legs of a harness run, one per scheme.
fn auto_legs(legs: &[CrossSchemeLeg]) -> impl Iterator<Item = &CrossSchemeLeg> {
    legs.iter().filter(|l| l.label == "auto")
}

/// The slow-synthesis pair exercised with longer budgets by the bench
/// harness (see `tests/end_to_end_synthesis.rs`); the differential suite
/// runs their verified baselines instead of re-searching.
const SLOW_SYNTHESIS: [&str; 2] = ["l2-distance", "roberts-cross"];

/// Every one of the nine Table 2/3 kernels, synthesized where the search
/// is fast, decrypts bit-identically on every scheme under the paper
/// parameters and the auto-selected ones.
#[test]
fn paper_kernels_decrypt_identically_under_paper_and_auto_params() {
    for (i, k) in all_direct().into_iter().enumerate() {
        let prog = if SLOW_SYNTHESIS.contains(&k.name) {
            k.baseline.clone()
        } else {
            synthesize(&k.spec, &k.sketch, &fast_synthesis_options())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name))
                .program
        };
        let legs = assert_cross_scheme_spec(&prog, &k.spec, 64, 0x0D1F + i as u64);
        // The nine kernels are shallow; none should be pushed past the
        // paper-size ring by selection.
        for leg in auto_legs(&legs) {
            assert!(
                leg.params.poly_degree <= 8192,
                "{} [{}]: selected N = {}",
                k.name,
                leg.scheme,
                leg.params.poly_degree
            );
        }
    }
}

/// Cross-scheme differential: all nine Table 2/3 kernels (their verified
/// baselines — synthesis is covered by the legs above) decrypt
/// slot-identically on the interpreter, the BFV backend, and the BGV
/// backend. Each scheme runs under its own auto-selected parameters, so
/// both selectors' certificates are checked in practice on every kernel;
/// the paper-parameter leg additionally runs wherever the scheme's noise
/// model clears it — and the set of (kernel, scheme) pairs where it does is
/// pinned, so a noise-model change cannot silently drop coverage.
#[test]
fn paper_kernels_decrypt_identically_across_schemes() {
    let mut paper_legs = Vec::new();
    for (i, k) in all_direct().into_iter().enumerate() {
        let legs = assert_cross_scheme_spec(&k.baseline, &k.spec, 64, 0xC501 + i as u64);
        for &scheme in SchemeId::ALL {
            assert!(
                legs.iter().any(|l| l.scheme == scheme && l.label == "auto"),
                "{}: no auto leg ran for {scheme}",
                k.name
            );
        }
        paper_legs.extend(
            legs.iter()
                .filter(|l| l.label == "paper")
                .map(|l| (k.name, l.scheme)),
        );
    }
    // Every paper kernel clears the paper set under both noise models, at
    // every opt level.
    let expected: Vec<(&str, SchemeId)> = PAPER_LEG_KERNELS
        .iter()
        .flat_map(|&name| SchemeId::ALL.iter().map(move |&s| (name, s)))
        .collect();
    assert_eq!(paper_legs, expected, "paper-parameter leg coverage changed");
}

/// The kernels whose cross-scheme paper-parameter leg runs on both schemes.
const PAPER_LEG_KERNELS: [&str; 9] = [
    "box-blur",
    "dot-product",
    "hamming-distance",
    "l2-distance",
    "linear-regression",
    "polynomial-regression",
    "gx",
    "gy",
    "roberts-cross",
];

/// Seeded randomized size sweep: reductions at random power-of-two lengths
/// (synthesized stage-wise, §6.3) and stencils at random image sizes (the
/// size-generic baselines), all through the full differential harness.
#[test]
fn randomized_kernel_sizes_differential() {
    let mut rng = seeded_rng(0x512E);

    // Two random reduction lengths in 8..=64, staged synthesis.
    for trial in 0..2 {
        let len = 1usize << rng.gen_range(3..=6);
        let prog = reduction::synthesize_staged("dot-product", len, &fast_synthesis_options())
            .expect("dot-product is a staged reduction")
            .unwrap_or_else(|e| panic!("dot-product {len}: {e}"));
        let k = direct_kernel("dot-product", Some(len)).expect("sized dot-product");
        assert_cross_scheme_spec(&prog, &k.spec, 64, 0xA100 + trial + len as u64);
    }

    // Two random stencil sizes in 4..=8 (interior width).
    for (trial, name) in ["box-blur", "gx"].into_iter().enumerate() {
        let size = rng.gen_range(4..=8usize);
        let k = direct_kernel(name, Some(size)).expect("sized stencil");
        assert_cross_scheme_spec(
            &k.baseline,
            &k.spec,
            64,
            0xB200 + trial as u64 + size as u64,
        );
    }
}

/// The acceptance flow, as a test: `dot-product --size 64 --params auto`
/// and box blur on an 8×8 image synthesize, auto-select parameters, and
/// decrypt bit-identically to the interpreter on every scheme — no
/// hand-chosen parameters anywhere.
#[test]
fn dot_product_64_and_box_blur_8x8_run_fully_automatically() {
    let prog = reduction::synthesize_staged("dot-product", 64, &fast_synthesis_options())
        .expect("dot-product stages")
        .expect("staged synthesis succeeds");
    let k = direct_kernel("dot-product", Some(64)).expect("sized dot-product");
    let legs = assert_cross_scheme_spec(&prog, &k.spec, 64, 0xACCE);
    assert_eq!(auto_legs(&legs).count(), SchemeId::ALL.len());

    let k = direct_kernel("box-blur", Some(8)).expect("8x8 box blur");
    let r = synthesize(&k.spec, &k.sketch, &fast_synthesis_options()).expect("box blur at 8x8");
    assert_cross_scheme_spec(&r.program, &k.spec, 64, 0xACCF);
}
