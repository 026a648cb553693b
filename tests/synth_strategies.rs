//! Cross-strategy agreement and parallel determinism (ISSUE 7).
//!
//! Phase 2 of CEGIS re-searches with a tie-inclusive cost bound and picks
//! the canonical `(cost, serialization)` minimum among *all* correct
//! programs at the found component count — so whichever phase-1 strategy
//! produced the first correct program, the optimized result must be
//! byte-identical. These suites pin exactly that: bottom-up vs DFS on
//! every paper kernel, and bottom-up at jobs = 1/2/4.

use porcupine::cegis::{synthesize, SearchStrategy, SynthesisResult};
use porcupine::search::{spec_bounds, SpecBounds};
use porcupine::verify::verify;
use porcupine_kernels::{composite, reduction, stencil, PaperKernel};
use proptest::prelude::*;
use quill::program::Program;
use quill::sexpr::parse_program;
use test_support::{
    fast_synthesis_options, quick_synthesis_options, seeded_rng, with_jobs, with_strategy,
};

/// The paper's kernel suite at test-friendly sizes: the nine direct
/// kernels plus the sobel and harris combine stages (the composite
/// kernels' synthesized pieces).
fn paper_kernels() -> Vec<PaperKernel> {
    let img = stencil::default_image();
    let mut kernels: Vec<PaperKernel> = porcupine_kernels::DIRECT_NAMES
        .iter()
        .map(|name| porcupine_kernels::direct_kernel(name, None).expect("registry names"))
        .collect();
    kernels.push(composite::sobel_combine(img.slots()));
    kernels.push(composite::harris_det(img.slots()));
    kernels.push(composite::harris_trace(img.slots()));
    kernels
}

/// The two search-heaviest kernels. Unoptimized, their searches run long
/// enough to hit the per-call timeout, and a timed-out phase 2 salvages a
/// *partial* best program whose identity is cut-point-dependent, so their
/// rows are checked by an ignored test that optimized runs include.
const SLOW_KERNELS: [&str; 2] = ["l2-distance", "roberts-cross"];

/// Bottom-up and DFS converge to the byte-identical optimized program
/// (same cost, same canonical tie-break) on every paper kernel but
/// [`SLOW_KERNELS`].
#[test]
fn strategies_agree_on_every_paper_kernel() {
    for k in paper_kernels() {
        if !SLOW_KERNELS.contains(&k.name) {
            assert_strategies_agree(&k);
        }
    }
}

/// [`strategies_agree_on_every_paper_kernel`] for [`SLOW_KERNELS`].
#[test]
#[ignore = "minutes of search; run optimized: cargo test --release --test synth_strategies -- --include-ignored"]
fn strategies_agree_on_the_slow_paper_kernels() {
    for k in paper_kernels() {
        if SLOW_KERNELS.contains(&k.name) {
            assert_strategies_agree(&k);
        }
    }
}

fn assert_strategies_agree(k: &PaperKernel) {
    let bu = synthesize(
        &k.spec,
        &k.sketch,
        &with_strategy(fast_synthesis_options(), SearchStrategy::BottomUp),
    )
    .unwrap_or_else(|e| panic!("{} (bottom-up): {e}", k.name));
    let dfs = synthesize(
        &k.spec,
        &k.sketch,
        &with_strategy(fast_synthesis_options(), SearchStrategy::Dfs),
    )
    .unwrap_or_else(|e| panic!("{} (dfs): {e}", k.name));
    assert_eq!(
        bu.program.to_string(),
        dfs.program.to_string(),
        "{}: strategies disagree",
        k.name
    );
    assert_eq!(bu.components, dfs.components, "{}", k.name);
    assert_eq!(
        bu.final_cost.to_bits(),
        dfs.final_cost.to_bits(),
        "{}",
        k.name
    );
    assert_pinned(k.name, SearchStrategy::BottomUp, &bu);
    assert_pinned(k.name, SearchStrategy::Dfs, &dfs);
    let mut rng = seeded_rng(5);
    verify(&bu.program, &k.spec, &mut rng).unwrap_or_else(|e| panic!("{}: {e:?}", k.name));
}

/// The spec-derived terms of the phase-2 cost bound are admissible: no
/// pinned optimal program has less multiplicative depth or fewer
/// rotations than [`spec_bounds`] demands, and both are tight on
/// hamming-distance (one multiply, two rotations) and dot-product (one
/// multiply, three rotations).
#[test]
fn spec_bounds_hold_for_every_pinned_program() {
    for k in paper_kernels() {
        let bounds = spec_bounds(&k.spec);
        let rows: Vec<&Pinned> = PINNED.iter().filter(|r| r.kernel == k.name).collect();
        assert!(!rows.is_empty(), "{}: no pinned row", k.name);
        for row in rows {
            let program = parse_program(row.program).expect("pinned programs parse");
            assert!(
                bounds.mult_depth <= program.mult_depth(),
                "{}: depth bound {bounds:?} above the optimum's",
                k.name
            );
            assert!(
                bounds.rotations <= program.rot_count(),
                "{}: rotation bound {bounds:?} above the optimum's",
                k.name
            );
        }
        let tight = match k.name {
            "hamming-distance" => Some((1, 2)),
            "dot-product" => Some((1, 3)),
            _ => None,
        };
        if let Some((mult_depth, rotations)) = tight {
            assert_eq!(
                bounds,
                SpecBounds {
                    mult_depth,
                    rotations
                },
                "{}",
                k.name
            );
        }
    }
}

/// One recorded CEGIS trajectory: what [`synthesize`] returns for a paper
/// kernel under [`fast_synthesis_options`] and one strategy. None of these
/// fields depends on the worker count, so the table holds at any
/// `parallelism`.
struct Pinned {
    kernel: &'static str,
    strategy: SearchStrategy,
    initial_program: &'static str,
    program: &'static str,
    components: usize,
    examples_used: usize,
    initial_cost_bits: u64,
    final_cost_bits: u64,
    proved_optimal: bool,
    strategy_used: SearchStrategy,
}

/// Asserts `r` matches the pinned row for `(kernel, strategy)`: the
/// refinement loop's search results, counter-example count and cost
/// trajectory stay put across refactors of the synthesis driver.
fn assert_pinned(kernel: &str, strategy: SearchStrategy, r: &SynthesisResult) {
    let row = PINNED
        .iter()
        .find(|row| row.kernel == kernel && row.strategy == strategy)
        .unwrap_or_else(|| panic!("{kernel} ({strategy}): no pinned row"));
    let label = format!("{kernel} ({strategy})");
    assert_eq!(
        r.initial_program.to_string(),
        row.initial_program,
        "{label}"
    );
    assert_eq!(r.program.to_string(), row.program, "{label}");
    assert_eq!(r.components, row.components, "{label}");
    assert_eq!(r.examples_used, row.examples_used, "{label}");
    assert_eq!(r.initial_cost.to_bits(), row.initial_cost_bits, "{label}");
    assert_eq!(r.final_cost.to_bits(), row.final_cost_bits, "{label}");
    assert_eq!(r.proved_optimal, row.proved_optimal, "{label}");
    assert_eq!(r.strategy_used, row.strategy_used, "{label}");
}

const PINNED: &[Pinned] = &[
    Pinned {
        kernel: "box-blur",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel box-blur (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        program: r"(kernel box-blur (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        components: 2,
        examples_used: 1,
        initial_cost_bits: 0x40a11d999999999a,
        final_cost_bits: 0x40a11d999999999a,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "box-blur",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel box-blur (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -5))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (rot-ct c2 6))
  (let c5 (add-ct-ct c3 c4))
  (return c5))
",
        program: r"(kernel box-blur (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        components: 2,
        examples_used: 1,
        initial_cost_bits: 0x40a951999999999a,
        final_cost_bits: 0x40a11d999999999a,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "dot-product",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel dot-product (inputs (ct 1) (pt 1))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (rot-ct c1 1))
  (let c3 (add-ct-ct c1 c2))
  (let c4 (rot-ct c3 2))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 4))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel dot-product (inputs (ct 1) (pt 1))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (rot-ct c1 1))
  (let c3 (add-ct-ct c1 c2))
  (let c4 (rot-ct c3 2))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 4))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 4,
        examples_used: 2,
        initial_cost_bits: 0x40ba326666666667,
        final_cost_bits: 0x40ba326666666667,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "dot-product",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel dot-product (inputs (ct 1) (pt 1))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (rot-ct c1 1))
  (let c3 (add-ct-ct c1 c2))
  (let c4 (rot-ct c3 2))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 4))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel dot-product (inputs (ct 1) (pt 1))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (rot-ct c1 1))
  (let c3 (add-ct-ct c1 c2))
  (let c4 (rot-ct c3 2))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 4))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 4,
        examples_used: 2,
        initial_cost_bits: 0x40ba326666666667,
        final_cost_bits: 0x40ba326666666667,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "hamming-distance",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel hamming-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel hamming-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 4,
        examples_used: 2,
        initial_cost_bits: 0x40d08e3333333333,
        final_cost_bits: 0x40d08e3333333333,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "hamming-distance",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel hamming-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel hamming-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 4,
        examples_used: 2,
        initial_cost_bits: 0x40d08e3333333333,
        final_cost_bits: 0x40d08e3333333333,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "l2-distance",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel l2-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (let c8 (rot-ct c7 4))
  (let c9 (add-ct-ct c7 c8))
  (return c9))
",
        program: r"(kernel l2-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (let c8 (rot-ct c7 4))
  (let c9 (add-ct-ct c7 c8))
  (return c9))
",
        components: 5,
        examples_used: 2,
        initial_cost_bits: 0x40d2b1e666666666,
        final_cost_bits: 0x40d2b1e666666666,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "l2-distance",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel l2-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (let c8 (rot-ct c7 4))
  (let c9 (add-ct-ct c7 c8))
  (return c9))
",
        program: r"(kernel l2-distance (inputs (ct 2) (pt 0))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (mul-ct-ct c2 c2))
  (let c4 (rot-ct c3 1))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 2))
  (let c7 (add-ct-ct c5 c6))
  (let c8 (rot-ct c7 4))
  (let c9 (add-ct-ct c7 c8))
  (return c9))
",
        components: 5,
        examples_used: 2,
        initial_cost_bits: 0x40d2b1e666666666,
        final_cost_bits: 0x40d2b1e666666666,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "linear-regression",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel linear-regression (inputs (ct 2) (pt 3))
  (let c2 (mul-ct-pt c0 p0))
  (let c3 (mul-ct-pt c1 p1))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (add-ct-pt c4 p2))
  (return c5))
",
        program: r"(kernel linear-regression (inputs (ct 2) (pt 3))
  (let c2 (mul-ct-pt c0 p0))
  (let c3 (mul-ct-pt c1 p1))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (add-ct-pt c4 p2))
  (return c5))
",
        components: 4,
        examples_used: 1,
        initial_cost_bits: 0x407939999999999a,
        final_cost_bits: 0x407939999999999a,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "linear-regression",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel linear-regression (inputs (ct 2) (pt 3))
  (let c2 (mul-ct-pt c0 p0))
  (let c3 (mul-ct-pt c1 p1))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (add-ct-pt c4 p2))
  (return c5))
",
        program: r"(kernel linear-regression (inputs (ct 2) (pt 3))
  (let c2 (mul-ct-pt c0 p0))
  (let c3 (mul-ct-pt c1 p1))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (add-ct-pt c4 p2))
  (return c5))
",
        components: 4,
        examples_used: 1,
        initial_cost_bits: 0x407939999999999a,
        final_cost_bits: 0x407939999999999a,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "polynomial-regression",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel polynomial-regression (inputs (ct 1) (pt 3))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (add-ct-pt c1 p1))
  (let c3 (mul-ct-ct c0 c2))
  (let c4 (add-ct-pt c3 p2))
  (return c4))
",
        program: r"(kernel polynomial-regression (inputs (ct 1) (pt 3))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (add-ct-pt c1 p1))
  (let c3 (mul-ct-ct c0 c2))
  (let c4 (add-ct-pt c3 p2))
  (return c4))
",
        components: 4,
        examples_used: 1,
        initial_cost_bits: 0x40d29bd999999999,
        final_cost_bits: 0x40d29bd999999999,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "polynomial-regression",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel polynomial-regression (inputs (ct 1) (pt 3))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (add-ct-pt c1 p1))
  (let c3 (mul-ct-ct c0 c2))
  (let c4 (add-ct-pt c3 p2))
  (return c4))
",
        program: r"(kernel polynomial-regression (inputs (ct 1) (pt 3))
  (let c1 (mul-ct-pt c0 p0))
  (let c2 (add-ct-pt c1 p1))
  (let c3 (mul-ct-ct c0 c2))
  (let c4 (add-ct-pt c3 p2))
  (return c4))
",
        components: 4,
        examples_used: 1,
        initial_cost_bits: 0x40d29bd999999999,
        final_cost_bits: 0x40d29bd999999999,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "gx",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel gx (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -4))
  (let c2 (rot-ct c0 -6))
  (let c3 (sub-ct-ct c1 c2))
  (let c4 (rot-ct c3 5))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 5))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel gx (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -4))
  (let c2 (rot-ct c0 -6))
  (let c3 (sub-ct-ct c1 c2))
  (let c4 (rot-ct c3 5))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 5))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40b0f06666666666,
        final_cost_bits: 0x40b0f06666666666,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "gx",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel gx (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -5))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 -5))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (rot-ct c4 6))
  (let c6 (rot-ct c4 4))
  (let c7 (sub-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel gx (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -4))
  (let c2 (rot-ct c0 -6))
  (let c3 (sub-ct-ct c1 c2))
  (let c4 (rot-ct c3 5))
  (let c5 (add-ct-ct c3 c4))
  (let c6 (rot-ct c5 5))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40b0f06666666667,
        final_cost_bits: 0x40b0f06666666666,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "gy",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel gy (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 -1))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (rot-ct c4 6))
  (let c6 (rot-ct c4 -4))
  (let c7 (sub-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel gy (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (rot-ct c2 -5))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (rot-ct c5 1))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40b0f06666666667,
        final_cost_bits: 0x40b0f06666666666,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "gy",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel gy (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 -1))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (rot-ct c4 6))
  (let c6 (rot-ct c4 -4))
  (let c7 (sub-ct-ct c5 c6))
  (return c7))
",
        program: r"(kernel gy (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -1))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (rot-ct c2 -5))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (rot-ct c5 1))
  (let c7 (add-ct-ct c5 c6))
  (return c7))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40b0f06666666667,
        final_cost_bits: 0x40b0f06666666666,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "roberts-cross",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel roberts-cross (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 6))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (rot-ct c0 1))
  (let c4 (rot-ct c0 5))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (mul-ct-ct c2 c2))
  (let c7 (mul-ct-ct c5 c5))
  (let c8 (add-ct-ct c6 c7))
  (return c8))
",
        program: r"(kernel roberts-cross (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 1))
  (let c2 (rot-ct c0 5))
  (let c3 (sub-ct-ct c1 c2))
  (let c4 (rot-ct c0 6))
  (let c5 (sub-ct-ct c4 c0))
  (let c6 (mul-ct-ct c3 c3))
  (let c7 (mul-ct-ct c5 c5))
  (let c8 (add-ct-ct c6 c7))
  (return c8))
",
        components: 5,
        examples_used: 1,
        initial_cost_bits: 0x40decb4ccccccccd,
        final_cost_bits: 0x40decb4ccccccccd,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "roberts-cross",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel roberts-cross (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 6))
  (let c2 (sub-ct-ct c0 c1))
  (let c3 (rot-ct c0 1))
  (let c4 (rot-ct c0 5))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (mul-ct-ct c2 c2))
  (let c7 (mul-ct-ct c5 c5))
  (let c8 (add-ct-ct c6 c7))
  (return c8))
",
        program: r"(kernel roberts-cross (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 1))
  (let c2 (rot-ct c0 5))
  (let c3 (sub-ct-ct c1 c2))
  (let c4 (rot-ct c0 6))
  (let c5 (sub-ct-ct c4 c0))
  (let c6 (mul-ct-ct c3 c3))
  (let c7 (mul-ct-ct c5 c5))
  (let c8 (add-ct-ct c6 c7))
  (return c8))
",
        components: 5,
        examples_used: 1,
        initial_cost_bits: 0x40decb4ccccccccd,
        final_cost_bits: 0x40decb4ccccccccd,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "sobel-combine",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel sobel-combine (inputs (ct 2) (pt 0))
  (let c2 (mul-ct-ct c0 c0))
  (let c3 (mul-ct-ct c1 c1))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        program: r"(kernel sobel-combine (inputs (ct 2) (pt 0))
  (let c2 (mul-ct-ct c0 c0))
  (let c3 (mul-ct-ct c1 c1))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40d876b333333333,
        final_cost_bits: 0x40d876b333333333,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "sobel-combine",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel sobel-combine (inputs (ct 2) (pt 0))
  (let c2 (mul-ct-ct c0 c0))
  (let c3 (mul-ct-ct c1 c1))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        program: r"(kernel sobel-combine (inputs (ct 2) (pt 0))
  (let c2 (mul-ct-ct c0 c0))
  (let c3 (mul-ct-ct c1 c1))
  (let c4 (add-ct-ct c2 c3))
  (return c4))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40d876b333333333,
        final_cost_bits: 0x40d876b333333333,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "harris-det",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel harris-det (inputs (ct 3) (pt 0))
  (let c3 (mul-ct-ct c0 c1))
  (let c4 (mul-ct-ct c2 c2))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (mul-ct-pt c5 (splat 16)))
  (return c6))
",
        program: r"(kernel harris-det (inputs (ct 3) (pt 0))
  (let c3 (mul-ct-ct c0 c1))
  (let c4 (mul-ct-ct c2 c2))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (mul-ct-pt c5 (splat 16)))
  (return c6))
",
        components: 4,
        examples_used: 1,
        initial_cost_bits: 0x40e272399999999a,
        final_cost_bits: 0x40e272399999999a,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "harris-det",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel harris-det (inputs (ct 3) (pt 0))
  (let c3 (mul-ct-ct c0 c1))
  (let c4 (mul-ct-ct c2 c2))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (mul-ct-pt c5 (splat 16)))
  (return c6))
",
        program: r"(kernel harris-det (inputs (ct 3) (pt 0))
  (let c3 (mul-ct-ct c0 c1))
  (let c4 (mul-ct-ct c2 c2))
  (let c5 (sub-ct-ct c3 c4))
  (let c6 (mul-ct-pt c5 (splat 16)))
  (return c6))
",
        components: 4,
        examples_used: 1,
        initial_cost_bits: 0x40e272399999999a,
        final_cost_bits: 0x40e272399999999a,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
    Pinned {
        kernel: "harris-trace",
        strategy: SearchStrategy::BottomUp,
        initial_program: r"(kernel harris-trace (inputs (ct 3) (pt 0))
  (let c3 (add-ct-ct c0 c1))
  (let c4 (mul-ct-ct c3 c3))
  (let c5 (sub-ct-ct c2 c4))
  (return c5))
",
        program: r"(kernel harris-trace (inputs (ct 3) (pt 0))
  (let c3 (add-ct-ct c0 c1))
  (let c4 (mul-ct-ct c3 c3))
  (let c5 (sub-ct-ct c2 c4))
  (return c5))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40c8bb0000000000,
        final_cost_bits: 0x40c8bb0000000000,
        proved_optimal: true,
        strategy_used: SearchStrategy::BottomUp,
    },
    Pinned {
        kernel: "harris-trace",
        strategy: SearchStrategy::Dfs,
        initial_program: r"(kernel harris-trace (inputs (ct 3) (pt 0))
  (let c3 (add-ct-ct c0 c1))
  (let c4 (mul-ct-ct c3 c3))
  (let c5 (sub-ct-ct c2 c4))
  (return c5))
",
        program: r"(kernel harris-trace (inputs (ct 3) (pt 0))
  (let c3 (add-ct-ct c0 c1))
  (let c4 (mul-ct-ct c3 c3))
  (let c5 (sub-ct-ct c2 c4))
  (return c5))
",
        components: 3,
        examples_used: 1,
        initial_cost_bits: 0x40c8bb0000000000,
        final_cost_bits: 0x40c8bb0000000000,
        proved_optimal: true,
        strategy_used: SearchStrategy::Dfs,
    },
];

/// The committed paper-results ledger, `BENCH_paper.json` (written by
/// `porcupine-bench`'s `reproduce` harness under [`fast_synthesis_options`]),
/// agrees with [`PINNED`]: each Table 3 row with its kernel's bottom-up
/// row, and each Table 2 row's synthesized column with the pinned programs,
/// Sobel and Harris composed from the pinned stages. Baseline columns are
/// recomputed from the kernel library. A ledger left stale by a change
/// that moves a pin fails here.
#[test]
fn the_committed_ledger_matches_the_pins() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_paper.json");
    let text = std::fs::read_to_string(path).expect("the committed ledger");
    let ledger = Json::parse(&mut text.as_str());
    let pin = |kernel: &str| {
        PINNED
            .iter()
            .find(|r| r.kernel == kernel && r.strategy == SearchStrategy::BottomUp)
            .unwrap_or_else(|| panic!("{kernel}: no pinned row"))
    };

    let table3 = ledger.get("table3").get("rows").items();
    assert_eq!(table3.len(), PINNED.len() / 2, "one Table 3 row per kernel");
    for row in table3 {
        let kernel = row.get("kernel").str();
        let pin = pin(kernel);
        let bits = |bits: u64| format!("{bits:#018x}");
        assert_eq!(
            row.get("examples").num(),
            pin.examples_used as f64,
            "{kernel}"
        );
        assert_eq!(
            row.get("components").num(),
            pin.components as f64,
            "{kernel}"
        );
        assert_eq!(
            row.get("initial_cost_bits").str(),
            bits(pin.initial_cost_bits),
            "{kernel}"
        );
        assert_eq!(
            row.get("final_cost_bits").str(),
            bits(pin.final_cost_bits),
            "{kernel}"
        );
        assert_eq!(
            row.get("optimal"),
            &Json::Bool(pin.proved_optimal),
            "{kernel}"
        );
        assert_eq!(
            row.get("strategy").str(),
            pin.strategy_used.to_string(),
            "{kernel}"
        );
    }

    let program = |kernel: &str| parse_program(pin(kernel).program).expect("pinned programs parse");
    let shape = |p: &Program| [p.len(), p.logic_depth(), p.mult_depth() as usize].map(|x| x as f64);
    let row_shape = |row: &Json| ["instrs", "logic_depth", "mult_depth"].map(|k| row.get(k).num());
    let img = stencil::default_image();
    let table2 = ledger.get("table2").get("rows").items();
    assert_eq!(table2.len(), porcupine_kernels::DIRECT_NAMES.len() + 2);
    for row in table2 {
        let name = row.get("kernel").str();
        let (baseline, synthesized) = match name {
            "sobel (multi-step)" => (
                composite::sobel_baseline(img),
                composite::sobel_from(&program("gx"), &program("gy"), &program("sobel-combine")),
            ),
            "harris (multi-step)" => (
                composite::harris_baseline(img),
                composite::harris_from(&composite::HarrisStages {
                    gx: program("gx"),
                    gy: program("gy"),
                    blur: program("box-blur"),
                    det: program("harris-det"),
                    trace: program("harris-trace"),
                }),
            ),
            kernel => {
                let k = porcupine_kernels::direct_kernel(kernel, None).expect("a direct kernel");
                (k.baseline, program(kernel))
            }
        };
        assert_eq!(row_shape(row.get("baseline")), shape(&baseline), "{name}");
        assert_eq!(
            row_shape(row.get("synthesized")),
            shape(&synthesized),
            "{name}"
        );
    }
}

/// A JSON value: as much of JSON as the ledger test reads.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses the value at the start of `s`, advancing `s` past it.
    fn parse(s: &mut &str) -> Json {
        *s = s.trim_start();
        let Some(c) = s.chars().next() else {
            panic!("ledger: a value expected at the end of the text")
        };
        if c == '[' || c == '{' {
            let close = if c == '[' { ']' } else { '}' };
            *s = &s[1..];
            let (mut items, mut fields) = (Vec::new(), Vec::new());
            loop {
                *s = s.trim_start();
                if let Some(rest) = s.strip_prefix(close) {
                    *s = rest;
                    return if c == '[' {
                        Json::Arr(items)
                    } else {
                        Json::Obj(fields)
                    };
                }
                if let Some(rest) = s.strip_prefix(',') {
                    *s = rest;
                } else if c == '[' {
                    items.push(Json::parse(s));
                } else {
                    let key = Json::parse(s).str().to_string();
                    *s = s
                        .trim_start()
                        .strip_prefix(':')
                        .expect("ledger: ':' after a key");
                    fields.push((key, Json::parse(s)));
                }
            }
        }
        if c == '"' {
            let mut out = String::new();
            let mut chars = s[1..].char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        *s = &s[i + 2..];
                        return Json::Str(out);
                    }
                    '\\' => match chars.next().map(|(_, e)| e) {
                        Some('n') => out.push('\n'),
                        Some('u') => {
                            let hex: String = (0..4)
                                .filter_map(|_| chars.next().map(|(_, h)| h))
                                .collect();
                            let code = u32::from_str_radix(&hex, 16).expect("ledger: \\u escape");
                            out.push(char::from_u32(code).expect("ledger: \\u escape"));
                        }
                        Some(e) => out.push(e),
                        None => panic!("ledger: unterminated escape"),
                    },
                    c => out.push(c),
                }
            }
            panic!("ledger: unterminated string");
        }
        let end = s
            .find(|c: char| c == ',' || c == ']' || c == '}' || c.is_whitespace())
            .unwrap_or(s.len());
        let (token, rest) = s.split_at(end);
        *s = rest;
        match token {
            "null" => Json::Null,
            "true" => Json::Bool(true),
            "false" => Json::Bool(false),
            number => Json::Num(
                number
                    .parse()
                    .unwrap_or_else(|_| panic!("ledger: bad token {number:?}")),
            ),
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("ledger: {key:?} looked up in a non-object")
        };
        let field = fields.iter().find(|(k, _)| k == key);
        &field
            .unwrap_or_else(|| panic!("ledger: no field {key:?}"))
            .1
    }

    fn items(&self) -> &[Json] {
        let Json::Arr(items) = self else {
            panic!("ledger: an array expected, got {self:?}")
        };
        items
    }

    fn str(&self) -> &str {
        let Json::Str(s) = self else {
            panic!("ledger: a string expected, got {self:?}")
        };
        s
    }

    fn num(&self) -> f64 {
        let Json::Num(x) = self else {
            panic!("ledger: a number expected, got {self:?}")
        };
        *x
    }
}

/// A kernel at the direct-search wall — the 16-element dot product's
/// monolithic spec is nine instructions, the scale the repo previously
/// reached only via `synthesize_staged` — synthesizes end-to-end through
/// the term bank with no DFS fallback, verified against the monolithic
/// spec.
#[test]
fn bottom_up_reaches_past_the_dfs_wall() {
    let k = reduction::dot_product(16);
    let mut options = with_strategy(fast_synthesis_options(), SearchStrategy::BottomUp);
    // Skip phase-2 cost minimization: this pins the scaling claim (phase 1
    // finds *a* correct program), not the optimizer.
    options.optimize = false;
    let r = synthesize(&k.spec, &k.sketch, &options).expect("dot-16 synthesizes bottom-up");
    assert_eq!(r.strategy_used, SearchStrategy::BottomUp, "no DFS fallback");
    assert!(!r.cache_hit);
    assert_eq!(r.components, 5);
    let mut rng = seeded_rng(17);
    verify(&r.program, &k.spec, &mut rng).expect("past-wall program verifies");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The bottom-up determinism contract under CEGIS: the same seed
    /// yields the byte-identical program at jobs = 1, 2, and 4.
    #[test]
    fn bottom_up_is_thread_count_invariant(seed in 0u64..1000) {
        let k = reduction::dot_product(8);
        let base = with_strategy(quick_synthesis_options(seed), SearchStrategy::BottomUp);
        let reference = synthesize(&k.spec, &k.sketch, &with_jobs(base.clone(), 1))
            .expect("dot-8 synthesizes");
        for jobs in [2usize, 4] {
            let r = synthesize(&k.spec, &k.sketch, &with_jobs(base.clone(), jobs))
                .expect("dot-8 synthesizes");
            prop_assert_eq!(
                r.program.to_string(),
                reference.program.to_string(),
                "jobs={} diverged from jobs=1", jobs
            );
            prop_assert_eq!(r.final_cost.to_bits(), reference.final_cost.to_bits());
        }
    }
}
