//! Cross-strategy agreement and parallel determinism (ISSUE 7).
//!
//! Phase 2 of CEGIS re-searches with a tie-inclusive cost bound and picks
//! the canonical `(cost, serialization)` minimum among *all* correct
//! programs at the found component count — so whichever phase-1 strategy
//! produced the first correct program, the optimized result must be
//! byte-identical. These suites pin exactly that: bottom-up vs DFS on
//! every paper kernel, and bottom-up at jobs = 1/2/4.

use porcupine::cegis::{synthesize, SearchStrategy, SynthesisResult};
use porcupine::verify::verify;
use porcupine_kernels::{composite, reduction, stencil, PaperKernel};
use proptest::prelude::*;
use test_support::{
    fast_synthesis_options, quick_synthesis_options, seeded_rng, with_jobs, with_strategy,
};

/// The paper's kernel suite at test-friendly sizes: the nine direct
/// kernels plus the sobel and harris combine stages (the composite
/// kernels' synthesized pieces).
///
/// Debug builds (tier-1's `cargo test -q`) drop the two search-heaviest
/// kernels: unoptimized, their searches run long enough to hit the
/// per-call timeout, and a timed-out phase 2 salvages a *partial* best
/// program whose identity is cut-point-dependent — the agreement
/// assertion is only meaningful on proved-optimal results. Release runs
/// (`cargo test --release --test synth_strategies`) cover the full set.
fn paper_kernels() -> Vec<PaperKernel> {
    let img = stencil::default_image();
    let mut kernels: Vec<PaperKernel> = porcupine_kernels::DIRECT_NAMES
        .iter()
        .map(|name| porcupine_kernels::direct_kernel(name, None).expect("registry names"))
        .collect();
    kernels.push(composite::sobel_combine(img.slots()));
    kernels.push(composite::harris_det(img.slots()));
    kernels.push(composite::harris_trace(img.slots()));
    if cfg!(debug_assertions) {
        kernels.retain(|k| k.name != "l2-distance" && k.name != "roberts-cross");
    }
    kernels
}

/// Bottom-up and DFS converge to the byte-identical optimized program
/// (same cost, same canonical tie-break) on every paper kernel.
#[test]
fn strategies_agree_on_every_paper_kernel() {
    for k in paper_kernels() {
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
}

/// One recorded CEGIS trajectory: what [`synthesize`] returns for a paper
/// kernel under [`fast_synthesis_options`] and one strategy. None of these
/// fields depends on `PORCUPINE_JOBS`, `PORCUPINE_OPT` or
/// `PORCUPINE_SCHEME`, so every CI leg checks the same table.
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
