//! Reduction kernels: dot product, Hamming distance, L2 (squared) distance.
//!
//! These pack a data vector into the low slots of one ciphertext
//! ([`porcupine::layout::ReductionLayout`]) and reduce into slot 0 with the
//! §6.1 power-of-two rotation restriction (the reduction-tree pattern of
//! Figure 2). Per §7.1, kernels are modified to stay inside HE-supported
//! arithmetic: Hamming distance uses `Σ (x_i − y_i)²` (which equals the
//! Hamming distance on binary inputs) and L2 distance is the *squared*
//! distance (no square root).
//!
//! Past the direct search's scaling wall, [`synthesize_staged`] builds a
//! reduction in §6.3 stages instead: each stage is synthesized on its own
//! and appended onto one program with [`Program::append`].

use crate::PaperKernel;
use porcupine::cegis::{synthesize, SynthesisError, SynthesisOptions};
use porcupine::layout::ReductionLayout;
use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
use porcupine::spec::{GenericReference, KernelSpec};
use quill::program::{Program, PtOperand, ValRef};
use quill::ring::Ring;
use quill::sexpr::parse_program;

/// Plaintext modulus shared by all paper kernels (`t = 65537`).
pub const T: u64 = 65537;

struct DotProduct {
    layout: ReductionLayout,
}

impl GenericReference for DotProduct {
    fn compute<R: Ring>(&self, ct: &[Vec<R>], pt: &[Vec<R>]) -> Vec<R> {
        let x = &ct[0];
        let w = &pt[0];
        let zero = x[0].from_i64(0);
        let mut out = vec![zero.clone(); x.len()];
        out[0] = (0..self.layout.len).fold(zero, |acc, i| acc.add(&x[i].mul(&w[i])));
        out
    }
}

/// Dot product of `len` packed elements against a plaintext weight vector
/// (Figure 2's kernel with a server-local operand).
pub fn dot_product(len: usize) -> PaperKernel {
    let layout = ReductionLayout::new(len);
    let spec = KernelSpec::new(
        "dot-product",
        layout.slots,
        1,
        1,
        layout.result_mask(),
        T,
        Box::new(DotProduct { layout }),
    );
    // The layout forces the component count: slot 0 of the output depends
    // on all `len` ciphertext slots and each add at most doubles that
    // breadth (`≥ log2 len` adds), and the weights force one mul-ct-pt —
    // so deepening can start at the ceiling it will end at, skipping the
    // exhaustive Unsat proofs that dominate at large `len`.
    let sketch = Sketch::new(
        vec![
            SketchOp::plain(ArithOp::MulCtPt(PtOperand::Input(0))),
            SketchOp::rhs_rotated(ArithOp::AddCtCt),
        ],
        RotationSet::PowersOfTwo { extent: len },
        1 + len.ilog2() as usize,
    )
    .with_min_components(1 + len.ilog2() as usize);
    // Depth-minimized baseline: multiply, then a balanced rotate-add tree.
    // For len = 8: 7 instructions, depth 7 (Table 2).
    let baseline = reduction_baseline("dot-product-baseline", len, 1, 1, &["(mul-ct-pt c0 p0)"]);
    PaperKernel {
        name: "dot-product",
        spec,
        sketch,
        baseline,
    }
}

struct SquaredDistance {
    layout: ReductionLayout,
}

impl GenericReference for SquaredDistance {
    fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
        let (x, y) = (&ct[0], &ct[1]);
        let zero = x[0].from_i64(0);
        let mut out = vec![zero.clone(); x.len()];
        out[0] = (0..self.layout.len).fold(zero, |acc, i| {
            let d = x[i].sub(&y[i]);
            acc.add(&d.mul(&d))
        });
        out
    }
}

fn squared_distance_kernel(name: &'static str, len: usize) -> PaperKernel {
    let layout = ReductionLayout::new(len);
    let spec = KernelSpec::new(
        name,
        layout.slots,
        2,
        0,
        layout.result_mask(),
        T,
        Box::new(SquaredDistance { layout }),
    );
    // Output slot 0 depends on all `len` slots of *both* inputs (breadth
    // 2·len) and every binary component at most doubles breadth, so at
    // least `1 + log2 len` components are forced — a provable floor one
    // below the ceiling (the sub and the square).
    let sketch = Sketch::new(
        vec![
            SketchOp::plain(ArithOp::SubCtCt),
            SketchOp::plain(ArithOp::MulCtCt),
            SketchOp::rhs_rotated(ArithOp::AddCtCt),
        ],
        RotationSet::PowersOfTwo { extent: len },
        2 + len.ilog2() as usize,
    )
    .with_min_components(1 + len.ilog2() as usize);
    // Subtract, square, then the reduction tree.
    let baseline = reduction_baseline(
        &format!("{name}-baseline"),
        len,
        2,
        0,
        &["(sub-ct-ct c0 c1)", "(mul-ct-ct c2 c2)"],
    );
    PaperKernel {
        name,
        spec,
        sketch,
        baseline,
    }
}

/// Hamming distance between two packed binary vectors of `len` elements:
/// `Σ (x_i − y_i)²` (= popcount of XOR on binary inputs). Table 2 size:
/// `len = 4` gives 6 instructions at depth 6.
pub fn hamming_distance(len: usize) -> PaperKernel {
    squared_distance_kernel("hamming-distance", len)
}

/// Squared L2 distance between two packed vectors of `len` elements
/// (k-NN-style workloads use squared distance per §7.1).
pub fn l2_distance(len: usize) -> PaperKernel {
    squared_distance_kernel("l2-distance", len)
}

/// Multi-step synthesis (§6.3) for a reduction kernel past the direct
/// search's scaling wall.
///
/// The paper reports that monolithic synthesis stops scaling around 10–12
/// instructions; a 64-element dot product needs 13. Its prescription is to
/// partition at natural break points and synthesize each stage — which a
/// reduction has in abundance: an elementwise *head* (the multiply /
/// subtract-and-square) followed by `log2 len` distance-halving tree
/// levels, each an independently synthesized one-component kernel. This
/// function synthesizes each stage with `synthesize`, appends it with
/// [`Program::append`] and returns the stitched program after
/// [`Program::cse`] (identical in shape to what the direct search finds at
/// paper sizes — head, then `add(acc, rot(acc, s))` for `s = len/2 … 1`).
///
/// Returns `None` for kernels that are not reductions or a non-power-of-two
/// `len`; `Some(Err(_))` propagates a stage's [`SynthesisError`].
pub fn synthesize_staged(
    name: &str,
    len: usize,
    options: &SynthesisOptions,
) -> Option<Result<Program, SynthesisError>> {
    if !len.is_power_of_two() || len < 2 {
        return None;
    }
    let layout = ReductionLayout::new(len);
    let slots = layout.slots;

    // The elementwise head stage: spec, sketch, and input arities.
    struct MulHead {
        len: usize,
    }
    impl GenericReference for MulHead {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], pt: &[Vec<R>]) -> Vec<R> {
            (0..ct[0].len())
                .map(|i| {
                    if i < self.len {
                        ct[0][i].mul(&pt[0][i])
                    } else {
                        ct[0][i].from_i64(0)
                    }
                })
                .collect()
        }
    }
    struct SquaredDiffHead {
        len: usize,
    }
    impl GenericReference for SquaredDiffHead {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            (0..ct[0].len())
                .map(|i| {
                    if i < self.len {
                        let d = ct[0][i].sub(&ct[1][i]);
                        d.mul(&d)
                    } else {
                        ct[0][i].from_i64(0)
                    }
                })
                .collect()
        }
    }
    let mut head_mask = vec![false; slots];
    for m in head_mask.iter_mut().take(len) {
        *m = true;
    }
    let (head_spec, head_sketch, num_ct, num_pt) = match name {
        "dot-product" => (
            KernelSpec::new(
                "dot-product-head",
                slots,
                1,
                1,
                head_mask,
                T,
                Box::new(MulHead { len }),
            ),
            Sketch::new(
                vec![SketchOp::plain(ArithOp::MulCtPt(PtOperand::Input(0)))],
                RotationSet::Explicit(Vec::new()),
                1,
            ),
            1,
            1,
        ),
        "hamming-distance" | "l2-distance" => (
            KernelSpec::new(
                "squared-diff-head",
                slots,
                2,
                0,
                head_mask,
                T,
                Box::new(SquaredDiffHead { len }),
            ),
            Sketch::new(
                vec![
                    SketchOp::plain(ArithOp::SubCtCt),
                    SketchOp::plain(ArithOp::MulCtCt),
                ],
                RotationSet::Explicit(Vec::new()),
                2,
            )
            .with_min_components(2),
            2,
            0,
        ),
        _ => return None,
    };

    // One distance-`s` halving level of the reduction tree, masked to the
    // slots that still carry partial sums.
    let halving_spec = |s: usize| -> KernelSpec {
        struct Halve {
            s: usize,
        }
        impl GenericReference for Halve {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                let x = &ct[0];
                let n = x.len();
                (0..n).map(|i| x[i].add(&x[(i + self.s) % n])).collect()
            }
        }
        let mut mask = vec![false; slots];
        for m in mask.iter_mut().take(s) {
            *m = true;
        }
        KernelSpec::new(
            format!("reduce-halve-{s}"),
            slots,
            1,
            0,
            mask,
            T,
            Box::new(Halve { s }),
        )
    };
    let halving_sketch = |s: usize| -> Sketch {
        Sketch::new(
            vec![SketchOp::rhs_rotated(ArithOp::AddCtCt)],
            RotationSet::Explicit(vec![s as i64]),
            1,
        )
    };

    let run = || -> Result<Program, SynthesisError> {
        let mut p = Program::new(name, num_ct, num_pt, Vec::new(), ValRef::Input(0));
        let ct_binding: Vec<ValRef> = (0..num_ct).map(ValRef::Input).collect();
        let pt_binding: Vec<usize> = (0..num_pt).collect();
        let head = synthesize(&head_spec, &head_sketch, options)?.program;
        p.output = p.append(&head, &ct_binding, &pt_binding);
        let mut s = len / 2;
        while s >= 1 {
            let level = synthesize(&halving_spec(s), &halving_sketch(s), options)?.program;
            p.output = p.append(&level, &[p.output], &[]);
            s /= 2;
        }
        Ok(p.cse())
    };
    Some(run())
}

/// Component count the direct (monolithic) search needs for a reduction —
/// past [`DIRECT_SEARCH_MAX_COMPONENTS`], use [`synthesize_staged`].
pub fn direct_components(name: &str, len: usize) -> Option<usize> {
    match name {
        "dot-product" => Some(1 + len.ilog2() as usize),
        "hamming-distance" | "l2-distance" => Some(2 + len.ilog2() as usize),
        _ => None,
    }
}

/// The §6.3 scaling wall: the direct search is an exhaustive DFS, and the
/// CLI's `--size` switches a reduction over to [`synthesize_staged`] once
/// it needs more components than this (the paper reports 10–12
/// *instructions*; components materialize up to one rotation each). At
/// the wall, a 16-element dot product (5 components, nine instructions)
/// synthesizes directly in 0.12–0.16 s without cost minimization; one
/// past it, a 32-element dot product, a 16-element Hamming distance and a
/// 16-element L2 distance take 44, 76–81 and 74–80 s (two runs each;
/// release build, one search thread, no cache, 2-CPU host).
pub const DIRECT_SEARCH_MAX_COMPONENTS: usize = 5;

/// Builds the `head` instructions (bound in order, from the first free
/// `c` index) followed by a balanced rotate-add reduction over `len` slots
/// of the last one, in surface syntax.
fn reduction_baseline(
    name: &str,
    len: usize,
    num_ct: usize,
    num_pt: usize,
    head: &[&str],
) -> quill::program::Program {
    assert!(len.is_power_of_two());
    let mut src = format!("(kernel {name} (inputs (ct {num_ct}) (pt {num_pt}))\n");
    let mut next = num_ct; // index of next binding
    for instr in head {
        src.push_str(&format!("  (let c{next} {instr})\n"));
        next += 1;
    }
    let mut acc = next - 1;
    let mut step = len / 2;
    while step >= 1 {
        src.push_str(&format!("  (let c{next} (rot-ct c{acc} {step}))\n"));
        src.push_str(&format!(
            "  (let c{} (add-ct-ct c{acc} c{next}))\n",
            next + 1
        ));
        acc = next + 1;
        next += 2;
        step /= 2;
    }
    src.push_str(&format!("  (return c{acc}))"));
    parse_program(&src).expect("baseline source is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use porcupine::verify::verify;
    use rand::SeedableRng;

    #[test]
    fn baselines_verify_against_specs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for k in [dot_product(8), hamming_distance(4), l2_distance(8)] {
            verify(&k.baseline, &k.spec, &mut rng)
                .unwrap_or_else(|e| panic!("{} baseline: {e}", k.name));
        }
    }

    #[test]
    fn dot_product_baseline_matches_table2() {
        let k = dot_product(8);
        assert_eq!(k.baseline.len(), 7, "Table 2: dot product 7 instructions");
        assert_eq!(k.baseline.logic_depth(), 7, "Table 2: depth 7");
    }

    #[test]
    fn hamming_baseline_matches_table2() {
        let k = hamming_distance(4);
        assert_eq!(k.baseline.len(), 6, "Table 2: Hamming 6 instructions");
        assert_eq!(k.baseline.logic_depth(), 6, "Table 2: depth 6");
    }

    #[test]
    fn l2_baseline_shape() {
        // Table 2 reports 9/9; our formulation of the same kernel needs 8
        // (sub, square, and a 3-level rotate-add tree) — documented in
        // EXPERIMENTS.md.
        let k = l2_distance(8);
        assert_eq!(k.baseline.len(), 8);
        assert_eq!(k.baseline.logic_depth(), 8);
        assert_eq!(k.baseline.mult_depth(), 1);
    }

    /// Staged (§6.3) synthesis of a 64-element dot product — far past the
    /// direct search's scaling wall — completes quickly and verifies
    /// against the *monolithic* spec.
    #[test]
    fn staged_dot_product_64_verifies_against_full_spec() {
        let options = porcupine::cegis::SynthesisOptions {
            timeout: std::time::Duration::from_secs(60),
            latency: quill::cost::LatencyModel::uniform(),
            cache: porcupine::cegis::CachePolicy::Disabled,
            ..Default::default()
        };
        let prog = synthesize_staged("dot-product", 64, &options)
            .expect("dot-product stages")
            .expect("every stage synthesizes");
        // Head + 6 rotate-add levels: 13 instructions, like the direct
        // search's answer shape at paper sizes.
        assert_eq!(prog.len(), 13);
        let k = dot_product(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        verify(&prog, &k.spec, &mut rng).expect("staged program implements the full reduction");
    }

    #[test]
    fn staged_l2_matches_direct_shape() {
        let options = porcupine::cegis::SynthesisOptions {
            timeout: std::time::Duration::from_secs(60),
            latency: quill::cost::LatencyModel::uniform(),
            cache: porcupine::cegis::CachePolicy::Disabled,
            ..Default::default()
        };
        let prog = synthesize_staged("l2-distance", 16, &options)
            .expect("l2 stages")
            .expect("every stage synthesizes");
        let k = l2_distance(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        verify(&prog, &k.spec, &mut rng).expect("staged l2 implements the full kernel");
    }

    #[test]
    fn staged_rejects_non_reductions_and_bad_lengths() {
        let options = porcupine::cegis::SynthesisOptions::default();
        assert!(synthesize_staged("box-blur", 8, &options).is_none());
        assert!(synthesize_staged("dot-product", 12, &options).is_none());
        assert_eq!(direct_components("dot-product", 64), Some(7));
        assert_eq!(direct_components("box-blur", 64), None);
    }

    #[test]
    fn reduction_reference_values() {
        let k = dot_product(4);
        let x = vec![1, 2, 3, 4, 0, 0, 0, 0];
        let w = vec![5, 6, 7, 8, 0, 0, 0, 0];
        let out = k.spec.eval_concrete(&[x], &[w]);
        assert_eq!(out[0], 70);
    }

    #[test]
    fn hamming_counts_differences_on_binary_inputs() {
        let k = hamming_distance(4);
        let x = vec![1, 0, 1, 1, 0, 0, 0, 0];
        let y = vec![1, 1, 0, 1, 0, 0, 0, 0];
        let out = k.spec.eval_concrete(&[x, y], &[]);
        assert_eq!(out[0], 2);
    }
}
