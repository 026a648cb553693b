//! Multi-step applications (§6.3, §7.2): the Sobel operator and the Harris
//! corner detector, composed from independently synthesized kernels at
//! their natural break points.
//!
//! A pipeline starts as an empty program. Each stage is appended with
//! [`Program::append`], wired to the values it reads, and the stitched
//! program goes through [`Program::cse`], so stages over the same input
//! share identical rotations. Like any kernel, it is lowered with
//! `porcupine::opt::optimize_for` before it runs on a scheme backend.
//!
//! Per §7.1, operations HE cannot express are computed "up to a branch":
//! Sobel returns the squared gradient magnitude `Gx² + Gy²` (no square
//! root) and Harris returns the response map (the client thresholds after
//! decryption). Harris uses `k = 1/16`, so the returned response is scaled
//! by 16: `R·16 = 16·(det M) − (trace M)²`.

use crate::reduction::T;
use crate::stencil;
use crate::util::stencil as stencil_taps;
use crate::PaperKernel;
use porcupine::layout::PaddedImage;
use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
use porcupine::spec::{GenericReference, KernelSpec};
use quill::program::{Program, PtOperand, ValRef};
use quill::ring::Ring;
use quill::sexpr::parse_program;

// ---------------------------------------------------------------- Sobel --

/// The Sobel combine stage: `out = a² + b²` (synthesizable at L = 3).
pub fn sobel_combine(n: usize) -> PaperKernel {
    struct Combine;
    impl GenericReference for Combine {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            ct[0]
                .iter()
                .zip(&ct[1])
                .map(|(a, b)| a.mul(a).add(&b.mul(b)))
                .collect()
        }
    }
    let spec = KernelSpec::new("sobel-combine", n, 2, 0, vec![], T, Box::new(Combine));
    let sketch = Sketch::new(
        vec![
            SketchOp::plain(ArithOp::MulCtCt),
            SketchOp::plain(ArithOp::AddCtCt),
        ],
        RotationSet::Explicit(Vec::new()),
        3,
    );
    let baseline = parse_program(
        "(kernel sobel-combine-baseline (inputs (ct 2) (pt 0))
           (let c2 (mul-ct-ct c0 c0))
           (let c3 (mul-ct-ct c1 c1))
           (let c4 (add-ct-ct c2 c3))
           (return c4))",
    )
    .expect("baseline source is valid");
    PaperKernel {
        name: "sobel-combine",
        spec,
        sketch,
        baseline,
    }
}

/// Stitches Gx, Gy, and a combine stage into the full Sobel operator.
pub fn sobel_from(gx: &Program, gy: &Program, combine: &Program) -> Program {
    let mut p = Program::new("sobel", 1, 0, Vec::new(), ValRef::Input(0));
    let ix = p.append(gx, &[ValRef::Input(0)], &[]);
    let iy = p.append(gy, &[ValRef::Input(0)], &[]);
    p.output = p.append(combine, &[ix, iy], &[]);
    p.cse()
}

/// Whole-pipeline Sobel specification (for end-to-end verification).
pub fn sobel_spec(img: PaddedImage) -> KernelSpec {
    struct Sobel {
        w: isize,
    }
    impl GenericReference for Sobel {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            let w = self.w;
            let gx = stencil_taps(
                &ct[0],
                &[
                    (-w - 1, -1),
                    (-w + 1, 1),
                    (-1, -2),
                    (1, 2),
                    (w - 1, -1),
                    (w + 1, 1),
                ],
            );
            let gy = stencil_taps(
                &ct[0],
                &[
                    (-w - 1, -1),
                    (-w, -2),
                    (-w + 1, -1),
                    (w - 1, 1),
                    (w, 2),
                    (w + 1, 1),
                ],
            );
            gx.iter()
                .zip(&gy)
                .map(|(a, b)| a.mul(a).add(&b.mul(b)))
                .collect()
        }
    }
    let w = img.stride() as isize;
    KernelSpec::new(
        "sobel",
        img.slots(),
        1,
        0,
        stencil::bounded_mask(img.slots(), -w - 1, w + 1),
        T,
        Box::new(Sobel { w }),
    )
}

/// The monolithic hand-written Sobel baseline: baseline gradients plus the
/// combine baseline, with shared rotations merged (31 instructions in the
/// paper's count; ours shares four gradient rotations).
pub fn sobel_baseline(img: PaddedImage) -> Program {
    let mut p = sobel_from(
        &stencil::gx(img).baseline,
        &stencil::gy(img).baseline,
        &sobel_combine(img.slots()).baseline,
    );
    p.name = "sobel-baseline".into();
    p
}

// --------------------------------------------------------------- Harris --

/// Elementwise product stage (`out = a · b`), used for `Ix·Iy`.
pub fn mul_stage() -> Program {
    parse_program(
        "(kernel mul-stage (inputs (ct 2) (pt 0))
           (let c2 (mul-ct-ct c0 c1))
           (return c2))",
    )
    .expect("static program is valid")
}

/// Elementwise square stage (`out = a²`), used for `Ix²` and `Iy²`.
pub fn square_stage() -> Program {
    parse_program(
        "(kernel square-stage (inputs (ct 1) (pt 0))
           (let c1 (mul-ct-ct c0 c0))
           (return c1))",
    )
    .expect("static program is valid")
}

/// Harris determinant stage: `out = 16·(A·B − C²)` (synthesizable at L = 4).
pub fn harris_det(n: usize) -> PaperKernel {
    struct Det;
    impl GenericReference for Det {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            (0..ct[0].len())
                .map(|i| {
                    let (a, b, c) = (&ct[0][i], &ct[1][i], &ct[2][i]);
                    a.mul(b).sub(&c.mul(c)).mul(&a.from_i64(16))
                })
                .collect()
        }
    }
    let spec = KernelSpec::new("harris-det", n, 3, 0, vec![], T, Box::new(Det));
    let sketch = Sketch::new(
        vec![
            SketchOp::plain(ArithOp::MulCtCt),
            SketchOp::plain(ArithOp::SubCtCt),
            SketchOp::plain(ArithOp::MulCtPt(PtOperand::Splat(16))),
        ],
        RotationSet::Explicit(Vec::new()),
        4,
    );
    let baseline = parse_program(
        "(kernel harris-det-baseline (inputs (ct 3) (pt 0))
           (let c3 (mul-ct-ct c0 c1))
           (let c4 (mul-ct-ct c2 c2))
           (let c5 (sub-ct-ct c3 c4))
           (let c6 (mul-ct-pt c5 (splat 16)))
           (return c6))",
    )
    .expect("baseline source is valid");
    PaperKernel {
        name: "harris-det",
        spec,
        sketch,
        baseline,
    }
}

/// Harris trace stage: `out = D − (A + B)²` (synthesizable at L = 3).
pub fn harris_trace(n: usize) -> PaperKernel {
    struct Trace;
    impl GenericReference for Trace {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            (0..ct[0].len())
                .map(|i| {
                    let (a, b, d) = (&ct[0][i], &ct[1][i], &ct[2][i]);
                    let s = a.add(b);
                    d.sub(&s.mul(&s))
                })
                .collect()
        }
    }
    let spec = KernelSpec::new("harris-trace", n, 3, 0, vec![], T, Box::new(Trace));
    let sketch = Sketch::new(
        vec![
            SketchOp::plain(ArithOp::AddCtCt),
            SketchOp::plain(ArithOp::MulCtCt),
            SketchOp::plain(ArithOp::SubCtCt),
        ],
        RotationSet::Explicit(Vec::new()),
        3,
    );
    let baseline = parse_program(
        "(kernel harris-trace-baseline (inputs (ct 3) (pt 0))
           (let c3 (add-ct-ct c0 c1))
           (let c4 (mul-ct-ct c3 c3))
           (let c5 (sub-ct-ct c2 c4))
           (return c5))",
    )
    .expect("baseline source is valid");
    PaperKernel {
        name: "harris-trace",
        spec,
        sketch,
        baseline,
    }
}

/// Pieces composing a Harris pipeline: the three stencils plus the response
/// stages (each slot can independently be a baseline or synthesized
/// program).
#[derive(Debug, Clone)]
pub struct HarrisStages {
    /// x-gradient.
    pub gx: Program,
    /// y-gradient.
    pub gy: Program,
    /// 2×2 box blur used for the structure-tensor sums.
    pub blur: Program,
    /// `16·(A·B − C²)`.
    pub det: Program,
    /// `D − (A+B)²`.
    pub trace: Program,
}

/// Stitches the full Harris corner detector from its stages.
pub fn harris_from(stages: &HarrisStages) -> Program {
    let input = ValRef::Input(0);
    let mut p = Program::new("harris", 1, 0, Vec::new(), input);
    let ix = p.append(&stages.gx, &[input], &[]);
    let iy = p.append(&stages.gy, &[input], &[]);
    let ixx = p.append(&square_stage(), &[ix], &[]);
    let iyy = p.append(&square_stage(), &[iy], &[]);
    let ixy = p.append(&mul_stage(), &[ix, iy], &[]);
    let sxx = p.append(&stages.blur, &[ixx], &[]);
    let syy = p.append(&stages.blur, &[iyy], &[]);
    let sxy = p.append(&stages.blur, &[ixy], &[]);
    let det = p.append(&stages.det, &[sxx, syy, sxy], &[]);
    p.output = p.append(&stages.trace, &[sxx, syy, det], &[]);
    p.cse()
}

/// The hand-written monolithic Harris baseline (every stage is its
/// depth-minimized baseline).
pub fn harris_baseline(img: PaddedImage) -> Program {
    let mut p = harris_from(&HarrisStages {
        gx: stencil::gx(img).baseline,
        gy: stencil::gy(img).baseline,
        blur: stencil::box_blur(img).baseline,
        det: harris_det(img.slots()).baseline,
        trace: harris_trace(img.slots()).baseline,
    });
    p.name = "harris-baseline".into();
    p
}

/// Whole-pipeline Harris specification (for end-to-end verification).
pub fn harris_spec(img: PaddedImage) -> KernelSpec {
    struct Harris {
        w: isize,
    }
    impl GenericReference for Harris {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            let w = self.w;
            let gx = stencil_taps(
                &ct[0],
                &[
                    (-w - 1, -1),
                    (-w + 1, 1),
                    (-1, -2),
                    (1, 2),
                    (w - 1, -1),
                    (w + 1, 1),
                ],
            );
            let gy = stencil_taps(
                &ct[0],
                &[
                    (-w - 1, -1),
                    (-w, -2),
                    (-w + 1, -1),
                    (w - 1, 1),
                    (w, 2),
                    (w + 1, 1),
                ],
            );
            let n = gx.len();
            let ixx: Vec<R> = gx.iter().map(|a| a.mul(a)).collect();
            let iyy: Vec<R> = gy.iter().map(|a| a.mul(a)).collect();
            let ixy: Vec<R> = gx.iter().zip(&gy).map(|(a, b)| a.mul(b)).collect();
            let blur_taps: [(isize, i64); 4] = [(0, 1), (1, 1), (w, 1), (w + 1, 1)];
            let sxx = stencil_taps(&ixx, &blur_taps);
            let syy = stencil_taps(&iyy, &blur_taps);
            let sxy = stencil_taps(&ixy, &blur_taps);
            (0..n)
                .map(|i| {
                    let det16 = sxx[i]
                        .mul(&syy[i])
                        .sub(&sxy[i].mul(&sxy[i]))
                        .mul(&sxx[i].from_i64(16));
                    let tr = sxx[i].add(&syy[i]);
                    det16.sub(&tr.mul(&tr))
                })
                .collect()
        }
    }
    let w = img.stride() as isize;
    KernelSpec::new(
        "harris",
        img.slots(),
        1,
        0,
        stencil::bounded_mask(img.slots(), -(w + 1), 2 * (w + 1)),
        T,
        Box::new(Harris { w }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use porcupine::verify::verify;
    use rand::SeedableRng;

    fn img() -> PaddedImage {
        stencil::default_image()
    }

    #[test]
    fn sobel_baseline_verifies_end_to_end() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let spec = sobel_spec(img());
        let baseline = sobel_baseline(img());
        verify(&baseline, &spec, &mut rng).expect("sobel baseline correct");
    }

    #[test]
    fn sobel_baseline_shares_gradient_rotations() {
        let b = sobel_baseline(img());
        // 12 + 12 + 3 minus the four shared corner rotations.
        assert_eq!(b.len(), 23);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn harris_baseline_verifies_end_to_end() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let spec = harris_spec(img());
        let baseline = harris_baseline(img());
        verify(&baseline, &spec, &mut rng).expect("harris baseline correct");
    }

    #[test]
    fn harris_baseline_size_is_paper_scale() {
        let b = harris_baseline(img());
        // The paper's monolithic baseline is 59 instructions; ours lands in
        // the same regime after CSE of shared gradient rotations.
        assert!(b.len() >= 40 && b.len() <= 60, "got {}", b.len());
        assert!(b.mult_depth() >= 2);
    }

    #[test]
    fn stage_kernels_verify() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let n = img().slots();
        for k in [sobel_combine(n), harris_det(n), harris_trace(n)] {
            verify(&k.baseline, &k.spec, &mut rng)
                .unwrap_or_else(|e| panic!("{} baseline: {e}", k.name));
        }
    }

    #[test]
    fn harris_response_distinguishes_corner_from_flat() {
        // A bright corner patch should produce a different response than a
        // flat region — sanity on the reference itself, over Z_t.
        let spec = harris_spec(img());
        let corner = img().pack(&[9, 9, 0, 9, 9, 0, 0, 0, 0]);
        let flat = img().pack(&[5, 5, 5, 5, 5, 5, 5, 5, 5]);
        let rc = spec.eval_concrete(&[corner], &[]);
        let rf = spec.eval_concrete(&[flat], &[]);
        let center = img().index(1, 1);
        assert_ne!(rc[center], rf[center]);
    }
}
