//! Image stencil kernels: box blur, the x/y Sobel gradients (Gx/Gy), and
//! Roberts cross — the Figure 5/6/7 case studies.
//!
//! Images are packed row-major with one ring of zero padding
//! ([`porcupine::layout::PaddedImage`]); rotation holes use the §6.1
//! sliding-window restriction. All kernels are parameterized by the layout
//! so the same constructors synthesize for any image width (the paper's
//! examples use a 3×3 interior → 5×5 packed model).

use crate::reduction::T;
use crate::util::stencil;
use crate::PaperKernel;
use porcupine::layout::PaddedImage;
use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
use porcupine::spec::{GenericReference, KernelSpec};
use quill::program::PtOperand;
use quill::ring::Ring;
use quill::sexpr::parse_program;

/// The default model layout from the paper's examples: 3×3 interior with a
/// 1-pixel zero ring (5×5 = 25 slots, stride 5).
pub fn default_image() -> PaddedImage {
    PaddedImage::new(3, 3, 1)
}

struct Stencil {
    taps: Vec<(isize, i64)>,
}

impl GenericReference for Stencil {
    fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
        stencil(&ct[0], &self.taps)
    }
}

/// Mask of slots whose window reads `[lo, hi]` (flat offsets) stay inside
/// the packed vector, so circular and padded semantics agree.
pub(crate) fn bounded_mask(slots: usize, lo: isize, hi: isize) -> Vec<bool> {
    (0..slots as isize)
        .map(|i| i + lo >= 0 && i + hi < slots as isize)
        .collect()
}

/// 2×2 box blur (Figure 5): `out[i] = x[i] + x[i+1] + x[i+W] + x[i+W+1]`.
pub fn box_blur(img: PaddedImage) -> PaperKernel {
    let w = img.stride() as isize;
    let taps = vec![(0, 1), (1, 1), (w, 1), (w + 1, 1)];
    let spec = KernelSpec::new(
        "box-blur",
        img.slots(),
        1,
        0,
        bounded_mask(img.slots(), 0, w + 1),
        T,
        Box::new(Stencil { taps }),
    );
    let sketch = Sketch::new(
        vec![SketchOp::rotated(ArithOp::AddCtCt)],
        RotationSet::Window {
            stride: w as i64,
            radius: 1,
        },
        3,
    );
    // Figure 5(b): depth-minimized baseline — align all four window
    // elements, then a balanced add tree. 6 instructions, depth 3.
    let baseline = parse_program(&format!(
        "(kernel box-blur-baseline (inputs (ct 1) (pt 0))
           (let c1 (rot-ct c0 1))
           (let c2 (rot-ct c0 {w}))
           (let c3 (rot-ct c0 {}))
           (let c4 (add-ct-ct c1 c0))
           (let c5 (add-ct-ct c2 c3))
           (let c6 (add-ct-ct c4 c5))
           (return c6))",
        w + 1
    ))
    .expect("baseline source is valid");
    PaperKernel {
        name: "box-blur",
        spec,
        sketch,
        baseline,
    }
}

/// Sobel x-gradient (Figures 6/7): weights `[[-1,0,1],[-2,0,2],[-1,0,1]]`.
pub fn gx(img: PaddedImage) -> PaperKernel {
    let w = img.stride() as isize;
    let taps = vec![
        (-w - 1, -1),
        (-w + 1, 1),
        (-1, -2),
        (1, 2),
        (w - 1, -1),
        (w + 1, 1),
    ];
    let spec = KernelSpec::new(
        "gx",
        img.slots(),
        1,
        0,
        bounded_mask(img.slots(), -w - 1, w + 1),
        T,
        Box::new(Stencil { taps }),
    );
    let sketch = gradient_sketch(w);
    let baseline = gradient_baseline("gx-baseline", &[-w - 1, -w + 1, -1, 1, w - 1, w + 1]);
    PaperKernel {
        name: "gx",
        spec,
        sketch,
        baseline,
    }
}

/// Sobel y-gradient: weights `[[-1,-2,-1],[0,0,0],[1,2,1]]`.
pub fn gy(img: PaddedImage) -> PaperKernel {
    let w = img.stride() as isize;
    let taps = vec![
        (-w - 1, -1),
        (-w, -2),
        (-w + 1, -1),
        (w - 1, 1),
        (w, 2),
        (w + 1, 1),
    ];
    let spec = KernelSpec::new(
        "gy",
        img.slots(),
        1,
        0,
        bounded_mask(img.slots(), -w - 1, w + 1),
        T,
        Box::new(Stencil { taps }),
    );
    let sketch = gradient_sketch(w);
    let baseline = gradient_baseline("gy-baseline", &[-w - 1, w - 1, -w, w, -w + 1, w + 1]);
    PaperKernel {
        name: "gy",
        spec,
        sketch,
        baseline,
    }
}

/// The paper's Gx sketch (§4.4): add/sub components with window-restricted
/// rotation holes plus a multiply-by-2 with a plain hole.
fn gradient_sketch(stride: isize) -> Sketch {
    Sketch::new(
        vec![
            SketchOp::rotated(ArithOp::AddCtCt),
            SketchOp::rotated(ArithOp::SubCtCt),
            SketchOp::plain(ArithOp::MulCtPt(PtOperand::Splat(2))),
        ],
        RotationSet::Window {
            stride: stride as i64,
            radius: 1,
        },
        4,
    )
}

/// Depth-minimized gradient baseline (12 instructions, depth 4, as in
/// Figure 6b): rotate the six weighted neighbours into place, pair them
/// into three subtractions, double the centre pair with an addition, and
/// combine in a balanced tree. `offsets` lists the six taps in the order
/// (−1-weight, +1-weight) × 3 pairs, centre pair in the middle.
fn gradient_baseline(name: &str, offsets: &[isize; 6]) -> quill::program::Program {
    let src = format!(
        "(kernel {name} (inputs (ct 1) (pt 0))
           (let c1 (rot-ct c0 {o0}))
           (let c2 (rot-ct c0 {o1}))
           (let c3 (rot-ct c0 {o2}))
           (let c4 (rot-ct c0 {o3}))
           (let c5 (rot-ct c0 {o4}))
           (let c6 (rot-ct c0 {o5}))
           (let c7 (sub-ct-ct c2 c1))
           (let c8 (sub-ct-ct c4 c3))
           (let c9 (sub-ct-ct c6 c5))
           (let c10 (add-ct-ct c7 c9))
           (let c11 (add-ct-ct c8 c8))
           (let c12 (add-ct-ct c10 c11))
           (return c12))",
        o0 = offsets[0],
        o1 = offsets[1],
        o2 = offsets[2],
        o3 = offsets[3],
        o4 = offsets[4],
        o5 = offsets[5],
    );
    parse_program(&src).expect("baseline source is valid")
}

/// Roberts cross edge detector on a 2×2 window:
/// `out[i] = (x[i] − x[i+W+1])² + (x[i+1] − x[i+W])²`.
pub fn roberts_cross(img: PaddedImage) -> PaperKernel {
    let w = img.stride() as isize;
    let spec = KernelSpec::new(
        "roberts-cross",
        img.slots(),
        1,
        0,
        bounded_mask(img.slots(), 0, w + 1),
        T,
        Box::new(RobertsCross { w }),
    );
    // §6.1 sliding-window restriction: the kernel only touches the 2×2
    // window, so rotations are restricted to {1, W, W+1}.
    let sketch = Sketch::new(
        vec![
            SketchOp::rotated(ArithOp::SubCtCt),
            SketchOp::plain(ArithOp::MulCtCt),
            SketchOp::plain(ArithOp::AddCtCt),
        ],
        RotationSet::Explicit(vec![1, w as i64, w as i64 + 1]),
        5,
    );
    let baseline = parse_program(&format!(
        "(kernel roberts-cross-baseline (inputs (ct 1) (pt 0))
           (let c1 (rot-ct c0 {d}))
           (let c2 (rot-ct c0 1))
           (let c3 (rot-ct c0 {w}))
           (let c4 (sub-ct-ct c0 c1))
           (let c5 (sub-ct-ct c2 c3))
           (let c6 (mul-ct-ct c4 c4))
           (let c7 (mul-ct-ct c5 c5))
           (let c8 (add-ct-ct c6 c7))
           (return c8))",
        d = w + 1,
    ))
    .expect("baseline source is valid");
    PaperKernel {
        name: "roberts-cross",
        spec,
        sketch,
        baseline,
    }
}

struct RobertsCross {
    w: isize,
}

impl GenericReference for RobertsCross {
    fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
        let x = &ct[0];
        (0..x.len())
            .map(|i| {
                let i = i as isize;
                let d1 = crate::util::at(x, i).sub(&crate::util::at(x, i + self.w + 1));
                let d2 = crate::util::at(x, i + 1).sub(&crate::util::at(x, i + self.w));
                d1.mul(&d1).add(&d2.mul(&d2))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use porcupine::lift::check_padding_stable;
    use porcupine::verify::verify;
    use rand::SeedableRng;

    fn kernels() -> Vec<PaperKernel> {
        let img = default_image();
        vec![box_blur(img), gx(img), gy(img), roberts_cross(img)]
    }

    #[test]
    fn baselines_verify_against_specs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for k in kernels() {
            verify(&k.baseline, &k.spec, &mut rng)
                .unwrap_or_else(|e| panic!("{} baseline: {e}", k.name));
        }
    }

    #[test]
    fn baselines_are_padding_stable() {
        for k in kernels() {
            check_padding_stable(&k.baseline, k.spec.n, &k.spec.output_mask, T)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn baseline_sizes_match_table2() {
        let img = default_image();
        assert_eq!(box_blur(img).baseline.len(), 6, "Table 2: box blur 6");
        assert_eq!(box_blur(img).baseline.logic_depth(), 3, "Table 2: depth 3");
        assert_eq!(gx(img).baseline.len(), 12, "Table 2: Gx 12");
        assert_eq!(gx(img).baseline.logic_depth(), 4, "Table 2: depth 4");
        assert_eq!(gy(img).baseline.len(), 12, "Table 2: Gy 12");
        assert_eq!(gy(img).baseline.logic_depth(), 4);
    }

    #[test]
    fn figure_6a_program_verifies_as_gx() {
        // The paper's synthesized Gx (Figure 6a) must satisfy our Gx spec.
        let prog = parse_program(
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
        .unwrap();
        let k = gx(default_image());
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        verify(&prog, &k.spec, &mut rng).expect("Figure 6a implements Gx");
    }

    #[test]
    fn figure_5a_program_verifies_as_box_blur() {
        let prog = parse_program(
            "(kernel box-blur (inputs (ct 1) (pt 0))
               (let c1 (rot-ct c0 1))
               (let c2 (add-ct-ct c0 c1))
               (let c3 (rot-ct c2 5))
               (let c4 (add-ct-ct c2 c3))
               (return c4))",
        )
        .unwrap();
        let k = box_blur(default_image());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        verify(&prog, &k.spec, &mut rng).expect("Figure 5a implements box blur");
    }

    #[test]
    fn roberts_reference_on_an_edge() {
        let img = default_image();
        let k = roberts_cross(img);
        // vertical edge: left column dark, right bright
        let pixels = vec![0, 9, 9, 0, 9, 9, 0, 9, 9];
        let slots = img.pack(&pixels);
        let out = k.spec.eval_concrete(&[slots], &[]);
        // at interior pixel (1,1)=slot 12? gradient across the edge is nonzero
        let idx = img.index(1, 0);
        assert_ne!(out[idx], 0);
    }

    #[test]
    fn larger_images_are_supported() {
        let img = PaddedImage::new(6, 6, 1); // 8×8 packed, stride 8
        let k = gx(img);
        assert_eq!(k.spec.n, 64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        verify(&k.baseline, &k.spec, &mut rng).expect("stride-8 baseline verifies");
    }
}
