//! Sketches (§4.4): HE kernel templates with holes.
//!
//! A sketch lists the *arithmetic components* the kernel may use (a multiset
//! the synthesizer may partially ignore), how each component's ciphertext
//! operands may be rotated, and which rotation amounts are legal. The
//! paper's key design point — **local rotate** — treats rotation as an
//! operand modifier of arithmetic instructions instead of a free-standing
//! component, shrinking the program space without losing solutions; the
//! explicit-rotation mode is kept for the §7.4 ablation.

use quill::program::{Instr, PtOperand, ValRef};

/// An arithmetic opcode choice for a sketch component. For `*CtPt` ops the
/// plaintext operand is fixed in the sketch (as in the paper's Gx sketch,
/// `mul-ct-pt (??ct) [2 2 … 2]`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArithOp {
    /// ct + ct.
    AddCtCt,
    /// ct − ct.
    SubCtCt,
    /// ct × ct.
    MulCtCt,
    /// ct + pt (fixed plaintext operand).
    AddCtPt(PtOperand),
    /// ct − pt (fixed plaintext operand).
    SubCtPt(PtOperand),
    /// ct × pt (fixed plaintext operand).
    MulCtPt(PtOperand),
}

impl ArithOp {
    /// Is this op commutative in its ciphertext operands?
    pub fn commutative(&self) -> bool {
        matches!(self, ArithOp::AddCtCt | ArithOp::MulCtCt)
    }

    /// Does the op take two ciphertext operands?
    pub fn binary_ct(&self) -> bool {
        matches!(self, ArithOp::AddCtCt | ArithOp::SubCtCt | ArithOp::MulCtCt)
    }

    /// Does the op raise multiplicative depth (ct×ct or ct×pt)?
    pub fn is_mul(&self) -> bool {
        matches!(self, ArithOp::MulCtCt | ArithOp::MulCtPt(_))
    }

    /// The instruction this op computes on `lhs` and, if binary, `rhs`.
    pub(crate) fn instr(&self, lhs: ValRef, rhs: Option<ValRef>) -> Instr {
        let rhs = || rhs.expect("a binary ciphertext op has a right operand");
        match self {
            ArithOp::AddCtCt => Instr::AddCtCt(lhs, rhs()),
            ArithOp::SubCtCt => Instr::SubCtCt(lhs, rhs()),
            ArithOp::MulCtCt => Instr::MulCtCt(lhs, rhs()),
            ArithOp::AddCtPt(p) => Instr::AddCtPt(lhs, p.clone()),
            ArithOp::SubCtPt(p) => Instr::SubCtPt(lhs, p.clone()),
            ArithOp::MulCtPt(p) => Instr::MulCtPt(lhs, p.clone()),
        }
    }
}

/// One component slot in the sketch: an opcode and, per ciphertext operand,
/// whether the hole is `??ct-r` (rotation allowed) or plain `??ct`.
///
/// Writing tighter holes (e.g. a plain elementwise subtract feeding a
/// rotated reduction) is exactly the §4.4 guidance: "the user must specify
/// whether instruction operands should be ciphertexts or
/// ciphertext-rotations"; the all-rotated fallback always works but costs
/// search time.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchOp {
    /// The opcode.
    pub op: ArithOp,
    /// `true` → the left ciphertext operand is a `??ct-r` hole.
    pub lhs_rot: bool,
    /// `true` → the right ciphertext operand (if any) is a `??ct-r` hole.
    pub rhs_rot: bool,
}

impl SketchOp {
    /// A component with rotation holes on every ciphertext operand.
    pub fn rotated(op: ArithOp) -> Self {
        SketchOp {
            op,
            lhs_rot: true,
            rhs_rot: true,
        }
    }

    /// A component with plain ciphertext holes.
    pub fn plain(op: ArithOp) -> Self {
        SketchOp {
            op,
            lhs_rot: false,
            rhs_rot: false,
        }
    }

    /// A component whose right operand only may be rotated — the
    /// rotate-and-accumulate shape of tree reductions.
    pub fn rhs_rotated(op: ArithOp) -> Self {
        SketchOp {
            op,
            lhs_rot: false,
            rhs_rot: true,
        }
    }
}

/// The allowed rotation amounts for `??r` holes (§6.1's restrictions).
#[derive(Debug, Clone, PartialEq)]
pub enum RotationSet {
    /// An explicit list of (nonzero) amounts.
    Explicit(Vec<i64>),
    /// `±2^k` tree-reduction amounts up to `extent/2` — for kernels that
    /// reduce within the ciphertext (dot product, distances).
    PowersOfTwo {
        /// The reduction width (number of elements being reduced).
        extent: usize,
    },
    /// Sliding-window amounts `{r·W + c}` for `|r|, |c| ≤ radius` — for
    /// stencils over a row-major image with row stride `W`.
    Window {
        /// Row stride of the packed image.
        stride: i64,
        /// Window radius (1 for a 3×3 stencil).
        radius: i64,
    },
    /// Every amount in `1..n` — the unrestricted fallback (ablation).
    All {
        /// Model vector length.
        n: usize,
    },
}

impl RotationSet {
    /// The concrete nonzero amounts, deduplicated and sorted.
    pub fn amounts(&self) -> Vec<i64> {
        let mut v: Vec<i64> = match self {
            RotationSet::Explicit(v) => v.clone(),
            RotationSet::PowersOfTwo { extent } => {
                let mut v = Vec::new();
                let mut p = 1i64;
                while p < *extent as i64 {
                    v.push(p);
                    v.push(-p);
                    p *= 2;
                }
                v
            }
            RotationSet::Window { stride, radius } => {
                let mut v = Vec::new();
                for r in -radius..=*radius {
                    for c in -radius..=*radius {
                        v.push(r * stride + c);
                    }
                }
                v
            }
            RotationSet::All { n } => (1..*n as i64).collect(),
        };
        v.retain(|&r| r != 0);
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// How rotations enter the program space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchMode {
    /// Rotations are operands of arithmetic components (the paper's
    /// contribution; default).
    LocalRotate,
    /// Rotations are stand-alone components the solver schedules like any
    /// other instruction (the §7.4 ablation baseline). Nested rotations are
    /// still excluded, as in the paper.
    ExplicitRotate,
}

/// A sketch: the component multiset, rotation vocabulary, and search mode.
///
/// # Examples
///
/// The paper's Gx sketch (§4.4): add, subtract, or multiply-by-2 components
/// with window rotations on a 5-wide image:
///
/// ```
/// use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
/// use quill::program::PtOperand;
///
/// let sketch = Sketch::new(
///     vec![
///         SketchOp::rotated(ArithOp::AddCtCt),
///         SketchOp::rotated(ArithOp::SubCtCt),
///         SketchOp::plain(ArithOp::MulCtPt(PtOperand::Splat(2))),
///     ],
///     RotationSet::Window { stride: 5, radius: 1 },
///     8,
/// );
/// assert!(sketch.rotation_amounts.contains(&-6));
/// assert!(sketch.rotation_amounts.contains(&6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    /// The distinct component choices (`choose*` alternatives).
    pub ops: Vec<SketchOp>,
    /// Cached rotation amounts from the rotation set.
    pub rotation_amounts: Vec<i64>,
    /// Search mode.
    pub mode: SketchMode,
    /// Upper bound on component count for iterative deepening.
    pub max_components: usize,
    /// Lower bound on component count: iterative deepening starts here
    /// (default 1). Sketch authors set it when the problem structure
    /// forces a minimum — e.g. a reduction over `n` slots needs at least
    /// `log2(n)` additions — which skips the exhaustive Unsat proofs of
    /// the impossible levels, the dominant cost for scaled-up kernels.
    pub min_components: usize,
}

impl Sketch {
    /// Builds a local-rotate sketch.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or `max_components == 0`.
    pub fn new(ops: Vec<SketchOp>, rotations: RotationSet, max_components: usize) -> Self {
        assert!(
            !ops.is_empty(),
            "sketch needs at least one component choice"
        );
        assert!(max_components > 0);
        Sketch {
            ops,
            rotation_amounts: rotations.amounts(),
            mode: SketchMode::LocalRotate,
            max_components,
            min_components: 1,
        }
    }

    /// Sets the deepening floor ([`Sketch::min_components`]), clamped to
    /// `max_components`.
    ///
    /// **Soundness caveat**: a floor above the true minimum makes the
    /// synthesizer miss smaller programs; only encode bounds the data
    /// layout forces.
    pub fn with_min_components(mut self, min: usize) -> Self {
        self.min_components = min.clamp(1, self.max_components);
        self
    }

    /// Switches to the explicit-rotation ablation mode.
    pub fn with_explicit_rotations(mut self) -> Self {
        self.mode = SketchMode::ExplicitRotate;
        self
    }

    /// The legal rotation choices for a `??ct-r` hole: "no rotation" (0)
    /// first, then each distinct amount of `rotation_amounts` once (the
    /// search charges a rotation per value and index into this list).
    pub fn operand_rotations(&self) -> Vec<i64> {
        let mut v = vec![0];
        for &r in &self.rotation_amounts {
            if !v.contains(&r) {
                v.push(r);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_two_amounts() {
        let r = RotationSet::PowersOfTwo { extent: 8 };
        assert_eq!(r.amounts(), vec![-4, -2, -1, 1, 2, 4]);
    }

    #[test]
    fn window_amounts_cover_3x3() {
        let r = RotationSet::Window {
            stride: 5,
            radius: 1,
        };
        let a = r.amounts();
        // offsets −6 −5 −4 −1 1 4 5 6 (0 excluded)
        assert_eq!(a, vec![-6, -5, -4, -1, 1, 4, 5, 6]);
    }

    #[test]
    fn explicit_dedups_and_sorts() {
        let r = RotationSet::Explicit(vec![3, -1, 3, 0]);
        assert_eq!(r.amounts(), vec![-1, 3]);
    }

    #[test]
    fn all_amounts() {
        let r = RotationSet::All { n: 4 };
        assert_eq!(r.amounts(), vec![1, 2, 3]);
    }

    #[test]
    fn operand_rotations_include_identity() {
        let s = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::Explicit(vec![1, 2]),
            4,
        );
        assert_eq!(s.operand_rotations(), vec![0, 1, 2]);
        // A hand-set amount list still yields each choice once.
        let mut hand = s.clone();
        hand.rotation_amounts = vec![2, 0, 2, 1];
        assert_eq!(hand.operand_rotations(), vec![0, 2, 1]);
        assert_eq!(s.mode, SketchMode::LocalRotate);
        assert_eq!(
            s.clone().with_explicit_rotations().mode,
            SketchMode::ExplicitRotate
        );
    }

    #[test]
    fn op_properties() {
        assert!(ArithOp::AddCtCt.commutative());
        assert!(ArithOp::MulCtCt.commutative());
        assert!(!ArithOp::SubCtCt.commutative());
        assert!(ArithOp::SubCtCt.binary_ct());
        assert!(!ArithOp::MulCtPt(PtOperand::Splat(2)).binary_ct());
    }
}
