//! Automatic sketch generation from a specification.
//!
//! §4.4 observes that "the arithmetic instructions can be extracted from
//! the specification"; this module automates that step. The spec is lifted
//! to canonical polynomials per output slot, and the sketch is derived from
//! their structure:
//!
//! * **rotation set** — the distinct offsets `var_slot − output_slot`
//!   appearing in masked slots (the §6.1 sliding-window restriction,
//!   inferred instead of hand-written);
//! * **components** — `add-ct-ct` always; `sub-ct-ct` when any coefficient
//!   is negative (centered); `mul-ct-ct` when the ciphertext-variable
//!   degree exceeds 1; `mul-ct-pt(p_i)` when plaintext input `i` appears;
//!   `mul-ct-pt(splat w)` for each distinct coefficient magnitude `w > 1`;
//!   `add-ct-pt(splat c)` for each additive constant;
//! * **component budget** — a slack-padded estimate from the term count of
//!   the widest slot.
//!
//! The result is a *fallback quality* sketch: always sufficient to express
//! the reference recomputed literally, usually looser (slower to search)
//! than a hand-tuned one — exactly the trade-off §4.4 describes for the
//! "all holes rotated" fallback.
//!
//! Synthesis against the generated sketch runs through
//! [`crate::cegis::synthesize`], so it inherits the search and the
//! persistent synthesis cache — the derived sketch is part of the cache
//! key, so regenerating the same sketch re-hits the same entry.

use crate::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
use crate::spec::KernelSpec;
use quill::program::PtOperand;

/// Derives a sketch from the specification's symbolic structure.
///
/// # Panics
///
/// Panics if the spec masks no output slot.
///
/// # Examples
///
/// ```
/// use porcupine::autosketch::auto_sketch;
/// use porcupine::cegis::{synthesize, SynthesisOptions};
/// use porcupine::spec::{GenericReference, KernelSpec};
/// use quill::ring::Ring;
///
/// // out[i] = x[i] + x[i+1] — the sketch (adds, rotation {1}) is inferred.
/// struct PairSum;
/// impl GenericReference for PairSum {
///     fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
///         (0..ct[0].len())
///             .map(|i| ct[0][i].add(&ct[0][(i + 1) % ct[0].len()]))
///             .collect()
///     }
/// }
/// let mut mask = vec![true; 4];
/// mask[3] = false; // slot 3 wraps
/// let spec = KernelSpec::new("pairsum", 4, 1, 0, mask, 65537, Box::new(PairSum));
/// let sketch = auto_sketch(&spec);
/// assert!(sketch.rotation_amounts.contains(&1));
/// let r = synthesize(&spec, &sketch, &SynthesisOptions::default())?;
/// assert_eq!(r.program.len(), 2); // rot + add
/// # Ok::<(), porcupine::cegis::SynthesisError>(())
/// ```
pub fn auto_sketch(spec: &KernelSpec) -> Sketch {
    let syms = spec.eval_symbolic();
    let t = spec.t;
    let half_t = t / 2;
    let n = spec.n as i64;
    let ct_vars = (spec.num_ct_inputs * spec.n) as u32;

    let mut offsets: Vec<i64> = Vec::new();
    let mut needs_sub = false;
    let mut needs_ct_mul = false;
    let mut pt_muls: Vec<usize> = Vec::new();
    let mut splat_muls: Vec<i64> = Vec::new();
    let mut splat_adds: Vec<i64> = Vec::new();
    let mut max_terms = 1usize;

    for (slot, poly) in syms.iter().enumerate() {
        if !spec.output_mask[slot] {
            continue;
        }
        max_terms = max_terms.max(poly.num_terms());
        for var in poly.variables() {
            if var < ct_vars {
                let var_slot = (var as i64) % n;
                // Centered relative offset: rotating left by `off` aligns
                // the read with the output slot.
                let mut off = (var_slot - slot as i64).rem_euclid(n);
                if off > n / 2 {
                    off -= n;
                }
                if off != 0 && !offsets.contains(&off) {
                    offsets.push(off);
                }
            } else {
                let pt_input = ((var - ct_vars) as usize) / spec.n;
                if !pt_muls.contains(&pt_input) {
                    pt_muls.push(pt_input);
                }
            }
        }
        // Degree in ciphertext variables only.
        // A conservative proxy: total degree ≥ 2 and at least one ct var
        // appears with exponent ≥ 2 or two ct vars multiply.
        if poly_ct_degree(poly, ct_vars) >= 2 {
            needs_ct_mul = true;
        }
        for (coeff, is_constant_term) in poly_coefficients(poly) {
            let centered = if coeff > half_t {
                needs_sub = true;
                coeff as i64 - t as i64
            } else {
                coeff as i64
            };
            let mag = centered.unsigned_abs() as i64;
            if is_constant_term {
                if !splat_adds.contains(&centered) {
                    splat_adds.push(centered);
                }
            } else if mag > 1 && !splat_muls.contains(&mag) {
                splat_muls.push(mag);
            }
        }
    }
    assert!(max_terms >= 1, "spec masks no output slot");

    let mut ops = vec![SketchOp::rotated(ArithOp::AddCtCt)];
    if needs_sub {
        ops.push(SketchOp::rotated(ArithOp::SubCtCt));
    }
    if needs_ct_mul {
        ops.push(SketchOp::plain(ArithOp::MulCtCt));
    }
    for p in pt_muls {
        ops.push(SketchOp::plain(ArithOp::MulCtPt(PtOperand::Input(p))));
    }
    splat_muls.sort_unstable();
    for w in splat_muls {
        ops.push(SketchOp::plain(ArithOp::MulCtPt(PtOperand::Splat(w))));
    }
    splat_adds.sort_unstable();
    for c in splat_adds {
        ops.push(SketchOp::plain(ArithOp::AddCtPt(PtOperand::Splat(c))));
    }

    offsets.sort_unstable();
    // Component budget: a tree over the widest slot's terms plus slack for
    // the op-kind diversity.
    let max_components =
        (usize::BITS - (max_terms - 1).leading_zeros()) as usize + ops.len().min(3) + 1;

    Sketch::new(ops, RotationSet::Explicit(offsets), max_components.max(2))
}

fn poly_ct_degree(poly: &quill::symbolic::SymPoly, ct_vars: u32) -> u32 {
    // Upper bound: total degree if any ct variable participates in a
    // degree ≥ 2 term. SymPoly exposes variables and total degree; we use
    // the conservative combination.
    if poly.degree() >= 2 && poly.variables().iter().any(|&v| v < ct_vars) {
        poly.degree()
    } else {
        poly.degree().min(1)
    }
}

/// Enumerates `(coefficient, is_constant_term)` pairs of a polynomial via
/// its `Display` form being unavailable — we instead re-evaluate on basis
/// points. Cheap and exact for the sparse low-degree polynomials specs
/// produce: the constant term is `p(0)`, and each linear coefficient is
/// recovered by probing one variable at 1.
fn poly_coefficients(poly: &quill::symbolic::SymPoly) -> Vec<(u64, bool)> {
    let mut out = Vec::new();
    let zero = poly.eval(&|_| 0);
    if zero != 0 {
        out.push((zero, true));
    }
    let t = poly.modulus();
    for var in poly.variables() {
        let v = poly.eval(&|x| if x == var { 1 } else { 0 });
        let coeff = (v + t - zero) % t;
        if coeff != 0 {
            out.push((coeff, false));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cegis::{synthesize, SynthesisOptions};
    use crate::spec::GenericReference;
    use quill::ring::Ring;

    struct WeightedStencil;

    impl GenericReference for WeightedStencil {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            // out[i] = 2·x[i] − x[i+1]
            let x = &ct[0];
            let n = x.len();
            (0..n)
                .map(|i| x[i].mul(&x[0].from_i64(2)).sub(&x[(i + 1) % n]))
                .collect()
        }
    }

    fn stencil_spec() -> KernelSpec {
        let mut mask = vec![true; 6];
        mask[5] = false;
        KernelSpec::new("wstencil", 6, 1, 0, mask, 65537, Box::new(WeightedStencil))
    }

    #[test]
    fn infers_offsets_subtraction_and_weights() {
        let sketch = auto_sketch(&stencil_spec());
        assert!(sketch.rotation_amounts.contains(&1));
        assert!(sketch.ops.iter().any(|o| matches!(o.op, ArithOp::SubCtCt)));
        assert!(sketch
            .ops
            .iter()
            .any(|o| matches!(o.op, ArithOp::MulCtPt(PtOperand::Splat(2)))));
        // no ct-ct multiply for a linear kernel
        assert!(!sketch.ops.iter().any(|o| matches!(o.op, ArithOp::MulCtCt)));
    }

    #[test]
    fn auto_sketch_synthesizes_the_stencil() {
        let spec = stencil_spec();
        let r = synthesize(&spec, &auto_sketch(&spec), &SynthesisOptions::default())
            .expect("auto sketch is sufficient");
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(5)
        };
        crate::verify::verify(&r.program, &spec, &mut rng).expect("verified");
    }

    #[test]
    fn quadratic_specs_get_ct_multiply() {
        struct Square;
        impl GenericReference for Square {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                ct[0].iter().map(|x| x.mul(x)).collect()
            }
        }
        let spec = KernelSpec::new("square", 4, 1, 0, vec![], 65537, Box::new(Square));
        let sketch = auto_sketch(&spec);
        assert!(sketch.ops.iter().any(|o| matches!(o.op, ArithOp::MulCtCt)));
        let r = synthesize(&spec, &sketch, &SynthesisOptions::default()).unwrap();
        assert_eq!(r.program.len(), 1);
    }

    #[test]
    fn pt_inputs_get_pt_multiplies() {
        struct Weighted;
        impl GenericReference for Weighted {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], pt: &[Vec<R>]) -> Vec<R> {
                ct[0].iter().zip(&pt[0]).map(|(x, w)| x.mul(w)).collect()
            }
        }
        let spec = KernelSpec::new("weighted", 4, 1, 1, vec![], 65537, Box::new(Weighted));
        let sketch = auto_sketch(&spec);
        assert!(sketch
            .ops
            .iter()
            .any(|o| matches!(o.op, ArithOp::MulCtPt(PtOperand::Input(0)))));
    }
}
