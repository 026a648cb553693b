//! Verification of candidate kernels against the specification (§5.1's
//! `verify` query).
//!
//! Both the candidate program and the reference are lifted to canonical
//! multivariate polynomials over `Z_t` per output slot; masked slots must
//! match exactly. Because every program in the sketch space computes
//! polynomials of degree far below `t`, canonical-form equality is a sound
//! **and complete** equivalence check (see [`quill::symbolic`]). When the
//! forms differ, a concrete counter-example is extracted by Schwartz–Zippel
//! sampling of the nonzero difference — it succeeds in one or two draws with
//! overwhelming probability.

use crate::spec::{Example, KernelSpec};
use quill::interp;
use quill::program::Program;
use rand::Rng;
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone)]
pub enum VerifyFailure {
    /// The program reads other inputs than the specification provides:
    /// `(ciphertext, plaintext)` input counts of each. No input can witness
    /// this, so there is no counter-example.
    Arity {
        /// The program's input counts.
        program: (usize, usize),
        /// The specification's input counts.
        spec: (usize, usize),
    },
    /// A masked output slot computes another polynomial than the spec's.
    Mismatch {
        /// The first masked slot whose polynomial differs.
        slot: usize,
        /// A concrete input on which candidate and spec disagree (absent
        /// only if sampling failed, which is probabilistically negligible).
        counter_example: Option<Example>,
    },
}

impl VerifyFailure {
    /// The concrete input the candidate gets wrong, if there is one.
    pub fn counter_example(self) -> Option<Example> {
        match self {
            VerifyFailure::Arity { .. } => None,
            VerifyFailure::Mismatch {
                counter_example, ..
            } => counter_example,
        }
    }
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyFailure::Arity { program, spec } => write!(
                f,
                "candidate takes {} ct / {} pt inputs, the specification {} ct / {} pt",
                program.0, program.1, spec.0, spec.1
            ),
            VerifyFailure::Mismatch { slot, .. } => write!(
                f,
                "candidate disagrees with the specification at slot {slot}"
            ),
        }
    }
}

impl Error for VerifyFailure {}

/// Maximum Schwartz–Zippel draws before giving up on a concrete witness.
const MAX_SAMPLING_TRIES: usize = 10_000;

/// Verifies `prog` against `spec` for **all** inputs.
///
/// # Errors
///
/// Returns [`VerifyFailure::Arity`] if the program's input counts differ
/// from the spec's, and [`VerifyFailure::Mismatch`] (with a concrete
/// counter-example for the CEGIS loop) if any masked output slot differs.
pub fn verify<R: Rng + ?Sized>(
    prog: &Program,
    spec: &KernelSpec,
    rng: &mut R,
) -> Result<(), VerifyFailure> {
    let program = (prog.num_ct_inputs, prog.num_pt_inputs);
    let expected = (spec.num_ct_inputs, spec.num_pt_inputs);
    if program != expected {
        return Err(VerifyFailure::Arity {
            program,
            spec: expected,
        });
    }
    let slot = match first_mismatch(prog, spec) {
        None => return Ok(()),
        Some(s) => s,
    };
    // Extract a concrete counter-example.
    for _ in 0..MAX_SAMPLING_TRIES {
        let ex = spec.sample_example(rng);
        let got = interp::eval_concrete(prog, &ex.ct_inputs, &ex.pt_inputs, spec.t);
        let differs = (0..spec.n).any(|i| spec.output_mask[i] && got[i] != ex.output[i]);
        if differs {
            return Err(VerifyFailure::Mismatch {
                slot,
                counter_example: Some(ex),
            });
        }
    }
    Err(VerifyFailure::Mismatch {
        slot,
        counter_example: None,
    })
}

/// Whether `prog` computes the spec's polynomial on every masked slot:
/// [`verify`]'s exact check, without sampling a counter-example (so it
/// draws nothing from an rng).
pub(crate) fn is_correct(prog: &Program, spec: &KernelSpec) -> bool {
    (prog.num_ct_inputs, prog.num_pt_inputs) == (spec.num_ct_inputs, spec.num_pt_inputs)
        && first_mismatch(prog, spec).is_none()
}

/// Whether `prog` agrees with `example` on every masked slot. A program
/// over other inputs than the spec's agrees with no example.
pub(crate) fn agrees_with(prog: &Program, spec: &KernelSpec, example: &Example) -> bool {
    if (prog.num_ct_inputs, prog.num_pt_inputs) != (spec.num_ct_inputs, spec.num_pt_inputs) {
        return false;
    }
    let got = interp::eval_concrete(prog, &example.ct_inputs, &example.pt_inputs, spec.t);
    (0..spec.n).all(|i| !spec.output_mask[i] || got[i] == example.output[i])
}

/// The first masked slot whose polynomial under `prog` differs from the
/// spec's. `prog` has the spec's input counts.
fn first_mismatch(prog: &Program, spec: &KernelSpec) -> Option<usize> {
    let prog_sym = interp::eval_symbolic(prog, spec.n, spec.t);
    let spec_sym = spec.eval_symbolic();
    (0..spec.n).find(|&i| spec.output_mask[i] && prog_sym[i] != spec_sym[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GenericReference;
    use quill::program::{Instr, ValRef};
    use quill::ring::Ring;
    use rand::SeedableRng;

    struct Double;

    impl GenericReference for Double {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            ct[0].iter().map(|x| x.add(x)).collect()
        }
    }

    fn spec() -> KernelSpec {
        KernelSpec::new("double", 4, 1, 0, vec![], 65537, Box::new(Double))
    }

    #[test]
    fn accepts_equivalent_program() {
        // x + x computes 2x.
        let p = Program::new(
            "double",
            1,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(0))],
            ValRef::Instr(0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(verify(&p, &spec(), &mut rng).is_ok());
    }

    #[test]
    fn accepts_splat_multiplication_as_equivalent() {
        // mul by splat 2 is also 2x — a different program, same polynomials.
        let p = Program::new(
            "double",
            1,
            0,
            vec![Instr::MulCtPt(
                ValRef::Input(0),
                quill::program::PtOperand::Splat(2),
            )],
            ValRef::Instr(0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(verify(&p, &spec(), &mut rng).is_ok());
    }

    #[test]
    fn rejects_wrong_program_with_counterexample() {
        // x * x is not 2x.
        let p = Program::new(
            "double",
            1,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0))],
            ValRef::Instr(0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = verify(&p, &spec(), &mut rng).unwrap_err();
        let ex = err.counter_example().expect("sampling finds a witness");
        let got = interp::eval_concrete(&p, &ex.ct_inputs, &ex.pt_inputs, 65537);
        assert_ne!(got, ex.output);
    }

    #[test]
    fn rejects_program_over_other_inputs_without_panicking() {
        // x0 + x0 against a two-input spec: the interpreter would index an
        // input the program does not declare.
        struct Sum2;
        impl GenericReference for Sum2 {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                ct[0].iter().zip(&ct[1]).map(|(a, b)| a.add(b)).collect()
            }
        }
        let two_inputs = KernelSpec::new("sum2", 4, 2, 0, vec![], 65537, Box::new(Sum2));
        let p = Program::new(
            "double",
            1,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(0))],
            ValRef::Instr(0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = verify(&p, &two_inputs, &mut rng).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyFailure::Arity {
                    program: (1, 0),
                    spec: (2, 0)
                }
            ),
            "{err:?}"
        );
        assert!(err.counter_example().is_none());
    }

    #[test]
    fn mask_limits_comparison() {
        // Program correct only in slot 0; spec masked to slot 0 accepts it.
        struct FirstDouble;
        impl GenericReference for FirstDouble {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                let mut out = ct[0].clone();
                out[0] = ct[0][0].add(&ct[0][0]);
                out
            }
        }
        let masked = KernelSpec::new(
            "first-double",
            4,
            1,
            0,
            vec![true, false, false, false],
            65537,
            Box::new(FirstDouble),
        );
        let p = Program::new(
            "double",
            1,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(0))],
            ValRef::Instr(0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(verify(&p, &masked, &mut rng).is_ok());
    }
}
