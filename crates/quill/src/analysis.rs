//! Static analyses over Quill programs: ciphertext sizes, multiplicative
//! levels, and a generic worst-case noise estimator.
//!
//! BFV ciphertexts carry a *size* — the number of polynomial parts. Fresh
//! encryptions are size 2; a ciphertext–ciphertext multiply produces size 3;
//! [`crate::program::Instr::Relin`] key-switches back to 2. Additions,
//! subtractions, and plaintext operations preserve (the maximum of) their
//! operands' sizes, while rotations and further multiplies *require* size-2
//! inputs on the backend. The middle-end uses [`ct_sizes`] to place
//! relinearizations and [`check_backend_legal`] to certify that a lowered
//! program can execute 1:1 on the BFV evaluator.
//!
//! Sizes here saturate at 3: a multiply is modelled as producing size 3
//! regardless of operand sizes, because the backend refuses size-3 multiply
//! operands anyway and [`check_backend_legal`] reports exactly that.

use crate::program::{Instr, Program, ValRef};
use crate::scheme::SchemeLegality;
use std::error::Error;
use std::fmt;

/// The per-instruction size transfer rule, given the operand sizes:
/// multiply produces 3, relin produces 2, everything else propagates the
/// maximum of its operands. The single source of truth shared by
/// [`ct_sizes`] and the middle-end's relin-placement pass.
pub fn instr_result_size(instr: &Instr, size_of_operand: impl Fn(ValRef) -> u8) -> u8 {
    match instr {
        Instr::MulCtCt(..) => 3,
        Instr::Relin(_) => 2,
        Instr::AddCtCt(a, b) | Instr::SubCtCt(a, b) => size_of_operand(*a).max(size_of_operand(*b)),
        Instr::AddCtPt(a, _) | Instr::SubCtPt(a, _) | Instr::MulCtPt(a, _) | Instr::RotCt(a, _) => {
            size_of_operand(*a)
        }
    }
}

/// Ciphertext size of each instruction result (inputs are size 2).
///
/// Tolerates structurally invalid programs (out-of-range or forward
/// references read as size 2) so [`Program::validate`] can call it before
/// the structural checks complete.
pub fn ct_sizes(prog: &Program) -> Vec<u8> {
    let mut sizes = vec![2u8; prog.instrs.len()];
    for i in 0..prog.instrs.len() {
        sizes[i] = instr_result_size(&prog.instrs[i], |r| match r {
            ValRef::Input(_) => 2,
            ValRef::Instr(j) if j < i => sizes[j],
            ValRef::Instr(_) => 2,
        });
    }
    sizes
}

/// Size of an arbitrary value given the per-instruction sizes from
/// [`ct_sizes`].
pub fn size_of(sizes: &[u8], r: ValRef) -> u8 {
    match r {
        ValRef::Input(_) => 2,
        ValRef::Instr(j) => sizes.get(j).copied().unwrap_or(2),
    }
}

/// Multiplicative level of each instruction result (fresh inputs are 0;
/// every multiply adds one) — the per-value refinement of
/// [`Program::mult_depth`].
pub fn ct_levels(prog: &Program) -> Vec<u32> {
    let mut levels = vec![0u32; prog.instrs.len()];
    for (i, instr) in prog.instrs.iter().enumerate() {
        let at = |r: &ValRef, levels: &[u32]| match r {
            ValRef::Input(_) => 0,
            ValRef::Instr(j) => levels[*j],
        };
        levels[i] = match instr {
            Instr::MulCtCt(a, b) => at(a, &levels).max(at(b, &levels)) + 1,
            Instr::MulCtPt(a, _) => at(a, &levels) + 1,
            Instr::AddCtCt(a, b) | Instr::SubCtCt(a, b) => at(a, &levels).max(at(b, &levels)),
            Instr::AddCtPt(a, _) | Instr::SubCtPt(a, _) | Instr::RotCt(a, _) | Instr::Relin(a) => {
                at(a, &levels)
            }
        };
    }
    levels
}

/// Per-operation noise transfer rules for the worst-case noise estimator
/// ([`noise_levels`]).
///
/// An implementation defines its own scale for the `f64` noise values; the
/// walker only threads them through the dataflow graph. The concrete BFV
/// model (`bfv::noise::NoiseModel`) uses the base-2 logarithm of the
/// *relative invariant noise* `‖t·w mod Q‖ / Q`, so smaller (more negative)
/// means quieter and values above `-1` mean decryption failure.
///
/// The rules mirror the instruction set: `Relin` and `RotCt` both
/// key-switch (additive noise), additions combine operand noise, and the
/// multiplies scale it. `sub` defaults to the corresponding `add` rule
/// because noise analysis cannot distinguish a sum from a difference.
pub trait NoiseSemantics {
    /// Noise of a fresh encryption (every program input).
    fn fresh(&self) -> f64;
    /// `add-ct-ct` of operands with noise `a` and `b`.
    fn add_ct_ct(&self, a: f64, b: f64) -> f64;
    /// `sub-ct-ct` (defaults to the `add-ct-ct` rule).
    fn sub_ct_ct(&self, a: f64, b: f64) -> f64 {
        self.add_ct_ct(a, b)
    }
    /// `mul-ct-ct` of operands with noise `a` and `b`.
    fn mul_ct_ct(&self, a: f64, b: f64) -> f64;
    /// `add-ct-pt`.
    fn add_ct_pt(&self, a: f64) -> f64;
    /// `sub-ct-pt` (defaults to the `add-ct-pt` rule).
    fn sub_ct_pt(&self, a: f64) -> f64 {
        self.add_ct_pt(a)
    }
    /// `mul-ct-pt`.
    fn mul_ct_pt(&self, a: f64) -> f64;
    /// `rot-ct` (a Galois automorphism plus a key switch).
    fn rot_ct(&self, a: f64) -> f64;
    /// `relin-ct` (one key switch).
    fn relin_ct(&self, a: f64) -> f64;
    /// Remaining noise budget, in bits, for a noise value.
    fn budget(&self, noise: f64) -> f64;

    /// Predicted budget of a fresh encryption.
    fn fresh_budget(&self) -> f64 {
        self.budget(self.fresh())
    }

    /// Analyzes a lowered program: walks it with the rules and reports the
    /// worst-case output noise, the predicted remaining budget, and the
    /// consumed budget relative to a fresh encryption.
    fn analyze(&self, prog: &Program) -> NoiseReport
    where
        Self: Sized,
    {
        let output_noise_bits = output_noise(prog, self);
        let predicted_budget_bits = self.budget(output_noise_bits);
        NoiseReport {
            output_noise_bits,
            predicted_budget_bits,
            fresh_budget_bits: self.fresh_budget(),
            consumed_bits: self.fresh_budget() - predicted_budget_bits,
        }
    }
}

/// Worst-case noise of each instruction result under `sem`, walking the
/// program in SSA order (inputs are fresh encryptions).
///
/// Run this on the *lowered* program (post `-O`), not the raw searched one:
/// relinearizations are explicit IR here, so lazy placement at `-O2` is
/// charged exactly where it executes.
pub fn noise_levels(prog: &Program, sem: &impl NoiseSemantics) -> Vec<f64> {
    let mut noise = vec![0.0f64; prog.instrs.len()];
    for (i, instr) in prog.instrs.iter().enumerate() {
        let at = |r: &ValRef, noise: &[f64]| match r {
            ValRef::Input(_) => sem.fresh(),
            ValRef::Instr(j) => noise[*j],
        };
        noise[i] = match instr {
            Instr::AddCtCt(a, b) => sem.add_ct_ct(at(a, &noise), at(b, &noise)),
            Instr::SubCtCt(a, b) => sem.sub_ct_ct(at(a, &noise), at(b, &noise)),
            Instr::MulCtCt(a, b) => sem.mul_ct_ct(at(a, &noise), at(b, &noise)),
            Instr::AddCtPt(a, _) => sem.add_ct_pt(at(a, &noise)),
            Instr::SubCtPt(a, _) => sem.sub_ct_pt(at(a, &noise)),
            Instr::MulCtPt(a, _) => sem.mul_ct_pt(at(a, &noise)),
            Instr::RotCt(a, _) => sem.rot_ct(at(a, &noise)),
            Instr::Relin(a) => sem.relin_ct(at(a, &noise)),
        };
    }
    noise
}

/// Worst-case noise of the program output under `sem` (the value
/// [`noise_levels`] assigns to the output reference).
pub fn output_noise(prog: &Program, sem: &impl NoiseSemantics) -> f64 {
    match prog.output {
        ValRef::Input(_) => sem.fresh(),
        ValRef::Instr(j) => noise_levels(prog, sem)[j],
    }
}

/// Why a program cannot execute 1:1 on an HE scheme backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegalityError {
    /// Instruction `instr` rotates a size-3 ciphertext.
    RotOfSize3 {
        /// Offending instruction index.
        instr: usize,
    },
    /// Instruction `instr` multiplies a size-3 ciphertext operand.
    MulOfSize3 {
        /// Offending instruction index.
        instr: usize,
    },
    /// The program output is a size-3 ciphertext (must be relinearized
    /// before escaping).
    OutputSize3,
    /// Instruction `instr` is an op the target scheme's backend does not
    /// implement at all (see [`SchemeLegality`]).
    UnsupportedOp {
        /// Offending instruction index.
        instr: usize,
        /// The instruction kind, e.g. `"relin-ct"`.
        op: &'static str,
    },
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityError::RotOfSize3 { instr } => {
                write!(f, "instruction {instr} rotates a size-3 ciphertext")
            }
            LegalityError::MulOfSize3 { instr } => {
                write!(f, "instruction {instr} multiplies a size-3 ciphertext")
            }
            LegalityError::OutputSize3 => {
                write!(f, "program output is a size-3 ciphertext")
            }
            LegalityError::UnsupportedOp { instr, op } => {
                write!(
                    f,
                    "instruction {instr} ({op}) is not supported by the target scheme"
                )
            }
        }
    }
}

impl Error for LegalityError {}

/// Checks the IR invariants a scheme backend executes under: every
/// instruction is an op the backend implements ([`SchemeLegality`]), rotation
/// and multiply operands are size 2, and the output is size 2. Programs
/// straight out of the synthesizer generally violate the size discipline
/// (they carry no `Relin` at all); the `porcupine::opt` lowering pipeline
/// establishes it at every `-O` level.
///
/// # Errors
///
/// Returns the first violation in instruction order (unsupported ops are
/// reported before size violations at the same instruction).
pub fn check_backend_legal_with(
    prog: &Program,
    legality: &SchemeLegality,
) -> Result<(), LegalityError> {
    let sizes = ct_sizes(prog);
    for (i, instr) in prog.instrs.iter().enumerate() {
        if !legality.supports(instr) {
            return Err(LegalityError::UnsupportedOp {
                instr: i,
                op: SchemeLegality::op_name(instr),
            });
        }
        match instr {
            Instr::RotCt(a, _) if size_of(&sizes, *a) == 3 => {
                return Err(LegalityError::RotOfSize3 { instr: i });
            }
            Instr::MulCtCt(a, b) if size_of(&sizes, *a) == 3 || size_of(&sizes, *b) == 3 => {
                return Err(LegalityError::MulOfSize3 { instr: i });
            }
            _ => {}
        }
    }
    if size_of(&sizes, prog.output) == 3 {
        return Err(LegalityError::OutputSize3);
    }
    Ok(())
}

/// [`check_backend_legal_with`] under the full instruction set — the shared
/// size discipline every shipped scheme (BFV, BGV) imposes.
///
/// # Errors
///
/// Returns the first violation in instruction order.
pub fn check_backend_legal(prog: &Program) -> Result<(), LegalityError> {
    check_backend_legal_with(prog, &SchemeLegality::full())
}

/// The result of analyzing one program under a scheme's noise model:
/// what the model predicts about the output's noise and the remaining
/// decryption budget. Produced by [`NoiseSemantics::analyze`] under each
/// scheme crate's `NoiseModel` (both express noise as `log2` of relative noise, so the report shape is
/// scheme-neutral), consumed by the parameter selectors and the CLI's
/// noise diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseReport {
    /// Worst-case `log2` relative noise of the output.
    pub output_noise_bits: f64,
    /// Predicted remaining budget at decryption (bits; may be negative).
    pub predicted_budget_bits: f64,
    /// Predicted budget of a fresh encryption under the same parameters.
    pub fresh_budget_bits: f64,
    /// Worst-case budget the program consumes (`fresh - predicted`).
    pub consumed_bits: f64,
}

/// A group of two or more `rot-ct` instructions reading the same source
/// value — a *rotation fan*. All members can share one hoisted key-switch
/// decomposition of the source (pay the NTTs once, then one cheap
/// accumulate per member); the cost model prices fans with
/// `rot_hoist_setup` + per-member `rot_hoisted`, and the runner executes
/// them through the scheme's `hoist`/`rotate_hoisted` surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationFan {
    /// The shared rotation source.
    pub source: ValRef,
    /// Instruction indices of the fan's `rot-ct` members, in program order
    /// (always ≥ 2 entries).
    pub members: Vec<usize>,
}

/// Groups a program's `rot-ct` instructions by source value and returns
/// every group with at least two members, ordered by first member. A
/// rotation whose source feeds no other rotation is not a fan — hoisting
/// it would only add the setup cost.
pub fn rotation_fans(prog: &Program) -> Vec<RotationFan> {
    let mut fans: Vec<RotationFan> = Vec::new();
    for (j, instr) in prog.instrs.iter().enumerate() {
        if let Instr::RotCt(src, _) = instr {
            match fans.iter_mut().find(|f| f.source == *src) {
                Some(f) => f.members.push(j),
                None => fans.push(RotationFan {
                    source: *src,
                    members: vec![j],
                }),
            }
        }
    }
    fans.retain(|f| f.members.len() >= 2);
    fans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Instr, Program, ValRef};

    /// mul → add(size-3, input) → relin → rot: sizes 3, 3, 2, 2.
    fn relin_chain() -> Program {
        Program::new(
            "chain",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Input(0)),
                Instr::Relin(ValRef::Instr(1)),
                Instr::RotCt(ValRef::Instr(2), 1),
            ],
            ValRef::Instr(3),
        )
    }

    #[test]
    fn sizes_propagate_through_adds_and_relin() {
        let p = relin_chain();
        assert_eq!(ct_sizes(&p), vec![3, 3, 2, 2]);
        assert!(p.validate().is_ok());
        assert!(check_backend_legal(&p).is_ok());
    }

    #[test]
    fn levels_refine_mult_depth() {
        let p = relin_chain();
        assert_eq!(ct_levels(&p), vec![1, 1, 1, 1]);
        assert_eq!(p.mult_depth(), 1);
    }

    #[test]
    fn rotation_of_unrelinearized_multiply_is_illegal() {
        let p = Program::new(
            "bad",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::RotCt(ValRef::Instr(0), 1),
            ],
            ValRef::Instr(1),
        );
        assert_eq!(
            check_backend_legal(&p),
            Err(LegalityError::RotOfSize3 { instr: 1 })
        );
    }

    #[test]
    fn size_3_output_and_mul_operands_are_illegal() {
        let mul = Program::new(
            "mul",
            2,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        assert_eq!(check_backend_legal(&mul), Err(LegalityError::OutputSize3));
        let mul_of_mul = Program::new(
            "mm",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::MulCtCt(ValRef::Instr(0), ValRef::Input(1)),
                Instr::Relin(ValRef::Instr(1)),
            ],
            ValRef::Instr(2),
        );
        assert_eq!(
            check_backend_legal(&mul_of_mul),
            Err(LegalityError::MulOfSize3 { instr: 1 })
        );
    }

    /// A counting semantics: fresh = 0, every multiply adds one, key
    /// switches add nothing — the walker must reduce to `ct_levels`.
    struct MultCount;
    impl NoiseSemantics for MultCount {
        fn fresh(&self) -> f64 {
            0.0
        }
        fn add_ct_ct(&self, a: f64, b: f64) -> f64 {
            a.max(b)
        }
        fn mul_ct_ct(&self, a: f64, b: f64) -> f64 {
            a.max(b) + 1.0
        }
        fn add_ct_pt(&self, a: f64) -> f64 {
            a
        }
        fn mul_ct_pt(&self, a: f64) -> f64 {
            a + 1.0
        }
        fn rot_ct(&self, a: f64) -> f64 {
            a
        }
        fn relin_ct(&self, a: f64) -> f64 {
            a
        }
        fn budget(&self, noise: f64) -> f64 {
            -noise
        }
    }

    #[test]
    fn noise_walker_agrees_with_ct_levels_under_counting_semantics() {
        let p = relin_chain();
        let by_walker: Vec<u32> = noise_levels(&p, &MultCount)
            .iter()
            .map(|&x| x as u32)
            .collect();
        assert_eq!(by_walker, ct_levels(&p));
        assert_eq!(output_noise(&p, &MultCount) as u32, p.mult_depth());
    }

    #[test]
    fn noise_walker_charges_explicit_relins_only() {
        struct KsCount;
        impl NoiseSemantics for KsCount {
            fn fresh(&self) -> f64 {
                0.0
            }
            fn add_ct_ct(&self, a: f64, b: f64) -> f64 {
                a.max(b)
            }
            fn mul_ct_ct(&self, a: f64, b: f64) -> f64 {
                a.max(b)
            }
            fn add_ct_pt(&self, a: f64) -> f64 {
                a
            }
            fn mul_ct_pt(&self, a: f64) -> f64 {
                a
            }
            fn rot_ct(&self, a: f64) -> f64 {
                a + 1.0
            }
            fn relin_ct(&self, a: f64) -> f64 {
                a + 1.0
            }
            fn budget(&self, noise: f64) -> f64 {
                -noise
            }
        }
        // relin_chain has one relin and one rotation on the output path.
        assert_eq!(output_noise(&relin_chain(), &KsCount), 2.0);
    }

    /// A backend that lacks an op reports `UnsupportedOp` for programs that
    /// use it and accepts programs that avoid it.
    #[test]
    fn partial_scheme_legality_reports_unsupported_ops() {
        let no_relin = SchemeLegality {
            relin: false,
            ..SchemeLegality::full()
        };
        assert_eq!(
            check_backend_legal_with(&relin_chain(), &no_relin),
            Err(LegalityError::UnsupportedOp {
                instr: 2,
                op: "relin-ct"
            })
        );
        let rot_only = Program::new(
            "rot",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 1)],
            ValRef::Instr(0),
        );
        assert!(check_backend_legal_with(&rot_only, &no_relin).is_ok());
        // The full rule set is what `check_backend_legal` delegates to.
        assert!(check_backend_legal_with(&relin_chain(), &SchemeLegality::full()).is_ok());
    }

    #[test]
    fn relin_of_size_2_fails_validation() {
        let p = Program::new(
            "bad-relin",
            1,
            0,
            vec![Instr::Relin(ValRef::Input(0))],
            ValRef::Instr(0),
        );
        assert_eq!(
            p.validate(),
            Err(crate::program::ProgramError::RelinOfSize2(0))
        );
    }

    /// Fan detection: three rotations of input 0 plus a lone rotation of an
    /// intermediate form exactly one fan (the lone rotation is not worth a
    /// setup), grouped by source, members in program order.
    #[test]
    fn rotation_fans_group_same_source_rotations() {
        let p = Program::new(
            "fanned",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
                Instr::RotCt(ValRef::Input(0), 5),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
                Instr::RotCt(ValRef::Instr(3), 2),
                Instr::RotCt(ValRef::Input(0), 6),
            ],
            ValRef::Instr(4),
        );
        p.validate().expect("valid");
        let fans = rotation_fans(&p);
        assert_eq!(
            fans,
            vec![RotationFan {
                source: ValRef::Input(0),
                members: vec![0, 2, 5],
            }]
        );
        // No rotations at all → no fans.
        let flat = Program::new(
            "flat",
            2,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        assert!(rotation_fans(&flat).is_empty());
    }
}
