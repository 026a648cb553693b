//! Straight-line SSA Quill programs: the paper's HE kernel representation.
//!
//! A [`Program`] is a list of instructions over ciphertext values (inputs or
//! earlier results) and plaintext operands (inputs or splat constants). Each
//! instruction defines one new ciphertext; the program's single output is a
//! ciphertext reference, matching the kernels in the paper (Figures 3e, 5, 6).

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A ciphertext value: a program input or the result of instruction `i`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ValRef {
    /// The `i`-th ciphertext input.
    Input(usize),
    /// The result of the `i`-th instruction.
    Instr(usize),
}

/// A plaintext operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PtOperand {
    /// The `i`-th plaintext input vector.
    Input(usize),
    /// A constant vector with the same signed value in every slot.
    Splat(i64),
}

/// One Quill instruction (Table 1 of the paper, plus explicit
/// relinearization). Rotation amounts are slot counts; positive rotates
/// **left** (`out[i] = in[(i + x) mod n]`).
///
/// `Relin` is a no-op on slot values (the interpreter and symbolic lifter
/// treat it as the identity) but a real BFV operation: it key-switches a
/// size-3 ciphertext (the output of `MulCtCt`) back to size 2, which
/// rotations and further multiplies require. The middle-end
/// (`porcupine::opt`) decides where relinearizations go; the backend
/// executes exactly what the IR says.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// Slot-wise ciphertext + ciphertext.
    AddCtCt(ValRef, ValRef),
    /// Slot-wise ciphertext − ciphertext.
    SubCtCt(ValRef, ValRef),
    /// Slot-wise ciphertext × ciphertext (incurs a multiplicative level and
    /// produces a size-3 ciphertext on the backend).
    MulCtCt(ValRef, ValRef),
    /// Slot-wise ciphertext + plaintext.
    AddCtPt(ValRef, PtOperand),
    /// Slot-wise ciphertext − plaintext.
    SubCtPt(ValRef, PtOperand),
    /// Slot-wise ciphertext × plaintext (one multiplicative level).
    MulCtPt(ValRef, PtOperand),
    /// Rotate slots left by the given amount (negative = right).
    RotCt(ValRef, i64),
    /// Relinearize a size-3 ciphertext back to size 2 (identity on slots).
    Relin(ValRef),
}

impl Instr {
    /// The ciphertext operands of this instruction.
    pub fn ct_operands(&self) -> Vec<ValRef> {
        match self {
            Instr::AddCtCt(a, b) | Instr::SubCtCt(a, b) | Instr::MulCtCt(a, b) => vec![*a, *b],
            Instr::AddCtPt(a, _)
            | Instr::SubCtPt(a, _)
            | Instr::MulCtPt(a, _)
            | Instr::RotCt(a, _)
            | Instr::Relin(a) => vec![*a],
        }
    }

    /// The same instruction with every ciphertext operand rewritten by `f`
    /// (the shared plumbing of DCE, CSE, `append`, and the optimizer
    /// passes).
    pub fn map_ct_operands(&self, mut f: impl FnMut(ValRef) -> ValRef) -> Instr {
        match self.clone() {
            Instr::AddCtCt(a, b) => Instr::AddCtCt(f(a), f(b)),
            Instr::SubCtCt(a, b) => Instr::SubCtCt(f(a), f(b)),
            Instr::MulCtCt(a, b) => Instr::MulCtCt(f(a), f(b)),
            Instr::AddCtPt(a, p) => Instr::AddCtPt(f(a), p),
            Instr::SubCtPt(a, p) => Instr::SubCtPt(f(a), p),
            Instr::MulCtPt(a, p) => Instr::MulCtPt(f(a), p),
            Instr::RotCt(a, r) => Instr::RotCt(f(a), r),
            Instr::Relin(a) => Instr::Relin(f(a)),
        }
    }

    /// The paper's mnemonic for this opcode.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::AddCtCt(..) => "add-ct-ct",
            Instr::SubCtCt(..) => "sub-ct-ct",
            Instr::MulCtCt(..) => "mul-ct-ct",
            Instr::AddCtPt(..) => "add-ct-pt",
            Instr::SubCtPt(..) => "sub-ct-pt",
            Instr::MulCtPt(..) => "mul-ct-pt",
            Instr::RotCt(..) => "rot-ct",
            Instr::Relin(..) => "relin-ct",
        }
    }
}

/// Errors from [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A ciphertext reference points to an input that does not exist.
    BadInput(usize),
    /// A plaintext reference points to an input that does not exist.
    BadPtInput(usize),
    /// Instruction `user` references instruction `used` which is not earlier.
    UseBeforeDef { user: usize, used: usize },
    /// The output reference is invalid.
    BadOutput,
    /// A rotation amount of zero (must be elided, not emitted).
    ZeroRotation(usize),
    /// A relinearization of a value that is statically size 2 (only the
    /// result of an un-relinearized `mul-ct-ct` chain is size 3).
    RelinOfSize2(usize),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadInput(i) => write!(f, "ciphertext input {i} out of range"),
            ProgramError::BadPtInput(i) => write!(f, "plaintext input {i} out of range"),
            ProgramError::UseBeforeDef { user, used } => {
                write!(f, "instruction {user} uses result {used} before definition")
            }
            ProgramError::BadOutput => write!(f, "output reference is invalid"),
            ProgramError::ZeroRotation(i) => {
                write!(f, "instruction {i} is a rotation by zero slots")
            }
            ProgramError::RelinOfSize2(i) => {
                write!(f, "instruction {i} relinearizes a size-2 ciphertext")
            }
        }
    }
}

impl Error for ProgramError {}

/// A straight-line SSA HE kernel.
///
/// # Examples
///
/// Figure 5(a)'s synthesized box blur:
///
/// ```
/// use quill::program::{Instr, Program, ValRef};
///
/// let prog = Program::new(
///     "box-blur",
///     1, // one ciphertext input
///     0,
///     vec![
///         Instr::RotCt(ValRef::Input(0), 1),
///         Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
///         Instr::RotCt(ValRef::Instr(1), 5),
///         Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
///     ],
///     ValRef::Instr(3),
/// );
/// assert!(prog.validate().is_ok());
/// assert_eq!(prog.len(), 4);
/// assert_eq!(prog.logic_depth(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Kernel name (for reporting).
    pub name: String,
    /// Number of ciphertext inputs.
    pub num_ct_inputs: usize,
    /// Number of plaintext inputs.
    pub num_pt_inputs: usize,
    /// The instruction list; instruction `i` defines value `Instr(i)`.
    pub instrs: Vec<Instr>,
    /// The output ciphertext.
    pub output: ValRef,
}

impl Program {
    /// Constructs a program (validate separately with [`Program::validate`]).
    pub fn new(
        name: impl Into<String>,
        num_ct_inputs: usize,
        num_pt_inputs: usize,
        instrs: Vec<Instr>,
        output: ValRef,
    ) -> Self {
        Program {
            name: name.into(),
            num_ct_inputs,
            num_pt_inputs,
            instrs,
            output,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Checks SSA well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let check_ref = |r: ValRef, at: usize| -> Result<(), ProgramError> {
            match r {
                ValRef::Input(i) if i >= self.num_ct_inputs => Err(ProgramError::BadInput(i)),
                ValRef::Instr(j) if j >= at => {
                    Err(ProgramError::UseBeforeDef { user: at, used: j })
                }
                _ => Ok(()),
            }
        };
        let sizes = crate::analysis::ct_sizes(self);
        for (i, instr) in self.instrs.iter().enumerate() {
            for op in instr.ct_operands() {
                check_ref(op, i)?;
            }
            match instr {
                Instr::AddCtPt(_, PtOperand::Input(p))
                | Instr::SubCtPt(_, PtOperand::Input(p))
                | Instr::MulCtPt(_, PtOperand::Input(p))
                    if *p >= self.num_pt_inputs =>
                {
                    return Err(ProgramError::BadPtInput(*p));
                }
                Instr::RotCt(_, 0) => return Err(ProgramError::ZeroRotation(i)),
                Instr::Relin(a) if crate::analysis::size_of(&sizes, *a) != 3 => {
                    return Err(ProgramError::RelinOfSize2(i));
                }
                _ => {}
            }
        }
        match self.output {
            ValRef::Input(i) if i >= self.num_ct_inputs => Err(ProgramError::BadOutput),
            ValRef::Instr(j) if j >= self.instrs.len() => Err(ProgramError::BadOutput),
            _ => Ok(()),
        }
    }

    /// Logic depth: the longest instruction chain from any input to the
    /// output, counting every instruction (including rotations) as one
    /// level — the "Depth" column of Table 2.
    pub fn logic_depth(&self) -> usize {
        let mut depth = vec![0usize; self.instrs.len()];
        for (i, instr) in self.instrs.iter().enumerate() {
            let d = instr
                .ct_operands()
                .iter()
                .map(|op| match op {
                    ValRef::Input(_) => 0,
                    ValRef::Instr(j) => depth[*j],
                })
                .max()
                .unwrap_or(0);
            depth[i] = d + 1;
        }
        match self.output {
            ValRef::Input(_) => 0,
            ValRef::Instr(j) => depth[j],
        }
    }

    /// Multiplicative depth per Table 1: the output's level under
    /// [`crate::analysis::ct_levels`] (fresh inputs are 0; ct×ct takes
    /// `max + 1`; ct×pt takes `+1`; everything else takes the operand max).
    pub fn mult_depth(&self) -> u32 {
        match self.output {
            ValRef::Input(_) => 0,
            ValRef::Instr(j) => crate::analysis::ct_levels(self)[j],
        }
    }

    /// Instruction count per opcode mnemonic, plus the total.
    pub fn opcode_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for instr in &self.instrs {
            let m = instr.mnemonic();
            match counts.iter_mut().find(|(k, _)| *k == m) {
                Some((_, c)) => *c += 1,
                None => counts.push((m, 1)),
            }
        }
        counts
    }

    /// The distinct rotation amounts used (for Galois key generation).
    pub fn rotation_amounts(&self) -> Vec<i64> {
        let mut rots: Vec<i64> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::RotCt(_, r) => Some(*r),
                _ => None,
            })
            .collect();
        rots.sort_unstable();
        rots.dedup();
        rots
    }

    /// Number of ciphertext–ciphertext multiplications (each produces a
    /// size-3 ciphertext that must be relinearized before a rotation, a
    /// further multiply, or the program output).
    pub fn ct_ct_mul_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::MulCtCt(..)))
            .count()
    }

    /// Number of explicit relinearizations.
    pub fn relin_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Relin(..)))
            .count()
    }

    /// Number of rotations.
    pub fn rot_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::RotCt(..)))
            .count()
    }

    /// Removes instructions whose results cannot reach the output,
    /// remapping references. Returns the cleaned program.
    pub fn eliminate_dead_code(&self) -> Program {
        let mut live = vec![false; self.instrs.len()];
        let mut stack = Vec::new();
        if let ValRef::Instr(j) = self.output {
            stack.push(j);
        }
        while let Some(j) = stack.pop() {
            if live[j] {
                continue;
            }
            live[j] = true;
            for op in self.instrs[j].ct_operands() {
                if let ValRef::Instr(k) = op {
                    stack.push(k);
                }
            }
        }
        let mut remap = vec![usize::MAX; self.instrs.len()];
        let mut instrs = Vec::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            if !live[i] {
                continue;
            }
            remap[i] = instrs.len();
            instrs.push(instr.map_ct_operands(|r| match r {
                ValRef::Instr(j) => ValRef::Instr(remap[j]),
                other => other,
            }));
        }
        let output = match self.output {
            ValRef::Instr(j) => ValRef::Instr(remap[j]),
            other => other,
        };
        Program {
            name: self.name.clone(),
            num_ct_inputs: self.num_ct_inputs,
            num_pt_inputs: self.num_pt_inputs,
            instrs,
            output,
        }
    }

    /// Appends `other` to `self`, binding `other`'s ciphertext inputs to
    /// values of `self` and its plaintext inputs to `self`'s plaintext input
    /// space via `pt_binding` (indices into `self`'s plaintext inputs).
    /// Returns the reference to `other`'s output in the combined program.
    ///
    /// This is the primitive multi-step synthesis composes kernels with
    /// (§6.3: Sobel from Gx/Gy, Harris from gradients and box blur).
    ///
    /// # Panics
    ///
    /// Panics if a binding list has the wrong length or refers to a
    /// nonexistent value.
    pub fn append(
        &mut self,
        other: &Program,
        ct_binding: &[ValRef],
        pt_binding: &[usize],
    ) -> ValRef {
        assert_eq!(ct_binding.len(), other.num_ct_inputs, "ct binding arity");
        assert_eq!(pt_binding.len(), other.num_pt_inputs, "pt binding arity");
        for r in ct_binding {
            match r {
                ValRef::Input(i) => assert!(*i < self.num_ct_inputs),
                ValRef::Instr(j) => assert!(*j < self.instrs.len()),
            }
        }
        for p in pt_binding {
            assert!(*p < self.num_pt_inputs, "pt binding out of range");
        }
        let base = self.instrs.len();
        let fix = |r: ValRef| match r {
            ValRef::Input(i) => ct_binding[i],
            ValRef::Instr(j) => ValRef::Instr(base + j),
        };
        let fix_pt = |p: PtOperand| match p {
            PtOperand::Input(i) => PtOperand::Input(pt_binding[i]),
            s => s,
        };
        for instr in &other.instrs {
            let instr = match instr.map_ct_operands(fix) {
                Instr::AddCtPt(a, p) => Instr::AddCtPt(a, fix_pt(p)),
                Instr::SubCtPt(a, p) => Instr::SubCtPt(a, fix_pt(p)),
                Instr::MulCtPt(a, p) => Instr::MulCtPt(a, fix_pt(p)),
                other => other,
            };
            self.instrs.push(instr);
        }
        fix(other.output)
    }

    /// Common-subexpression elimination over syntactically identical
    /// instructions (used after composing kernels that share rotations).
    pub fn cse(&self) -> Program {
        let mut canon: Vec<ValRef> = Vec::with_capacity(self.instrs.len());
        let mut seen: Vec<(Instr, ValRef)> = Vec::new();
        let mut instrs: Vec<Instr> = Vec::new();
        for instr in &self.instrs {
            let rewritten = instr.map_ct_operands(|r| match r {
                ValRef::Instr(j) => canon[j],
                other => other,
            });
            if let Some((_, r)) = seen.iter().find(|(i, _)| *i == rewritten) {
                canon.push(*r);
            } else {
                let r = ValRef::Instr(instrs.len());
                instrs.push(rewritten.clone());
                seen.push((rewritten, r));
                canon.push(r);
            }
        }
        let output = match self.output {
            ValRef::Instr(j) => canon[j],
            other => other,
        };
        Program {
            name: self.name.clone(),
            num_ct_inputs: self.num_ct_inputs,
            num_pt_inputs: self.num_pt_inputs,
            instrs,
            output,
        }
        .eliminate_dead_code()
    }

    /// The set of live instruction indices (reachable from the output).
    pub fn live_set(&self) -> HashSet<usize> {
        let mut live = HashSet::new();
        let mut stack = Vec::new();
        if let ValRef::Instr(j) = self.output {
            stack.push(j);
        }
        while let Some(j) = stack.pop() {
            if !live.insert(j) {
                continue;
            }
            for op in self.instrs[j].ct_operands() {
                if let ValRef::Instr(k) = op {
                    stack.push(k);
                }
            }
        }
        live
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::sexpr::write_program(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_blur() -> Program {
        Program::new(
            "box-blur",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
                Instr::RotCt(ValRef::Instr(1), 5),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
            ],
            ValRef::Instr(3),
        )
    }

    #[test]
    fn validates_good_program() {
        assert!(box_blur().validate().is_ok());
    }

    #[test]
    fn rejects_use_before_def() {
        let p = Program::new(
            "bad",
            1,
            0,
            vec![
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Input(0)),
                Instr::RotCt(ValRef::Input(0), 1),
            ],
            ValRef::Instr(0),
        );
        assert_eq!(
            p.validate(),
            Err(ProgramError::UseBeforeDef { user: 0, used: 1 })
        );
    }

    #[test]
    fn rejects_zero_rotation_and_bad_refs() {
        let p = Program::new(
            "bad",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(0), 0)],
            ValRef::Instr(0),
        );
        assert_eq!(p.validate(), Err(ProgramError::ZeroRotation(0)));
        let p = Program::new(
            "bad",
            1,
            0,
            vec![Instr::RotCt(ValRef::Input(2), 1)],
            ValRef::Instr(0),
        );
        assert_eq!(p.validate(), Err(ProgramError::BadInput(2)));
        let p = Program::new(
            "bad",
            1,
            0,
            vec![Instr::MulCtPt(ValRef::Input(0), PtOperand::Input(0))],
            ValRef::Instr(0),
        );
        assert_eq!(p.validate(), Err(ProgramError::BadPtInput(0)));
    }

    #[test]
    fn depth_metrics_match_figure_5() {
        // Synthesized box blur: 4 instructions, logic depth 4, mult depth 0.
        let p = box_blur();
        assert_eq!(p.len(), 4);
        assert_eq!(p.logic_depth(), 4);
        assert_eq!(p.mult_depth(), 0);

        // Baseline box blur (Figure 5b): 6 instructions, depth 3.
        let baseline = Program::new(
            "box-blur-baseline",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Input(0), 5),
                Instr::RotCt(ValRef::Input(0), 6),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Input(0)),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
                Instr::AddCtCt(ValRef::Instr(3), ValRef::Instr(4)),
            ],
            ValRef::Instr(5),
        );
        assert_eq!(baseline.len(), 6);
        assert_eq!(baseline.logic_depth(), 3);
    }

    #[test]
    fn mult_depth_rules() {
        // mul-ct-ct chains add one level per multiply; ct-pt too.
        let p = Program::new(
            "depth",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::MulCtPt(ValRef::Instr(0), PtOperand::Splat(3)),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Input(0)),
            ],
            ValRef::Instr(2),
        );
        assert_eq!(p.mult_depth(), 2);
    }

    #[test]
    fn dead_code_elimination() {
        let p = Program::new(
            "dead",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1), // dead
                Instr::AddCtCt(ValRef::Input(0), ValRef::Input(0)),
                Instr::RotCt(ValRef::Instr(1), 2),
            ],
            ValRef::Instr(2),
        );
        let clean = p.eliminate_dead_code();
        assert_eq!(clean.len(), 2);
        assert!(clean.validate().is_ok());
        assert_eq!(clean.output, ValRef::Instr(1));
    }

    #[test]
    fn append_composes_programs() {
        let mut main = box_blur();
        let square = Program::new(
            "square",
            1,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0))],
            ValRef::Instr(0),
        );
        let out = main.append(&square, &[main.output], &[]);
        main.output = out;
        assert!(main.validate().is_ok());
        assert_eq!(main.len(), 5);
        assert_eq!(main.mult_depth(), 1);
    }

    #[test]
    fn cse_merges_identical_rotations() {
        let p = Program::new(
            "cse",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Input(0), 1), // duplicate
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Instr(1)),
            ],
            ValRef::Instr(2),
        );
        let c = p.cse();
        assert_eq!(c.len(), 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn opcode_counts_and_rotations() {
        let p = box_blur();
        let counts = p.opcode_counts();
        assert!(counts.contains(&("rot-ct", 2)));
        assert!(counts.contains(&("add-ct-ct", 2)));
        assert_eq!(p.rotation_amounts(), vec![1, 5]);
        assert_eq!(p.ct_ct_mul_count(), 0);
    }
}
