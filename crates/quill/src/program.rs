//! Straight-line SSA Quill programs: the paper's HE kernel representation.
//!
//! A [`Program`] is a list of instructions over ciphertext values (inputs or
//! earlier results) and plaintext operands (inputs or splat constants). Each
//! instruction defines one new ciphertext; the program's single output is a
//! ciphertext reference, matching the kernels in the paper (Figures 3e, 5, 6).

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
    /// (how [`Program::rebuild`] maps operands).
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

    /// Appends `instr` and returns the value it defines.
    pub fn push(&mut self, instr: Instr) -> ValRef {
        self.instrs.push(instr);
        ValRef::Instr(self.instrs.len() - 1)
    }

    /// The one remap loop behind [`Program::rebuild`] and
    /// [`Program::append`]: copies `self`'s instructions onto the end of
    /// `out` through `rule`, with input `i` mapped to `input(i)` and each
    /// earlier instruction to whatever `rule` returned for it. Returns the
    /// mapped output.
    fn remap_into(
        &self,
        out: &mut Program,
        input: impl Fn(usize) -> ValRef,
        mut rule: impl FnMut(usize, Instr, &mut Program) -> ValRef,
    ) -> ValRef {
        let mut map: Vec<ValRef> = Vec::with_capacity(self.instrs.len());
        let mapped = |r: ValRef, map: &[ValRef]| match r {
            ValRef::Input(i) => input(i),
            ValRef::Instr(j) => map[j],
        };
        for (i, instr) in self.instrs.iter().enumerate() {
            let instr = instr.map_ct_operands(|r| mapped(r, &map));
            map.push(rule(i, instr, out));
        }
        mapped(self.output, &map)
    }

    /// The program rewritten instruction by instruction: same name and
    /// inputs, each instruction replaced as `rule` decides. Instructions
    /// are visited in order; each reaches `rule` with its old index and its
    /// ciphertext operands already mapped into the program being built,
    /// which `rule` pushes the replacement onto (nothing, one instruction
    /// or several) before returning the value that now stands for it. The
    /// output is mapped the same way.
    pub fn rebuild(&self, rule: impl FnMut(usize, Instr, &mut Program) -> ValRef) -> Program {
        let mut out = Program::new(
            self.name.clone(),
            self.num_ct_inputs,
            self.num_pt_inputs,
            Vec::with_capacity(self.instrs.len()),
            self.output,
        );
        out.output = self.remap_into(&mut out, ValRef::Input, rule);
        out
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
        // Only dead instructions read a dead value, so its stand-in is
        // never emitted.
        self.rebuild(|i, instr, out| {
            if live[i] {
                out.push(instr)
            } else {
                ValRef::Instr(usize::MAX)
            }
        })
    }

    /// Appends `other` to `self`, binding `other`'s ciphertext inputs to
    /// values of `self` and its plaintext inputs to `self`'s plaintext input
    /// space via `pt_binding` (indices into `self`'s plaintext inputs).
    /// Returns the reference to `other`'s output in the combined program.
    ///
    /// This is multi-step synthesis's composition primitive (§6.3).
    /// Synthesis stops scaling around 10–12 instructions, so Porcupine
    /// partitions applications such as Sobel (Gx + Gy + magnitude) and the
    /// Harris corner detector (gradients + blurs + response) into stages at
    /// their natural break points, synthesizes each stage with
    /// `porcupine::cegis::synthesize`, and appends the stage programs onto
    /// one pipeline that starts empty. [`Program::cse`] then lets stages
    /// over the same input share identical rotations, and the middle-end
    /// (`porcupine::opt`) lowers the stitched program like any single
    /// kernel.
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
        let fix_pt = |p: PtOperand| match p {
            PtOperand::Input(i) => PtOperand::Input(pt_binding[i]),
            s => s,
        };
        let bind_pt = |instr: Instr| match instr {
            Instr::AddCtPt(a, p) => Instr::AddCtPt(a, fix_pt(p)),
            Instr::SubCtPt(a, p) => Instr::SubCtPt(a, fix_pt(p)),
            Instr::MulCtPt(a, p) => Instr::MulCtPt(a, fix_pt(p)),
            other => other,
        };
        other.remap_into(
            self,
            |i| ct_binding[i],
            |_, instr, out| out.push(bind_pt(instr)),
        )
    }

    /// Common-subexpression elimination over syntactically identical
    /// instructions (used after composing kernels that share rotations).
    pub fn cse(&self) -> Program {
        self.rebuild(
            |_, instr, out| match out.instrs.iter().position(|i| *i == instr) {
                Some(j) => ValRef::Instr(j),
                None => out.push(instr),
            },
        )
        .eliminate_dead_code()
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

    fn shift_sum() -> Program {
        Program::new(
            "shift-sum",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        )
    }

    /// An empty pipeline that stages are appended onto.
    fn pipeline(name: &str, num_ct: usize, num_pt: usize) -> Program {
        Program::new(name, num_ct, num_pt, Vec::new(), ValRef::Input(0))
    }

    #[test]
    fn two_stage_pipeline_computes_composition() {
        // stage1 = x + rot(x,1); stage2 = y + rot(y,1) ⇒ out = sum of 4 window.
        let mut p = pipeline("twice", 1, 0);
        let s1 = p.append(&shift_sum(), &[ValRef::Input(0)], &[]);
        p.output = p.append(&shift_sum(), &[s1], &[]);
        let p = p.cse();
        let out = crate::interp::eval_concrete(&p, &[vec![1, 2, 3, 4]], &[], 65537);
        // out[0] = (x0+x1) + (x1+x2) = 1+2+2+3
        assert_eq!(out[0], 8);
    }

    #[test]
    fn shared_rotations_are_cse_d() {
        // Two stages over the *same* input duplicate rot(x,1); CSE merges.
        let mut p = pipeline("shared", 1, 0);
        let s1 = p.append(&shift_sum(), &[ValRef::Input(0)], &[]);
        let s2 = p.append(&shift_sum(), &[ValRef::Input(0)], &[]);
        // combine the two (identical) stage outputs
        let combine = Program::new(
            "add",
            2,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        p.output = p.append(&combine, &[s1, s2], &[]);
        let p = p.cse();
        // Without CSE: 2 rots + 2 adds + 1 add = 5. With CSE the duplicate
        // rot AND the duplicate add collapse: 1 rot + 1 add + 1 add = 3.
        assert_eq!(p.len(), 3);
        let out = crate::interp::eval_concrete(&p, &[vec![1, 2, 3, 4]], &[], 65537);
        assert_eq!(out[0], 2 * (1 + 2));
    }

    #[test]
    fn pt_bindings_remap() {
        let stage = Program::new(
            "weighted",
            1,
            1,
            vec![Instr::MulCtPt(ValRef::Input(0), PtOperand::Input(0))],
            ValRef::Instr(0),
        );
        let mut p = pipeline("pipeline", 1, 2);
        p.output = p.append(&stage, &[ValRef::Input(0)], &[1]); // bind to pt input 1
        let p = p.cse();
        let out =
            crate::interp::eval_concrete(&p, &[vec![3, 4]], &[vec![10, 10], vec![7, 7]], 65537);
        assert_eq!(out, vec![21, 28]);
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
