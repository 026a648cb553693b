//! Multi-step synthesis (§6.3): composing independently synthesized kernels
//! into larger pipelines at their natural break points.
//!
//! Program synthesis stops scaling around 10–12 instructions, so Porcupine
//! partitions applications like Sobel (Gx + Gy + magnitude) and the Harris
//! corner detector (gradients + blurs + response) into stages, synthesizes
//! each stage, and stitches the programs back together here. Composition
//! itself is mechanical (`Program::append`); the rewrites that make the
//! stitched pipeline cheap live in the middle-end ([`crate::opt`]):
//! [`PipelineBuilder::finish`] runs the builder's historical local cleanup
//! (syntactic CSE + DCE, so stages over the same input share identical
//! rotations), and [`crate::opt::optimize_for`] lowers the stitched
//! program to backend-legal IR and resolves the scheme parameters against
//! it, like any single kernel.
//!
//! Each stage goes through [`crate::cegis::synthesize`] unchanged, so
//! staged pipelines inherit both the phase-1 strategy selection
//! ([`crate::cegis::SearchStrategy`]) and the persistent synthesis cache
//! ([`crate::cache`]) per stage: a warm cache replays every previously
//! synthesized stage without searching.

use crate::cegis::{synthesize, SynthesisError, SynthesisOptions};
use crate::sketch::Sketch;
use crate::spec::KernelSpec;
use quill::program::{Program, ValRef};

/// Builds a pipeline program by appending synthesized stages.
///
/// # Examples
///
/// ```
/// use porcupine::multistep::PipelineBuilder;
/// use quill::program::{Instr, Program, ValRef};
///
/// // A toy "gradient": shift-difference, then square it via a second stage.
/// let diff = Program::new(
///     "diff", 1, 0,
///     vec![
///         Instr::RotCt(ValRef::Input(0), 1),
///         Instr::SubCtCt(ValRef::Instr(0), ValRef::Input(0)),
///     ],
///     ValRef::Instr(1),
/// );
/// let square = Program::new(
///     "square", 1, 0,
///     vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0))],
///     ValRef::Instr(0),
/// );
/// let mut b = PipelineBuilder::new("grad-sq", 1, 0);
/// let d = b.add_stage(&diff, &[ValRef::Input(0)], &[]);
/// let s = b.add_stage(&square, &[d], &[]);
/// let prog = b.finish(s);
/// assert_eq!(prog.len(), 3);
/// assert!(prog.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct PipelineBuilder {
    prog: Program,
}

impl PipelineBuilder {
    /// Starts a pipeline with the given input arities.
    pub fn new(name: impl Into<String>, num_ct_inputs: usize, num_pt_inputs: usize) -> Self {
        PipelineBuilder {
            prog: Program::new(
                name,
                num_ct_inputs,
                num_pt_inputs,
                Vec::new(),
                ValRef::Input(0),
            ),
        }
    }

    /// Appends a stage, wiring its ciphertext inputs to pipeline values and
    /// its plaintext inputs to pipeline plaintext indices. Returns the
    /// stage's output value.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatches (see [`Program::append`]).
    pub fn add_stage(
        &mut self,
        stage: &Program,
        ct_binding: &[ValRef],
        pt_binding: &[usize],
    ) -> ValRef {
        self.prog.append(stage, ct_binding, pt_binding)
    }

    /// Synthesizes a stage from its spec and sketch, then appends it — one
    /// `SynthesisOptions` (timeout, seed, and crucially `parallelism`)
    /// governs every stage of the pipeline, so a multi-step build inherits
    /// the same determinism contract as a single kernel.
    ///
    /// # Errors
    ///
    /// Returns the stage's [`SynthesisError`] unchanged.
    pub fn synthesize_stage(
        &mut self,
        spec: &KernelSpec,
        sketch: &Sketch,
        options: &SynthesisOptions,
        ct_binding: &[ValRef],
        pt_binding: &[usize],
    ) -> Result<ValRef, SynthesisError> {
        let result = synthesize(spec, sketch, options)?;
        Ok(self.add_stage(&result.program, ct_binding, pt_binding))
    }

    /// Finishes the pipeline with the given output, then runs CSE and dead
    /// code elimination so stages share identical rotations. The result
    /// carries no explicit relinearizations — lower it through
    /// [`crate::opt::optimize_for`] before executing it on a scheme
    /// backend.
    pub fn finish(mut self, output: ValRef) -> Program {
        self.prog.output = output;
        let prog = self.prog.cse();
        debug_assert!(prog.validate().is_ok());
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{ArithOp, RotationSet, SketchOp};
    use crate::spec::GenericReference;
    use quill::interp;
    use quill::program::Instr;
    use std::num::NonZeroUsize;

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

    #[test]
    fn two_stage_pipeline_computes_composition() {
        // stage1 = x + rot(x,1); stage2 = y + rot(y,1) ⇒ out = sum of 4 window.
        let mut b = PipelineBuilder::new("twice", 1, 0);
        let s1 = b.add_stage(&shift_sum(), &[ValRef::Input(0)], &[]);
        let s2 = b.add_stage(&shift_sum(), &[s1], &[]);
        let p = b.finish(s2);
        let out = interp::eval_concrete(&p, &[vec![1, 2, 3, 4]], &[], 65537);
        // out[0] = (x0+x1) + (x1+x2) = 1+2+2+3
        assert_eq!(out[0], 8);
    }

    #[test]
    fn shared_rotations_are_cse_d() {
        // Two stages over the *same* input duplicate rot(x,1); CSE merges.
        let mut b = PipelineBuilder::new("shared", 1, 0);
        let s1 = b.add_stage(&shift_sum(), &[ValRef::Input(0)], &[]);
        let s2 = b.add_stage(&shift_sum(), &[ValRef::Input(0)], &[]);
        // combine the two (identical) stage outputs
        let combine = Program::new(
            "add",
            2,
            0,
            vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        let out = b.add_stage(&combine, &[s1, s2], &[]);
        let p = b.finish(out);
        // Without CSE: 2 rots + 2 adds + 1 add = 5. With CSE the duplicate
        // rot AND the duplicate add collapse: 1 rot + 1 add + 1 add = 3.
        assert_eq!(p.len(), 3);
        let out = interp::eval_concrete(&p, &[vec![1, 2, 3, 4]], &[], 65537);
        assert_eq!(out[0], 2 * (1 + 2));
    }

    /// `synthesize_stage` wires the synthesizer into the builder, and the
    /// stage result is independent of the `parallelism` knob.
    #[test]
    fn synthesized_stages_compose_and_ignore_thread_count() {
        struct PairSum;
        impl GenericReference for PairSum {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                let x = &ct[0];
                let n = x.len();
                (0..n).map(|i| x[i].add(&x[(i + 1) % n])).collect()
            }
        }
        use quill::ring::Ring;
        let mut mask = vec![true; 4];
        mask[3] = false;
        let spec = KernelSpec::new("pairsum", 4, 1, 0, mask, 65537, Box::new(PairSum));
        let sketch = Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::Explicit(vec![1]),
            2,
        );
        let build = |jobs: usize| {
            let options = SynthesisOptions {
                parallelism: NonZeroUsize::new(jobs).unwrap(),
                ..SynthesisOptions::default()
            };
            let mut b = PipelineBuilder::new("pairsum-twice", 1, 0);
            let s1 = b
                .synthesize_stage(&spec, &sketch, &options, &[ValRef::Input(0)], &[])
                .expect("stage 1 synthesizes");
            let s2 = b
                .synthesize_stage(&spec, &sketch, &options, &[s1], &[])
                .expect("stage 2 synthesizes");
            b.finish(s2)
        };
        let sequential = build(1);
        assert_eq!(sequential, build(3));
        let out = interp::eval_concrete(&sequential, &[vec![1, 2, 3, 4]], &[], 65537);
        assert_eq!(out[0], 1 + 2 + 2 + 3);
    }

    #[test]
    fn optimize_for_selects_for_the_whole_pipeline() {
        use crate::opt::{optimize_for, OptLevel};
        use bfv::params::ParamPolicy;
        use quill::scheme::SchemeId;
        let square = Program::new(
            "square",
            1,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0))],
            ValRef::Instr(0),
        );
        // One squaring stage vs three chained ones: the pipeline-level
        // selection must charge the composed depth, not the stage depth.
        let build = |stages: usize| {
            let mut b = PipelineBuilder::new("chain", 1, 0);
            let mut cur = ValRef::Input(0);
            for _ in 0..stages {
                cur = b.add_stage(&square, &[cur], &[]);
            }
            let (prog, _, params) = optimize_for(
                &b.finish(cur),
                SchemeId::Bfv,
                OptLevel::O2,
                &ParamPolicy::auto(),
                8,
                65537,
            );
            assert!(quill::analysis::check_backend_legal(&prog).is_ok());
            params.expect("selection succeeds")
        };
        let shallow = build(1);
        let deep = build(3);
        let q_bits = |p: &bfv::params::BfvParams| {
            p.moduli
                .iter()
                .map(|&q| 64 - q.leading_zeros())
                .sum::<u32>()
        };
        assert!(q_bits(&deep) > q_bits(&shallow));
    }

    #[test]
    fn pt_bindings_remap() {
        let stage = Program::new(
            "weighted",
            1,
            1,
            vec![Instr::MulCtPt(
                ValRef::Input(0),
                quill::program::PtOperand::Input(0),
            )],
            ValRef::Instr(0),
        );
        let mut b = PipelineBuilder::new("pipeline", 1, 2);
        let s = b.add_stage(&stage, &[ValRef::Input(0)], &[1]); // bind to pt input 1
        let p = b.finish(s);
        let out = interp::eval_concrete(&p, &[vec![3, 4]], &[vec![10, 10], vec![7, 7]], 65537);
        assert_eq!(out, vec![21, 28]);
    }
}
