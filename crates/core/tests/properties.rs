//! Property-based tests for the synthesizer: whatever the engine emits must
//! verify, lift, and respect the sketch's vocabulary; the verifier must
//! never accept a program that disagrees with its spec on sampled inputs.

use porcupine::cegis::synthesize;
use porcupine::lift::check_padding_stable;
use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
use porcupine::spec::{GenericReference, KernelSpec};
use porcupine::verify::verify;
use proptest::prelude::*;
use quill::interp;
use quill::ring::Ring;
use test_support::{quick_synthesis_options, seeded_rng, with_jobs, T};

/// A weighted two-tap stencil `out[i] = w0·x[i] + w1·x[i+off]` — a family
/// of specs wide enough to exercise the search but always synthesizable.
struct TwoTap {
    off: isize,
    w0: i64,
    w1: i64,
}

impl GenericReference for TwoTap {
    fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
        let x = &ct[0];
        let n = x.len() as isize;
        (0..n)
            .map(|i| {
                let a = x[i as usize].mul(&x[0].from_i64(self.w0));
                let b = x[(i + self.off).rem_euclid(n) as usize].mul(&x[0].from_i64(self.w1));
                a.add(&b)
            })
            .collect()
    }
}

fn two_tap_spec(off: isize, w0: i64, w1: i64, n: usize) -> KernelSpec {
    // mask slots whose read i+off stays in bounds
    let mask = (0..n as isize)
        .map(|i| i + off >= 0 && i + off < n as isize)
        .collect();
    KernelSpec::new(
        "two-tap",
        n,
        1,
        0,
        mask,
        T,
        Box::new(TwoTap { off, w0, w1 }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness of the whole pipeline: every synthesized program verifies
    /// symbolically, lifts, and agrees with the spec on fresh inputs.
    #[test]
    fn synthesized_two_tap_kernels_are_sound(
        off in 1isize..4,
        w0 in 1i64..4,
        w1 in 1i64..4,
        seed in any::<u64>(),
    ) {
        let n = 8;
        let spec = two_tap_spec(off, w0, w1, n);
        let sketch = Sketch::new(
            vec![
                SketchOp::rotated(ArithOp::AddCtCt),
                SketchOp::rotated(ArithOp::SubCtCt),
                SketchOp::plain(ArithOp::MulCtPt(quill::program::PtOperand::Splat(w0))),
                SketchOp::plain(ArithOp::MulCtPt(quill::program::PtOperand::Splat(w1))),
            ],
            RotationSet::Explicit(vec![off as i64, -(off as i64), 1, 2]),
            4,
        );
        let r = synthesize(&spec, &sketch, &quick_synthesis_options(seed)).expect("two-tap synthesizes");
        let mut rng = seeded_rng(seed ^ 0xABCD);
        verify(&r.program, &spec, &mut rng).expect("synthesized program verifies");
        check_padding_stable(&r.program, n, &spec.output_mask, T).expect("lifts");

        // Fresh concrete cross-check.
        use rand::Rng;
        let input: Vec<u64> = (0..n).map(|_| rng.gen_range(0..T)).collect();
        let got = interp::eval_concrete(&r.program, std::slice::from_ref(&input), &[], T);
        let want = spec.eval_concrete(&[input], &[]);
        for i in 0..n {
            if spec.output_mask[i] {
                prop_assert_eq!(got[i], want[i], "slot {}", i);
            }
        }

        // Vocabulary: rotations used must come from the sketch.
        for rot in r.program.rotation_amounts() {
            prop_assert!(sketch.rotation_amounts.contains(&rot), "rotation {}", rot);
        }
    }

    /// The determinism contract across the whole spec family: parallel
    /// synthesis (jobs = 2, 4) returns programs and costs bit-identical to
    /// the sequential run (jobs = 1) for any seed.
    #[test]
    fn parallel_and_sequential_synthesis_agree(
        off in 1isize..4,
        w0 in 1i64..4,
        w1 in 1i64..4,
        seed in any::<u64>(),
    ) {
        let spec = two_tap_spec(off, w0, w1, 8);
        let sketch = Sketch::new(
            vec![
                SketchOp::rotated(ArithOp::AddCtCt),
                SketchOp::plain(ArithOp::MulCtPt(quill::program::PtOperand::Splat(w0))),
                SketchOp::plain(ArithOp::MulCtPt(quill::program::PtOperand::Splat(w1))),
            ],
            RotationSet::Explicit(vec![off as i64, -(off as i64)]),
            4,
        );
        let seq = synthesize(&spec, &sketch, &with_jobs(quick_synthesis_options(seed), 1))
            .expect("sequential synthesizes");
        for jobs in [2usize, 4] {
            let par = synthesize(&spec, &sketch, &with_jobs(quick_synthesis_options(seed), jobs))
                .expect("parallel synthesizes");
            prop_assert_eq!(&seq.program, &par.program, "program differs at jobs={}", jobs);
            prop_assert_eq!(&seq.initial_program, &par.initial_program, "initial differs at jobs={}", jobs);
            prop_assert_eq!(seq.final_cost.to_bits(), par.final_cost.to_bits());
            prop_assert_eq!(seq.initial_cost.to_bits(), par.initial_cost.to_bits());
            prop_assert_eq!(seq.examples_used, par.examples_used);
            prop_assert_eq!(seq.components, par.components);
            prop_assert_eq!(seq.proved_optimal, par.proved_optimal);
        }
    }

    /// The verifier rejects any single-instruction corruption of a correct
    /// kernel (mutation testing of `verify`).
    #[test]
    fn verifier_rejects_mutants(seed in any::<u64>()) {
        use quill::program::{Instr, Program, ValRef};
        let spec = two_tap_spec(1, 1, 1, 8);
        // correct: x + rot(x, 1)
        let good = Program::new(
            "two-tap",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        let mut rng = seeded_rng(seed);
        prop_assert!(verify(&good, &spec, &mut rng).is_ok());

        let mutants = vec![
            // wrong rotation
            Program::new("m1", 1, 0, vec![
                Instr::RotCt(ValRef::Input(0), 2),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ], ValRef::Instr(1)),
            // wrong opcode
            Program::new("m2", 1, 0, vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::SubCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ], ValRef::Instr(1)),
            // wrong output
            Program::new("m3", 1, 0, vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ], ValRef::Instr(0)),
        ];
        for m in mutants {
            let failure = verify(&m, &spec, &mut rng);
            prop_assert!(failure.is_err(), "{} accepted", m.name);
            let f = failure.unwrap_err();
            prop_assert!(f.counter_example().is_some(), "{} lacks witness", m.name);
        }
    }
}

/// Determinism: the same seed gives the same synthesized program.
#[test]
fn synthesis_is_deterministic() {
    let spec = two_tap_spec(1, 2, 1, 8);
    let sketch = Sketch::new(
        vec![
            SketchOp::rotated(ArithOp::AddCtCt),
            SketchOp::plain(ArithOp::MulCtPt(quill::program::PtOperand::Splat(2))),
        ],
        RotationSet::Explicit(vec![1, -1]),
        3,
    );
    let a = synthesize(&spec, &sketch, &quick_synthesis_options(99)).unwrap();
    let b = synthesize(&spec, &sketch, &quick_synthesis_options(99)).unwrap();
    assert_eq!(a.program, b.program);
    assert_eq!(a.examples_used, b.examples_used);
    assert_eq!(a.components, b.components);
    // Costs are computed, not measured, so they must be bit-identical.
    assert_eq!(a.initial_cost.to_bits(), b.initial_cost.to_bits());
    assert_eq!(a.final_cost.to_bits(), b.final_cost.to_bits());
    assert_eq!(a.initial_program, b.initial_program);
}
