//! # test-support — shared fixtures for the workspace test suites
//!
//! The per-crate `properties.rs` suites, the root integration tests, and the
//! codegen unit tests all need the same scaffolding: a seeded deterministic
//! RNG, a small BFV context that keeps key generation fast, and "run this
//! Quill program on the BFV backend and compare slots against the
//! interpreter" plumbing. This crate centralizes those so each suite states
//! only what it actually tests. Encrypted sessions themselves come from
//! [`porcupine::codegen::Session`] (typed) and
//! [`porcupine::codegen::run_encrypted`] (on a runtime [`SchemeId`]).
//!
//! Everything here is deterministic: the same seed always produces the same
//! inputs, keys, and ciphertexts, and no fixture reads the environment. A
//! contract that must hold across a knob (opt level, worker count,
//! scheme, parameter policy) is tested by a suite that lists the values it
//! compares.

use bfv::params::{BfvContext, BfvParams, ParamPolicy};
use porcupine::cegis::{CachePolicy, SynthesisOptions};
use porcupine::codegen::{run_encrypted, Session};
use porcupine::opt::{self, OptLevel};
use porcupine::scheme::BfvScheme;
use porcupine::spec::KernelSpec;
use proptest::prelude::*;
use quill::cost::LatencyModel;
use quill::interp;
use quill::program::{Instr, Program, PtOperand, ValRef};
use quill::scheme::SchemeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;
use std::time::Duration;

/// The plaintext modulus every suite models with (SEAL's 65537 default).
pub const T: u64 = 65537;

/// A deterministic RNG for a test, named so intent is visible at call sites.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A small BFV context (the `test_small` preset) that keeps key generation
/// and homomorphic evaluation fast enough for unit tests.
pub fn small_ctx() -> BfvContext {
    BfvContext::new(BfvParams::test_small()).expect("test_small parameters are valid")
}

/// Synthesis options for property tests: uniform latency model and a budget
/// far below tier-1's patience, otherwise `SynthesisOptions::default()`. The
/// persistent cache is **disabled**: a test must exercise the search it
/// claims to test, never a previous run's on-disk answer — suites that
/// test the cache itself opt in with an explicit temp directory.
pub fn quick_synthesis_options(seed: u64) -> SynthesisOptions {
    SynthesisOptions {
        timeout: Duration::from_secs(30),
        optimize: true,
        latency: LatencyModel::uniform(),
        seed,
        cache: CachePolicy::Disabled,
        ..SynthesisOptions::default()
    }
}

/// Synthesis options for the end-to-end kernel tests: the paper's profiled
/// latency model with a generous (but bounded) budget. Disables the
/// persistent cache like [`quick_synthesis_options`], for the same
/// hermeticity reason.
pub fn fast_synthesis_options() -> SynthesisOptions {
    SynthesisOptions {
        timeout: Duration::from_secs(300),
        optimize: true,
        latency: LatencyModel::profiled_default(),
        seed: 1,
        cache: CachePolicy::Disabled,
        ..SynthesisOptions::default()
    }
}

/// The same options with an explicit worker-thread count — the knob the
/// determinism suites turn to compare jobs = 1 / 2 / 4 runs bit for bit.
pub fn with_jobs(mut options: SynthesisOptions, jobs: usize) -> SynthesisOptions {
    options.parallelism = std::num::NonZeroUsize::new(jobs).expect("jobs must be nonzero");
    options
}

/// Proptest strategy: a random *valid* straight-line program over
/// `num_ct_inputs` ciphertext inputs, covering the full instruction set
/// including explicit `relin-ct` (emitted only over statically size-3
/// values, so every generated program passes `Program::validate`). Shared
/// by the quill IR property suite and the middle-end pass suites.
pub fn arb_program(num_ct_inputs: usize, max_len: usize) -> impl Strategy<Value = Program> {
    assert!(num_ct_inputs >= 1 && max_len >= 2);
    prop::collection::vec((0u8..8, any::<u16>(), any::<u16>(), -5i64..=5), 1..max_len).prop_map(
        move |steps| {
            let mut instrs: Vec<Instr> = Vec::new();
            // Ciphertext size of each value (inputs then instruction results),
            // tracked so relin-ct only lands on size-3 values.
            let mut sizes: Vec<u8> = vec![2; num_ct_inputs];
            for (op, a, b, r) in steps {
                let avail = num_ct_inputs + instrs.len();
                let pick = |x: u16| -> ValRef {
                    let i = x as usize % avail;
                    if i < num_ct_inputs {
                        ValRef::Input(i)
                    } else {
                        ValRef::Instr(i - num_ct_inputs)
                    }
                };
                let idx = |v: ValRef| match v {
                    ValRef::Input(i) => i,
                    ValRef::Instr(j) => num_ct_inputs + j,
                };
                let (lhs, rhs) = (pick(a), pick(b));
                let instr = match op {
                    0 => Instr::AddCtCt(lhs, rhs),
                    1 => Instr::SubCtCt(lhs, rhs),
                    2 => Instr::MulCtCt(lhs, rhs),
                    3 => Instr::AddCtPt(lhs, PtOperand::Splat(r)),
                    4 => Instr::SubCtPt(lhs, PtOperand::Splat(r)),
                    5 => Instr::MulCtPt(lhs, PtOperand::Splat(r)),
                    6 => Instr::RotCt(lhs, if r == 0 { 1 } else { r }),
                    _ if sizes[idx(lhs)] == 3 => Instr::Relin(lhs),
                    _ => Instr::RotCt(lhs, if r == 0 { 1 } else { r }),
                };
                sizes.push(match &instr {
                    Instr::MulCtCt(..) => 3,
                    Instr::Relin(_) => 2,
                    Instr::AddCtCt(x, y) | Instr::SubCtCt(x, y) => {
                        sizes[idx(*x)].max(sizes[idx(*y)])
                    }
                    other => sizes[idx(other.ct_operands()[0])],
                });
                instrs.push(instr);
            }
            let output = ValRef::Instr(instrs.len() - 1);
            let prog = Program::new("random", num_ct_inputs, 0, instrs, output);
            debug_assert!(prog.validate().is_ok(), "{:?}", prog.validate());
            prog
        },
    )
}

/// Samples `count` model vectors of `n` slots with entries in `[0, bound)`.
pub fn sample_model_inputs(count: usize, n: usize, bound: u64, rng: &mut StdRng) -> Vec<Vec<u64>> {
    (0..count)
        .map(|_| (0..n).map(|_| rng.gen_range(0..bound)).collect())
        .collect()
}

/// The slots a spec's output mask selects.
pub fn masked_slots(spec: &KernelSpec) -> Vec<usize> {
    (spec.output_mask.iter().enumerate())
        .filter_map(|(i, &on)| on.then_some(i))
        .collect()
}

/// Asserts `got` equals `want` on every masked slot.
pub fn assert_masked_slots_eq(got: &[u64], want: &[u64], mask: &[bool], label: &str) {
    for (i, &on) in mask.iter().enumerate() {
        if on {
            assert_eq!(got[i], want[i], "{label}: slot {i}");
        }
    }
}

/// Runs `prog` on random `[0, input_bound)` inputs through both the Quill
/// interpreter and the encrypted BFV backend, asserting the given output
/// `slots` agree and that the ciphertext retains noise budget.
///
/// The interpreter evaluates `prog` as given; the backend executes it
/// lowered through the middle-end at `-O0` and at `-O2` (the backend runs
/// only legal IR, and lowering must not change any decrypted slot — so
/// every call doubles as a middle-end soundness check at both levels).
pub fn assert_backend_matches_interp(
    ctx: &BfvContext,
    prog: &Program,
    model_n: usize,
    slots: &[usize],
    input_bound: u64,
    rng: &mut StdRng,
) {
    let ct_model = sample_model_inputs(prog.num_ct_inputs, model_n, input_bound, rng);
    let pt_model = sample_model_inputs(prog.num_pt_inputs, model_n, input_bound, rng);
    let expected = interp::eval_concrete(prog, &ct_model, &pt_model, ctx.params().plain_modulus);
    let mut mask = vec![false; expected.len()];
    for &slot in slots {
        mask[slot] = true;
    }
    let levels = [OptLevel::O0, OptLevel::O2];
    let lowered: Vec<Program> = levels.iter().map(|&l| opt::optimize(prog, l).0).collect();
    let session = Session::<BfvScheme>::new(ctx, &lowered.iter().collect::<Vec<_>>(), rng);
    for (level, lowered) in levels.iter().zip(&lowered) {
        let label = format!("{} [-{level}]", prog.name);
        let (decoded, budget) = session.run(lowered, &ct_model, &pt_model, rng);
        assert!(budget > 0, "{label}: noise budget exhausted ({budget})");
        assert_masked_slots_eq(&decoded, &expected, &mask, &label);
    }
}

/// Differential testing across the whole pipeline: one program, one set of
/// inputs, executed by the Quill interpreter and by every [`SchemeId`]
/// backend under multiple parameter sets — all asserted slot-identical —
/// through one harness,
/// [`assert_cross_scheme`](differential::assert_cross_scheme).
pub mod differential {
    use super::*;
    use bfv::params::DEFAULT_MARGIN_BITS;

    /// One encrypted execution leg of the cross-scheme harness.
    #[derive(Debug, Clone)]
    pub struct CrossSchemeLeg {
        /// Which backend ran the leg.
        pub scheme: SchemeId,
        /// `"auto"` or `"paper"`.
        pub label: &'static str,
        /// The parameter set the leg ran under.
        pub params: BfvParams,
        /// Measured remaining noise budget (bits) at the output.
        pub measured_budget: i64,
    }

    /// Runs `prog` (lowered at `-O2`) on the same random inputs through the
    /// interpreter and through **every** [`SchemeId`] backend, asserting
    /// all executions agree on every slot in `slots` with positive
    /// measured budget.
    ///
    /// Each scheme is lowered under its own legality rules and runs under
    /// its own auto-selected parameters, plus the paper's fixed `N = 8192`
    /// set whenever the scheme's own noise model predicts positive
    /// remaining budget there. A skipped paper leg is reported on stderr —
    /// never silently dropped — and at least the auto leg always runs, so
    /// every scheme is exercised. Each auto leg checks its selector's
    /// certificate in practice: the measured budget is at least the
    /// selection margin and at least the scheme's predicted budget (the
    /// noise model is sound).
    pub fn assert_cross_scheme(
        prog: &Program,
        model_n: usize,
        slots: &[usize],
        input_bound: u64,
        seed: u64,
    ) -> Vec<CrossSchemeLeg> {
        let mut rng = seeded_rng(seed);
        let ct_model = sample_model_inputs(prog.num_ct_inputs, model_n, input_bound, &mut rng);
        let pt_model = sample_model_inputs(prog.num_pt_inputs, model_n, input_bound, &mut rng);
        let expected = interp::eval_concrete(prog, &ct_model, &pt_model, T);
        let mut mask = vec![false; model_n];
        for &slot in slots {
            mask[slot] = true;
        }

        let mut legs = Vec::new();
        for &scheme in SchemeId::ALL {
            let (lowered, _, auto_params) =
                opt::optimize_for(prog, scheme, OptLevel::O2, &ParamPolicy::auto(), model_n, T);
            let auto_params = auto_params
                .unwrap_or_else(|e| panic!("{} [{scheme}]: auto selection failed: {e}", prog.name));

            let predict = |params: &BfvParams| {
                porcupine::scheme::analyze_noise(scheme, params, &lowered).predicted_budget_bits
            };
            let mut planned: Vec<(&'static str, BfvParams)> = vec![("auto", auto_params)];
            let paper = BfvParams::paper();
            let paper_predicted = predict(&paper);
            if paper_predicted > 0.0 {
                planned.push(("paper", paper));
            } else {
                eprintln!(
                    "{} [{scheme}/paper]: skipped — noise model predicts {:.1} bits of \
                     budget under the paper parameters",
                    prog.name, paper_predicted
                );
            }

            for (label, params) in planned {
                let name = format!("{} [{scheme}/{label}]", prog.name);
                let (decoded, budget) = run_encrypted(
                    scheme,
                    params.clone(),
                    &lowered,
                    &ct_model,
                    &pt_model,
                    NonZeroUsize::MIN,
                    &mut seeded_rng(seed ^ 0xC255),
                )
                .expect("differential params are valid");
                assert!(budget > 0, "{name}: noise budget exhausted ({budget})");
                assert_masked_slots_eq(&decoded, &expected, &mask, &name);
                if label == "auto" {
                    let predicted = predict(&params);
                    assert!(
                        budget as f64 >= DEFAULT_MARGIN_BITS,
                        "{name}: {budget} bits measured, the selection margin is \
                         {DEFAULT_MARGIN_BITS}"
                    );
                    assert!(
                        budget as f64 >= predicted,
                        "{name}: measured {budget} below predicted {predicted:.1} — \
                         noise model unsound"
                    );
                }
                legs.push(CrossSchemeLeg {
                    scheme,
                    label,
                    params,
                    measured_budget: budget,
                });
            }
        }
        legs
    }

    /// [`assert_cross_scheme`] with the comparison slots taken from a
    /// spec's output mask.
    pub fn assert_cross_scheme_spec(
        prog: &Program,
        spec: &KernelSpec,
        input_bound: u64,
        seed: u64,
    ) -> Vec<CrossSchemeLeg> {
        assert_cross_scheme(prog, spec.n, &masked_slots(spec), input_bound, seed)
    }
}

/// Like [`assert_backend_matches_interp`] but takes the slots to compare
/// from a spec's output mask (the integration-test shape).
pub fn assert_backend_matches_spec_mask(
    ctx: &BfvContext,
    prog: &Program,
    spec: &KernelSpec,
    input_bound: u64,
    rng: &mut StdRng,
) {
    assert_backend_matches_interp(ctx, prog, spec.n, &masked_slots(spec), input_bound, rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill::program::{Instr, ValRef};

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(9);
        let mut b = seeded_rng(9);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn backend_helper_accepts_a_correct_program() {
        let ctx = small_ctx();
        let mut rng = seeded_rng(23);
        let prog = Program::new(
            "pairsum",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        // slot i reads i and i+1; stay clear of the row wrap.
        assert_backend_matches_interp(&ctx, &prog, 8, &[0, 1, 2], 64, &mut rng);
    }

    #[test]
    #[should_panic(expected = "slot 0")]
    fn masked_slot_comparison_reports_mismatches() {
        assert_masked_slots_eq(&[1, 2], &[3, 2], &[true, true], "demo");
    }
}
