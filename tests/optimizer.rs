//! Middle-end integration: the acceptance criteria of the optimizing
//! pipeline on the paper's real workloads.
//!
//! * `-O0` reproduces the pre-middle-end compiler exactly (one
//!   relinearization immediately after every ct×ct multiply).
//! * On the Harris and Sobel multistep pipelines, `-O2` strictly reduces
//!   the relin + rotation instruction count *and* the modeled
//!   `program_latency`.
//! * On every paper baseline and both pipelines, the `-O2` lowering
//!   decrypts bit-identically to the `-O0` lowering, on BFV and on BGV.
//! * Re-running `-O2` on already-optimized programs is a fixpoint with
//!   zero rewrites (the CI idempotence check).
//! * `-O0` keeps the synthesis objective to the bit, on every paper
//!   baseline and every pinned synthesized program.

use bfv::params::ParamPolicy;
use porcupine::codegen::Session;
use porcupine::opt::{optimize, optimize_with, OptLevel};
use porcupine::scheme::{resolve_params, BfvScheme, BgvScheme, Scheme};
use porcupine_kernels::{all_direct, composite, stencil};
use quill::cost::{eager_cost, LatencyModel};
use quill::program::{Instr, Program, ValRef};
use quill::scheme::SchemeId;
use test_support::{sample_model_inputs, seeded_rng, small_ctx, T};

fn pipelines() -> Vec<Program> {
    let img = stencil::default_image();
    vec![
        composite::sobel_baseline(img),
        composite::harris_baseline(img),
    ]
}

/// The `-O0` contract: byte-for-byte the old lowering — every multiply is
/// immediately followed by its relinearization and nothing else changes.
#[test]
fn o0_reproduces_the_eager_lowering_exactly() {
    for prog in pipelines()
        .into_iter()
        .chain(all_direct().into_iter().map(|k| k.baseline))
    {
        let (o0, _) = optimize(&prog, OptLevel::O0);
        assert_eq!(
            o0.len(),
            prog.len() + prog.ct_ct_mul_count(),
            "{}",
            prog.name
        );
        assert_eq!(o0.relin_count(), prog.ct_ct_mul_count(), "{}", prog.name);
        // Every relin directly follows a multiply and consumes it.
        for (i, instr) in o0.instrs.iter().enumerate() {
            if let Instr::Relin(a) = instr {
                assert_eq!(
                    *a,
                    ValRef::Instr(i - 1),
                    "{}: relin not adjacent",
                    prog.name
                );
                assert!(
                    matches!(o0.instrs[i - 1], Instr::MulCtCt(..)),
                    "{}: relin not after a multiply",
                    prog.name
                );
            }
        }
        // Erasing the relins gives back the input program.
        let without: Vec<&Instr> = o0
            .instrs
            .iter()
            .filter(|i| !matches!(i, Instr::Relin(_)))
            .collect();
        assert_eq!(without.len(), prog.len(), "{}", prog.name);
    }
}

/// The headline acceptance criterion: `-O2` strictly beats `-O0` on the
/// multistep pipelines, in executed key-switch instructions and in modeled
/// latency.
#[test]
fn o2_strictly_reduces_pipeline_instructions_and_latency() {
    let model = LatencyModel::profiled_default();
    for prog in pipelines() {
        let (o0, _) = optimize(&prog, OptLevel::O0);
        let (o2, _) = optimize(&prog, OptLevel::O2);
        let heavy0 = o0.relin_count() + o0.rot_count();
        let heavy2 = o2.relin_count() + o2.rot_count();
        assert!(
            o2.relin_count() < o0.relin_count(),
            "{}: relins {} !< {}",
            prog.name,
            o2.relin_count(),
            o0.relin_count()
        );
        assert!(o2.rot_count() <= o0.rot_count(), "{}", prog.name);
        assert!(heavy2 < heavy0, "{}: {heavy2} !< {heavy0}", prog.name);
        assert!(
            o2.len() < o0.len(),
            "{}: total instruction count",
            prog.name
        );
        assert!(
            model.program_latency(&o2) < model.program_latency(&o0),
            "{}: latency {} !< {}",
            prog.name,
            model.program_latency(&o2),
            model.program_latency(&o0)
        );
    }
}

/// Every synthesized program `tests/synth_strategies.rs` pins (initial
/// and final), read from its raw-string literals.
fn pinned_synthesized_programs() -> Vec<Program> {
    let source = include_str!("synth_strategies.rs");
    let pins: Vec<Program> = source
        .split("r\"(kernel ")
        .skip(1)
        .map(|rest| {
            let text = rest.split('"').next().expect("a closing quote");
            quill::sexpr::parse_program(&format!("(kernel {text}")).expect("pins parse")
        })
        .collect();
    // Two programs per pinned row.
    assert_eq!(pins.len(), 2 * source.matches("    Pinned {").count());
    pins
}

/// `eager_cost` charges each multiply its relinearization where it stands
/// and a `relin-ct` nothing, so the `-O0` lowering, which puts each relin
/// right after its multiply, adds exact zeros to the same sum: the
/// objective the synthesizer minimized is the one the lowered program
/// carries, bit for bit.
#[test]
fn o0_keeps_the_synthesis_objective_to_the_bit() {
    let programs = paper_programs().into_iter().map(|(p, _)| p);
    for prog in programs.chain(pinned_synthesized_programs()) {
        let (o0, _) = optimize(&prog, OptLevel::O0);
        for model in [
            LatencyModel::profiled_default(),
            LatencyModel::profiled_bgv(),
            LatencyModel::uniform(),
        ] {
            assert_eq!(
                eager_cost(&o0, &model).to_bits(),
                eager_cost(&prog, &model).to_bits(),
                "{}",
                prog.name
            );
        }
    }
}

/// Every paper baseline — the nine direct kernels and the three
/// Sobel/Harris stages — and both pipelines, each with its slot count.
fn paper_programs() -> Vec<(Program, usize)> {
    let n = stencil::default_image().slots();
    let stages = [
        composite::sobel_combine(n),
        composite::harris_det(n),
        composite::harris_trace(n),
    ];
    let kernels = all_direct().into_iter().chain(stages);
    let mut programs: Vec<(Program, usize)> = kernels.map(|k| (k.baseline, k.spec.n)).collect();
    programs.extend(pipelines().into_iter().map(|p| (p, n)));
    programs
}

/// Runs the `-O0` and `-O2` lowerings of `prog` for scheme `S` on the same
/// encrypted input and asserts they decrypt bit-identically, with noise
/// budget left.
fn assert_lowerings_decrypt_alike<S: Scheme>(
    ctx: &S::Context,
    prog: &Program,
    n: usize,
    seed: u64,
) {
    let legality = S::ID.legality();
    let (o0, _) = optimize_with(prog, OptLevel::O0, &legality);
    let (o2, _) = optimize_with(prog, OptLevel::O2, &legality);
    let mut rng = seeded_rng(seed);
    let session = Session::<S>::new(ctx, &[&o0, &o2], &mut rng);
    let ct_model = sample_model_inputs(prog.num_ct_inputs, n, 32, &mut rng);
    let pt_model = sample_model_inputs(prog.num_pt_inputs, n, 32, &mut rng);
    let run = |p: &Program| {
        let (slots, budget) = session.run(p, &ct_model, &pt_model, &mut seeded_rng(seed));
        assert!(
            budget > 0,
            "{} [{}]: noise budget exhausted ({budget})",
            p.name,
            S::ID
        );
        slots
    };
    assert_eq!(
        run(&o0),
        run(&o2),
        "{} [{}]: decryptions differ",
        prog.name,
        S::ID
    );
}

/// The `-O0` and `-O2` lowerings of every paper program decrypt
/// bit-identically on the BFV backend from the same encrypted input.
#[test]
fn lowerings_decrypt_bit_identically_on_bfv() {
    let ctx = small_ctx();
    for (seed, (prog, n)) in paper_programs().iter().enumerate() {
        assert_lowerings_decrypt_alike::<BfvScheme>(&ctx, prog, *n, 0x0B7 + seed as u64);
    }
}

/// [`lowerings_decrypt_bit_identically_on_bfv`] on the BGV backend, each
/// program under its own auto-selected parameters (charged on the noisier
/// `-O0` lowering): BGV's noise doubles per multiply, so no one small
/// preset holds every program.
#[test]
fn lowerings_decrypt_bit_identically_on_bgv() {
    for (seed, (prog, n)) in paper_programs().iter().enumerate() {
        let (o0, _) = optimize_with(prog, OptLevel::O0, &SchemeId::Bgv.legality());
        let params = resolve_params(SchemeId::Bgv, &ParamPolicy::auto(), &o0, *n, T)
            .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        let ctx = BgvScheme::context(params).expect("selected parameters are valid");
        assert_lowerings_decrypt_alike::<BgvScheme>(&ctx, prog, *n, 0x0B7 + seed as u64);
    }
}

/// The CI idempotence check: `-O2` on already-optimized programs — every
/// paper kernel baseline and both multistep pipelines — is a fixpoint with
/// zero rewrites.
#[test]
fn o2_is_a_fixpoint_on_optimized_programs() {
    for prog in all_direct()
        .into_iter()
        .map(|k| k.baseline)
        .chain(pipelines())
    {
        let (once, _) = optimize(&prog, OptLevel::O2);
        let (twice, report) = optimize(&once, OptLevel::O2);
        assert_eq!(once, twice, "{}: -O2 not idempotent", prog.name);
        assert_eq!(
            report.total_rewrites, 0,
            "{}: fixpoint reports rewrites ({report})",
            prog.name
        );
    }
}
