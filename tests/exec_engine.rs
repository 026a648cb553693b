//! Execution-engine contracts (ISSUE 9): hoisted rotations and the
//! DAG-parallel runner.
//!
//! Two guarantees are pinned here, both scheme-generic:
//!
//! - **Hoisting is invisible**: a rotation served from a shared hoisted
//!   decomposition decrypts bit-identically to the sequential key switch,
//!   with the same noise budget (±1 bit of measurement granularity), on
//!   BFV and BGV alike.
//! - **Thread count is invisible**: running any paper kernel with
//!   `eval_jobs` = 1, 2 or 4 decodes to the same full slot vector as an
//!   independent reference executor (in order, cloned operands, plain
//!   rotations) — exact modular arithmetic plus the `_assign` ≡ pure
//!   contract makes the schedule unobservable.

use bfv::params::BfvParams;
use porcupine::codegen::{Runner, Session};
use porcupine::opt::{optimize_with, OptLevel};
use porcupine::scheme::{BfvScheme, BgvScheme, Scheme};
use porcupine_kernels::{composite, stencil, PaperKernel};
use proptest::prelude::*;
use quill::program::{Instr, Program, PtOperand, ValRef};
use rand::Rng;
use test_support::seeded_rng;

/// Hoisted rotation (shared digit decomposition, per-element accumulate)
/// against the one-shot key switch, over random plaintexts.
fn hoisted_matches_sequential<S: Scheme>(seed: u64) {
    let ctx = S::context(BfvParams::test_small()).expect("valid parameters");
    let mut rng = seeded_rng(seed);
    let session = Session::<S>::new(&ctx, &[], &mut rng);
    let ev = session.runner.evaluator();
    let gk = S::galois_keys(&session.keygen, &[1, 2, 3], false, &mut rng);

    let t = S::params(&ctx).plain_modulus;
    let data: Vec<u64> = (0..S::slot_count(session.runner.encoder()))
        .map(|_| rng.gen_range(0..t))
        .collect();
    let ct = session.encrypt(&data, &mut rng);
    let hd = S::hoist(ev, &ct).expect("both shipped backends hoist");
    for steps in [0i64, 1, 2, 3] {
        let hoisted = S::rotate_hoisted(ev, &ct, &hd, steps, &gk);
        let mut sequential = ct.clone();
        S::rotate_rows_assign(ev, &mut sequential, steps, &gk);
        let (slots_h, nb_h) = session.decrypt(&hoisted);
        let (slots_s, nb_s) = session.decrypt(&sequential);
        assert_eq!(
            slots_h,
            slots_s,
            "{} steps={steps}: hoisted decryption diverged",
            S::ID
        );
        assert!(nb_h > 0, "{} steps={steps}: budget exhausted", S::ID);
        assert!(
            (nb_h - nb_s).abs() <= 1,
            "{} steps={steps}: noise budget diverged (hoisted {nb_h}, sequential {nb_s})",
            S::ID
        );
    }
    S::recycle_hoisted(ev, hd);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn hoisted_rotation_is_invisible_bfv(seed in any::<u64>()) {
        hoisted_matches_sequential::<BfvScheme>(seed);
    }

    #[test]
    fn hoisted_rotation_is_invisible_bgv(seed in any::<u64>()) {
        hoisted_matches_sequential::<BgvScheme>(seed);
    }
}

/// The paper's kernel suite at test-friendly sizes, mirroring
/// `tests/synth_strategies.rs`: the nine direct kernels plus the sobel and
/// harris combine stages. No synthesis happens here (the baselines are
/// executed directly), so the full set runs in debug builds too.
fn paper_kernels() -> Vec<PaperKernel> {
    let img = stencil::default_image();
    let mut kernels: Vec<PaperKernel> = porcupine_kernels::DIRECT_NAMES
        .iter()
        .map(|name| porcupine_kernels::direct_kernel(name, None).expect("registry names"))
        .collect();
    kernels.push(composite::sobel_combine(img.slots()));
    kernels.push(composite::harris_det(img.slots()));
    kernels.push(composite::harris_trace(img.slots()));
    kernels
}

/// The reference the runner is checked against, sharing none of its
/// engine: every instruction in program order on clones of its operands
/// through the `_assign` ops, rotations unhoisted, nothing recycled.
fn reference_run<S: Scheme>(
    ctx: &S::Context,
    keygen: &S::KeyGenerator<'_>,
    prog: &Program,
    cts: &[&S::Ciphertext],
    pts: &[&S::Plaintext],
) -> S::Ciphertext {
    let mut rng = seeded_rng(2);
    let (ev, encoder) = (S::evaluator(ctx), S::encoder(ctx));
    let gk = S::galois_keys(keygen, &prog.rotation_amounts(), false, &mut rng);
    let rk = (prog.relin_count() > 0).then(|| S::relin_key(keygen, &mut rng));
    let t = S::params(ctx).plain_modulus as i64;
    let pt = |p: &PtOperand| match p {
        PtOperand::Input(i) => S::preencode(&ev, pts[*i]),
        PtOperand::Splat(v) => S::encode_eval(
            &encoder,
            &vec![v.rem_euclid(t) as u64; S::slot_count(&encoder)],
        ),
    };
    let mut vals: Vec<S::Ciphertext> = Vec::new();
    let get = |vals: &[S::Ciphertext], r: ValRef| match r {
        ValRef::Input(i) => cts[i].clone(),
        ValRef::Instr(j) => vals[j].clone(),
    };
    for instr in &prog.instrs {
        let mut x = get(&vals, instr.ct_operands()[0]);
        match instr {
            Instr::AddCtCt(_, b) => S::add_assign(&ev, &mut x, &get(&vals, *b)),
            Instr::SubCtCt(_, b) => S::sub_assign(&ev, &mut x, &get(&vals, *b)),
            Instr::MulCtCt(_, b) => x = S::multiply(&ev, &x, &get(&vals, *b)),
            Instr::Relin(_) => S::relinearize_assign(&ev, &mut x, rk.as_ref().expect("relin key")),
            Instr::AddCtPt(_, p) => S::add_plain_assign(&ev, &mut x, &pt(p)),
            Instr::SubCtPt(_, p) => S::sub_plain_assign(&ev, &mut x, &pt(p)),
            Instr::MulCtPt(_, p) => S::mul_plain_assign(&ev, &mut x, &pt(p)),
            Instr::RotCt(_, steps) => S::rotate_rows_assign(&ev, &mut x, *steps, &gk),
        }
        vals.push(x);
    }
    get(&vals, prog.output)
}

/// Lowers a kernel's baseline at `-O2` (the fan-richest legal form) and
/// checks it with [`program_jobs_are_bit_identical`].
fn jobs_are_bit_identical<S: Scheme>(k: &PaperKernel) {
    let (prog, _) = optimize_with(&k.baseline, OptLevel::O2, &S::ID.legality());
    program_jobs_are_bit_identical::<S>(k.name, &prog, k.spec.t);
}

/// Executes `prog` at `eval_jobs` = 1, 2, and 4 on scheme `S` over random
/// inputs mod `t`, and requires every decryption to match the reference
/// executor's slot for slot (the one-worker run directly, the others
/// through it).
fn program_jobs_are_bit_identical<S: Scheme>(name: &str, prog: &Program, t: u64) {
    let ctx = S::context(BfvParams::test_small()).expect("valid parameters");
    let mut rng = seeded_rng(0xE0B5);
    let session = Session::<S>::new(&ctx, &[], &mut rng);
    // Same key material for every runner (fresh rng per call), so the
    // only variable across configurations is the scheduler.
    let make = |jobs: usize| {
        Runner::<'_, S>::for_programs(&ctx, &session.keygen, &[prog], &mut seeded_rng(1))
            .with_eval_jobs(jobs)
    };

    let runner1 = make(1);
    let encoder = runner1.encoder();
    let n = S::slot_count(encoder);
    let sample = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..t)).collect()
    };
    let cts: Vec<S::Ciphertext> = (0..prog.num_ct_inputs)
        .map(|_| {
            let v = sample(&mut rng);
            session.encrypt(&v, &mut rng)
        })
        .collect();
    let pts: Vec<S::Plaintext> = (0..prog.num_pt_inputs)
        .map(|_| S::encode(encoder, &sample(&mut rng)))
        .collect();
    let ct_refs: Vec<&S::Ciphertext> = cts.iter().collect();
    let pt_refs: Vec<&S::Plaintext> = pts.iter().collect();

    let (baseline, budget) = session.decrypt(&runner1.run(prog, &ct_refs, &pt_refs));
    assert!(
        budget > 0,
        "{} ({}): budget exhausted at eval_jobs=1",
        name,
        S::ID
    );
    let reference = reference_run::<S>(&ctx, &session.keygen, prog, &ct_refs, &pt_refs);
    assert_eq!(
        baseline,
        session.decrypt(&reference).0,
        "{} ({}): eval_jobs=1 diverged from the reference executor",
        name,
        S::ID
    );
    for jobs in [2usize, 4] {
        let out = make(jobs).run(prog, &ct_refs, &pt_refs);
        assert_eq!(
            session.decrypt(&out).0,
            baseline,
            "{} ({}): eval_jobs={jobs} diverged from sequential",
            name,
            S::ID
        );
    }
}

#[test]
fn eval_jobs_is_invisible_on_every_paper_kernel() {
    for k in paper_kernels() {
        jobs_are_bit_identical::<BfvScheme>(&k);
    }
}

/// Cross-scheme coverage of the parallel scheduler: the rotation-fan-heavy
/// box-blur kernel under BGV (depth-safe at any test parameter set).
#[test]
fn eval_jobs_is_invisible_under_bgv() {
    let k = porcupine_kernels::direct_kernel("box-blur", None).expect("registry name");
    jobs_are_bit_identical::<BgvScheme>(&k);
}

/// Squares (`mul-ct-ct x x`): the runner passes one borrowed ciphertext as
/// both operands, which takes BFV's single-extension square path, while
/// the reference executor multiplies two clones through the general one.
/// Covers a square whose operand dies at the square, one whose operand
/// stays live past it, and a square of a program input.
#[test]
fn eval_jobs_is_invisible_on_squares() {
    use ValRef::{Input, Instr as Val};
    let dying = Program::new(
        "square-dying",
        1,
        0,
        vec![
            Instr::RotCt(Input(0), 1),
            Instr::MulCtCt(Val(0), Val(0)),
            Instr::Relin(Val(1)),
            Instr::AddCtCt(Val(2), Input(0)),
        ],
        Val(3),
    );
    let live = Program::new(
        "square-live",
        1,
        0,
        vec![
            Instr::RotCt(Input(0), 1),
            Instr::MulCtCt(Val(0), Val(0)),
            Instr::Relin(Val(1)),
            Instr::AddCtCt(Val(2), Val(0)),
            Instr::MulCtCt(Input(0), Input(0)),
            Instr::Relin(Val(4)),
            Instr::SubCtCt(Val(3), Val(5)),
        ],
        Val(6),
    );
    for prog in [dying, live] {
        prog.validate().expect("well-formed square program");
        program_jobs_are_bit_identical::<BfvScheme>(&prog.name, &prog, test_support::T);
    }
}
