//! Byte pins for automatic parameter selection under both schemes.
//!
//! For the eleven paper programs (the nine direct kernels plus the Sobel
//! and Harris pipelines, as hand-written baselines lowered at `-O2`) the
//! table records the parameter set `Auto` selects — degree and every chain
//! prime — and the predicted budget (`f64` bits) that certified it. It also
//! pins a walk past the first rows (dot-product at a 60-bit margin), the
//! `Fixed(paper)` path, and each [`SelectError`] outcome.
//!
//! Any change to a candidate table, a chain generator, a noise model or the
//! walk that alters a selected set or a predicted bit fails here. If a
//! change is *meant* to alter them, the failure writes the new table to the
//! system temp directory's `param_selection.golden.actual`, ready to copy
//! over `golden/param_selection.golden`.

use porcupine::opt::{optimize_with, OptLevel};
use porcupine::scheme::{analyze_noise, resolve_params};
use porcupine_kernels::{all_direct, composite, stencil};
use quill::program::{Instr, Program, ValRef};
use quill::scheme::SchemeId;
use rlwe_ring::params::{ParamPolicy, RlweParams, SelectError};
use std::fmt::Write;

/// The eleven paper programs with the slots and plaintext modulus of their
/// specifications.
fn paper_programs() -> Vec<(String, Program, usize, u64)> {
    let mut progs: Vec<_> = all_direct()
        .into_iter()
        .map(|k| (k.name.to_string(), k.baseline, k.spec.n, k.spec.t))
        .collect();
    let img = stencil::default_image();
    for (name, spec, prog) in [
        (
            "sobel",
            composite::sobel_spec(img),
            composite::sobel_baseline(img),
        ),
        (
            "harris",
            composite::harris_spec(img),
            composite::harris_baseline(img),
        ),
    ] {
        progs.push((name.to_string(), prog, spec.n, spec.t));
    }
    progs
}

/// `x^(2^depth)` by repeated squaring, each product relinearized.
fn squarings(depth: usize) -> Program {
    let mut instrs = Vec::new();
    let mut cur = ValRef::Input(0);
    for _ in 0..depth {
        instrs.push(Instr::MulCtCt(cur, cur));
        instrs.push(Instr::Relin(ValRef::Instr(instrs.len() - 1)));
        cur = ValRef::Instr(instrs.len() - 1);
    }
    Program::new("squarings", 1, 0, instrs, cur)
}

fn outcome(scheme: SchemeId, prog: &Program, result: Result<RlweParams, SelectError>) -> String {
    match result {
        Ok(params) => {
            let budget = analyze_noise(scheme, &params, prog).predicted_budget_bits;
            format!(
                "N = {} moduli = {:?} budget = {:#018x}",
                params.poly_degree,
                params.moduli,
                budget.to_bits()
            )
        }
        Err(SelectError::NoCandidate {
            margin_bits,
            min_slots,
            best,
        }) => format!(
            "NoCandidate margin = {:#018x} min_slots = {min_slots} best = {:?}",
            margin_bits.to_bits(),
            best.map(|(n, bits)| (n, format!("{:#018x}", bits.to_bits())))
        ),
        Err(e) => format!("{e:?}"),
    }
}

fn table() -> String {
    let mut out = String::new();
    let programs = paper_programs();
    for &scheme in SchemeId::ALL {
        writeln!(out, "== {scheme}").unwrap();
        let lower = |prog: &Program| optimize_with(prog, OptLevel::O2, &scheme.legality()).0;
        for (name, prog, n, t) in &programs {
            let lowered = lower(prog);
            let result = resolve_params(scheme, &ParamPolicy::auto(), &lowered, *n, *t);
            writeln!(out, "auto {name}: {}", outcome(scheme, &lowered, result)).unwrap();
        }

        let (_, dot, n, t) = &programs[1];
        let dot = lower(dot);
        let margin_60 = ParamPolicy::Auto { margin_bits: 60.0 };
        let result = resolve_params(scheme, &margin_60, &dot, *n, *t);
        writeln!(
            out,
            "margin-60 dot-product: {}",
            outcome(scheme, &dot, result)
        )
        .unwrap();

        let (_, blur, n, t) = &programs[0];
        let blur = lower(blur);
        let paper = ParamPolicy::Fixed(RlweParams::paper());
        let result = resolve_params(scheme, &paper, &blur, *n, *t);
        writeln!(
            out,
            "fixed-paper box-blur: {}",
            outcome(scheme, &blur, result)
        )
        .unwrap();

        let deep = squarings(20);
        let result = resolve_params(scheme, &ParamPolicy::auto(), &deep, 8, 65537);
        writeln!(out, "no-candidate: {}", outcome(scheme, &deep, result)).unwrap();

        // 65539 is prime, but 2N divides 65538 at no candidate degree.
        let square = squarings(1);
        let result = resolve_params(scheme, &ParamPolicy::auto(), &square, 8, 65539);
        writeln!(out, "unsupported-t: {}", outcome(scheme, &square, result)).unwrap();

        let small = ParamPolicy::Fixed(RlweParams::test_small());
        let result = resolve_params(scheme, &small, &square, 4096, 65537);
        writeln!(out, "bad-fixed: {}", outcome(scheme, &square, result)).unwrap();
    }
    out
}

#[test]
fn selections_match_golden_table() {
    let actual = table();
    let expected = include_str!("golden/param_selection.golden");
    if actual != expected {
        let out = std::env::temp_dir().join("param_selection.golden.actual");
        std::fs::write(&out, &actual).ok();
        panic!(
            "parameter selections diverged from tests/golden/param_selection.golden.\n\
             New table written to {}.\n\
             If the change is intentional, copy it over the golden file.",
            out.display()
        );
    }
}
