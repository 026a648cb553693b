//! Byte pins for the middle-end: every paper kernel baseline, both
//! stitched multi-step pipelines and one staged reduction, as built and as
//! lowered at `-O0` and `-O2`, with each lowering's rewrite report.
//!
//! Any change to how programs are composed (`Program::append`, CSE) or
//! rewritten (the `opt` passes) that alters a single instruction, operand
//! or rewrite count fails here. If a change is *meant* to alter them, the
//! failure writes the new table next to the system temp directory's
//! `lowerings.golden.actual`, ready to copy over `golden/lowerings.golden`.

use porcupine::opt::{optimize, OptLevel};
use porcupine_kernels::{all_direct, composite, reduction, stencil};
use quill::program::{Program, ValRef};
use std::fmt::Write;
use test_support::fast_synthesis_options;

fn pinned_programs() -> Vec<Program> {
    let img = stencil::default_image();
    let n = img.slots();
    let mut progs: Vec<Program> = all_direct().into_iter().map(|k| k.baseline).collect();
    progs.extend(
        [
            composite::sobel_combine(n),
            composite::harris_det(n),
            composite::harris_trace(n),
        ]
        .map(|k| k.baseline),
    );
    progs.push(composite::sobel_baseline(img));
    // The same stages appended without the stitch's CSE, so `-O2`'s CSE
    // and DCE have shared gradient rotations to merge.
    let mut raw = Program::new("sobel-raw", 1, 0, Vec::new(), ValRef::Input(0));
    let ix = raw.append(&stencil::gx(img).baseline, &[ValRef::Input(0)], &[]);
    let iy = raw.append(&stencil::gy(img).baseline, &[ValRef::Input(0)], &[]);
    raw.output = raw.append(&composite::sobel_combine(n).baseline, &[ix, iy], &[]);
    progs.push(raw);
    progs.push(composite::harris_baseline(img));
    progs.push(
        reduction::synthesize_staged("dot-product", 16, &fast_synthesis_options())
            .expect("dot-product is a reduction")
            .expect("every stage synthesizes"),
    );
    progs
}

fn table() -> String {
    let mut out = String::new();
    for prog in pinned_programs() {
        writeln!(out, "== {}\n{prog}", prog.name).unwrap();
        for level in [OptLevel::O0, OptLevel::O2] {
            let (lowered, report) = optimize(&prog, level);
            writeln!(out, "-- {level}: {report}\n{lowered}").unwrap();
        }
    }
    out
}

#[test]
fn lowerings_match_golden_table() {
    let actual = table();
    let expected = include_str!("golden/lowerings.golden");
    if actual != expected {
        let out = std::env::temp_dir().join("lowerings.golden.actual");
        std::fs::write(&out, &actual).ok();
        panic!(
            "lowerings diverged from tests/golden/lowerings.golden.\n\
             New table written to {}.\n\
             If the change is intentional, copy it over the golden file.",
            out.display()
        );
    }
}
