//! Property-based tests for Quill: random programs must satisfy the
//! fundamental relationships between the concrete interpreter, the symbolic
//! interpreter, the depth analyses, and the surface syntax.

use proptest::prelude::*;
use quill::interp;
use quill::program::Program;
use quill::sexpr::{parse_program, to_string};
use test_support::T;

const N: usize = 6;

/// A random valid single-input program — the shared workspace generator,
/// which covers the full instruction set including `relin-ct` (placed only
/// over statically size-3 values).
fn arb_program(max_len: usize) -> impl Strategy<Value = Program> {
    test_support::arb_program(1, max_len)
}

/// Surface-syntax fragments, so random text reaches past the tokenizer
/// into the form parser, plus Latin-1 whitespace and accented letters.
const PIECES: &[&str] = &[
    "(",
    ")",
    "(",
    ")",
    " ",
    "\n",
    ";",
    "kernel",
    "inputs",
    "ct",
    "pt",
    "let",
    "return",
    "splat",
    "c0",
    "c1",
    "c2",
    "p0",
    "1",
    "-3",
    "18446744073709551615",
    "rot-ct",
    "add-ct-ct",
    "mul-ct-ct",
    "mul-ct-pt",
    "relin-ct",
    "\u{e0}",
    "\u{85}",
    "\u{a0}",
];

/// Arbitrary text: grammar fragments and arbitrary `char`s, non-ASCII
/// included, sometimes behind a well-formed kernel header.
fn arb_text() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        prop::collection::vec((any::<u32>(), any::<bool>()), 0..64),
    )
        .prop_map(|(header, parts)| {
            let mut src = String::new();
            if header {
                src.push_str("(kernel k (inputs (ct 2) (pt 1)) ");
            }
            for (x, raw) in parts {
                match raw {
                    true => src.push(char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}')),
                    false => src.push_str(PIECES[x as usize % PIECES.len()]),
                }
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The parser returns `Ok` or `Err` on any text; it never panics.
    #[test]
    fn parser_never_panics_on_arbitrary_text(src in arb_text()) {
        if let Ok(prog) = parse_program(&src) {
            prop_assert!(prog.validate().is_ok());
        }
    }

    #[test]
    fn random_programs_validate(prog in arb_program(8)) {
        prop_assert!(prog.validate().is_ok());
    }

    #[test]
    fn symbolic_predicts_concrete(prog in arb_program(6),
                                  input in prop::collection::vec(0u64..T, N)) {
        let sym = interp::eval_symbolic(&prog, N, T);
        let conc = interp::eval_concrete(&prog, std::slice::from_ref(&input), &[], T);
        for (slot, poly) in sym.iter().enumerate() {
            let v = poly.eval(&|var| input[var as usize % N]);
            prop_assert_eq!(v, conc[slot], "slot {}", slot);
        }
    }

    #[test]
    fn sexpr_roundtrip(prog in arb_program(8)) {
        let printed = to_string(&prog);
        let reparsed = parse_program(&printed).expect("printed programs parse");
        prop_assert_eq!(reparsed, prog);
    }

    #[test]
    fn dce_preserves_semantics(prog in arb_program(8),
                               input in prop::collection::vec(0u64..T, N)) {
        let clean = prog.eliminate_dead_code();
        prop_assert!(clean.validate().is_ok());
        prop_assert!(clean.len() <= prog.len());
        let before = interp::eval_concrete(&prog, std::slice::from_ref(&input), &[], T);
        let after = interp::eval_concrete(&clean, &[input], &[], T);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn cse_preserves_semantics(prog in arb_program(8),
                               input in prop::collection::vec(0u64..T, N)) {
        let merged = prog.cse();
        prop_assert!(merged.validate().is_ok());
        prop_assert!(merged.len() <= prog.len());
        let before = interp::eval_concrete(&prog, std::slice::from_ref(&input), &[], T);
        let after = interp::eval_concrete(&merged, &[input], &[], T);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn mult_depth_bounds_logic_depth(prog in arb_program(8)) {
        prop_assert!((prog.mult_depth() as usize) <= prog.logic_depth());
    }

    /// The static analyses agree with the IR rules: every `relin-ct` sits
    /// on a size-3 value and produces size 2, and the per-value level at
    /// the output is exactly the program's multiplicative depth.
    #[test]
    fn size_and_level_analyses_are_consistent(prog in arb_program(8)) {
        use quill::program::{Instr, ValRef};
        let sizes = quill::analysis::ct_sizes(&prog);
        let levels = quill::analysis::ct_levels(&prog);
        for (i, instr) in prog.instrs.iter().enumerate() {
            if let Instr::Relin(a) = instr {
                prop_assert_eq!(quill::analysis::size_of(&sizes, *a), 3);
                prop_assert_eq!(sizes[i], 2);
            }
        }
        let out_level = match prog.output {
            ValRef::Input(_) => 0,
            ValRef::Instr(j) => levels[j],
        };
        prop_assert_eq!(out_level, prog.mult_depth());
    }

    #[test]
    fn rotation_by_n_is_identity(input in prop::collection::vec(0u64..T, N)) {
        let rotated = interp::rotate_left(&input, N as i64);
        prop_assert_eq!(rotated, input);
    }

    #[test]
    fn rotations_compose(input in prop::collection::vec(0u64..T, N),
                         r1 in -10i64..10, r2 in -10i64..10) {
        let double = interp::rotate_left(&interp::rotate_left(&input, r1), r2);
        let single = interp::rotate_left(&input, r1 + r2);
        prop_assert_eq!(double, single);
    }
}
