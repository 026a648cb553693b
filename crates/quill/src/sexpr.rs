//! S-expression surface syntax for Quill programs, in the spirit of the
//! paper's Racket-embedded DSL.
//!
//! ```text
//! (kernel gx (inputs (ct 1) (pt 0))
//!   (let c1 (rot-ct c0 -5))
//!   (let c2 (add-ct-ct c1 c0))
//!   (let c3 (mul-ct-pt c2 (splat 2)))
//!   (return c3))
//! ```
//!
//! Ciphertext inputs are `c0 … c{k-1}`; instruction `i` binds `c{k+i}`;
//! plaintext inputs are `p0 …`; splat constants are `(splat v)`. The printer
//! and parser round-trip every valid program.

use crate::program::{Instr, Program, PtOperand, ValRef};
use std::error::Error;
use std::fmt;

/// Parse errors with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Atom(String, usize),
    List(Vec<Sexp>, usize),
}

impl Sexp {
    fn offset(&self) -> usize {
        match self {
            Sexp::Atom(_, o) | Sexp::List(_, o) => *o,
        }
    }
}

/// How deeply lists may nest. The grammar needs four levels (`kernel`,
/// `let`, the operation, `splat`); the cap keeps hostile input from
/// overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 32;

fn tokenize(src: &str) -> Vec<(String, usize)> {
    let is_delim = |c: char| c.is_whitespace() || c == '(' || c == ')' || c == ';';
    let mut tokens = Vec::new();
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '(' | ')' => tokens.push((c.to_string(), i)),
            ';' => while chars.next_if(|&(_, c)| c != '\n').is_some() {},
            c if c.is_whitespace() => {}
            _ => {
                let mut end = i + c.len_utf8();
                while let Some((j, c)) = chars.next_if(|&(_, c)| !is_delim(c)) {
                    end = j + c.len_utf8();
                }
                tokens.push((src[i..end].to_string(), i));
            }
        }
    }
    tokens
}

fn parse_sexp(
    tokens: &[(String, usize)],
    pos: &mut usize,
    depth: usize,
) -> Result<Sexp, ParseError> {
    let (tok, off) = tokens.get(*pos).ok_or(ParseError {
        offset: tokens.last().map(|t| t.1).unwrap_or(0),
        message: "unexpected end of input".into(),
    })?;
    *pos += 1;
    match tok.as_str() {
        "(" if depth == MAX_DEPTH => Err(err(*off, format!("lists nest deeper than {MAX_DEPTH}"))),
        "(" => {
            let mut items = Vec::new();
            loop {
                match tokens.get(*pos) {
                    Some((t, _)) if t == ")" => {
                        *pos += 1;
                        return Ok(Sexp::List(items, *off));
                    }
                    Some(_) => items.push(parse_sexp(tokens, pos, depth + 1)?),
                    None => {
                        return Err(ParseError {
                            offset: *off,
                            message: "unclosed list".into(),
                        })
                    }
                }
            }
        }
        ")" => Err(ParseError {
            offset: *off,
            message: "unexpected ')'".into(),
        }),
        _ => Ok(Sexp::Atom(tok.clone(), *off)),
    }
}

fn err(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

fn expect_atom(s: &Sexp) -> Result<(&str, usize), ParseError> {
    match s {
        Sexp::Atom(a, o) => Ok((a, *o)),
        Sexp::List(_, o) => Err(err(*o, "expected an atom")),
    }
}

/// The leading atom of the list at `offset`.
fn expect_head(list: &[Sexp], offset: usize) -> Result<(&str, usize), ParseError> {
    expect_atom(list.first().ok_or_else(|| err(offset, "empty list"))?)
}

fn parse_val_ref(name: &str, offset: usize, num_ct: usize) -> Result<ValRef, ParseError> {
    let idx: usize = name
        .strip_prefix('c')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(offset, format!("expected ciphertext name, got '{name}'")))?;
    if idx < num_ct {
        Ok(ValRef::Input(idx))
    } else {
        Ok(ValRef::Instr(idx - num_ct))
    }
}

fn parse_pt_operand(s: &Sexp) -> Result<PtOperand, ParseError> {
    match s {
        Sexp::Atom(a, o) => {
            let idx: usize = a
                .strip_prefix('p')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(*o, format!("expected plaintext name, got '{a}'")))?;
            Ok(PtOperand::Input(idx))
        }
        Sexp::List(items, o) => {
            if items.len() == 2 {
                if let (Ok(("splat", _)), Sexp::Atom(v, vo)) = (expect_atom(&items[0]), &items[1]) {
                    let value: i64 = v
                        .parse()
                        .map_err(|_| err(*vo, format!("bad splat value '{v}'")))?;
                    return Ok(PtOperand::Splat(value));
                }
            }
            Err(err(*o, "expected p<i> or (splat v)"))
        }
    }
}

/// Parses a `(kernel …)` form into a validated [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic or structural
/// problem.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src);
    let mut pos = 0;
    let top = parse_sexp(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(err(tokens[pos].1, "trailing input after kernel form"));
    }
    let items = match top {
        Sexp::List(items, _) => items,
        Sexp::Atom(_, o) => return Err(err(o, "expected (kernel …)")),
    };
    if items.len() < 3 {
        return Err(err(0, "kernel form needs a name, inputs, and a return"));
    }
    let (kw, kw_off) = expect_atom(&items[0])?;
    if kw != "kernel" {
        return Err(err(kw_off, format!("expected 'kernel', got '{kw}'")));
    }
    let (name, _) = expect_atom(&items[1])?;

    // (inputs (ct k) (pt m))
    let (num_ct, num_pt) = match &items[2] {
        Sexp::List(input_items, o) => {
            let mut ct = None;
            let mut pt = None;
            let (kw, kwo) = expect_head(input_items, *o)?;
            if kw != "inputs" {
                return Err(err(kwo, "expected (inputs …)"));
            }
            for spec in &input_items[1..] {
                if let Sexp::List(pair, po) = spec {
                    if pair.len() == 2 {
                        let (kind, _) = expect_atom(&pair[0])?;
                        let (count, co) = expect_atom(&pair[1])?;
                        let v: usize = count
                            .parse()
                            .map_err(|_| err(co, format!("bad count '{count}'")))?;
                        match kind {
                            "ct" => ct = Some(v),
                            "pt" => pt = Some(v),
                            _ => return Err(err(*po, "expected (ct k) or (pt m)")),
                        }
                        continue;
                    }
                }
                return Err(err(spec.offset(), "expected (ct k) or (pt m)"));
            }
            (
                ct.ok_or_else(|| err(*o, "missing (ct k)"))?,
                pt.unwrap_or(0),
            )
        }
        other => return Err(err(other.offset(), "expected (inputs …)")),
    };

    let mut instrs: Vec<Instr> = Vec::new();
    let mut output: Option<ValRef> = None;
    for form in &items[3..] {
        let (list, lo) = match form {
            Sexp::List(l, o) => (l, *o),
            Sexp::Atom(_, o) => return Err(err(*o, "expected (let …) or (return …)")),
        };
        let (head, ho) = expect_head(list, lo)?;
        match head {
            "let" => {
                if list.len() != 3 {
                    return Err(err(ho, "(let c<i> (op …)) takes two arguments"));
                }
                let (bind_name, bo) = expect_atom(&list[1])?;
                let next = num_ct
                    .checked_add(instrs.len())
                    .ok_or_else(|| err(bo, "too many ciphertext values"))?;
                let expected = format!("c{next}");
                if bind_name != expected {
                    return Err(err(
                        bo,
                        format!("expected binding '{expected}', got '{bind_name}'"),
                    ));
                }
                let op_list = match &list[2] {
                    Sexp::List(l, _) if !l.is_empty() => l,
                    other => return Err(err(other.offset(), "expected (op operands…)")),
                };
                let (op, oo) = expect_atom(&op_list[0])?;
                let ct_at = |i: usize| -> Result<ValRef, ParseError> {
                    let (a, o) = expect_atom(&op_list[i])?;
                    parse_val_ref(a, o, num_ct)
                };
                let instr = match op {
                    "add-ct-ct" | "sub-ct-ct" | "mul-ct-ct" => {
                        if op_list.len() != 3 {
                            return Err(err(oo, format!("{op} takes two operands")));
                        }
                        let a = ct_at(1)?;
                        let b = ct_at(2)?;
                        match op {
                            "add-ct-ct" => Instr::AddCtCt(a, b),
                            "sub-ct-ct" => Instr::SubCtCt(a, b),
                            _ => Instr::MulCtCt(a, b),
                        }
                    }
                    "add-ct-pt" | "sub-ct-pt" | "mul-ct-pt" => {
                        if op_list.len() != 3 {
                            return Err(err(oo, format!("{op} takes two operands")));
                        }
                        let a = ct_at(1)?;
                        let p = parse_pt_operand(&op_list[2])?;
                        match op {
                            "add-ct-pt" => Instr::AddCtPt(a, p),
                            "sub-ct-pt" => Instr::SubCtPt(a, p),
                            _ => Instr::MulCtPt(a, p),
                        }
                    }
                    "rot-ct" => {
                        if op_list.len() != 3 {
                            return Err(err(oo, "rot-ct takes a ciphertext and an amount"));
                        }
                        let a = ct_at(1)?;
                        let (amt, ao) = expect_atom(&op_list[2])?;
                        let r: i64 = amt
                            .parse()
                            .map_err(|_| err(ao, format!("bad rotation '{amt}'")))?;
                        Instr::RotCt(a, r)
                    }
                    "relin-ct" => {
                        if op_list.len() != 2 {
                            return Err(err(oo, "relin-ct takes one ciphertext"));
                        }
                        Instr::Relin(ct_at(1)?)
                    }
                    _ => return Err(err(oo, format!("unknown opcode '{op}'"))),
                };
                instrs.push(instr);
            }
            "return" => {
                if list.len() != 2 {
                    return Err(err(ho, "(return c<i>) takes one argument"));
                }
                let (a, o) = expect_atom(&list[1])?;
                output = Some(parse_val_ref(a, o, num_ct)?);
            }
            _ => return Err(err(ho, format!("expected 'let' or 'return', got '{head}'"))),
        }
    }
    let output = output.ok_or_else(|| err(0, "kernel has no (return …)"))?;
    let prog = Program::new(name, num_ct, num_pt, instrs, output);
    prog.validate()
        .map_err(|e| err(0, format!("invalid program: {e}")))?;
    Ok(prog)
}

fn val_name(r: ValRef, num_ct: usize) -> String {
    match r {
        ValRef::Input(i) => format!("c{i}"),
        ValRef::Instr(j) => format!("c{}", num_ct + j),
    }
}

fn pt_name(p: &PtOperand) -> String {
    match p {
        PtOperand::Input(i) => format!("p{i}"),
        PtOperand::Splat(v) => format!("(splat {v})"),
    }
}

/// Writes a program in the surface syntax (used by `Display` on
/// [`Program`]).
pub fn write_program(f: &mut fmt::Formatter<'_>, prog: &Program) -> fmt::Result {
    writeln!(
        f,
        "(kernel {} (inputs (ct {}) (pt {}))",
        prog.name, prog.num_ct_inputs, prog.num_pt_inputs
    )?;
    let k = prog.num_ct_inputs;
    for (i, instr) in prog.instrs.iter().enumerate() {
        let bind = format!("c{}", k + i);
        let body = match instr {
            Instr::AddCtCt(a, b) => format!("add-ct-ct {} {}", val_name(*a, k), val_name(*b, k)),
            Instr::SubCtCt(a, b) => format!("sub-ct-ct {} {}", val_name(*a, k), val_name(*b, k)),
            Instr::MulCtCt(a, b) => format!("mul-ct-ct {} {}", val_name(*a, k), val_name(*b, k)),
            Instr::AddCtPt(a, p) => format!("add-ct-pt {} {}", val_name(*a, k), pt_name(p)),
            Instr::SubCtPt(a, p) => format!("sub-ct-pt {} {}", val_name(*a, k), pt_name(p)),
            Instr::MulCtPt(a, p) => format!("mul-ct-pt {} {}", val_name(*a, k), pt_name(p)),
            Instr::RotCt(a, r) => format!("rot-ct {} {}", val_name(*a, k), r),
            Instr::Relin(a) => format!("relin-ct {}", val_name(*a, k)),
        };
        writeln!(f, "  (let {bind} ({body}))")?;
    }
    writeln!(f, "  (return {}))", val_name(prog.output, k))
}

/// Renders a program to a `String` in the surface syntax.
pub fn to_string(prog: &Program) -> String {
    format!("{prog}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const GX: &str = "\
; Figure 6a, synthesized Gx
(kernel gx (inputs (ct 1) (pt 0))
  (let c1 (rot-ct c0 -5))
  (let c2 (add-ct-ct c0 c1))
  (let c3 (rot-ct c2 5))
  (let c4 (add-ct-ct c2 c3))
  (let c5 (rot-ct c4 -1))
  (let c6 (rot-ct c4 1))
  (let c7 (sub-ct-ct c6 c5))
  (return c7))";

    #[test]
    fn parses_figure_6a() {
        let p = parse_program(GX).unwrap();
        assert_eq!(p.name, "gx");
        assert_eq!(p.len(), 7);
        assert_eq!(p.logic_depth(), 6); // Table 2: synthesized Gx depth 6
        assert_eq!(p.rotation_amounts(), vec![-5, -1, 1, 5]);
    }

    #[test]
    fn roundtrips() {
        let p = parse_program(GX).unwrap();
        let printed = to_string(&p);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn roundtrips_pt_operands() {
        let src = "(kernel k (inputs (ct 1) (pt 2))
          (let c1 (mul-ct-pt c0 p1))
          (let c2 (add-ct-pt c1 (splat -3)))
          (return c2))";
        let p = parse_program(src).unwrap();
        let reparsed = parse_program(&to_string(&p)).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn reports_unknown_opcode() {
        let src = "(kernel k (inputs (ct 1) (pt 0)) (let c1 (frobnicate c0 c0)) (return c1))";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("frobnicate"), "{e}");
    }

    #[test]
    fn reports_wrong_binding_name() {
        let src = "(kernel k (inputs (ct 1) (pt 0)) (let c5 (rot-ct c0 1)) (return c5))";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("expected binding 'c1'"), "{e}");
    }

    #[test]
    fn reports_structural_errors() {
        // use-before-def caught by validation
        let src = "(kernel k (inputs (ct 1) (pt 0)) (let c1 (rot-ct c2 1)) (return c1))";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("invalid program"), "{e}");
    }

    #[test]
    fn reports_unclosed_list() {
        let e = parse_program("(kernel k (inputs (ct 1) (pt 0)").unwrap_err();
        assert!(e.message.contains("unclosed"), "{e}");
    }

    /// Hostile text is a parse error, never a panic or a stack overflow:
    /// empty lists where a head is expected, a UTF-8 character whose
    /// continuation byte reads as Latin-1 whitespace, nesting past the
    /// depth cap, and a binding index past `usize::MAX`.
    #[test]
    fn hostile_text_is_an_error() {
        let deep = "(".repeat(200_000);
        let max = usize::MAX;
        let overflow = format!(
            "(kernel k (inputs (ct {max})) (let c{max} (rot-ct c0 1)) (let c0 (rot-ct c0 1)))"
        );
        for src in [
            "(kernel k ())",
            "(kernel k (inputs (ct 1)) ())",
            "(kernel \u{e0} (inputs (ct 1)) (return c0) \u{e0})",
            "(kernel k\u{85} (inputs (ct 1)) (return c0))x",
            &deep,
            &overflow,
        ] {
            assert!(parse_program(src).is_err(), "{src:.60}");
        }
        // Non-ASCII names are still atoms.
        let p = parse_program("(kernel \u{e0}-blur (inputs (ct 1)) (return c0))").unwrap();
        assert_eq!(p.name, "\u{e0}-blur");
    }

    #[test]
    fn comments_are_ignored() {
        let src = "; header\n(kernel k (inputs (ct 1) (pt 0)) ; inline\n (return c0))";
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 0);
        assert_eq!(p.output, ValRef::Input(0));
    }
}
