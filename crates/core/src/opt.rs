//! The optimizing middle-end: semantics-preserving rewrites between
//! synthesis and codegen.
//!
//! The compiler is organized as **synthesize → optimize → lower**. The
//! CEGIS searcher emits Quill programs with *no* explicit relinearization
//! (relin placement is not part of the paper's search space); this module
//! turns them into backend-legal IR — every rotation/multiply operand and
//! the program output statically size 2 ([`quill::analysis`]) — and, at
//! higher `-O` levels, into *cheaper* IR. [`crate::codegen`] then lowers
//! instruction-for-instruction.
//!
//! # Passes
//!
//! | pass | rewrite |
//! |---|---|
//! | [`EagerRelin`] | insert `relin-ct` immediately after every `mul-ct-ct` (the paper's §5.3 lowering; what `-O0` executes) |
//! | [`Cse`] | global value-numbering CSE over syntactically identical instructions — subsumes the cross-stage rotation sharing multi-step composition needs |
//! | [`RotFold`] | `rot(rot(x,a),b) → rot(x,a+b)`; a chain folding to offset 0 becomes a copy of `x` (identity rotations never reach the IR) |
//! | [`LazyRelin`] | re-place relinearizations minimally: a size-3 value is relinearized only where a rotation or multiply consumes it or where it escapes as the program output; additions, subtractions, and plaintext ops operate on size-3 ciphertexts directly |
//! | [`Dce`] | drop instructions unreachable from the output |
//!
//! Every pass preserves the interpreter semantics exactly (`relin-ct` is
//! the identity on slots) and BFV decryption bit-for-bit (relinearization
//! and rotation-chain folding change ciphertext *representation* and noise,
//! never the decrypted slots, given adequate noise budget). Each pass
//! states only its rule for what replaces an instruction;
//! [`Program::rebuild`] maps the operands and the output.
//!
//! # Levels
//!
//! * `-O0` — [`EagerRelin`] only: byte-for-byte today's backend behavior
//!   (multiply, then relinearize, for every ct×ct product).
//! * `-O2` — [`Cse`] → [`RotFold`] → [`LazyRelin`] → [`Dce`], iterated to a
//!   fixpoint.
//!
//! [`optimize_with`] drives a level's fixed pass list to a fixpoint (a full
//! sweep with zero rewrites) and records per-pass rewrite counts in an
//! [`OptReport`]; re-optimizing an already-optimized program is a fixpoint
//! with zero rewrites, which CI checks. [`optimize_for`] adds the step
//! every driver takes next: resolving the scheme parameters against the
//! lowered program.

use quill::analysis;
use quill::program::{Instr, Program, ValRef};
use quill::scheme::{SchemeId, SchemeLegality};
use rlwe_ring::params::{ParamPolicy, RlweParams, SelectError};
use std::collections::HashMap;
use std::fmt;

/// Optimization level for the middle-end pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Eager relinearization only — reproduces the pre-middle-end compiler
    /// exactly.
    O0,
    /// The full pipeline: CSE, rotation folding, lazy relinearization, DCE,
    /// to a fixpoint.
    O2,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O2 => write!(f, "O2"),
        }
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim_start_matches("-").trim_start_matches(['O', 'o']) {
            "0" => Ok(OptLevel::O0),
            "2" => Ok(OptLevel::O2),
            _ => Err(format!("unknown opt level '{s}' (expected 0 or 2)")),
        }
    }
}

/// One rewrite pass over a Quill program.
///
/// The contract: `run` returns a semantics-equivalent program (identical
/// interpreter outputs on every input, identical BFV decryptions) and a
/// rewrite count that is zero **iff** the returned program equals the
/// input — this is what makes the fixpoint driver and the idempotence
/// check sound.
pub trait Pass {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Rewrites `prog`, returning the new program and how many rewrites
    /// were applied (0 ⟺ unchanged).
    fn run(&self, prog: &Program) -> (Program, usize);
}

/// Returns `(program, count)` with the rewrite-count contract enforced: a
/// result equal to the input reports zero rewrites.
fn counted(input: &Program, result: Program, count: usize) -> (Program, usize) {
    if result == *input {
        (result, 0)
    } else {
        (result, count.max(1))
    }
}

/// Removes every `relin-ct`, aliasing its uses to the operand. Slot
/// semantics are unchanged (relin is the identity); the result is
/// generally *not* backend-legal until a relin-placement pass runs.
fn strip_relins(prog: &Program) -> Program {
    prog.rebuild(|_, instr, out| match instr {
        Instr::Relin(a) => a,
        other => out.push(other),
    })
}

/// Inserts a `relin-ct` immediately after every `mul-ct-ct` — the paper's
/// §5.3 codegen rule, now explicit in the IR. Existing relins are stripped
/// first, so the pass is idempotent and canonical.
pub struct EagerRelin;

impl Pass for EagerRelin {
    fn name(&self) -> &'static str {
        "eager-relin"
    }

    fn run(&self, prog: &Program) -> (Program, usize) {
        let result = strip_relins(prog).rebuild(|_, instr, out| {
            let is_mul = matches!(instr, Instr::MulCtCt(..));
            let val = out.push(instr);
            if is_mul {
                out.push(Instr::Relin(val))
            } else {
                val
            }
        });
        let inserted = result.relin_count();
        counted(prog, result, inserted)
    }
}

/// Global common-subexpression elimination: syntactically identical
/// instructions (after canonicalizing operands) share one definition. This
/// is what makes multi-step pipeline stages share rotations — duplicate
/// `rot-ct` of the same input across two appended stages collapses to one.
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, prog: &Program) -> (Program, usize) {
        let merged = prog.cse();
        let count = prog.len().saturating_sub(merged.len());
        counted(prog, merged, count)
    }
}

/// Rotation canonicalization: folds `rot(rot(x, a), b)` into
/// `rot(x, a + b)` (rotation composition is exact at every slot count) and
/// replaces chains whose net offset is zero with the unrotated value.
/// The inner rotation, if now unused, is removed by [`Dce`].
pub struct RotFold;

impl Pass for RotFold {
    fn name(&self) -> &'static str {
        "rot-fold"
    }

    fn run(&self, prog: &Program) -> (Program, usize) {
        let mut folds = 0usize;
        let result = prog.rebuild(|_, instr, out| match instr {
            Instr::RotCt(a, r) => {
                // Look through an inner rotation already emitted.
                let (base, total) = match a {
                    ValRef::Instr(j) => match out.instrs[j] {
                        Instr::RotCt(inner, s) => (inner, r + s),
                        _ => (a, r),
                    },
                    _ => (a, r),
                };
                if (base, total) != (a, r) {
                    folds += 1;
                }
                if total == 0 {
                    base
                } else {
                    out.push(Instr::RotCt(base, total))
                }
            }
            other => out.push(other),
        });
        counted(prog, result, folds)
    }
}

/// Lazy relinearization: strips every existing `relin-ct` and re-places a
/// set that is never larger than the eager one. A size-3 value flows
/// freely through additions, subtractions, and plaintext ops and must be
/// size 2 only where a rotation or multiply consumes it, or where it
/// escapes as the program output.
///
/// Placement works per weakly-connected component of the *size-3 flow
/// graph* (multiply results are sources; add/sub/plaintext ops propagate;
/// rotation/multiply operands and the output are sinks). Each component is
/// cut at whichever end is cheaper:
///
/// * **sink cut** — relinearize each needy value right before its first
///   needy use, shared by all later consumers. An add-chain over several
///   multiply results thus pays a *single* relin at the end.
/// * **source cut** — relinearize each multiply right after it. A single
///   multiply result feeding *several* independently-consumed size-3
///   chains pays one relin at the source instead of one per chain.
///
/// Per component the chosen cut is `min(sources, sinks)` relins, and
/// sources ≡ the component's multiplies — so the pass never emits more
/// relins than [`EagerRelin`], which keeps `-O2` uniformly no worse than
/// `-O0` (the `o2_never_costs_more_than_o0` property in
/// `tests/opt_properties.rs`).
pub struct LazyRelin;

/// Union-find over instruction indices (the size-3 flow components).
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl LazyRelin {
    /// Decides, per size-3 flow component, whether to cut at the sources
    /// (multiplies) or the sinks (needy uses). Returns the set of
    /// instruction indices to relinearize *at the definition*.
    fn source_cut_defs(stripped: &Program) -> std::collections::HashSet<usize> {
        let n = stripped.instrs.len();
        // Sizes assuming relins will be placed wherever needed: rotation
        // results are size 2 (their operand gets relinearized), so only
        // add/sub/plaintext ops propagate size 3 out of a multiply.
        let mut size = vec![2u8; n];
        let mut parent: Vec<usize> = (0..n).collect();
        let sz = |r: ValRef, size: &[u8]| match r {
            ValRef::Input(_) => 2,
            ValRef::Instr(j) => size[j],
        };
        for (i, instr) in stripped.instrs.iter().enumerate() {
            size[i] = match instr {
                // A rotation's operand will be relinearized before the
                // rotation runs, so unlike the raw transfer rule its
                // result is size 2 in this forward-looking view.
                Instr::RotCt(..) => 2,
                _ => analysis::instr_result_size(instr, |r| sz(r, &size)),
            };
            // Flow edges exist only through propagation ops: a multiply's
            // size-3 operand is a *sink* (it will be relinearized before
            // the multiply), not part of this value's component.
            let propagates = matches!(
                instr,
                Instr::AddCtCt(..)
                    | Instr::SubCtCt(..)
                    | Instr::AddCtPt(..)
                    | Instr::SubCtPt(..)
                    | Instr::MulCtPt(..)
            );
            if size[i] == 3 && propagates {
                for op in instr.ct_operands() {
                    if let ValRef::Instr(j) = op {
                        if size[j] == 3 {
                            let (a, b) = (uf_find(&mut parent, i), uf_find(&mut parent, j));
                            parent[a] = b;
                        }
                    }
                }
            }
        }
        // Count sources (multiplies) and sinks (distinct needy size-3
        // values) per component.
        let mut sources: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut sinks: HashMap<usize, std::collections::HashSet<usize>> = HashMap::new();
        for (i, instr) in stripped.instrs.iter().enumerate() {
            if matches!(instr, Instr::MulCtCt(..)) {
                let root = uf_find(&mut parent, i);
                sources.entry(root).or_default().push(i);
            }
            let needy = |r: &ValRef| matches!(r, ValRef::Instr(j) if size[*j] == 3);
            match instr {
                Instr::RotCt(a, _) if needy(a) => {
                    if let ValRef::Instr(j) = a {
                        let root = uf_find(&mut parent, *j);
                        sinks.entry(root).or_default().insert(*j);
                    }
                }
                Instr::MulCtCt(a, b) => {
                    for op in [a, b] {
                        if needy(op) {
                            if let ValRef::Instr(j) = op {
                                let root = uf_find(&mut parent, *j);
                                sinks.entry(root).or_default().insert(*j);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if let ValRef::Instr(j) = stripped.output {
            if size[j] == 3 {
                let root = uf_find(&mut parent, j);
                sinks.entry(root).or_default().insert(j);
            }
        }
        let mut defs = std::collections::HashSet::new();
        for (root, srcs) in &sources {
            let sink_count = sinks.get(root).map(|s| s.len()).unwrap_or(0);
            // No sinks: the component never needs a relin (dead size-3
            // values; DCE cleans them up). Otherwise cut at the cheaper
            // end, preferring the sink cut on ties (it defers noise from
            // the key switch and matches the add-chain pin).
            if sink_count > 0 && srcs.len() < sink_count {
                defs.extend(srcs.iter().copied());
            }
        }
        defs
    }
}

impl Pass for LazyRelin {
    fn name(&self) -> &'static str {
        "lazy-relin"
    }

    fn run(&self, prog: &Program) -> (Program, usize) {
        let stripped = strip_relins(prog);
        let relin_at_def = LazyRelin::source_cut_defs(&stripped);
        // Size of every value of the program being built (indexed per
        // emitted instruction).
        let mut sizes: Vec<u8> = Vec::new();
        // Raw new form → its relinearized form, once forced.
        let mut relinned: HashMap<ValRef, ValRef> = HashMap::new();

        fn size_of(r: ValRef, sizes: &[u8]) -> u8 {
            match r {
                ValRef::Input(_) => 2,
                ValRef::Instr(j) => sizes[j],
            }
        }
        // Resolves an operand that MUST be size 2: its relinearized form
        // if a consumer already forced one, else a relin inserted right
        // before this consumer and shared by every later one.
        fn force2(
            raw: ValRef,
            out: &mut Program,
            sizes: &mut Vec<u8>,
            relinned: &mut HashMap<ValRef, ValRef>,
        ) -> ValRef {
            if size_of(raw, sizes) < 3 {
                return raw;
            }
            *relinned.entry(raw).or_insert_with(|| {
                sizes.push(2);
                out.push(Instr::Relin(raw))
            })
        }

        let mut result = stripped.rebuild(|idx, instr, out| {
            let instr = match instr {
                Instr::RotCt(a, r) => Instr::RotCt(force2(a, out, &mut sizes, &mut relinned), r),
                Instr::MulCtCt(a, b) => {
                    let a = force2(a, out, &mut sizes, &mut relinned);
                    let b = force2(b, out, &mut sizes, &mut relinned);
                    Instr::MulCtCt(a, b)
                }
                // Tolerant uses prefer the relinearized form when a prior
                // consumer already paid for it (it is never worse).
                other => other.map_ct_operands(|r| relinned.get(&r).copied().unwrap_or(r)),
            };
            sizes.push(analysis::instr_result_size(&instr, |r| size_of(r, &sizes)));
            let val = out.push(instr);
            // Source-cut component: relinearize right after the multiply;
            // every later use reads the size-2 form.
            if relin_at_def.contains(&idx) {
                sizes.push(2);
                out.push(Instr::Relin(val))
            } else {
                val
            }
        });
        result.output = force2(result.output, &mut result, &mut sizes, &mut relinned);
        debug_assert!(analysis::check_backend_legal(&result).is_ok());
        let rewrites = prog.relin_count() + result.relin_count();
        counted(prog, result, rewrites)
    }
}

/// Dead-code elimination: drops instructions whose results cannot reach
/// the output.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, prog: &Program) -> (Program, usize) {
        let clean = prog.eliminate_dead_code();
        let count = prog.len().saturating_sub(clean.len());
        counted(prog, clean, count)
    }
}

/// Rewrite counts of one optimization run, per pass (summed over fixpoint
/// sweeps) plus the sweep count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptReport {
    /// `(pass name, rewrites applied)` in pipeline order.
    pub passes: Vec<(&'static str, usize)>,
    /// Full sweeps of the pipeline (the last sweep applies zero rewrites
    /// unless the sweep cap was hit).
    pub sweeps: usize,
    /// Total rewrites across all passes and sweeps.
    pub total_rewrites: usize,
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rewrites in {} sweep(s):",
            self.total_rewrites, self.sweeps
        )?;
        for (name, n) in &self.passes {
            write!(f, " {name}={n}")?;
        }
        Ok(())
    }
}

/// Sweeps `passes` in order until a full sweep applies zero rewrites (or
/// the sweep cap fires — a backstop; the shipped pipelines converge in one
/// or two sweeps).
///
/// # Panics
///
/// Panics (debug builds) if a pass produces a structurally invalid program.
fn run_to_fixpoint(passes: &[&dyn Pass], prog: &Program) -> (Program, OptReport) {
    const MAX_SWEEPS: usize = 8;
    let mut current = prog.clone();
    let mut totals: Vec<(&'static str, usize)> = passes.iter().map(|p| (p.name(), 0)).collect();
    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut sweep_rewrites = 0usize;
        for (i, pass) in passes.iter().enumerate() {
            let (next, n) = pass.run(&current);
            debug_assert!(
                next.validate().is_ok(),
                "pass {} produced an invalid program: {:?}",
                pass.name(),
                next.validate()
            );
            totals[i].1 += n;
            sweep_rewrites += n;
            current = next;
        }
        if sweep_rewrites == 0 || sweeps >= MAX_SWEEPS {
            break;
        }
    }
    let total_rewrites = totals.iter().map(|(_, n)| n).sum();
    (
        current,
        OptReport {
            passes: totals,
            sweeps,
            total_rewrites,
        },
    )
}

/// Optimizes and lowers `prog` at `level` for the full instruction set.
/// The result is backend-legal (every `-O` pipeline ends with
/// relinearizations placed), agrees with `prog` on every interpreter
/// input, and decrypts identically on any shipped scheme backend.
pub fn optimize(prog: &Program, level: OptLevel) -> (Program, OptReport) {
    optimize_with(prog, level, &SchemeLegality::full())
}

/// Optimizes and lowers `prog` at `level` for a scheme with the given
/// instruction-set legality.
///
/// When the scheme lacks relinearization (`!legality.relin`), the
/// relin-placement passes ([`EagerRelin`], [`LazyRelin`]) are omitted
/// entirely — inserting a `relin-ct` the backend cannot run would trade a
/// legal program for an illegal one. The remaining passes ([`Cse`],
/// [`RotFold`], [`Dce`]) never introduce instructions absent from the
/// input, so they are safe under any legality.
///
/// When the scheme supports relinearization, the output is guaranteed
/// backend-legal (debug-asserted). Without relin support a program whose
/// multiplies genuinely need relinearization comes out *reported* illegal
/// by [`quill::analysis::check_backend_legal_with`] rather than silently
/// rewritten — the caller decides whether that is a hard error.
pub fn optimize_with(
    prog: &Program,
    level: OptLevel,
    legality: &SchemeLegality,
) -> (Program, OptReport) {
    let passes: &[&dyn Pass] = match (level, legality.relin) {
        (OptLevel::O0, true) => &[&EagerRelin],
        (OptLevel::O0, false) => &[],
        (OptLevel::O2, true) => &[&Cse, &RotFold, &LazyRelin, &Dce],
        (OptLevel::O2, false) => &[&Cse, &RotFold, &Dce],
    };
    let (out, report) = run_to_fixpoint(passes, prog);
    if legality.relin {
        debug_assert!(
            analysis::check_backend_legal_with(&out, legality).is_ok(),
            "{level} pipeline left an illegal program: {:?}",
            analysis::check_backend_legal_with(&out, legality)
        );
    }
    (out, report)
}

/// Lowers `prog` at `level` under `scheme`'s legality, then resolves
/// `policy` against the lowered program under that scheme's noise model,
/// needing `min_slots` batching slots and plaintext modulus `t` — so what
/// executes (lazy relins, shared rotations across stage seams) is what
/// gets charged.
///
/// A resolution failure is returned alongside the lowered program, not
/// instead of it: callers that pick parameters some other way lose
/// nothing.
pub fn optimize_for(
    prog: &Program,
    scheme: SchemeId,
    level: OptLevel,
    policy: &ParamPolicy,
    min_slots: usize,
    t: u64,
) -> (Program, OptReport, Result<RlweParams, SelectError>) {
    let (lowered, report) = optimize_with(prog, level, &scheme.legality());
    let params = crate::scheme::resolve_params(scheme, policy, &lowered, min_slots, t);
    (lowered, report, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill::interp;
    use quill::program::PtOperand;

    const T: u64 = 65537;

    fn assert_same_semantics(a: &Program, b: &Program, n: usize) {
        let ct: Vec<Vec<u64>> = (0..a.num_ct_inputs)
            .map(|j| {
                (0..n)
                    .map(|i| (31 * j as u64 + 7 * i as u64 + 3) % T)
                    .collect()
            })
            .collect();
        let pt: Vec<Vec<u64>> = (0..a.num_pt_inputs)
            .map(|j| {
                (0..n)
                    .map(|i| (17 * j as u64 + 5 * i as u64 + 1) % T)
                    .collect()
            })
            .collect();
        assert_eq!(
            interp::eval_concrete(a, &ct, &pt, T),
            interp::eval_concrete(b, &ct, &pt, T),
            "{} vs {}",
            a.name,
            b.name
        );
    }

    /// mul → relin after every multiply, exactly the old codegen rule.
    #[test]
    fn eager_relin_matches_the_paper_lowering() {
        let raw = Program::new(
            "sq-sum",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
                Instr::MulCtCt(ValRef::Input(1), ValRef::Input(1)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Instr(1)),
            ],
            ValRef::Instr(2),
        );
        let (o0, report) = optimize(&raw, OptLevel::O0);
        assert_eq!(o0.relin_count(), 2);
        assert_eq!(o0.len(), 5);
        // Each relin directly follows its multiply.
        assert_eq!(o0.instrs[1], Instr::Relin(ValRef::Instr(0)));
        assert_eq!(o0.instrs[3], Instr::Relin(ValRef::Instr(2)));
        assert!(report.total_rewrites > 0);
        assert_same_semantics(&raw, &o0, 4);
        assert!(quill::analysis::check_backend_legal(&o0).is_ok());
    }

    /// The "relin sunk past an add chain" pin: a² + b² pays one relin at
    /// the output instead of one per multiply.
    #[test]
    fn lazy_relin_sinks_past_an_add_chain() {
        let raw = Program::new(
            "sq-sum",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
                Instr::MulCtCt(ValRef::Input(1), ValRef::Input(1)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Instr(1)),
            ],
            ValRef::Instr(2),
        );
        let (o2, _) = optimize(&raw, OptLevel::O2);
        assert_eq!(o2.relin_count(), 1, "\n{o2}");
        // The single relin consumes the add-chain result and is the output.
        assert_eq!(*o2.instrs.last().unwrap(), Instr::Relin(ValRef::Instr(2)));
        assert_eq!(o2.output, ValRef::Instr(3));
        assert_same_semantics(&raw, &o2, 4);
        assert!(quill::analysis::check_backend_legal(&o2).is_ok());
    }

    /// The diamond counter-case to naive consume-site placement: one
    /// multiply feeding two independently rotated add-chains must pay one
    /// relin at the source, not one per chain — lazy placement is never
    /// allowed to exceed eager.
    #[test]
    fn lazy_relin_cuts_shared_multiplies_at_the_source() {
        let raw = Program::new(
            "diamond",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Input(0)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Input(1)),
                Instr::RotCt(ValRef::Instr(1), 1),
                Instr::RotCt(ValRef::Instr(2), 2),
                Instr::AddCtCt(ValRef::Instr(3), ValRef::Instr(4)),
            ],
            ValRef::Instr(5),
        );
        let (o0, _) = optimize(&raw, OptLevel::O0);
        let (o2, _) = optimize(&raw, OptLevel::O2);
        assert_eq!(o0.relin_count(), 1);
        assert_eq!(o2.relin_count(), 1, "\n{o2}");
        assert!(o2.len() <= o0.len());
        // The relin sits at the multiply, before the chains fork.
        assert_eq!(o2.instrs[1], Instr::Relin(ValRef::Instr(0)));
        assert_same_semantics(&raw, &o2, 4);
    }

    /// A multiply whose result is rotated still relinearizes before the
    /// rotation, and one relin is shared by every later consumer.
    #[test]
    fn lazy_relin_is_forced_by_rotation_and_shared() {
        let raw = Program::new(
            "rot-of-mul",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::RotCt(ValRef::Instr(0), 1),
                Instr::RotCt(ValRef::Instr(0), 2),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
            ],
            ValRef::Instr(3),
        );
        let (o2, _) = optimize(&raw, OptLevel::O2);
        assert_eq!(o2.relin_count(), 1, "\n{o2}");
        assert_same_semantics(&raw, &o2, 4);
        assert!(quill::analysis::check_backend_legal(&o2).is_ok());
    }

    /// The "duplicate rotation across two pipeline stages" pin: appending
    /// two stages that each rotate the same input leaves two identical
    /// `rot-ct`s; global CSE at `-O2` shares one.
    #[test]
    fn cse_shares_rotations_across_appended_stages() {
        let stage = Program::new(
            "shift-sum",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        // Compose without the builder's CSE: stage(x) and stage(x) summed.
        let mut p = Program::new("two-stages", 1, 0, Vec::new(), ValRef::Input(0));
        let a = p.append(&stage, &[ValRef::Input(0)], &[]);
        let b = p.append(&stage, &[ValRef::Input(0)], &[]);
        let out = p.append(
            &Program::new(
                "add",
                2,
                0,
                vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1))],
                ValRef::Instr(0),
            ),
            &[a, b],
            &[],
        );
        p.output = out;
        assert_eq!(p.rot_count(), 2);
        let (o2, _) = optimize(&p, OptLevel::O2);
        assert_eq!(o2.rot_count(), 1, "\n{o2}");
        assert_same_semantics(&p, &o2, 4);
    }

    /// The "identity rotation removed" pin: `rot(rot(x, 2), -2)` folds to
    /// the unrotated value; partial chains fold to one rotation.
    #[test]
    fn rotation_chains_fold_and_identities_vanish() {
        let raw = Program::new(
            "rot-chain",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 2),
                Instr::RotCt(ValRef::Instr(0), -2),
                Instr::AddCtPt(ValRef::Instr(1), PtOperand::Splat(1)),
                Instr::RotCt(ValRef::Instr(2), 1),
                Instr::RotCt(ValRef::Instr(3), 2),
            ],
            ValRef::Instr(4),
        );
        let (o2, _) = optimize(&raw, OptLevel::O2);
        // rot(2)/rot(-2) cancel entirely; rot(1)/rot(2) fold to rot(3).
        assert_eq!(o2.rot_count(), 1, "\n{o2}");
        assert_eq!(o2.instrs[1], Instr::RotCt(ValRef::Instr(0), 3));
        assert_same_semantics(&raw, &o2, 6);
    }

    /// Re-optimizing optimized output is a fixpoint with zero rewrites, at
    /// every level.
    #[test]
    fn optimization_is_idempotent() {
        let raw = Program::new(
            "mixed",
            2,
            1,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Instr(0), 2),
                Instr::MulCtCt(ValRef::Instr(1), ValRef::Input(1)),
                Instr::MulCtPt(ValRef::Instr(2), PtOperand::Input(0)),
                Instr::RotCt(ValRef::Input(0), 1), // duplicate of instr 0
                Instr::AddCtCt(ValRef::Instr(3), ValRef::Instr(4)),
            ],
            ValRef::Instr(5),
        );
        for level in [OptLevel::O0, OptLevel::O2] {
            let (once, _) = optimize(&raw, level);
            let (twice, report) = optimize(&once, level);
            assert_eq!(once, twice, "{level} not idempotent");
            assert_eq!(report.total_rewrites, 0, "{level}: {report}");
        }
    }

    /// Under a legality with no relinearization support, no pipeline at
    /// any level may insert a `relin-ct` — the forbidden op is skipped,
    /// not rewritten in. Programs that never needed relin stay legal; a
    /// multiply whose size-3 result escapes comes out *reported* illegal
    /// instead of silently "fixed" with an op the backend cannot run.
    #[test]
    fn passes_never_insert_ops_the_scheme_forbids() {
        let no_relin = SchemeLegality {
            relin: false,
            rot: true,
            mul_ct_ct: true,
        };
        let with_mul = Program::new(
            "needs-relin",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Input(0)),
            ],
            ValRef::Instr(1),
        );
        for level in [OptLevel::O0, OptLevel::O2] {
            let (out, _) = optimize_with(&with_mul, level, &no_relin);
            assert_eq!(out.relin_count(), 0, "{level} inserted forbidden relin");
            assert_same_semantics(&with_mul, &out, 6);
            // The size-3 escape is reported, not asserted away.
            assert!(analysis::check_backend_legal_with(&out, &no_relin).is_err());
        }
        // A relin-free program stays legal through the gated pipelines.
        let rot_only = Program::new(
            "rot-add",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Instr(0), 2),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(1)),
            ],
            ValRef::Instr(2),
        );
        for level in [OptLevel::O0, OptLevel::O2] {
            let (out, _) = optimize_with(&rot_only, level, &no_relin);
            assert!(analysis::check_backend_legal_with(&out, &no_relin).is_ok());
            assert_same_semantics(&rot_only, &out, 6);
        }
        // Full-legality gating is exactly the ungated pipeline.
        let (gated, _) = optimize_with(&with_mul, OptLevel::O2, &SchemeLegality::full());
        let (ungated, _) = optimize(&with_mul, OptLevel::O2);
        assert_eq!(gated, ungated);
    }

    /// A pipeline's parameters are selected for the composed depth, not
    /// the depth of one stage.
    #[test]
    fn optimize_for_selects_for_the_whole_pipeline() {
        use bfv::params::ParamPolicy;
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
            let mut p = Program::new("chain", 1, 0, Vec::new(), ValRef::Input(0));
            for _ in 0..stages {
                p.output = p.append(&square, &[p.output], &[]);
            }
            let (prog, _, params) = optimize_for(
                &p.cse(),
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
    fn opt_level_parses_common_spellings() {
        for (s, want) in [
            ("0", OptLevel::O0),
            ("O0", OptLevel::O0),
            ("-O2", OptLevel::O2),
            ("o2", OptLevel::O2),
        ] {
            assert_eq!(s.parse::<OptLevel>().unwrap(), want);
        }
        for bad in ["fast", "1", "-O1", "3"] {
            assert!(bad.parse::<OptLevel>().is_err(), "{bad}");
        }
    }
}
