//! Scheme identity and per-scheme instruction legality.
//!
//! Porcupine's middle- and back-end are generic over the HE scheme that
//! ultimately executes a kernel. Everything the *compiler* needs to know
//! about a scheme is captured by two small values:
//!
//! * [`SchemeId`] — which backend the pipeline targets. It parameterizes
//!   the cost model ([`crate::cost::LatencyModel::profiled_for`]), the
//!   legality rules below, the synthesis cache key, and the CLI's
//!   `--scheme` flag.
//! * [`SchemeLegality`] — which Quill instructions the backend can execute,
//!   consulted by [`crate::analysis::check_backend_legal_with`] and by the
//!   lowering passes when they decide whether inserting a `relin-ct` is
//!   even possible.
//!
//! Both shipped backends (BFV and BGV) implement the full Table-1
//! instruction set, so their legality rules coincide today; the structure
//! exists so a future partial backend (e.g. one without rotation keys)
//! degrades into a reported [`crate::analysis::LegalityError`] instead of a
//! panic deep inside an evaluator.

use crate::program::Instr;
use std::fmt;

/// Identifies one of the HE scheme backends the compiler can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchemeId {
    /// Brakerski/Fan–Vercauteren: `Δ = ⌊Q/t⌋` most-significant-digit
    /// encoding, scale-invariant multiply with an exact `t/Q` rescale.
    #[default]
    Bfv,
    /// Brakerski–Gentry–Vaikuntanathan: least-significant-digit (mod `t`)
    /// encoding, plain tensor multiply, noise managed by modulus switching.
    Bgv,
}

impl SchemeId {
    /// Every scheme the workspace ships, in display order.
    pub const ALL: &'static [SchemeId] = &[SchemeId::Bfv, SchemeId::Bgv];

    /// The lower-case name used by `--scheme`, the synthesis cache key, and
    /// benchmark JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeId::Bfv => "bfv",
            SchemeId::Bgv => "bgv",
        }
    }

    /// Parses a scheme name (as accepted by `--scheme`).
    /// Returns `None` for unknown names — callers surface their own error.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "bfv" => Some(SchemeId::Bfv),
            "bgv" => Some(SchemeId::Bgv),
            _ => None,
        }
    }

    /// The instruction-legality rules of this scheme's backend.
    pub fn legality(&self) -> SchemeLegality {
        // Both in-repo backends implement the complete instruction set.
        match self {
            SchemeId::Bfv | SchemeId::Bgv => SchemeLegality::full(),
        }
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which Quill instructions a scheme backend can execute.
///
/// Additions, subtractions, and plaintext ops are universal across RLWE
/// schemes; the capabilities that can genuinely differ are the key-switching
/// ops (relinearization, rotation) and ciphertext–ciphertext multiply.
/// The ciphertext *size* discipline (rotation/multiply operands must be
/// size 2) is shared by every scheme and stays in
/// [`crate::analysis::check_backend_legal_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeLegality {
    /// The backend implements `relin-ct` (relinearization key switching).
    /// When `false`, the lowering passes must not insert `relin-ct`, and
    /// any ct×ct multiply whose size-3 result escapes is illegal.
    pub relin: bool,
    /// The backend implements `rot-ct` (Galois rotation key switching).
    pub rot: bool,
    /// The backend implements `mul-ct-ct`.
    pub mul_ct_ct: bool,
}

impl SchemeLegality {
    /// The full Table-1 instruction set (what BFV and BGV both support).
    pub fn full() -> Self {
        SchemeLegality {
            relin: true,
            rot: true,
            mul_ct_ct: true,
        }
    }

    /// Whether `instr` is executable at all on this backend (ignoring the
    /// operand-size discipline, which is checked separately).
    pub fn supports(&self, instr: &Instr) -> bool {
        match instr {
            Instr::Relin(_) => self.relin,
            Instr::RotCt(..) => self.rot,
            Instr::MulCtCt(..) => self.mul_ct_ct,
            Instr::AddCtCt(..)
            | Instr::SubCtCt(..)
            | Instr::AddCtPt(..)
            | Instr::SubCtPt(..)
            | Instr::MulCtPt(..) => true,
        }
    }

    /// Short display name of the instruction kind, for error messages.
    pub fn op_name(instr: &Instr) -> &'static str {
        match instr {
            Instr::AddCtCt(..) => "add-ct-ct",
            Instr::SubCtCt(..) => "sub-ct-ct",
            Instr::MulCtCt(..) => "mul-ct-ct",
            Instr::AddCtPt(..) => "add-ct-pt",
            Instr::SubCtPt(..) => "sub-ct-pt",
            Instr::MulCtPt(..) => "mul-ct-pt",
            Instr::RotCt(..) => "rot-ct",
            Instr::Relin(..) => "relin-ct",
        }
    }
}

impl Default for SchemeLegality {
    fn default() -> Self {
        SchemeLegality::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ValRef;

    #[test]
    fn parse_round_trips_every_scheme() {
        for &s in SchemeId::ALL {
            assert_eq!(SchemeId::parse(s.name()), Some(s));
            assert_eq!(SchemeId::parse(&s.name().to_uppercase()), Some(s));
        }
        assert_eq!(SchemeId::parse("ckks"), None);
        assert_eq!(SchemeId::parse(""), None);
    }

    #[test]
    fn default_scheme_is_bfv() {
        assert_eq!(SchemeId::default(), SchemeId::Bfv);
    }

    #[test]
    fn shipped_schemes_support_the_full_instruction_set() {
        let instrs = [
            Instr::AddCtCt(ValRef::Input(0), ValRef::Input(0)),
            Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
            Instr::RotCt(ValRef::Input(0), 1),
            Instr::Relin(ValRef::Input(0)),
        ];
        for &s in SchemeId::ALL {
            let legality = s.legality();
            for i in &instrs {
                assert!(
                    legality.supports(i),
                    "{s} must support {}",
                    SchemeLegality::op_name(i)
                );
            }
        }
    }

    #[test]
    fn partial_backends_report_unsupported_ops() {
        let no_relin = SchemeLegality {
            relin: false,
            ..SchemeLegality::full()
        };
        assert!(!no_relin.supports(&Instr::Relin(ValRef::Input(0))));
        assert!(no_relin.supports(&Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0))));
        let no_rot = SchemeLegality {
            rot: false,
            ..SchemeLegality::full()
        };
        assert!(!no_rot.supports(&Instr::RotCt(ValRef::Input(0), 1)));
    }
}
