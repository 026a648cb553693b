//! # quill — the HE DSL from the Porcupine paper
//!
//! Quill captures the semantics, noise behaviour, and latency of the BFV
//! SIMD instruction set (Table 1 of the paper) so the Porcupine synthesizer
//! can reason about homomorphic-encryption kernels without touching real
//! ciphertexts.
//!
//! * [`program`] — straight-line SSA kernels over ciphertext/plaintext
//!   operands (including explicit `relin-ct`), with logic-depth and
//!   multiplicative-depth analyses.
//! * [`analysis`] — static ciphertext-size and per-value level analyses,
//!   plus the backend-legality check the `-O` lowering pipeline
//!   establishes.
//! * [`interp`] — one generic interpreter instantiated concretely (over
//!   [`ring::Zt`] slot vectors, for CEGIS examples) and symbolically (over
//!   [`symbolic::SymPoly`] canonical polynomials, for exact verification).
//! * [`scheme`] — which backend the pipeline targets ([`scheme::SchemeId`])
//!   and which instructions that backend can execute
//!   ([`scheme::SchemeLegality`]).
//! * [`cost`] — the paper's `latency × (1 + mdepth)` objective,
//!   [`cost::eager_cost`], with per-scheme latency tables profiled from the
//!   in-repo backends.
//! * [`sexpr`] — a Racket-flavoured surface syntax with a round-tripping
//!   parser and printer.
//!
//! ## Example
//!
//! ```
//! use quill::program::{Instr, Program, ValRef};
//! use quill::{cost, interp};
//!
//! // Figure 5(a): the synthesized box blur.
//! let blur = Program::new(
//!     "box-blur",
//!     1,
//!     0,
//!     vec![
//!         Instr::RotCt(ValRef::Input(0), 1),
//!         Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
//!         Instr::RotCt(ValRef::Instr(1), 5),
//!         Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
//!     ],
//!     ValRef::Instr(3),
//! );
//! blur.validate()?;
//! let out = interp::eval_concrete(&blur, &[vec![1; 25]], &[], 65537);
//! assert_eq!(out[0], 4); // 2×2 window of ones
//! let c = cost::eager_cost(&blur, &cost::LatencyModel::uniform());
//! assert_eq!(c, 4.0);
//! # Ok::<(), quill::program::ProgramError>(())
//! ```

pub mod analysis;
pub mod cost;
pub mod interp;
pub mod program;
pub mod ring;
pub mod scheme;
pub mod sexpr;
pub mod symbolic;

pub use cost::{eager_cost, LatencyModel};
pub use program::{Instr, Program, ProgramError, PtOperand, ValRef};
pub use ring::{Ring, Zt};
pub use scheme::{SchemeId, SchemeLegality};
pub use symbolic::SymPoly;
