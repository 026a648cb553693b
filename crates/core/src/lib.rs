//! # porcupine — a synthesizing compiler for vectorized homomorphic encryption
//!
//! A full reproduction of *Porcupine* (Cowan et al., PLDI 2021). Porcupine
//! takes a **kernel specification** — a plaintext reference implementation
//! plus a data layout ([`spec`], [`layout`]) — and a **sketch** — a template
//! HE kernel with holes ([`sketch`]) — and synthesizes a verified,
//! cost-optimized vectorized HE kernel for a chosen scheme backend (BFV by
//! default, BGV via `--scheme bgv` / `PORCUPINE_SCHEME=bgv`):
//!
//! * [`cegis`] — the CEGIS engine (Algorithm 1): iterative sketch
//!   deepening, counter-example refinement, cost minimization.
//! * [`search`] — the pruned enumerative solver standing in for the paper's
//!   Rosette/Boolector queries (sound and complete within a sketch), plus
//!   a bottom-up observational-equivalence term bank for queries past the
//!   DFS scaling wall (selected via `SynthesisOptions::strategy`).
//! * [`cache`] — the persistent content-addressed synthesis cache
//!   (`$PORCUPINE_CACHE_DIR`, else `~/.cache/porcupine`): finished queries
//!   are stored on disk and re-verified on read, so a warm process skips
//!   the search entirely.
//! * [`verify`] — exact equivalence checking via canonical polynomial
//!   forms, with Schwartz–Zippel counter-example extraction.
//! * [`lift`] — the padding-stability theorem that lets kernels synthesized
//!   at model size run on full-size ciphertexts.
//! * [`multistep`] — composing synthesized kernels into pipelines (Sobel,
//!   Harris).
//! * [`opt`] — the optimizing middle-end between synthesis and codegen:
//!   global CSE, rotation folding, lazy relinearization, and DCE driven to
//!   a fixpoint at `-O2`, eager relinearization only at `-O0`, and
//!   [`opt::optimize_for`], which lowers and then resolves the scheme
//!   parameters against the lowered program.
//! * [`scheme`] — the scheme abstraction: a [`scheme::Scheme`] trait
//!   mapping [`quill::scheme::SchemeId`] onto a concrete backend crate
//!   (context, keys, evaluator, parameter selection, noise model), with
//!   BFV and BGV instantiations.
//! * [`codegen`] — lowering optimized IR 1:1 onto any scheme backend
//!   through one generic runner (Galois/relin key collection) and
//!   SEAL-style C++ emission.
//!
//! ## End-to-end example
//!
//! ```
//! use porcupine::cegis::{synthesize, SynthesisOptions};
//! use porcupine::sketch::{ArithOp, RotationSet, Sketch, SketchOp};
//! use porcupine::spec::{GenericReference, KernelSpec};
//! use quill::ring::Ring;
//!
//! // Specification: sum 4 packed elements into slot 0.
//! struct Sum4;
//! impl GenericReference for Sum4 {
//!     fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
//!         let zero = ct[0][0].from_i64(0);
//!         let mut out = vec![zero.clone(); 8];
//!         out[0] = ct[0][..4].iter().fold(zero, |a, x| a.add(x));
//!         out
//!     }
//! }
//! let mut mask = vec![false; 8];
//! mask[0] = true;
//! let spec = KernelSpec::new("sum4", 8, 1, 0, mask, 65537, Box::new(Sum4));
//!
//! // Sketch: rotate-and-add components, tree-reduction rotations.
//! let sketch = Sketch::new(
//!     vec![SketchOp::rotated(ArithOp::AddCtCt)],
//!     RotationSet::PowersOfTwo { extent: 4 },
//!     4,
//! );
//!
//! let result = synthesize(&spec, &sketch, &SynthesisOptions::default())?;
//! assert_eq!(result.components, 2);
//! println!("{}", result.program); // s-expression kernel
//! # Ok::<(), porcupine::cegis::SynthesisError>(())
//! ```

pub mod autosketch;
pub(crate) mod bottom_up;
pub mod cache;
pub mod cegis;
pub mod codegen;
pub mod layout;
pub mod lift;
pub mod multistep;
pub mod opt;
pub mod scheme;
pub mod search;
pub mod sketch;
pub mod spec;
pub mod verify;

pub use autosketch::{auto_sketch, auto_synthesize};
pub use cegis::{
    clear_synthesis_memo, default_parallelism, default_strategy, synthesize, CachePolicy,
    SearchStrategy, SynthesisError, SynthesisOptions, SynthesisResult,
};
pub use opt::{
    default_opt_level, optimize, optimize_for, optimize_with, OptLevel, OptReport, Pass,
};

/// Environment variable `name` parsed by `parse`: `Ok(None)` when unset or
/// blank, else an error naming the variable, what it accepts and the value
/// found when `parse` rejects it. The base of every `*_from_env` reader.
pub(crate) fn env_var<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(v) if !v.trim().is_empty() => parse(v.trim())
            .map(Some)
            .ok_or_else(|| format!("{name} must be {expected}, got '{v}'")),
        _ => Ok(None),
    }
}
pub use scheme::{default_scheme, scheme_from_env, BfvScheme, BgvScheme, Scheme};
pub use search::search_invocations;
pub use sketch::{ArithOp, RotationSet, Sketch, SketchMode, SketchOp};
pub use spec::{Example, GenericReference, KernelSpec, Reference};
