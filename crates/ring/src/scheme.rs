//! The scheme policy: the few places RLWE schemes differ, as one trait.
//!
//! BFV and BGV share everything else in this crate — batch encoding
//! ([`crate::encoding`]), key generation ([`crate::keys`]),
//! encryption/decryption ([`crate::encrypt`]) and the evaluator
//! ([`crate::evaluator`]), all generic over a [`SchemePolicy`] and
//! statically dispatched. A scheme crate implements the policy on its
//! context type (which owns the scheme's precomputation) and re-exports the
//! generic types as aliases instantiated at that context.
//!
//! What a policy decides:
//!
//! * where the message sits in the phase — BFV scales it to the top
//!   (`Δ·m`), BGV keeps it in the bottom digit (`m`) and puts the noise on
//!   the multiples-of-`t` lattice instead ([`SchemePolicy::lift_plain`],
//!   [`SchemePolicy::error_scale`]);
//! * ciphertext multiplication ([`SchemePolicy::multiply`]: BFV's exact
//!   `t/Q` rescale through an auxiliary base, BGV's plain tensor);
//! * whether decryption rounds the phase — BFV's `round(t·w/Q)`, run as
//!   scalars around an exact u64 base conversion onto `t`, against BGV's
//!   plain `w mod t` ([`SchemePolicy::decrypt_rescale`]) — and how much
//!   noise a phase coefficient carries ([`SchemePolicy::noise_bits`]).

use crate::bigint::BigInt;
use crate::encrypt::Ciphertext;
use crate::evaluator::Evaluator;
use crate::ntt::NttTables;
use crate::params::RlweParams;
use crate::poly::{RingContext, RnsPoly};

/// One RLWE scheme's behaviour over a parameter set, implemented by the
/// scheme's context type.
pub trait SchemePolicy: Sized {
    /// The parameter set.
    fn params(&self) -> &RlweParams;
    /// The ciphertext ring `R_Q`.
    fn ring(&self) -> &RingContext;
    /// The NTT over `Z_t` behind batch encoding.
    fn plain_ntt(&self) -> &NttTables;
    /// Per-prime residues of the scalar folded into every sampled key and
    /// encryption error (`t mod q_i` for BGV, whose noise must stay a
    /// multiple of `t`), or `None` to use errors unscaled (BFV).
    fn error_scale(&self) -> Option<&[u64]>;
    /// The term a plaintext `m` contributes to `c0` on encryption and
    /// plaintext add/sub — BFV's `Δ·m` — or `None` when it is `m` itself
    /// (BGV). Form-preserving: encryption lifts `m` in coefficient form,
    /// the evaluator in evaluation form.
    fn lift_plain(&self, m: &RnsPoly) -> Option<RnsPoly>;
    /// Ciphertext × ciphertext on two size-2 operands, producing a size-3
    /// ciphertext (the evaluator checks the sizes). Scratch comes from
    /// [`Evaluator::pool`].
    fn multiply(ev: &Evaluator<'_, Self>, a: &Ciphertext, b: &Ciphertext) -> Ciphertext;
    /// The scalars that turn decryption's rounding `round(t·w/Q) mod t`
    /// into the exact centered conversion of `[t·w]_Q` onto `t`: the
    /// pre-factor `t mod q_i` (with Shoup companions) and the post-factor
    /// `−Q⁻¹ mod t` (BFV). `None` when the phase reduces mod `t` as it
    /// stands (BGV).
    fn decrypt_rescale(&self) -> Option<(&[(u64, u64)], u64)>;
    /// Bit length of the noise in one coefficient of the centered phase;
    /// the noise budget is `log2 Q` minus the maximum over coefficients,
    /// minus one.
    fn noise_bits(&self, w: &BigInt) -> u32;
}
