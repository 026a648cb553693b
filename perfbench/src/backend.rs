//! The few backend capabilities the benchmark needs beyond
//! [`porcupine::scheme::Scheme`]: scratch-pool counters, the pure (pooled)
//! relinearization the op layer times, and the ring under a context.

use porcupine::scheme::{BfvScheme, BgvScheme, Scheme};
use rlwe_ring::poly::RingContext;

/// A [`Scheme`] the benchmark can measure.
pub trait Backend: Scheme {
    /// Buffers the evaluator's scratch pool has freshly allocated so far.
    fn pool_fresh(ev: &Self::Evaluator<'_>) -> u64;
    /// Relinearizes a size-3 ciphertext into a pooled result, leaving the
    /// input intact (so one operand can be timed repeatedly).
    fn relinearize(
        ev: &Self::Evaluator<'_>,
        ct: &Self::Ciphertext,
        rk: &Self::RelinKey,
    ) -> Self::Ciphertext;
    /// The ciphertext ring of a context.
    fn ring(ctx: &Self::Context) -> &RingContext;
}

impl Backend for BfvScheme {
    fn pool_fresh(ev: &Self::Evaluator<'_>) -> u64 {
        ev.pool_stats().fresh
    }
    fn relinearize(
        ev: &Self::Evaluator<'_>,
        ct: &Self::Ciphertext,
        rk: &Self::RelinKey,
    ) -> Self::Ciphertext {
        ev.relinearize(ct, rk)
    }
    fn ring(ctx: &Self::Context) -> &RingContext {
        ctx.ring()
    }
}

impl Backend for BgvScheme {
    fn pool_fresh(ev: &Self::Evaluator<'_>) -> u64 {
        ev.pool_stats().fresh
    }
    fn relinearize(
        ev: &Self::Evaluator<'_>,
        ct: &Self::Ciphertext,
        rk: &Self::RelinKey,
    ) -> Self::Ciphertext {
        ev.relinearize(ct, rk)
    }
    fn ring(ctx: &Self::Context) -> &RingContext {
        ctx.ring()
    }
}

/// `n<N>k<primes>` — how configurations are named in metric names.
pub fn config_label(n: usize, primes: usize) -> String {
    format!("n{n}k{primes}")
}
