//! SIMD batch encoding for BGV: the shared encoder
//! ([`rlwe_ring::encoding`]) over a [`BgvContext`].
//!
//! The slot geometry ([`rlwe_ring::batch`]) is byte-identical to the BFV
//! encoder's, which is what keeps a kernel's slot semantics stable across
//! schemes. BGV carries the plaintext in the **least-significant digit**
//! (`m + t·noise`), so [`EvalPlaintext`] caches only the raw lift `m` —
//! there is no `Δ` scaling anywhere in this backend.

use crate::params::BgvContext;

pub use rlwe_ring::batch::{galois_element_for_column_swap, galois_element_for_rotation};
pub use rlwe_ring::encoding::{EvalPlaintext, Plaintext};

/// The batch encoder over a BGV context.
pub type BatchEncoder<'a> = rlwe_ring::encoding::BatchEncoder<'a, BgvContext>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;

    fn small_ctx() -> BgvContext {
        BgvContext::new(params::test_small()).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = small_ctx();
        let enc = BatchEncoder::new(&ctx);
        let t = ctx.params().plain_modulus;
        let v: Vec<u64> = (0..enc.slot_count() as u64)
            .map(|i| (i * 7 + 3) % t)
            .collect();
        assert_eq!(enc.decode(&enc.encode(&v)), v);
    }

    #[test]
    fn signed_roundtrip() {
        let ctx = small_ctx();
        let enc = BatchEncoder::new(&ctx);
        let mut v = vec![0i64; enc.slot_count()];
        v[0] = -5;
        v[1] = 90;
        v[2] = -96;
        let pt = enc.encode_signed(&v);
        assert_eq!(enc.decode_signed(&pt)[..3], [-5, 90, -96]);
    }

    /// The BGV and BFV encoders must agree coefficient-for-coefficient:
    /// the slot map and the plaintext NTT are shared, so the same slot
    /// vector encodes to the same polynomial under both schemes. This is
    /// the foundation of the cross-scheme differential tests.
    #[test]
    fn encoding_matches_bfv_bit_for_bit() {
        let bgv_ctx = small_ctx();
        let bfv_ctx = bfv::params::BfvContext::new(bfv::params::BfvParams::test_small()).unwrap();
        let bgv_enc = BatchEncoder::new(&bgv_ctx);
        let bfv_enc = bfv::encoding::BatchEncoder::new(&bfv_ctx);
        let t = bgv_ctx.params().plain_modulus;
        let v: Vec<u64> = (0..bgv_enc.slot_count() as u64)
            .map(|i| (i * 31 + 17) % t)
            .collect();
        assert_eq!(bgv_enc.encode(&v).coeffs(), bfv_enc.encode(&v).coeffs());
    }
}
