//! SIMD batch encoding for BFV: the shared encoder
//! ([`rlwe_ring::encoding`]) over a [`BfvContext`]. The slot geometry is
//! scheme-agnostic ([`rlwe_ring::batch`]); the BFV-specific half is the
//! `Δ = ⌊Q/t⌋` scaling on the way into the ciphertext ring, which
//! [`EvalPlaintext`] caches next to the raw lift.

use crate::params::BfvContext;

pub use rlwe_ring::batch::{galois_element_for_column_swap, galois_element_for_rotation};
pub use rlwe_ring::encoding::{EvalPlaintext, Plaintext};

/// The batch encoder over a BFV context.
///
/// # Examples
///
/// ```
/// use bfv::params::{BfvContext, BfvParams};
/// use bfv::encoding::BatchEncoder;
///
/// let ctx = BfvContext::new(BfvParams::test_small())?;
/// let encoder = BatchEncoder::new(&ctx);
/// let v = vec![7u64; encoder.slot_count()];
/// assert_eq!(encoder.decode(&encoder.encode(&v)), v);
/// # Ok::<(), bfv::params::ParamError>(())
/// ```
pub type BatchEncoder<'a> = rlwe_ring::encoding::BatchEncoder<'a, BfvContext>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BfvParams;

    fn small_ctx() -> BfvContext {
        BfvContext::new(BfvParams::generate(32, 193, 40, 2).unwrap()).unwrap()
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

    #[test]
    fn plaintext_automorphism_rotates_rows() {
        // Applying x -> x^3 to the plaintext polynomial must rotate both
        // rows left by one in slot space.
        let ctx = small_ctx();
        let enc = BatchEncoder::new(&ctx);
        let n = enc.slot_count();
        let half = n / 2;
        let t = ctx.params().plain_modulus;
        let v: Vec<u64> = (0..n as u64).map(|i| (i + 1) % t).collect();
        let pt = enc.encode(&v);

        // automorphism over Z_t coefficients
        let two_n = 2 * n as u64;
        let g = 3u64;
        let mut out = vec![0u64; n];
        for c in 0..n {
            let target = (c as u64 * g) % two_n;
            let val = pt.coeffs[c];
            if target < n as u64 {
                out[target as usize] = (out[target as usize] + val) % t;
            } else {
                out[(target - n as u64) as usize] =
                    (out[(target - n as u64) as usize] + t - val) % t;
            }
        }
        let rotated = enc.decode(&Plaintext { coeffs: out });
        for i in 0..half {
            assert_eq!(rotated[i], v[(i + 1) % half], "row0 slot {i}");
            assert_eq!(rotated[half + i], v[half + (i + 1) % half], "row1 slot {i}");
        }
    }

    #[test]
    fn column_swap_element_swaps_rows() {
        let ctx = small_ctx();
        let enc = BatchEncoder::new(&ctx);
        let n = enc.slot_count();
        let half = n / 2;
        let t = ctx.params().plain_modulus;
        let v: Vec<u64> = (0..n as u64).map(|i| (3 * i + 2) % t).collect();
        let pt = enc.encode(&v);
        let g = galois_element_for_column_swap(n);
        let two_n = 2 * n as u64;
        let mut out = vec![0u64; n];
        for c in 0..n {
            let target = (c as u64 * g) % two_n;
            let val = pt.coeffs[c];
            if target < n as u64 {
                out[target as usize] = (out[target as usize] + val) % t;
            } else {
                out[(target - n as u64) as usize] =
                    (out[(target - n as u64) as usize] + t - val) % t;
            }
        }
        let swapped = enc.decode(&Plaintext { coeffs: out });
        for i in 0..half {
            assert_eq!(swapped[i], v[half + i]);
            assert_eq!(swapped[half + i], v[i]);
        }
    }
}
