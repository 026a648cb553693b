//! Homomorphic evaluation for BGV: the shared RNS-native evaluator
//! ([`rlwe_ring::evaluator`]) instantiated at [`BgvContext`], plus BGV's
//! ciphertext multiply and its native level management
//! ([`ModSwitch::mod_switch_to_next`]).
//!
//! Everything but those two — add/sub/negate, the plaintext ops (which add
//! the raw lift `m` into `c0`), relinearization, rotations and hoisting —
//! is the shared code, over NTT-resident ciphertexts and keys.
//!
//! # Multiplication
//!
//! This is where BGV pays for its simplicity elsewhere: because the
//! message sits in the least-significant digit (`w = m + t·E`), the
//! product of two phases is directly `m₁m₂ + t·E'` — **no rescale**. The
//! tensor is three pointwise products over `Q` in the transform domain
//! (`e0 = c0·d0`, `e1 = c0·d1 + c1·d0`, `e2 = c1·d1`) and nothing else: no
//! auxiliary base, no base conversions, no NTT round trip. The flip side
//! is noise: `‖E'‖ ≈ N·‖w₁‖·‖w₂‖`, so noise *bits* roughly double per
//! multiplication where BFV's grow additively — managed by switching down
//! the modulus chain after each level, and priced into the BGV
//! [`crate::noise::NoiseModel`] and parameter selector.
//!
//! # Modulus switching
//!
//! `mod_switch_to_next` divides the ciphertext by the last chain prime
//! `q_k` with `t`-lattice rounding: `c' = (c + t·δ)/q_k` where
//! `δ = [−c·t⁻¹]_{q_k}` centered. The division is exact in RNS (the
//! numerator is `≡ 0 mod q_k` by construction), costs `O(k·N)` u128
//! multiply-adds, and divides the noise by `q_k` while adding only a
//! `t·(N+1)/2` rounding term. The plaintext digit is invariant exactly
//! when `q_k ≡ 1 (mod t)` — guaranteed by switch-friendly chains
//! ([`crate::params::generate_mod_switch_friendly`]), asserted at run
//! time for foreign chains. This is an *evaluator-level* operation, not a
//! quill IR instruction: the synthesizer's cost/noise models see its
//! effect through the scheme's noise semantics, not as a schedulable op.

use crate::encrypt::Ciphertext;
use crate::params::BgvContext;
use crate::poly::{PolyForm, RnsPoly};
use crate::zq;
use rlwe_ring::evaluator::{eval_ref, tensor};

/// The evaluator over a BGV context (see [`rlwe_ring::evaluator::Evaluator`]).
///
/// # Examples
///
/// ```
/// use bgv::{params::{self, BgvContext}, encoding::BatchEncoder,
///           keys::KeyGenerator, encrypt::{Encryptor, Decryptor}, evaluator::Evaluator};
/// use rand::SeedableRng;
///
/// let ctx = BgvContext::new(params::test_small())?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let kg = KeyGenerator::new(&ctx, &mut rng);
/// let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
/// let dec = Decryptor::new(&ctx, kg.secret_key().clone());
/// let coder = BatchEncoder::new(&ctx);
/// let ev = Evaluator::new(&ctx);
///
/// let mut a = enc.encrypt(&coder.encode(&[3, 4]), &mut rng);
/// let b = enc.encrypt(&coder.encode(&[10, 20]), &mut rng);
/// ev.add_assign(&mut a, &b);
/// assert_eq!(&coder.decode(&dec.decrypt(&a))[..2], &[13, 24]);
/// # Ok::<(), bgv::params::ParamError>(())
/// ```
pub type Evaluator<'a> = rlwe_ring::evaluator::Evaluator<'a, BgvContext>;

/// BGV's ciphertext multiply on two size-2 operands: three pointwise
/// tensor products over `Q` (see the module docs for why no rescale is
/// needed, and what it costs in noise).
pub(crate) fn multiply(ev: &Evaluator<'_>, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    let ring = ev.context().ring();
    let (mut s0, mut s1, mut s2, mut s3) = (None, None, None, None);
    let c0 = eval_ref(ring, &a.parts[0], &mut s0);
    let c1 = eval_ref(ring, &a.parts[1], &mut s1);
    let d0 = eval_ref(ring, &b.parts[0], &mut s2);
    let d1 = eval_ref(ring, &b.parts[1], &mut s3);
    let [c0, c1, d0, d1] = [c0, c1, d0, d1].map(|p| p.residues.as_slice());
    let mut parts = ev.pool().take_parts();
    for residues in tensor(ev.pool(), ring.barretts(), [c0, c1], [d0, d1]) {
        parts.push(RnsPoly {
            residues,
            form: PolyForm::Eval,
        });
    }
    Ciphertext { parts }
}

/// BGV level management on the shared evaluator.
pub trait ModSwitch {
    /// Switches a ciphertext one level down the modulus chain: the result
    /// lives under `next` (which must be this context's
    /// [`crate::params::BgvContext::reduced`] chain) with the noise divided
    /// by the dropped prime, at the cost of a `t·(N+1)/2` rounding term.
    /// Decrypt the result with a [`crate::keys::ModSwitchKey::mod_switched`]
    /// secret key under `next`.
    ///
    /// See the module docs for the arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `next` is not this chain minus its last prime, or if the
    /// dropped prime is not `≡ 1 (mod t)` (the plaintext digit would be
    /// scaled by `q_k⁻¹ mod t`; use switch-friendly chains).
    fn mod_switch_to_next(&self, ct: &Ciphertext, next: &BgvContext) -> Ciphertext;
}

impl ModSwitch for Evaluator<'_> {
    fn mod_switch_to_next(&self, ct: &Ciphertext, next: &BgvContext) -> Ciphertext {
        let ctx = self.context();
        let ring = ctx.ring();
        let k = ring.num_primes();
        assert_eq!(
            next.params().moduli[..],
            ctx.params().moduli[..k - 1],
            "next context must drop exactly the last chain prime"
        );
        let t = ctx.params().plain_modulus;
        let q_k = ring.primes()[k - 1];
        assert_eq!(
            q_k % t,
            1,
            "dropped prime {q_k} must be ≡ 1 mod t for a plaintext-invariant switch"
        );
        let n = ring.degree();
        let t_inv_qk = zq::inv_mod(t % q_k, q_k);
        let half_qk = q_k / 2;
        let parts = ct
            .parts
            .iter()
            .map(|p| {
                let coeff = ring.to_coeff(p);
                // δ = [−c·t⁻¹]_{q_k}, centered — the unique shift making
                // c + t·δ divisible by q_k while staying ≡ c (mod t).
                let last = &coeff.residues[k - 1];
                let delta: Vec<i128> = last
                    .iter()
                    .map(|&r| {
                        let d = zq::mul_mod((q_k - r) % q_k, t_inv_qk, q_k);
                        if d > half_qk {
                            d as i128 - q_k as i128
                        } else {
                            d as i128
                        }
                    })
                    .collect();
                let mut rows = Vec::with_capacity(k - 1);
                for i in 0..k - 1 {
                    let q_i = ring.primes()[i];
                    let qk_inv = zq::inv_mod(q_k % q_i, q_i);
                    let src = &coeff.residues[i];
                    let mut row = vec![0u64; n];
                    for c in 0..n {
                        // (c_i + t·δ)·q_k⁻¹ mod q_i — exact division.
                        let x = src[c] as i128 + t as i128 * delta[c];
                        let xm = x.rem_euclid(q_i as i128) as u64;
                        row[c] = zq::mul_mod(xm, qk_inv, q_i);
                    }
                    rows.push(row);
                }
                let mut out = RnsPoly {
                    residues: rows,
                    form: PolyForm::Coeff,
                };
                next.ring().make_eval(&mut out);
                out
            })
            .collect();
        Ciphertext { parts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::{KeyGenerator, ModSwitchKey};
    use crate::params;
    use rand::{Rng, SeedableRng};

    struct Session<'a> {
        encoder: BatchEncoder<'a>,
        enc: Encryptor<'a>,
        dec: Decryptor<'a>,
        ev: Evaluator<'a>,
        kg: KeyGenerator<'a>,
        rng: rand::rngs::StdRng,
    }

    fn session(ctx: &params::BgvContext) -> Session<'_> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB611);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let enc = Encryptor::new(ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(ctx, kg.secret_key().clone());
        Session {
            encoder: BatchEncoder::new(ctx),
            enc,
            dec,
            ev: Evaluator::new(ctx),
            kg,
            rng,
        }
    }

    fn random_slots(s: &mut Session<'_>, t: u64) -> Vec<u64> {
        (0..s.encoder.slot_count())
            .map(|_| s.rng.gen_range(0..t))
            .collect()
    }

    #[test]
    fn add_sub_negate_slotwise() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let mut s = session(&ctx);
        let t = ctx.params().plain_modulus;
        let va = random_slots(&mut s, t);
        let vb = random_slots(&mut s, t);
        let ca = s.enc.encrypt(&s.encoder.encode(&va), &mut s.rng);
        let cb = s.enc.encrypt(&s.encoder.encode(&vb), &mut s.rng);

        let sum = s.encoder.decode(&s.dec.decrypt(&s.ev.add(&ca, &cb)));
        let diff = s.encoder.decode(&s.dec.decrypt(&s.ev.sub(&ca, &cb)));
        let neg = s.encoder.decode(&s.dec.decrypt(&s.ev.negate(&ca)));
        for i in 0..va.len() {
            assert_eq!(sum[i], (va[i] + vb[i]) % t);
            assert_eq!(diff[i], (va[i] + t - vb[i]) % t);
            assert_eq!(neg[i], (t - va[i]) % t);
        }
    }

    #[test]
    fn plain_ops_slotwise() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let mut s = session(&ctx);
        let t = ctx.params().plain_modulus;
        let va = random_slots(&mut s, t);
        let vb = random_slots(&mut s, t);
        let ca = s.enc.encrypt(&s.encoder.encode(&va), &mut s.rng);
        let pb = s.encoder.encode(&vb);

        let sum = s.encoder.decode(&s.dec.decrypt(&s.ev.add_plain(&ca, &pb)));
        let diff = s.encoder.decode(&s.dec.decrypt(&s.ev.sub_plain(&ca, &pb)));
        let prod = s.encoder.decode(&s.dec.decrypt(&s.ev.mul_plain(&ca, &pb)));
        for i in 0..va.len() {
            assert_eq!(sum[i], (va[i] + vb[i]) % t);
            assert_eq!(diff[i], (va[i] + t - vb[i]) % t);
            assert_eq!(
                prod[i],
                ((va[i] as u128 * vb[i] as u128) % t as u128) as u64
            );
        }
    }

    #[test]
    fn multiply_relin_slotwise() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let t = ctx.params().plain_modulus;
        let va = random_slots(&mut s, t);
        let vb = random_slots(&mut s, t);
        let ca = s.enc.encrypt(&s.encoder.encode(&va), &mut s.rng);
        let cb = s.enc.encrypt(&s.encoder.encode(&vb), &mut s.rng);

        let raw = s.ev.multiply(&ca, &cb);
        assert_eq!(raw.size(), 3);
        let prod = s.ev.relinearize(&raw, &rk);
        assert_eq!(prod.size(), 2);
        assert!(s.dec.invariant_noise_budget(&prod) > 0);
        let out = s.encoder.decode(&s.dec.decrypt(&prod));
        for i in 0..va.len() {
            assert_eq!(out[i], ((va[i] as u128 * vb[i] as u128) % t as u128) as u64);
        }
        // A size-3 ciphertext also decrypts directly (Σ c_j s^j).
        let out3 = s.encoder.decode(&s.dec.decrypt(&raw));
        assert_eq!(out3, out);
    }

    #[test]
    fn rotations_match_slot_semantics() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let mut s = session(&ctx);
        let gk = s.kg.galois_keys_for_rotations(&[1, -2], true, &mut s.rng);
        let t = ctx.params().plain_modulus;
        let half = s.encoder.row_size();
        let v = random_slots(&mut s, t);
        let ct = s.enc.encrypt(&s.encoder.encode(&v), &mut s.rng);

        let left = s
            .encoder
            .decode(&s.dec.decrypt(&s.ev.rotate_rows(&ct, 1, &gk)));
        let right = s
            .encoder
            .decode(&s.dec.decrypt(&s.ev.rotate_rows(&ct, -2, &gk)));
        let swapped = s
            .encoder
            .decode(&s.dec.decrypt(&s.ev.rotate_columns(&ct, &gk)));
        for i in 0..half {
            assert_eq!(left[i], v[(i + 1) % half]);
            assert_eq!(left[half + i], v[half + (i + 1) % half]);
            assert_eq!(right[i], v[(i + half - 2) % half]);
            assert_eq!(right[half + i], v[half + (i + half - 2) % half]);
            assert_eq!(swapped[i], v[half + i]);
            assert_eq!(swapped[half + i], v[i]);
        }
    }

    #[test]
    fn mod_switch_preserves_plaintext_and_divides_noise() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let next = ctx.reduced().unwrap();
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let t = ctx.params().plain_modulus;
        let va = random_slots(&mut s, t);
        let vb = random_slots(&mut s, t);
        let ca = s.enc.encrypt(&s.encoder.encode(&va), &mut s.rng);
        let cb = s.enc.encrypt(&s.encoder.encode(&vb), &mut s.rng);
        let prod = s.ev.multiply_relin(&ca, &cb, &rk);

        let switched = s.ev.mod_switch_to_next(&prod, &next);
        assert_eq!(switched.level_primes(), ctx.params().moduli.len() - 1);

        let dec2 = Decryptor::new(&next, s.kg.secret_key().mod_switched(&next));
        let enc2 = BatchEncoder::new(&next);
        let out = enc2.decode(&dec2.decrypt(&switched));
        for i in 0..va.len() {
            assert_eq!(
                out[i],
                ((va[i] as u128 * vb[i] as u128) % t as u128) as u64,
                "slot {i}"
            );
        }
        assert!(dec2.invariant_noise_budget(&switched) > 0);
    }

    /// The point of modulus switching: BGV noise bits double per multiply,
    /// and switching shrinks the bit count the doubling acts on. At this
    /// toy chain the unswitched depth-2 path actually *overflows* (the
    /// first relinearization leaves ~2^70 of absolute noise; squaring that
    /// busts Q ≈ 2^135) while the switched path still decrypts with budget
    /// to spare.
    #[test]
    fn switching_between_multiplies_beats_staying_at_full_modulus() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let next = ctx.reduced().unwrap();
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let t = ctx.params().plain_modulus;
        let v = random_slots(&mut s, t);
        let ct = s.enc.encrypt(&s.encoder.encode(&v), &mut s.rng);

        // Depth 2 without switching.
        let sq = s.ev.multiply_relin(&ct, &ct, &rk);
        let quad_stay = s.ev.multiply_relin(&sq, &sq, &rk);
        let budget_stay = s.dec.invariant_noise_budget(&quad_stay);

        // Depth 2 with a switch after the first level.
        let sq_down = s.ev.mod_switch_to_next(&sq, &next);
        let rk_down = rk.mod_switched(&next);
        let ev2 = Evaluator::new(&next);
        let quad_switch = ev2.multiply_relin(&sq_down, &sq_down, &rk_down);
        let dec2 = Decryptor::new(&next, s.kg.secret_key().mod_switched(&next));
        let budget_switch = dec2.invariant_noise_budget(&quad_switch);

        let expect: Vec<u64> = v
            .iter()
            .map(|&x| {
                let sq = (x as u128 * x as u128) % t as u128;
                ((sq * sq) % t as u128) as u64
            })
            .collect();
        let enc2 = BatchEncoder::new(&next);
        assert_eq!(enc2.decode(&dec2.decrypt(&quad_switch)), expect);
        assert!(
            budget_switch > 0,
            "switched path must still decrypt ({budget_switch})"
        );
        assert!(
            budget_stay <= 0,
            "unswitched depth-2 should overflow this toy chain ({budget_stay})"
        );
    }

    #[test]
    fn mod_switch_rejects_unfriendly_chains() {
        // BFV-style primes (≡ 1 mod 2N only) fail the q_k ≡ 1 mod t gate.
        let params = crate::params::BgvParams::test_small();
        let t = params.plain_modulus;
        assert_ne!(params.moduli.last().unwrap() % t, 1);
        let ctx = params::BgvContext::new(params).unwrap();
        let next = ctx.reduced().unwrap();
        let mut s = session(&ctx);
        let v = vec![1u64, 2, 3];
        let ct = s.enc.encrypt(&s.encoder.encode(&v), &mut s.rng);
        let ev = Evaluator::new(&ctx);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ev.mod_switch_to_next(&ct, &next)
        }));
        assert!(result.is_err(), "unfriendly chain must be rejected");
    }

    #[test]
    fn steady_state_ops_do_not_allocate() {
        let ctx = params::BgvContext::new(params::test_small()).unwrap();
        let mut s = session(&ctx);
        let rk = s.kg.relin_key(&mut s.rng);
        let t = ctx.params().plain_modulus;
        let va = random_slots(&mut s, t);
        let ca = s.enc.encrypt(&s.encoder.encode(&va), &mut s.rng);
        let cb = s.enc.encrypt(&s.encoder.encode(&va), &mut s.rng);
        // Warm up the pool shapes.
        for _ in 0..2 {
            let prod = s.ev.multiply_relin(&ca, &cb, &rk);
            s.ev.recycle(prod);
        }
        let fresh_before = s.ev.pool_stats().fresh;
        for _ in 0..3 {
            let prod = s.ev.multiply_relin(&ca, &cb, &rk);
            s.ev.recycle(prod);
        }
        assert_eq!(
            s.ev.pool_stats().fresh,
            fresh_before,
            "steady-state multiply_relin allocated"
        );
    }
}
