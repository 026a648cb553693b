//! Homomorphic evaluation for BFV: the shared RNS-native evaluator
//! ([`rlwe_ring::evaluator`]) instantiated at [`BfvContext`], plus BFV's
//! ciphertext multiply.
//!
//! Everything but the multiply — add/sub/negate, the plaintext ops (which
//! add the cached `Δ·m` into `c0`), relinearization, rotations and
//! hoisting — is the shared code, over NTT-resident ciphertexts and keys.
//!
//! # Multiplication
//!
//! Multiplication is exact and never leaves machine words: operands are
//! dropped to coefficient residues, extended from `Q` into the auxiliary
//! base `B` by exact centered mixed-radix conversion
//! ([`crate::rns::RnsBaseConverter`]), tensored per-prime over the combined
//! base `Q·B` (pointwise in the transform domain), and rescaled by `t/Q`
//! with exact rounding: `round(t·x/Q) = (t·x − [t·x]_Q)/Q` with the
//! centered remainder lifted `Q → B`, the division done via `Q⁻¹ mod b_j`,
//! and the result shrunk `B → Q`. This is the textbook BFV multiply with
//! the BEHZ-style all-RNS data flow, except that the mixed-radix
//! conversions are exact, so no approximation error is introduced.
//!
//! Each operand extension costs `k` inverse plus `l` forward NTTs and one
//! base conversion. A square — `multiply(&a, &a)`, one ciphertext passed
//! as both operands — extends that ciphertext once and feeds the same
//! matrices to both sides of the tensor, so it pays two extensions
//! instead of four and gives the same bits as multiplying two copies.

use crate::encrypt::Ciphertext;
use crate::params::BfvContext;
use crate::poly::{PolyForm, RnsPoly};
use crate::pool::ScratchPool;
use crate::zq::{mul_mod_shoup, sub_mod};
use rlwe_ring::evaluator::{eval_ref, tensor};

/// The evaluator over a BFV context (see [`rlwe_ring::evaluator::Evaluator`]).
///
/// # Examples
///
/// ```
/// use bfv::{params::{BfvContext, BfvParams}, encoding::BatchEncoder,
///           keys::KeyGenerator, encrypt::{Encryptor, Decryptor}, evaluator::Evaluator};
/// use rand::SeedableRng;
///
/// let ctx = BfvContext::new(BfvParams::test_small())?;
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
/// # Ok::<(), bfv::params::ParamError>(())
/// ```
pub type Evaluator<'a> = rlwe_ring::evaluator::Evaluator<'a, BfvContext>;

/// BFV's ciphertext multiply on two size-2 operands (see the module docs
/// for the RNS data flow); the result is exact (`round(t/Q · tensor)` with
/// true nearest rounding) and built entirely in pooled buffers.
pub(crate) fn multiply(ev: &Evaluator<'_>, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    let ctx = ev.context();
    let ring = ctx.ring();
    let aux = ctx.aux_ring();
    let (k, l, n) = (ring.num_primes(), aux.num_primes(), ring.degree());
    let pool = ev.pool();

    // A square (`a` and `b` the same ciphertext) converts and extends its
    // operand once (see the module docs).
    let square = std::ptr::eq(a, b);

    // Q-side operands: borrowed directly when already evaluation-resident
    // (the steady state); a coefficient-form operand converts into a
    // temporary on the cold path.
    let (mut s0, mut s1, mut s2, mut s3) = (None, None, None, None);
    let c_q = [
        eval_ref(ring, &a.parts[0], &mut s0),
        eval_ref(ring, &a.parts[1], &mut s1),
    ];
    let d_q = if square {
        c_q
    } else {
        [
            eval_ref(ring, &b.parts[0], &mut s2),
            eval_ref(ring, &b.parts[1], &mut s3),
        ]
    };

    // B-side extension of each part: centered base conversion of the
    // coefficients, then forward transforms — all in pooled buffers.
    let extend_aux = |p: &RnsPoly| -> Vec<Vec<u64>> {
        let mut coeff = pool.take_matrix(k, n);
        for ((i, row), src) in coeff.iter_mut().enumerate().zip(&p.residues) {
            row.copy_from_slice(src);
            if p.form() == PolyForm::Eval {
                ring.ntt(i).inverse(row);
            }
        }
        let mut ext = pool.take_matrix(l, n);
        ctx.q_to_aux().convert_centered_into(&coeff, pool, &mut ext);
        pool.put_matrix(coeff);
        for (j, r) in ext.iter_mut().enumerate() {
            aux.ntt(j).forward(r);
        }
        ext
    };
    let c_aux = [extend_aux(&a.parts[0]), extend_aux(&a.parts[1])];
    let d_aux = (!square).then(|| [extend_aux(&b.parts[0]), extend_aux(&b.parts[1])]);

    // Tensor pointwise over the combined base, into pooled buffers.
    let [c_q, d_q] = [c_q, d_q].map(|x| x.map(|p| p.residues.as_slice()));
    let e_q = tensor(pool, ring.barretts(), c_q, d_q);
    let [c0_aux, c1_aux] = &c_aux;
    let [d0_aux, d1_aux] = d_aux.as_ref().unwrap_or(&c_aux);
    let e_aux = tensor(pool, aux.barretts(), [c0_aux, c1_aux], [d0_aux, d1_aux]);
    for m in c_aux.into_iter().chain(d_aux.into_iter().flatten()) {
        pool.put_matrix(m);
    }

    // The outer part shell comes from the pool too, so a steady-state
    // multiply of recycled operands allocates nothing at all.
    let mut parts = pool.take_parts();
    for (x_q, x_aux) in e_q.into_iter().zip(e_aux) {
        parts.push(rescale(ctx, pool, x_q, x_aux));
    }
    Ciphertext { parts }
}

/// Rescales one tensor part: `y = (t·x − [t·x]_Q) / Q`, all in RNS and
/// entirely in pooled buffers. Consumes (and recycles) both input
/// matrices; the returned evaluation-form part owns a pooled matrix.
fn rescale(
    ctx: &BfvContext,
    pool: &ScratchPool,
    mut e_q: Vec<Vec<u64>>,
    mut e_aux: Vec<Vec<u64>>,
) -> RnsPoly {
    let ring = ctx.ring();
    let aux = ctx.aux_ring();
    for (i, r) in e_q.iter_mut().enumerate() {
        ring.ntt(i).inverse(r);
    }
    for (j, r) in e_aux.iter_mut().enumerate() {
        aux.ntt(j).inverse(r);
    }
    // s = t·x mod Q, scaled in place (the raw tensor part is dead), then
    // its centered remainder lifted Q → B.
    for ((r, &q), &(t_q, t_q_shoup)) in e_q.iter_mut().zip(ring.primes()).zip(ctx.t_mod_q()) {
        for x in r.iter_mut() {
            *x = mul_mod_shoup(*x, t_q, t_q_shoup, q);
        }
    }
    let mut r_aux = pool.take_matrix(aux.num_primes(), aux.degree());
    ctx.q_to_aux().convert_centered_into(&e_q, pool, &mut r_aux);
    pool.put_matrix(e_q);
    // y mod b_j = (t·x − r)·Q⁻¹ = x·(t·Q⁻¹) − r·Q⁻¹ mod b_j, two Shoup
    // multiplies per slot (constants precomputed on the context).
    for (j, yr) in e_aux.iter_mut().enumerate() {
        let b = aux.primes()[j];
        let (q_inv, q_inv_shoup) = ctx.q_inv_mod_aux()[j];
        let (tq, tq_shoup) = ctx.t_q_inv_mod_aux()[j];
        for (yc, &rc) in yr.iter_mut().zip(&r_aux[j]) {
            *yc = sub_mod(
                mul_mod_shoup(*yc, tq, tq_shoup, b),
                mul_mod_shoup(rc, q_inv, q_inv_shoup, b),
                b,
            );
        }
    }
    pool.put_matrix(r_aux);
    // Shrink B → Q and return to evaluation form.
    let mut y_q = pool.take_matrix(ring.num_primes(), ring.degree());
    ctx.aux_to_q().convert_centered_into(&e_aux, pool, &mut y_q);
    pool.put_matrix(e_aux);
    let mut out = RnsPoly {
        residues: y_q,
        form: PolyForm::Coeff,
    };
    ring.make_eval(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::BfvParams;
    use rand::SeedableRng;

    struct Fixture {
        ctx: BfvContext,
    }

    struct Session<'a> {
        encoder: BatchEncoder<'a>,
        enc: Encryptor<'a>,
        dec: Decryptor<'a>,
        ev: Evaluator<'a>,
        kg: KeyGenerator<'a>,
        rng: rand::rngs::StdRng,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                ctx: BfvContext::new(BfvParams::test_small()).unwrap(),
            }
        }

        fn session(&self) -> Session<'_> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xE7A1);
            let kg = KeyGenerator::new(&self.ctx, &mut rng);
            let enc = Encryptor::new(&self.ctx, kg.public_key(&mut rng));
            let dec = Decryptor::new(&self.ctx, kg.secret_key().clone());
            Session {
                encoder: BatchEncoder::new(&self.ctx),
                enc,
                dec,
                ev: Evaluator::new(&self.ctx),
                kg,
                rng,
            }
        }
    }

    #[test]
    fn homomorphic_add_sub_neg() {
        let f = Fixture::new();
        let mut s = f.session();
        let t = f.ctx.params().plain_modulus;
        let a = s.enc.encrypt(&s.encoder.encode(&[5, 7, 100]), &mut s.rng);
        let b = s.enc.encrypt(&s.encoder.encode(&[3, 9, 65530]), &mut s.rng);
        let sum = s.encoder.decode(&s.dec.decrypt(&s.ev.add(&a, &b)));
        assert_eq!(&sum[..3], &[8, 16, (100 + 65530) % t]);
        let diff = s.encoder.decode(&s.dec.decrypt(&s.ev.sub(&a, &b)));
        assert_eq!(&diff[..3], &[2, (t - 2) % t, (100 + t - 65530) % t]);
        let neg = s.encoder.decode(&s.dec.decrypt(&s.ev.negate(&a)));
        assert_eq!(&neg[..3], &[t - 5, t - 7, t - 100]);
    }

    #[test]
    fn plain_ops() {
        let f = Fixture::new();
        let mut s = f.session();
        let a = s.enc.encrypt(&s.encoder.encode(&[10, 20, 30]), &mut s.rng);
        let p = s.encoder.encode(&[1, 2, 3]);
        let added = s.encoder.decode(&s.dec.decrypt(&s.ev.add_plain(&a, &p)));
        assert_eq!(&added[..3], &[11, 22, 33]);
        let subbed = s.encoder.decode(&s.dec.decrypt(&s.ev.sub_plain(&a, &p)));
        assert_eq!(&subbed[..3], &[9, 18, 27]);
        let mulled = s.encoder.decode(&s.dec.decrypt(&s.ev.mul_plain(&a, &p)));
        assert_eq!(&mulled[..3], &[10, 40, 90]);
    }

    #[test]
    fn ciphertext_multiply_and_relinearize() {
        let f = Fixture::new();
        let mut s = f.session();
        let a = s.enc.encrypt(&s.encoder.encode(&[6, 7, 255]), &mut s.rng);
        let b = s.enc.encrypt(&s.encoder.encode(&[7, 8, 255]), &mut s.rng);
        let prod3 = s.ev.multiply(&a, &b);
        assert_eq!(prod3.size(), 3);
        // size-3 decrypts correctly
        let direct = s.encoder.decode(&s.dec.decrypt(&prod3));
        assert_eq!(&direct[..3], &[42, 56, 65025]);
        // relinearized decrypts correctly
        let rk = s.kg.relin_key(&mut s.rng);
        let prod2 = s.ev.relinearize(&prod3, &rk);
        assert_eq!(prod2.size(), 2);
        let relin = s.encoder.decode(&s.dec.decrypt(&prod2));
        assert_eq!(&relin[..3], &[42, 56, 65025]);
        assert!(s.dec.invariant_noise_budget(&prod2) > 0);
    }

    #[test]
    fn mixed_size_add_sub_zero_pad() {
        // Size-3 ⊕ size-2 treats the missing third part as zero, in both
        // argument orders — the zero-padding contract of `zip`.
        let f = Fixture::new();
        let mut s = f.session();
        let t = f.ctx.params().plain_modulus;
        let a = s.enc.encrypt(&s.encoder.encode(&[6, 7, 8]), &mut s.rng);
        let b = s.enc.encrypt(&s.encoder.encode(&[9, 10, 11]), &mut s.rng);
        let c = s
            .enc
            .encrypt(&s.encoder.encode(&[100, 200, 300]), &mut s.rng);
        let prod3 = s.ev.multiply(&a, &b); // size 3
        assert_eq!(prod3.size(), 3);

        let sum = s.ev.add(&prod3, &c);
        assert_eq!(sum.size(), 3);
        let got = s.encoder.decode(&s.dec.decrypt(&sum));
        assert_eq!(&got[..3], &[154, 270, 388]); // a·b + c

        let diff = s.ev.sub(&prod3, &c);
        assert_eq!(diff.size(), 3);
        let got = s.encoder.decode(&s.dec.decrypt(&diff));
        assert_eq!(
            &got[..3],
            &[(54 + t - 100) % t, (70 + t - 200) % t, (88 + t - 300) % t]
        );

        // size-2 minus size-3: the pad is on the left operand
        let diff = s.ev.sub(&c, &prod3);
        assert_eq!(diff.size(), 3);
        let got = s.encoder.decode(&s.dec.decrypt(&diff));
        assert_eq!(
            &got[..3],
            &[(100 + t - 54) % t, (200 + t - 70) % t, (300 + t - 88) % t]
        );
    }

    #[test]
    fn rotations_match_slot_semantics() {
        let f = Fixture::new();
        let mut s = f.session();
        let n = s.encoder.slot_count();
        let half = n / 2;
        let v: Vec<u64> = (0..n as u64).collect();
        let ct = s.enc.encrypt(&s.encoder.encode(&v), &mut s.rng);
        let gk = s.kg.galois_keys_for_rotations(&[1, -2], true, &mut s.rng);

        let left1 = s
            .encoder
            .decode(&s.dec.decrypt(&s.ev.rotate_rows(&ct, 1, &gk)));
        for i in 0..half {
            assert_eq!(left1[i], v[(i + 1) % half]);
            assert_eq!(left1[half + i], v[half + (i + 1) % half]);
        }
        let right2 = s
            .encoder
            .decode(&s.dec.decrypt(&s.ev.rotate_rows(&ct, -2, &gk)));
        for i in 0..half {
            assert_eq!(right2[i], v[(i + half - 2) % half]);
        }
        let swapped = s
            .encoder
            .decode(&s.dec.decrypt(&s.ev.rotate_columns(&ct, &gk)));
        for i in 0..half {
            assert_eq!(swapped[i], v[half + i]);
            assert_eq!(swapped[half + i], v[i]);
        }
    }

    #[test]
    fn rotation_of_zero_steps_is_identity() {
        let f = Fixture::new();
        let mut s = f.session();
        let ct = s.enc.encrypt(&s.encoder.encode(&[9, 8, 7]), &mut s.rng);
        let gk = s.kg.galois_keys(&[], &mut s.rng);
        let same = s.ev.rotate_rows(&ct, 0, &gk);
        assert_eq!(s.encoder.decode(&s.dec.decrypt(&same))[..3], [9, 8, 7]);
    }

    #[test]
    fn rotation_steps_wrap_modulo_row_size() {
        // rotate_rows(ct, k) == rotate_rows(ct, k mod N/2) for any i64 k,
        // including the former panic cases k = ±N/2 and beyond.
        let f = Fixture::new();
        let mut s = f.session();
        let n = s.encoder.slot_count();
        let half = (n / 2) as i64;
        let v: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % 65537).collect();
        let ct = s.enc.encrypt(&s.encoder.encode(&v), &mut s.rng);
        let gk =
            s.kg.galois_keys_for_rotations(&[0, 3, half - 2], false, &mut s.rng);
        for (big, small) in [
            (half, 0),
            (half + 3, 3),
            (2 * half + 3, 3),
            (-half, 0),
            (3 - half, 3),
            (-2 * half - 2, half - 2),
        ] {
            let a = s.ev.rotate_rows(&ct, big, &gk);
            let b = s.ev.rotate_rows(&ct, small, &gk);
            assert_eq!(
                s.encoder.decode(&s.dec.decrypt(&a)),
                s.encoder.decode(&s.dec.decrypt(&b)),
                "steps {big} vs {small}"
            );
        }
    }

    #[test]
    fn multiply_depth_two_survives() {
        let f = Fixture::new();
        let mut s = f.session();
        let rk = s.kg.relin_key(&mut s.rng);
        let a = s.enc.encrypt(&s.encoder.encode(&[3]), &mut s.rng);
        let sq = s.ev.multiply_relin(&a, &a, &rk);
        let quad = s.ev.multiply_relin(&sq, &sq, &rk);
        let out = s.encoder.decode(&s.dec.decrypt(&quad));
        assert_eq!(out[0], 81);
        let budget = s.dec.invariant_noise_budget(&quad);
        assert!(budget > 0, "depth-2 budget exhausted: {budget}");
    }

    #[test]
    fn noise_budget_decreases_monotonically() {
        let f = Fixture::new();
        let mut s = f.session();
        let rk = s.kg.relin_key(&mut s.rng);
        let a = s.enc.encrypt(&s.encoder.encode(&[2]), &mut s.rng);
        let fresh = s.dec.invariant_noise_budget(&a);
        let sq = s.ev.multiply_relin(&a, &a, &rk);
        let after_mul = s.dec.invariant_noise_budget(&sq);
        assert!(
            after_mul < fresh,
            "mul must consume budget ({fresh} -> {after_mul})"
        );
        let sum = s.ev.add(&sq, &sq);
        let after_add = s.dec.invariant_noise_budget(&sum);
        assert!(
            after_add <= after_mul + 1,
            "add grows noise additively only"
        );
    }
}
