//! RNS polynomials in `Z_Q[x]/(x^N + 1)` and their ring context, with a
//! **double-CRT** (RNS × NTT) resident representation.
//!
//! An [`RnsPoly`] stores one residue vector per RNS prime and a
//! [`PolyForm`] tag saying whether those vectors hold power-basis
//! coefficients or per-prime NTT evaluations. The evaluator keeps
//! ciphertexts and keys in [`PolyForm::Eval`] so that add/sub/negate,
//! polynomial products, and Galois automorphisms (a pure index permutation
//! in the evaluation domain) never pay a number-theoretic transform;
//! [`PolyForm::Coeff`] appears only where an operation genuinely needs
//! coefficients — RNS digit decomposition for key switching, and base
//! conversion inside the multiply and at decryption. Conversions are exact
//! NTT round-trips, so the represented ring element is identical in either
//! form.
//!
//! Exact lifting to centered big integers (noise metering) goes through
//! [`RingContext::lift_centered`].

use crate::bigint::{center, BigInt, BigUint};
use crate::ntt::NttTables;
use crate::rns::RnsContext;
use crate::zq::{add_mod, sub_mod, Barrett};
use rand::Rng;

/// The representation of an [`RnsPoly`]'s residue vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyForm {
    /// Power-basis coefficients modulo each prime.
    Coeff,
    /// Double-CRT: per-prime negacyclic NTT evaluations (see
    /// [`crate::ntt::NttTables::forward`]).
    Eval,
}

/// Shared precomputation for a ring `Z_Q[x]/(x^N + 1)` with RNS modulus
/// `Q = ∏ q_i`: per-prime NTT tables plus CRT data.
#[derive(Debug)]
pub struct RingContext {
    n: usize,
    rns: RnsContext,
    ntt: Vec<NttTables>,
    barrett: Vec<Barrett>,
}

impl RingContext {
    /// Builds a context for degree `n` and the given primes (each must be
    /// ≡ 1 mod 2n).
    ///
    /// # Panics
    ///
    /// Panics if any prime is not NTT-friendly for degree `n`.
    pub fn new(n: usize, primes: Vec<u64>) -> Self {
        let ntt = primes.iter().map(|&p| NttTables::new(p, n)).collect();
        let barrett = primes.iter().map(|&p| Barrett::new(p)).collect();
        RingContext {
            n,
            rns: RnsContext::new(primes),
            ntt,
            barrett,
        }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The RNS primes.
    pub fn primes(&self) -> &[u64] {
        self.rns.primes()
    }

    /// Number of RNS components.
    pub fn num_primes(&self) -> usize {
        self.rns.len()
    }

    /// The CRT context.
    pub fn rns(&self) -> &RnsContext {
        &self.rns
    }

    /// The full coefficient modulus `Q`.
    pub fn modulus(&self) -> &BigUint {
        self.rns.modulus()
    }

    /// NTT tables for RNS component `i`.
    pub fn ntt(&self, i: usize) -> &NttTables {
        &self.ntt[i]
    }

    /// Precomputed Barrett reducers, one per RNS prime — shared by every
    /// hot-path caller so no per-call reducer setup is needed.
    pub fn barretts(&self) -> &[Barrett] {
        &self.barrett
    }

    /// The all-zero polynomial in coefficient form.
    pub fn zero(&self) -> RnsPoly {
        self.zero_as(PolyForm::Coeff)
    }

    /// The all-zero polynomial in evaluation form (zero transforms to
    /// zero, so the tag is free to choose).
    pub fn zero_eval(&self) -> RnsPoly {
        self.zero_as(PolyForm::Eval)
    }

    fn zero_as(&self, form: PolyForm) -> RnsPoly {
        RnsPoly {
            residues: vec![vec![0u64; self.n]; self.rns.len()],
            form,
        }
    }

    /// Converts `a` to evaluation form in place (no-op if already there).
    pub fn make_eval(&self, a: &mut RnsPoly) {
        if a.form == PolyForm::Coeff {
            for (t, r) in self.ntt.iter().zip(a.residues.iter_mut()) {
                t.forward(r);
            }
            a.form = PolyForm::Eval;
        }
    }

    /// Converts `a` to coefficient form in place (no-op if already there).
    pub fn make_coeff(&self, a: &mut RnsPoly) {
        if a.form == PolyForm::Eval {
            for (t, r) in self.ntt.iter().zip(a.residues.iter_mut()) {
                t.inverse(r);
            }
            a.form = PolyForm::Coeff;
        }
    }

    /// Returns `a` in evaluation form (clones; no-op transform if already
    /// there).
    pub fn to_eval(&self, a: &RnsPoly) -> RnsPoly {
        let mut out = a.clone();
        self.make_eval(&mut out);
        out
    }

    /// Returns `a` in coefficient form (clones; no-op transform if already
    /// there).
    pub fn to_coeff(&self, a: &RnsPoly) -> RnsPoly {
        let mut out = a.clone();
        self.make_coeff(&mut out);
        out
    }

    /// Builds a polynomial from small unsigned coefficients (reduced modulo
    /// each prime), in coefficient form.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub fn from_u64_coeffs(&self, coeffs: &[u64]) -> RnsPoly {
        assert_eq!(coeffs.len(), self.n);
        let residues = self
            .rns
            .primes()
            .iter()
            .map(|&p| {
                coeffs
                    .iter()
                    .map(|&c| if c < p { c } else { c % p })
                    .collect()
            })
            .collect();
        RnsPoly {
            residues,
            form: PolyForm::Coeff,
        }
    }

    /// Builds a polynomial from signed coefficients (centered lift), in
    /// coefficient form.
    pub fn from_i64_coeffs(&self, coeffs: &[i64]) -> RnsPoly {
        assert_eq!(coeffs.len(), self.n);
        let residues = self
            .rns
            .primes()
            .iter()
            .map(|&p| coeffs.iter().map(|&c| signed_residue(c, p)).collect())
            .collect();
        RnsPoly {
            residues,
            form: PolyForm::Coeff,
        }
    }

    /// Builds a polynomial from exact centered big-integer coefficients, in
    /// coefficient form.
    pub fn from_centered(&self, coeffs: &[BigInt]) -> RnsPoly {
        assert_eq!(coeffs.len(), self.n);
        let residues = self
            .rns
            .primes()
            .iter()
            .map(|&p| coeffs.iter().map(|c| c.rem_euclid_u64(p)).collect())
            .collect();
        RnsPoly {
            residues,
            form: PolyForm::Coeff,
        }
    }

    /// Lifts every coefficient to its exact centered representative in
    /// `(-Q/2, Q/2]`, converting out of evaluation form first if needed.
    pub fn lift_centered(&self, poly: &RnsPoly) -> Vec<BigInt> {
        if poly.form == PolyForm::Eval {
            return self.lift_centered(&self.to_coeff(poly));
        }
        let q = self.rns.modulus();
        (0..self.n)
            .map(|c| {
                let residues: Vec<u64> = (0..self.rns.len()).map(|i| poly.residues[i][c]).collect();
                center(&self.rns.reconstruct(&residues), q)
            })
            .collect()
    }

    /// Uniformly random polynomial in `R_Q`, tagged evaluation form
    /// (uniform per RNS component is uniform mod `Q` by CRT, and the NTT is
    /// a bijection, so uniformity holds in either representation; the
    /// evaluation tag keeps public keys and key-switch masks NTT-resident
    /// for free).
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> RnsPoly {
        let residues = self
            .rns
            .primes()
            .iter()
            .map(|&p| (0..self.n).map(|_| rng.gen_range(0..p)).collect())
            .collect();
        RnsPoly {
            residues,
            form: PolyForm::Eval,
        }
    }

    /// Random ternary polynomial with coefficients in `{-1, 0, 1}`, in
    /// coefficient form.
    pub fn sample_ternary<R: Rng + ?Sized>(&self, rng: &mut R) -> RnsPoly {
        let coeffs: Vec<i64> = (0..self.n).map(|_| rng.gen_range(-1..=1)).collect();
        self.from_i64_coeffs(&coeffs)
    }

    /// Random error polynomial from a centered binomial distribution with
    /// parameter η = 10 (σ ≈ 2.24); stands in for SEAL's σ = 3.2 discrete
    /// Gaussian, which only shifts noise-budget constants. Coefficient form.
    pub fn sample_error<R: Rng + ?Sized>(&self, rng: &mut R) -> RnsPoly {
        let coeffs: Vec<i64> = (0..self.n)
            .map(|_| {
                let a = (rng.gen::<u16>() & 0x3ff).count_ones() as i64;
                let b = (rng.gen::<u16>() & 0x3ff).count_ones() as i64;
                a - b
            })
            .collect();
        self.from_i64_coeffs(&coeffs)
    }

    /// Componentwise sum. Mixed-form operands are normalized to evaluation
    /// form; same-form operands stay in their form.
    pub fn add(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.zip(a, b, add_mod)
    }

    /// Componentwise difference (same form rules as [`RingContext::add`]).
    pub fn sub(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.zip(a, b, sub_mod)
    }

    /// `a += b`, allocation-free when the forms already match (the
    /// evaluator's steady state). Mixed forms normalize to evaluation form,
    /// which pays `b`'s transform into a temporary.
    pub fn add_assign(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.zip_assign(a, b, add_mod)
    }

    /// `a -= b` (same form rules as [`RingContext::add_assign`]).
    pub fn sub_assign(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.zip_assign(a, b, sub_mod)
    }

    // Generic over `F` (not an `fn` pointer) so the modular op inlines into
    // the inner loop and autovectorizes.
    fn zip_assign<F: Fn(u64, u64, u64) -> u64 + Copy>(&self, a: &mut RnsPoly, b: &RnsPoly, f: F) {
        if a.form != b.form {
            self.make_eval(a);
            let be = self.to_eval(b);
            return self.zip_assign(a, &be, f);
        }
        for (&p, (ar, br)) in self
            .rns
            .primes()
            .iter()
            .zip(a.residues.iter_mut().zip(&b.residues))
        {
            for (x, &y) in ar.iter_mut().zip(br) {
                *x = f(*x, y, p);
            }
        }
    }

    /// Negation (form-preserving).
    pub fn neg(&self, a: &RnsPoly) -> RnsPoly {
        let mut out = a.clone();
        self.neg_assign(&mut out);
        out
    }

    /// `a = -a` (form-preserving, allocation-free).
    pub fn neg_assign(&self, a: &mut RnsPoly) {
        for (&p, r) in self.rns.primes().iter().zip(a.residues.iter_mut()) {
            for x in r.iter_mut() {
                *x = if *x == 0 { 0 } else { p - *x };
            }
        }
    }

    fn zip<F: Fn(u64, u64, u64) -> u64 + Copy>(&self, a: &RnsPoly, b: &RnsPoly, f: F) -> RnsPoly {
        if a.form != b.form {
            return self.zip(&self.to_eval(a), &self.to_eval(b), f);
        }
        let residues = self
            .rns
            .primes()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                a.residues[i]
                    .iter()
                    .zip(&b.residues[i])
                    .map(|(&x, &y)| f(x, y, p))
                    .collect()
            })
            .collect();
        RnsPoly {
            residues,
            form: a.form,
        }
    }

    /// Negacyclic product. In the double-CRT representation this is a pure
    /// pointwise product; coefficient-form operands are transformed first.
    /// The result is in evaluation form.
    pub fn mul(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let (ae, be);
        let a = if a.form == PolyForm::Eval {
            a
        } else {
            ae = self.to_eval(a);
            &ae
        };
        let b = if b.form == PolyForm::Eval {
            b
        } else {
            be = self.to_eval(b);
            &be
        };
        let residues = self
            .barrett
            .iter()
            .enumerate()
            .map(|(i, &bar)| {
                let mut out = vec![0u64; self.n];
                crate::ntt::pointwise_mul_into(&a.residues[i], &b.residues[i], bar, &mut out);
                out
            })
            .collect();
        RnsPoly {
            residues,
            form: PolyForm::Eval,
        }
    }

    /// `a *= b` pointwise in the transform domain, allocation-free when
    /// both operands are already evaluation-resident. `a` is transformed in
    /// place if needed; a coefficient-form `b` pays its transform into a
    /// temporary (cold path).
    pub fn mul_assign(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.make_eval(a);
        if b.form != PolyForm::Eval {
            let be = self.to_eval(b);
            return self.mul_assign(a, &be);
        }
        for (i, &bar) in self.barrett.iter().enumerate() {
            crate::ntt::pointwise_mul_assign(&mut a.residues[i], &b.residues[i], bar);
        }
    }

    /// Multiplies every coefficient by the integer whose per-prime residues
    /// are `scalar_residues` (e.g. `Δ mod q_i`). Form-preserving: scalar
    /// multiplication commutes with the NTT.
    pub fn mul_scalar_residues(&self, a: &RnsPoly, scalar_residues: &[u64]) -> RnsPoly {
        assert_eq!(scalar_residues.len(), self.rns.len());
        let residues = self
            .rns
            .primes()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let w = scalar_residues[i];
                let w_shoup = crate::zq::shoup_precompute(w, p);
                a.residues[i]
                    .iter()
                    .map(|&x| crate::zq::mul_mod_shoup(x, w, w_shoup, p))
                    .collect()
            })
            .collect();
        RnsPoly {
            residues,
            form: a.form,
        }
    }

    /// The index permutation implementing the Galois automorphism
    /// `x → x^g` in the evaluation domain: with the natural-order NTT
    /// (`out[j] = m(ψ^(2j+1))`), `σ_g(m)(ψ^(2j+1)) = m(ψ^((2j+1)g mod 2N))`,
    /// so slot `j` of the output simply reads slot `((2j+1)g mod 2N − 1)/2`
    /// of the input — no modular arithmetic at apply time.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or out of range `[1, 2N)`.
    pub fn galois_eval_permutation(&self, g: u64) -> Vec<u32> {
        let two_n = 2 * self.n as u64;
        assert!(g % 2 == 1 && g < two_n, "invalid Galois element {g}");
        (0..self.n as u64)
            .map(|j| ((((2 * j + 1) * g) % two_n - 1) / 2) as u32)
            .collect()
    }

    /// Applies a precomputed evaluation-domain permutation (from
    /// [`RingContext::galois_eval_permutation`]) to an evaluation-form
    /// polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not in evaluation form or the permutation length
    /// differs from `N`.
    pub fn apply_eval_permutation(&self, a: &RnsPoly, perm: &[u32]) -> RnsPoly {
        assert_eq!(a.form, PolyForm::Eval, "permutation needs evaluation form");
        assert_eq!(perm.len(), self.n);
        let residues = a
            .residues
            .iter()
            .map(|r| perm.iter().map(|&j| r[j as usize]).collect())
            .collect();
        RnsPoly {
            residues,
            form: PolyForm::Eval,
        }
    }

    /// Applies a precomputed evaluation-domain permutation in place, using
    /// one caller-provided `N`-length scratch row (no allocation). The
    /// scratch contents on return are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not in evaluation form or the permutation length
    /// differs from `N`.
    pub fn apply_eval_permutation_assign(
        &self,
        a: &mut RnsPoly,
        perm: &[u32],
        scratch: &mut Vec<u64>,
    ) {
        assert_eq!(a.form, PolyForm::Eval, "permutation needs evaluation form");
        assert_eq!(perm.len(), self.n);
        scratch.resize(self.n, 0);
        for r in a.residues.iter_mut() {
            for (dst, &j) in scratch.iter_mut().zip(perm) {
                *dst = r[j as usize];
            }
            std::mem::swap(r, scratch);
        }
    }

    /// Applies the Galois automorphism `x → x^g` (g odd, `1 ≤ g < 2N`),
    /// form-preserving. In evaluation form this is the index permutation of
    /// [`RingContext::galois_eval_permutation`]; in coefficient form it is
    /// the sign-wrapping monomial map.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or out of range.
    pub fn automorphism(&self, a: &RnsPoly, g: u64) -> RnsPoly {
        if a.form == PolyForm::Eval {
            return self.apply_eval_permutation(a, &self.galois_eval_permutation(g));
        }
        let n = self.n as u64;
        assert!(g % 2 == 1 && g < 2 * n, "invalid Galois element {g}");
        let mut out = self.zero();
        for (i, &p) in self.rns.primes().iter().enumerate() {
            for c in 0..self.n {
                let target = (c as u64 * g) % (2 * n);
                let v = a.residues[i][c];
                if target < n {
                    out.residues[i][target as usize] =
                        add_mod(out.residues[i][target as usize], v, p);
                } else {
                    out.residues[i][(target - n) as usize] =
                        sub_mod(out.residues[i][(target - n) as usize], v, p);
                }
            }
        }
        out
    }
}

/// `c mod p` in `[0, p)`. Every sampled secret and error coefficient is
/// below `p` in magnitude, which needs only a conditional add of `p`; the
/// division is left for the rest (e.g. `i64::MIN`).
#[inline]
fn signed_residue(c: i64, p: u64) -> u64 {
    if c.unsigned_abs() < p {
        // |c| < p < 2^62, so c + p cannot overflow.
        (c + ((c >> 63) & p as i64)) as u64
    } else {
        let r = c % p as i64;
        if r < 0 {
            (r + p as i64) as u64
        } else {
            r as u64
        }
    }
}

/// A polynomial in `Z_Q[x]/(x^N + 1)`, stored as one residue vector per RNS
/// prime, in either coefficient or evaluation (double-CRT) form. Equality
/// compares representation as well as value: the same ring element in two
/// different forms is *not* `==` (convert first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    /// `residues[prime_index][coeff_index]` (or `[eval_index]` in
    /// evaluation form). Public so scheme backends can implement their hot
    /// paths directly on the residue matrices; treat as read/write raw
    /// storage and keep `form` consistent.
    pub residues: Vec<Vec<u64>>,
    /// Which representation `residues` holds. Backends flipping this field
    /// by hand must actually transform the residues to match.
    pub form: PolyForm,
}

impl RnsPoly {
    /// Residues for RNS component `i`.
    pub fn component(&self, i: usize) -> &[u64] {
        &self.residues[i]
    }

    /// Which representation the residues are in.
    pub fn form(&self) -> PolyForm {
        self.form
    }

    /// True if every residue is zero (the zero polynomial in either form).
    pub fn is_zero(&self) -> bool {
        self.residues.iter().all(|r| r.iter().all(|&x| x == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx(n: usize, k: usize) -> RingContext {
        let primes = crate::zq::ntt_primes(45, 2 * n as u64, k, &[]);
        RingContext::new(n, primes)
    }

    #[test]
    fn add_sub_roundtrip() {
        let ctx = ctx(64, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = ctx.sample_uniform(&mut rng);
        let b = ctx.sample_uniform(&mut rng);
        let s = ctx.add(&a, &b);
        assert_eq!(ctx.sub(&s, &b), a);
        assert_eq!(ctx.sub(&s, &a), b);
        assert_eq!(ctx.add(&a, &ctx.neg(&a)), ctx.zero_eval());
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let ctx = ctx(32, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = ctx.sample_uniform(&mut rng);
        let b = ctx.sample_uniform(&mut rng);
        let c = ctx.sample_uniform(&mut rng);
        assert_eq!(ctx.mul(&a, &b), ctx.mul(&b, &a));
        let lhs = ctx.mul(&a, &ctx.add(&b, &c));
        let rhs = ctx.add(&ctx.mul(&a, &b), &ctx.mul(&a, &c));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn form_conversion_roundtrips() {
        let ctx = ctx(32, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = ctx.sample_uniform(&mut rng);
        assert_eq!(a.form(), PolyForm::Eval);
        let c = ctx.to_coeff(&a);
        assert_eq!(c.form(), PolyForm::Coeff);
        assert_eq!(ctx.to_eval(&c), a);
        // to_eval/to_coeff are no-ops on already-converted polys
        assert_eq!(ctx.to_eval(&a), a);
        assert_eq!(ctx.to_coeff(&c), c);
    }

    #[test]
    fn eval_mul_matches_coeff_mul() {
        // Pointwise product in eval form computes the same ring product as
        // the coefficient-form NTT multiply.
        let ctx = ctx(16, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let a = ctx.to_coeff(&ctx.sample_uniform(&mut rng));
        let b = ctx.to_coeff(&ctx.sample_uniform(&mut rng));
        let via_coeff = ctx.mul(&a, &b);
        let via_eval = ctx.mul(&ctx.to_eval(&a), &ctx.to_eval(&b));
        assert_eq!(via_coeff, via_eval);
        // and it matches schoolbook on each prime
        for (i, &p) in ctx.primes().iter().enumerate() {
            let expect = crate::ntt::negacyclic_mul_schoolbook(a.component(i), b.component(i), p);
            assert_eq!(ctx.to_coeff(&via_eval).component(i), &expect[..]);
        }
    }

    #[test]
    fn centered_lift_roundtrip() {
        let ctx = ctx(16, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = ctx.sample_uniform(&mut rng);
        // lift converts out of eval form internally
        let lifted = ctx.lift_centered(&a);
        assert_eq!(ctx.from_centered(&lifted), ctx.to_coeff(&a));
        // centered magnitudes are at most Q/2
        let half = ctx.modulus().shr_bits(1);
        for c in &lifted {
            assert!(c.mag.cmp_big(&half) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn signed_coeffs_center_correctly() {
        let ctx = ctx(4, 2);
        let p = ctx.from_i64_coeffs(&[-1, 2, -3, 0]);
        let lifted = ctx.lift_centered(&p);
        assert_eq!(lifted[0], BigInt::from_i64(-1));
        assert_eq!(lifted[1], BigInt::from_i64(2));
        assert_eq!(lifted[2], BigInt::from_i64(-3));
        assert_eq!(lifted[3], BigInt::from_i64(0));
    }

    /// The conditional-add path for `|c| < p` agrees with the division it
    /// skips, at the edges of both paths.
    #[test]
    fn signed_residue_matches_remainder() {
        let rem = |c: i64, p: u64| {
            let r = c % p as i64;
            if r < 0 {
                (r + p as i64) as u64
            } else {
                r as u64
            }
        };
        for p in [
            3,
            65537,
            (1u64 << 61) - 1,
            crate::zq::ntt_primes(62, 8, 1, &[])[0],
        ] {
            let q = p as i64;
            for c in [
                0,
                1,
                -1,
                q - 1,
                1 - q,
                q,
                -q,
                q + 1,
                -q - 1,
                i64::MIN,
                i64::MAX,
            ] {
                assert_eq!(signed_residue(c, p), rem(c, p), "c = {c}, p = {p}");
            }
        }
    }

    #[test]
    fn automorphism_identity_and_composition() {
        let ctx = ctx(16, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = ctx.sample_uniform(&mut rng);
        assert_eq!(ctx.automorphism(&a, 1), a);
        // sigma_g1 . sigma_g2 = sigma_{g1 g2 mod 2N}
        let g1 = 3u64;
        let g2 = 5u64;
        let lhs = ctx.automorphism(&ctx.automorphism(&a, g1), g2);
        let rhs = ctx.automorphism(&a, (g1 * g2) % 32);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn eval_automorphism_matches_coeff_automorphism() {
        let ctx = ctx(32, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a_eval = ctx.sample_uniform(&mut rng);
        let a_coeff = ctx.to_coeff(&a_eval);
        for g in [3u64, 5, 9, 63] {
            let via_eval = ctx.to_coeff(&ctx.automorphism(&a_eval, g));
            let via_coeff = ctx.automorphism(&a_coeff, g);
            assert_eq!(via_eval, via_coeff, "g = {g}");
        }
    }

    #[test]
    fn automorphism_matches_poly_eval() {
        // sigma_g(x^k) = x^{gk mod 2N} with sign wrap; check on a monomial.
        let ctx = ctx(8, 2);
        let mut coeffs = vec![0u64; 8];
        coeffs[3] = 1; // x^3
        let a = ctx.from_u64_coeffs(&coeffs);
        let b = ctx.automorphism(&a, 5); // x^15 = x^15-8 * (x^8=-1) => -x^7
        let lifted = ctx.lift_centered(&b);
        assert_eq!(lifted[7], BigInt::from_i64(-1));
        for coeff in lifted.iter().take(7) {
            assert!(coeff.is_zero());
        }
    }

    #[test]
    fn error_and_ternary_are_small() {
        let ctx = ctx(256, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for poly in [ctx.sample_ternary(&mut rng), ctx.sample_error(&mut rng)] {
            for c in ctx.lift_centered(&poly) {
                assert!(c.mag.to_u64().unwrap() <= 10);
            }
        }
    }
}
