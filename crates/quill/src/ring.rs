//! The ring abstraction reference kernels are written against.
//!
//! The paper lifts Racket reference implementations to symbolic expressions
//! with Rosette. We get the same effect by writing each reference kernel
//! once, generically over [`Ring`], and instantiating it twice: with
//! [`Zt`] for concrete evaluation (CEGIS examples) and with
//! [`crate::symbolic::SymPoly`] for exact symbolic verification.

use std::fmt::Debug;

/// Elements of a commutative ring with a "same context" constructor.
///
/// `from_i64` builds a constant in the **same context** as `self` (same
/// modulus, same variable universe) — the template-element pattern avoids
/// threading a context parameter through every kernel.
pub trait Ring: Clone + Debug + PartialEq {
    /// Sum.
    fn add(&self, other: &Self) -> Self;
    /// Difference.
    fn sub(&self, other: &Self) -> Self;
    /// Product.
    fn mul(&self, other: &Self) -> Self;
    /// Additive inverse.
    fn neg(&self) -> Self;
    /// A constant in the same context as `self` (`&self` supplies the
    /// modulus, so this deliberately breaks the `from_*` convention).
    #[allow(clippy::wrong_self_convention)]
    fn from_i64(&self, v: i64) -> Self;
    /// Whether this is the additive identity.
    fn is_zero(&self) -> bool;
}

/// An element of `Z_t`, carrying its modulus.
///
/// # Examples
///
/// ```
/// use quill::ring::{Ring, Zt};
///
/// let a = Zt::new(5, 17);
/// let b = a.from_i64(-3); // same modulus
/// assert_eq!(a.add(&b).value(), 2);
/// assert_eq!(a.mul(&b).value(), (5 * 14) % 17);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Zt {
    value: u64,
    modulus: u64,
}

impl Zt {
    /// A value mod `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 2`.
    pub fn new(value: u64, modulus: u64) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        Zt {
            value: value % modulus,
            modulus,
        }
    }

    /// The representative in `[0, t)`.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The modulus `t`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Centered representative in `(-t/2, t/2]`.
    pub fn centered(&self) -> i64 {
        if self.value > self.modulus / 2 {
            self.value as i64 - self.modulus as i64
        } else {
            self.value as i64
        }
    }
}

impl Ring for Zt {
    fn add(&self, other: &Self) -> Self {
        debug_assert_eq!(self.modulus, other.modulus);
        Zt {
            value: (self.value + other.value) % self.modulus,
            modulus: self.modulus,
        }
    }

    fn sub(&self, other: &Self) -> Self {
        debug_assert_eq!(self.modulus, other.modulus);
        Zt {
            value: (self.value + self.modulus - other.value) % self.modulus,
            modulus: self.modulus,
        }
    }

    fn mul(&self, other: &Self) -> Self {
        debug_assert_eq!(self.modulus, other.modulus);
        Zt {
            value: ((self.value as u128 * other.value as u128) % self.modulus as u128) as u64,
            modulus: self.modulus,
        }
    }

    fn neg(&self) -> Self {
        Zt {
            value: (self.modulus - self.value) % self.modulus,
            modulus: self.modulus,
        }
    }

    fn from_i64(&self, v: i64) -> Self {
        Zt {
            value: v.rem_euclid(self.modulus as i64) as u64,
            modulus: self.modulus,
        }
    }

    fn is_zero(&self) -> bool {
        self.value == 0
    }
}

/// Builds a `Z_t` slot vector from signed values.
pub fn zt_vec(values: &[i64], modulus: u64) -> Vec<Zt> {
    values
        .iter()
        .map(|&v| Zt::new(v.rem_euclid(modulus as i64) as u64, modulus))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_laws_hold() {
        let t = 65537;
        let a = Zt::new(123, t);
        let b = Zt::new(65000, t);
        let c = Zt::new(999, t);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.add(&a.neg()), a.from_i64(0));
        assert_eq!(a.sub(&b), a.add(&b.neg()));
        assert!(a.from_i64(0).is_zero());
    }

    #[test]
    fn from_i64_handles_negatives() {
        let a = Zt::new(0, 17);
        assert_eq!(a.from_i64(-1).value(), 16);
        assert_eq!(a.from_i64(-17).value(), 0);
        assert_eq!(a.from_i64(35).value(), 1);
    }

    #[test]
    fn centered_representatives() {
        let t = 17;
        assert_eq!(Zt::new(8, t).centered(), 8);
        assert_eq!(Zt::new(9, t).centered(), -8);
        assert_eq!(Zt::new(16, t).centered(), -1);
    }

    #[test]
    fn zt_vec_reduces_signed_values() {
        let v = zt_vec(&[1, -1, 100], 65537);
        let values: Vec<u64> = v.iter().map(Zt::value).collect();
        assert_eq!(values, vec![1, 65536, 100]);
    }
}
