//! Reusable scratch buffers for the evaluator hot path.
//!
//! Every temporary the evaluator needs is one of three shapes: a single
//! residue **row** (`N` u64 values — one RNS component, a key-switch digit,
//! an auxiliary-base lane), a residue **matrix** (a `rows × N` stack — an
//! `RnsPoly`'s residues or an auxiliary-base extension), or a **wide row**
//! (`N` u128 values — a key-switch inner product summed before its
//! reduction). The pool keeps free lists of all three so that, after a warm-up call per operation, the hot
//! ops (`add`/`sub`/plaintext ops/rotation/relinearization — and the
//! multiply's temporaries) touch the allocator **zero** times: buffers are
//! taken, used, and returned, and dead ciphertexts are recycled back in by
//! the runner.
//!
//! # Ownership rules
//!
//! * [`ScratchPool::take_row`] / [`ScratchPool::take_wide_row`] /
//!   [`ScratchPool::take_matrix`] hand out a buffer with the requested
//!   shape but **unspecified contents** — the caller must overwrite before
//!   reading (use the `_zeroed` variants for accumulators).
//! * Every taken buffer should be returned with [`ScratchPool::put_row`] /
//!   [`ScratchPool::put_wide_row`] / [`ScratchPool::put_matrix`] once
//!   dead. Dropping one instead is safe (merely a missed reuse), so early
//!   returns and panics cannot corrupt the pool.
//! * Buffers with the wrong row length are rejected on `put` (debug
//!   assert) rather than poisoning later takes.
//!
//! The pool uses interior mutability (`RefCell`/`Cell`) so the evaluator
//! can stay `&self` on every operation; as a consequence an `Evaluator` is
//! deliberately **not** `Sync` — create one evaluator per worker thread
//! and share the (immutable) `BfvContext` between them.
//!
//! [`ScratchPool::stats`] exposes how many buffers were freshly allocated
//! versus reused; the allocation-regression tests pin `fresh` to stay
//! constant across steady-state operations.

use std::cell::{Cell, RefCell};

/// Allocation counters for a [`ScratchPool`] (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created because the free list was empty (pool misses).
    /// Constant `fresh` across a window of operations proves the window
    /// allocated nothing.
    pub fresh: u64,
    /// Buffers served from the free lists (pool hits).
    pub reused: u64,
}

/// Free lists of row (`N`-element) and matrix (`rows × N`) scratch buffers,
/// plus the outer part-vector shells of dead ciphertexts.
#[derive(Debug, Default)]
pub struct ScratchPool {
    rows: RefCell<Vec<Vec<u64>>>,
    wide_rows: RefCell<Vec<Vec<u128>>>,
    matrices: RefCell<Vec<Vec<Vec<u64>>>>,
    parts: RefCell<Vec<Vec<crate::poly::RnsPoly>>>,
    fresh: Cell<u64>,
    reused: Cell<u64>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Allocation counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh.get(),
            reused: self.reused.get(),
        }
    }

    /// A row of `len` u64s with unspecified contents.
    pub fn take_row(&self, len: usize) -> Vec<u64> {
        match self.rows.borrow_mut().pop() {
            Some(mut row) => {
                self.reused.set(self.reused.get() + 1);
                debug_assert_eq!(row.len(), len, "pool rows have one length per context");
                row.resize(len, 0);
                row
            }
            None => {
                self.fresh.set(self.fresh.get() + 1);
                vec![0u64; len]
            }
        }
    }

    /// Returns a row to the pool.
    pub fn put_row(&self, row: Vec<u64>) {
        self.rows.borrow_mut().push(row);
    }

    /// A row of `len` u128s with unspecified contents.
    pub fn take_wide_row(&self, len: usize) -> Vec<u128> {
        match self.wide_rows.borrow_mut().pop() {
            Some(mut row) => {
                self.reused.set(self.reused.get() + 1);
                debug_assert_eq!(row.len(), len, "pool rows have one length per context");
                row.resize(len, 0);
                row
            }
            None => {
                self.fresh.set(self.fresh.get() + 1);
                vec![0u128; len]
            }
        }
    }

    /// Returns a wide row to the pool.
    pub fn put_wide_row(&self, row: Vec<u128>) {
        self.wide_rows.borrow_mut().push(row);
    }

    /// A `rows × len` matrix with unspecified contents. The outer shell is
    /// reused too, so a steady-state take performs no allocation at all.
    pub fn take_matrix(&self, rows: usize, len: usize) -> Vec<Vec<u64>> {
        let mut m = match self.matrices.borrow_mut().pop() {
            Some(m) => {
                self.reused.set(self.reused.get() + 1);
                m
            }
            None => {
                self.fresh.set(self.fresh.get() + 1);
                Vec::with_capacity(rows)
            }
        };
        while m.len() > rows {
            self.put_row(m.pop().expect("len checked"));
        }
        for row in &mut m {
            debug_assert_eq!(row.len(), len, "pool rows have one length per context");
            row.resize(len, 0);
        }
        while m.len() < rows {
            m.push(self.take_row(len));
        }
        m
    }

    /// A zero-filled `rows × len` matrix.
    pub fn take_matrix_zeroed(&self, rows: usize, len: usize) -> Vec<Vec<u64>> {
        let mut m = self.take_matrix(rows, len);
        for row in &mut m {
            row.iter_mut().for_each(|x| *x = 0);
        }
        m
    }

    /// Returns a matrix (e.g. a dead `RnsPoly`'s residues) to the pool.
    pub fn put_matrix(&self, m: Vec<Vec<u64>>) {
        self.matrices.borrow_mut().push(m);
    }

    /// An empty part-vector shell (a `Ciphertext`'s outer `Vec`) with
    /// capacity for the usual two or three parts.
    pub fn take_parts(&self) -> Vec<crate::poly::RnsPoly> {
        match self.parts.borrow_mut().pop() {
            Some(mut v) => {
                self.reused.set(self.reused.get() + 1);
                debug_assert!(v.is_empty(), "recycled part shells are drained first");
                v.clear();
                v
            }
            None => {
                self.fresh.set(self.fresh.get() + 1);
                Vec::with_capacity(3)
            }
        }
    }

    /// Returns a drained part-vector shell to the pool. Any parts still
    /// inside are dropped (missed reuse, never corruption) — drain them
    /// with [`ScratchPool::put_matrix`] first.
    pub fn put_parts(&self, mut v: Vec<crate::poly::RnsPoly>) {
        v.clear();
        self.parts.borrow_mut().push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_reused_not_reallocated() {
        let pool = ScratchPool::new();
        let r = pool.take_row(8);
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh: 1,
                reused: 0
            }
        );
        pool.put_row(r);
        let r = pool.take_row(8);
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh: 1,
                reused: 1
            }
        );
        pool.put_row(r);
    }

    #[test]
    fn wide_rows_are_reused_and_counted() {
        let pool = ScratchPool::new();
        let r = pool.take_wide_row(8);
        assert_eq!(r.len(), 8);
        pool.put_wide_row(r);
        let r = pool.take_wide_row(8);
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh: 1,
                reused: 1
            }
        );
        pool.put_wide_row(r);
    }

    #[test]
    fn matrices_reshape_without_fresh_rows() {
        let pool = ScratchPool::new();
        let m = pool.take_matrix_zeroed(3, 4);
        assert_eq!(m.len(), 3);
        let fresh_after_warmup = pool.stats().fresh;
        pool.put_matrix(m);
        // Same shape back out: no new allocations.
        let m = pool.take_matrix(3, 4);
        assert_eq!(pool.stats().fresh, fresh_after_warmup);
        pool.put_matrix(m);
        // Shrinking releases rows back to the row list.
        let m = pool.take_matrix(1, 4);
        assert_eq!(pool.stats().fresh, fresh_after_warmup);
        pool.put_matrix(m);
        // Growing again reclaims those rows.
        let m = pool.take_matrix(3, 4);
        assert_eq!(pool.stats().fresh, fresh_after_warmup);
        pool.put_matrix(m);
    }

    #[test]
    fn part_shells_are_reused_and_counted() {
        let pool = ScratchPool::new();
        let v = pool.take_parts();
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh: 1,
                reused: 0
            }
        );
        pool.put_parts(v);
        let v = pool.take_parts();
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh: 1,
                reused: 1
            }
        );
        assert!(v.is_empty());
    }

    #[test]
    fn zeroed_matrix_is_zero_after_reuse() {
        let pool = ScratchPool::new();
        let mut m = pool.take_matrix(2, 4);
        for row in &mut m {
            row.iter_mut().for_each(|x| *x = 7);
        }
        pool.put_matrix(m);
        let m = pool.take_matrix_zeroed(2, 4);
        assert!(m.iter().all(|r| r.iter().all(|&x| x == 0)));
    }
}
