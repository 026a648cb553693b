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
//!
//! # Hand-off between pools
//!
//! A dropped pool leaves up to 1 MiB of its rows (its free
//! rows first, then its matrices' rows) to its thread, and a later pool on
//! that thread takes rows of the length it asks for from them before it
//! allocates. A process that builds one context after another (a compile
//! server, say) then reuses the memory it has already touched. Freed
//! instead, the rows go back to the allocator, which can return the top of
//! its heap to the OS, and the next context's first operations fault the
//! pages in again.

use std::cell::{Cell, RefCell};

/// Allocation counters for a [`ScratchPool`] (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created because the free list was empty (pool misses).
    /// Constant `fresh` across a window of operations proves the window
    /// allocated nothing.
    pub fresh: u64,
    /// Buffers served from the free lists (pool hits), rows a dropped pool
    /// handed off included: nothing was allocated for them either.
    pub reused: u64,
}

/// The most bytes of rows a thread keeps from its dropped pools.
pub(crate) const HANDOFF_BYTES: usize = 1 << 20;

thread_local! {
    /// Rows of this thread's dropped pools and their total size in bytes.
    static HANDOFF: RefCell<(Vec<Vec<u64>>, usize)> = const { RefCell::new((Vec::new(), 0)) };
}

/// The bytes a row holds on to.
fn row_bytes(row: &Vec<u64>) -> usize {
    row.capacity() * std::mem::size_of::<u64>()
}

/// A handed-off row of exactly `len` elements, if this thread keeps one.
fn handed_off(len: usize) -> Option<Vec<u64>> {
    // No hand-off during thread teardown, when the list may be gone.
    HANDOFF
        .try_with(|handoff| {
            let (rows, bytes) = &mut *handoff.borrow_mut();
            let row = rows.swap_remove(rows.iter().position(|r| r.len() == len)?);
            *bytes -= row_bytes(&row);
            Some(row)
        })
        .ok()
        .flatten()
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
        let pooled = self.rows.borrow_mut().pop();
        match pooled.or_else(|| handed_off(len)) {
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

impl Drop for ScratchPool {
    /// Hands this pool's rows off to its thread, ahead of the rows it
    /// already keeps, up to 1 MiB; the rest are freed.
    fn drop(&mut self) {
        let matrices = self.matrices.get_mut().drain(..).flatten();
        let mine = self.rows.get_mut().drain(..).chain(matrices);
        let _ = HANDOFF.try_with(|handoff| {
            let (rows, bytes) = &mut *handoff.borrow_mut();
            let older = std::mem::take(rows);
            *bytes = 0;
            for row in mine.chain(older) {
                if *bytes + row_bytes(&row) <= HANDOFF_BYTES {
                    *bytes += row_bytes(&row);
                    rows.push(row);
                }
            }
        });
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

    /// The rows this thread keeps from dropped pools, in bytes.
    fn kept_bytes() -> usize {
        HANDOFF.with(|h| h.borrow().1)
    }

    /// Runs `f` on a thread of its own, so no other pool's hand-off is
    /// there beforehand.
    fn on_a_new_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f)
            .join()
            .expect("the test thread panicked");
    }

    #[test]
    fn a_dropped_pools_rows_serve_the_next_pool() {
        on_a_new_thread(|| {
            let first = ScratchPool::new();
            let m = first.take_matrix(2, 8);
            let row = first.take_row(8);
            let addr = row.as_ptr();
            first.put_row(row);
            first.put_matrix(m);
            drop(first);
            assert_eq!(kept_bytes(), 3 * 8 * 8);

            let next = ScratchPool::new();
            let row = next.take_row(8);
            assert_eq!(row.as_ptr(), addr, "the free row is handed off first");
            // A handed-off row allocated nothing: it counts as reused.
            assert_eq!(
                next.stats(),
                PoolStats {
                    fresh: 0,
                    reused: 1
                }
            );
            // The matrix shell is new; its two rows are the dropped
            // matrix's.
            let m = next.take_matrix(2, 8);
            assert_eq!(
                next.stats(),
                PoolStats {
                    fresh: 1,
                    reused: 3
                }
            );
            assert_eq!(kept_bytes(), 0);
            next.put_matrix(m);
        });
    }

    #[test]
    fn handed_off_rows_keep_their_length() {
        on_a_new_thread(|| {
            let first = ScratchPool::new();
            first.put_row(first.take_row(8));
            drop(first);

            let next = ScratchPool::new();
            assert_eq!(next.take_row(16).len(), 16);
            assert_eq!(next.stats().fresh, 1, "a row of 8 never serves 16");
            assert_eq!(next.take_row(8).len(), 8);
            assert_eq!(next.stats().reused, 1);
        });
    }

    #[test]
    fn a_thread_keeps_at_most_the_handoff_cap() {
        on_a_new_thread(|| {
            let len = 1024;
            let per_row = len * std::mem::size_of::<u64>();
            let rows = 2 * HANDOFF_BYTES / per_row;
            for _ in 0..2 {
                let pool = ScratchPool::new();
                let taken: Vec<_> = (0..rows).map(|_| pool.take_row(len)).collect();
                taken.into_iter().for_each(|r| pool.put_row(r));
                drop(pool);
                assert!(kept_bytes() <= HANDOFF_BYTES, "{}", kept_bytes());
            }
            let next = ScratchPool::new();
            for _ in 0..rows {
                next.take_row(len);
            }
            let kept = (HANDOFF_BYTES / per_row) as u64;
            assert_eq!(
                next.stats(),
                PoolStats {
                    fresh: rows as u64 - kept,
                    reused: kept
                }
            );
        });
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
