//! Sparse vector queue: 3 × 64 B sub-queues for row index, column index
//! and value (paper §IV-B, Figure 4).

use crate::isa::SubQueue;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Capacity of each sub-queue in bytes (Table VIII: 192 B / 3).
pub const SUB_QUEUE_BYTES: usize = 64;

/// One sparse vector queue.
///
/// Elements are `(row, col, value)` triples; the sub-queues advance
/// together when a whole element is pushed/popped but can also be filled
/// independently by 32 B `SpMOV` bursts (one sub-queue at a time).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpQueue {
    row: VecDeque<f64>,
    col: VecDeque<f64>,
    val: VecDeque<f64>,
}

impl SpQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        SpQueue::default()
    }

    /// Number of complete `(row, col, value)` elements available.
    #[must_use]
    pub fn len(&self) -> usize {
        self.row.len().min(self.col.len()).min(self.val.len())
    }

    /// Whether no complete element is available and all sub-queues are
    /// drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row.is_empty() && self.col.is_empty() && self.val.is_empty()
    }

    /// Whether `n` more elements of width `elem_bytes` fit in *every*
    /// sub-queue.
    #[must_use]
    pub fn can_push(&self, n: usize, elem_bytes: usize) -> bool {
        let cap = SUB_QUEUE_BYTES / elem_bytes;
        self.row.len() + n <= cap && self.col.len() + n <= cap && self.val.len() + n <= cap
    }

    /// Whether `n` more elements fit in one sub-queue.
    #[must_use]
    pub fn sub_can_push(&self, sub: SubQueue, n: usize, elem_bytes: usize) -> bool {
        let cap = SUB_QUEUE_BYTES / elem_bytes;
        match sub {
            SubQueue::Row => self.row.len() + n <= cap,
            SubQueue::Col => self.col.len() + n <= cap,
            SubQueue::Val => self.val.len() + n <= cap,
            SubQueue::All => self.can_push(n, elem_bytes),
        }
    }

    /// Push a complete element.
    pub fn push(&mut self, row: f64, col: f64, val: f64) {
        self.row.push_back(row);
        self.col.push_back(col);
        self.val.push_back(val);
    }

    /// Pop a complete element. A queue whose sub-queues are unevenly
    /// filled (mid-burst) has no complete element yet.
    // `len() == 0` is NOT `is_empty()` here: `len` counts complete
    // triples, `is_empty` requires all sub-queues drained.
    #[allow(clippy::len_zero)]
    pub fn pop(&mut self) -> Option<(f64, f64, f64)> {
        if self.len() == 0 {
            return None;
        }
        Some((
            self.row.pop_front().expect("len checked"),
            self.col.pop_front().expect("len checked"),
            self.val.pop_front().expect("len checked"),
        ))
    }

    /// Push into one sub-queue (a 32 B `SpMOV` burst element).
    pub fn push_sub(&mut self, sub: SubQueue, v: f64) {
        match sub {
            SubQueue::Row => self.row.push_back(v),
            SubQueue::Col => self.col.push_back(v),
            SubQueue::Val => self.val.push_back(v),
            SubQueue::All => self.push(v, v, v),
        }
    }

    /// Pop from one sub-queue.
    pub fn pop_sub(&mut self, sub: SubQueue) -> Option<f64> {
        match sub {
            SubQueue::Row => self.row.pop_front(),
            SubQueue::Col => self.col.pop_front(),
            SubQueue::Val => self.val.pop_front(),
            SubQueue::All => self.pop().map(|(_, _, v)| v),
        }
    }

    /// The frontmost `k` column indices (the IndMOV gather addresses),
    /// copied into `out` without consuming them. Only complete triples
    /// count, and at most `out.len()` are written. Returns the number of
    /// addresses written.
    pub fn peek_cols_into(&self, k: usize, out: &mut [f64]) -> usize {
        let n = k.min(self.len()).min(out.len());
        for (slot, &c) in out.iter_mut().zip(self.col.iter().take(n)) {
            *slot = c;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let mut q = SpQueue::new();
        q.push(1.0, 2.0, 3.0);
        q.push(4.0, 5.0, 6.0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1.0, 2.0, 3.0)));
        assert_eq!(q.pop(), Some((4.0, 5.0, 6.0)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_depends_on_precision() {
        let q = SpQueue::new();
        assert!(q.can_push(8, 8)); // 8 FP64 = 64 B exactly
        assert!(!q.can_push(9, 8));
        assert!(q.can_push(64, 1)); // 64 INT8
    }

    #[test]
    fn sub_queues_fill_independently() {
        let mut q = SpQueue::new();
        q.push_sub(SubQueue::Row, 1.0);
        q.push_sub(SubQueue::Row, 2.0);
        assert_eq!(q.len(), 0); // no complete element yet
        q.push_sub(SubQueue::Col, 7.0);
        q.push_sub(SubQueue::Val, 9.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((1.0, 7.0, 9.0)));
        assert!(!q.is_empty()); // a stray row remains
    }

    #[test]
    fn sub_capacity_checked_per_queue() {
        let mut q = SpQueue::new();
        for i in 0..8 {
            q.push_sub(SubQueue::Row, i as f64);
        }
        assert!(!q.sub_can_push(SubQueue::Row, 1, 8));
        assert!(q.sub_can_push(SubQueue::Col, 8, 8));
        assert!(!q.sub_can_push(SubQueue::All, 1, 8));
    }

    #[test]
    fn pop_on_partially_filled_queue_returns_none() {
        // Regression: a mid-burst queue (rows loaded, values pending) has
        // no complete element; pop must not panic or return garbage.
        let mut q = SpQueue::new();
        q.push_sub(SubQueue::Row, 1.0);
        q.push_sub(SubQueue::Col, 2.0);
        assert_eq!(q.pop(), None);
        assert!(!q.is_empty());
        assert_eq!(q.pop_sub(SubQueue::All), None);
    }

    #[test]
    fn peek_cols_mid_burst_is_bounded_by_complete_triples() {
        // Mid-burst, the col sub-queue can run ahead of row/val. The
        // gather addresses must only cover complete triples — peeking the
        // raw col queue would hand IndMOV addresses for elements whose
        // values have not arrived yet.
        let mut q = SpQueue::new();
        q.push_sub(SubQueue::Col, 10.0);
        q.push_sub(SubQueue::Col, 20.0);
        q.push_sub(SubQueue::Col, 30.0);
        let mut out = [0.0; 4];
        assert_eq!(q.peek_cols_into(4, &mut out), 0);
        q.push_sub(SubQueue::Row, 0.0);
        q.push_sub(SubQueue::Val, 1.0);
        assert_eq!(q.peek_cols_into(4, &mut out), 1);
        assert_eq!(out[0], 10.0);
        // The peek never consumes, even repeated mid-burst.
        out = [0.0; 4];
        assert_eq!(q.peek_cols_into(4, &mut out), 1);
        assert_eq!(out[0], 10.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_sub_all_consumes_evenly_across_partial_fill() {
        // pop_sub(All) must drain one element from every sub-queue (a
        // whole triple), never skewing an unevenly filled queue further.
        let mut q = SpQueue::new();
        q.push(0.0, 10.0, 1.0);
        q.push_sub(SubQueue::Row, 5.0); // stray row, no col/val yet
        assert_eq!(q.pop_sub(SubQueue::All), Some(1.0));
        // The complete triple is gone; only the stray row remains.
        assert_eq!(q.len(), 0);
        assert!(!q.is_empty());
        assert_eq!(q.pop_sub(SubQueue::All), None);
        assert_eq!(q.pop_sub(SubQueue::Row), Some(5.0));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_cols_does_not_consume() {
        let mut q = SpQueue::new();
        q.push(0.0, 10.0, 1.0);
        q.push(0.0, 20.0, 2.0);
        let mut out = [0.0; 4];
        assert_eq!(q.peek_cols_into(4, &mut out), 2);
        assert_eq!(out[..2], [10.0, 20.0]);
        assert_eq!(q.len(), 2);
        // The buffer bounds the copy as well as `k`.
        let mut one = [0.0; 1];
        assert_eq!(q.peek_cols_into(4, &mut one), 1);
        assert_eq!(one, [10.0]);
    }
}
