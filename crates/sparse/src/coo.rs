//! Coordinate-list (COO) sparse matrix format.
//!
//! COO is pSyncPIM's native storage format (paper §IV-C): each non-zero is a
//! `(row, col, value)` triple, which maps directly onto the PU's three
//! sparse-vector sub-queues and avoids the extra metadata indirection of
//! CSR/CSC inside a bank.

use crate::{Csc, Csr, SparseError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One non-zero element: `(row, col, value)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// Row index.
    pub row: u32,
    /// Column index.
    pub col: u32,
    /// Numeric value (functional `f64` carrier; see [`crate::Precision`]).
    pub val: f64,
}

impl Entry {
    /// Create an entry.
    #[must_use]
    pub fn new(row: u32, col: u32, val: f64) -> Self {
        Entry { row, col, val }
    }
}

/// A sparse matrix in coordinate-list form.
///
/// Entries are kept in insertion order until a sort is requested; most
/// transformations (`to_csr`, partitioning) sort internally as needed.
///
/// ```
/// use psim_sparse::Coo;
/// let mut m = Coo::new(2, 2);
/// m.push(0, 0, 1.0);
/// m.push(1, 0, -2.0);
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.density(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    entries: Vec<Entry>,
}

impl Coo {
    /// Create an empty matrix of the given shape.
    #[must_use]
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Build from a list of entries, validating indices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any entry lies outside
    /// the shape.
    pub fn from_entries(
        nrows: usize,
        ncols: usize,
        entries: Vec<Entry>,
    ) -> Result<Self, SparseError> {
        for e in &entries {
            if e.row as usize >= nrows || e.col as usize >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: e.row as usize,
                    col: e.col as usize,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(Coo {
            nrows,
            ncols,
            entries,
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros (duplicates counted individually).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of non-zero positions, `nnz / (nrows * ncols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Append a non-zero.
    ///
    /// # Panics
    ///
    /// Panics if the index lies outside the matrix shape (use
    /// [`Coo::try_push`] for a fallible variant).
    pub fn push(&mut self, row: u32, col: u32, val: f64) {
        assert!(
            (row as usize) < self.nrows && (col as usize) < self.ncols,
            "entry ({row}, {col}) outside {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push(Entry { row, col, val });
    }

    /// Append a non-zero, failing on out-of-bounds indices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] when the index is invalid.
    pub fn try_push(&mut self, row: u32, col: u32, val: f64) -> Result<(), SparseError> {
        if row as usize >= self.nrows || col as usize >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: row as usize,
                col: col as usize,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.entries.push(Entry { row, col, val });
        Ok(())
    }

    /// Borrow the entries.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Iterate over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Entry> {
        self.entries.iter()
    }

    /// Sort entries row-major (row, then column). This is the layout SpMV
    /// bank mapping expects.
    pub fn sort_row_major(&mut self) {
        self.entries.sort_by_key(|e| (e.row, e.col));
    }

    /// Sort entries column-major (column, then row). This is the layout the
    /// SpTRSV memory mapping uses (paper §VI-B: column-first COO).
    pub fn sort_col_major(&mut self) {
        self.entries.sort_by_key(|e| (e.col, e.row));
    }

    /// Sort entries row-major, sum duplicate entries at the same coordinate
    /// in insertion order and drop explicit zeros.
    ///
    /// The order is [`Coo::sort_row_major`]'s, built without comparing
    /// rows: a stable counting pass buckets the entries by row, then a
    /// stable sort orders each row by column.
    pub fn coalesce(&mut self) {
        let mut start = vec![0usize; self.nrows + 1];
        for e in &self.entries {
            start[e.row as usize + 1] += 1;
        }
        for r in 0..self.nrows {
            start[r + 1] += start[r];
        }
        // The scatter advances each row's start to its end.
        let mut sorted = vec![Entry::new(0, 0, 0.0); self.entries.len()];
        for e in &self.entries {
            let slot = &mut start[e.row as usize];
            sorted[*slot] = *e;
            *slot += 1;
        }
        let mut lo = 0;
        for &hi in &start[..self.nrows] {
            sorted[lo..hi].sort_by_key(|e| e.col);
            lo = hi;
        }
        // `dedup_by` hands each entry with the last one kept.
        sorted.dedup_by(|e, last| {
            let same = e.row == last.row && e.col == last.col;
            if same {
                last.val += e.val;
            }
            same
        });
        sorted.retain(|e| e.val != 0.0);
        self.entries = sorted;
    }

    /// Transpose (swap rows/columns of every entry).
    #[must_use]
    pub fn transpose(&self) -> Coo {
        Coo {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self
                .entries
                .iter()
                .map(|e| Entry::new(e.col, e.row, e.val))
                .collect(),
        }
    }

    /// Number of non-zeros in each row.
    #[must_use]
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for e in &self.entries {
            counts[e.row as usize] += 1;
        }
        counts
    }

    /// Number of non-zeros in each column.
    #[must_use]
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols];
        for e in &self.entries {
            counts[e.col as usize] += 1;
        }
        counts
    }

    /// Reference (scalar) sparse matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    #[must_use]
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "spmv operand length mismatch");
        let mut y = vec![0.0; self.nrows];
        for e in &self.entries {
            y[e.row as usize] += e.val * x[e.col as usize];
        }
        y
    }

    /// Extract the sub-matrix covering rows `r0..r1` and columns `c0..c1`
    /// (half-open), re-indexed to a local origin.
    #[must_use]
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Coo {
        let mut sub = Coo::new(r1 - r0, c1 - c0);
        for e in &self.entries {
            let (r, c) = (e.row as usize, e.col as usize);
            if r >= r0 && r < r1 && c >= c0 && c < c1 {
                sub.entries
                    .push(Entry::new((r - r0) as u32, (c - c0) as u32, e.val));
            }
        }
        sub
    }

    /// Make the matrix pattern symmetric by mirroring entries (values are
    /// copied). Useful for turning directed graph generators into undirected
    /// adjacency matrices. Diagonal entries are untouched; duplicates are
    /// coalesced keeping the first value (mirror adds only missing mates).
    #[must_use]
    pub fn symmetrized(&self) -> Coo {
        let mut seen: std::collections::HashSet<(u32, u32)> =
            self.entries.iter().map(|e| (e.row, e.col)).collect();
        let mut out = self.clone();
        for e in self.entries.clone() {
            if e.row != e.col && !seen.contains(&(e.col, e.row)) {
                seen.insert((e.col, e.row));
                out.entries.push(Entry::new(e.col, e.row, e.val));
            }
        }
        out
    }

    /// Footprint in bytes when stored as COO with 4-byte indices and values
    /// of the given precision (the layout the PIM banks use).
    #[must_use]
    pub fn storage_bytes(&self, precision: crate::Precision) -> usize {
        self.nnz() * (8 + precision.bytes())
    }
}

impl fmt::Display for Coo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Coo {}x{} nnz={} density={:.3e}",
            self.nrows,
            self.ncols,
            self.nnz(),
            self.density()
        )
    }
}

impl From<&Csr> for Coo {
    fn from(csr: &Csr) -> Self {
        let mut coo = Coo::new(csr.nrows(), csr.ncols());
        for r in 0..csr.nrows() {
            for (c, v) in csr.row(r) {
                coo.entries.push(Entry::new(r as u32, c as u32, v));
            }
        }
        coo
    }
}

impl From<&Csc> for Coo {
    fn from(csc: &Csc) -> Self {
        let mut coo = Coo::new(csc.nrows(), csc.ncols());
        for c in 0..csc.ncols() {
            for (r, v) in csc.col(c) {
                coo.entries.push(Entry::new(r as u32, c as u32, v));
            }
        }
        coo
    }
}

impl FromIterator<Entry> for Coo {
    /// Collect entries; the shape is inferred as one past the maximum index.
    fn from_iter<T: IntoIterator<Item = Entry>>(iter: T) -> Self {
        let entries: Vec<Entry> = iter.into_iter().collect();
        let nrows = entries
            .iter()
            .map(|e| e.row as usize + 1)
            .max()
            .unwrap_or(0);
        let ncols = entries
            .iter()
            .map(|e| e.col as usize + 1)
            .max()
            .unwrap_or(0);
        Coo {
            nrows,
            ncols,
            entries,
        }
    }
}

impl Extend<Entry> for Coo {
    fn extend<T: IntoIterator<Item = Entry>>(&mut self, iter: T) {
        for e in iter {
            self.push(e.row, e.col, e.val);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(0, 2, 2.0);
        m.push(1, 1, 3.0);
        m.push(2, 0, 4.0);
        m
    }

    #[test]
    fn shape_and_counts() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_counts(), vec![2, 1, 1]);
        assert_eq!(m.col_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn spmv_reference() {
        let m = sample();
        let y = m.spmv(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_out_of_bounds_panics() {
        let mut m = Coo::new(2, 2);
        m.push(2, 0, 1.0);
    }

    #[test]
    fn try_push_reports_bounds() {
        let mut m = Coo::new(2, 2);
        assert!(m.try_push(1, 1, 5.0).is_ok());
        assert!(matches!(
            m.try_push(0, 9, 1.0),
            Err(SparseError::IndexOutOfBounds { col: 9, .. })
        ));
    }

    #[test]
    fn coalesce_merges_duplicates_and_drops_zeros() {
        let mut m = Coo::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, 2.0);
        m.push(1, 1, 5.0);
        m.push(1, 1, -5.0);
        m.coalesce();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.entries()[0], Entry::new(0, 0, 3.0));
    }

    #[test]
    fn coalesce_matches_a_comparison_sort() {
        // The reference: a stable sort by (row, col), then duplicates
        // summed in insertion order and zeros dropped.
        fn reference(m: &Coo) -> Vec<Entry> {
            let mut entries = m.entries().to_vec();
            entries.sort_by_key(|e| (e.row, e.col));
            let mut out: Vec<Entry> = Vec::new();
            for e in entries {
                match out.last_mut() {
                    Some(last) if last.row == e.row && last.col == e.col => last.val += e.val,
                    _ => out.push(e),
                }
            }
            out.retain(|e| e.val != 0.0);
            out
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..200 {
            let (nrows, ncols) = (1 + next(40) as usize, 1 + next(40) as usize);
            let mut m = Coo::new(nrows, ncols);
            // Few distinct rows and columns, so duplicates and empty rows
            // are common; values repeat, so sums cancel to explicit zeros
            // and depend on their order.
            let rows = 1 + next(nrows as u64);
            let cols = 1 + next(ncols as u64);
            for _ in 0..next(120) {
                let val = [0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 1e16, -0.0][next(8) as usize];
                m.push(next(rows) as u32, next(cols) as u32, val);
            }
            let want = reference(&m);
            m.coalesce();
            let bits = |es: &[Entry]| -> Vec<(u32, u32, u64)> {
                es.iter().map(|e| (e.row, e.col, e.val.to_bits())).collect()
            };
            assert_eq!(bits(m.entries()), bits(&want), "case {case}");
        }
    }

    #[test]
    fn transpose_swaps_shape() {
        let m = Coo::from_entries(2, 4, vec![Entry::new(1, 3, 7.0)]).unwrap();
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (4, 2));
        assert_eq!(t.entries()[0], Entry::new(3, 1, 7.0));
    }

    #[test]
    fn submatrix_reindexes() {
        let m = sample();
        let s = m.submatrix(1, 3, 0, 2);
        assert_eq!((s.nrows(), s.ncols()), (2, 2));
        assert_eq!(s.nnz(), 2); // (1,1,3.0) -> (0,1); (2,0,4.0) -> (1,0)
        assert!(s.entries().contains(&Entry::new(0, 1, 3.0)));
        assert!(s.entries().contains(&Entry::new(1, 0, 4.0)));
    }

    #[test]
    fn symmetrized_mirrors_missing_mates() {
        let mut m = Coo::new(3, 3);
        m.push(0, 1, 1.0);
        m.push(1, 0, 9.0); // mate already present; must not duplicate
        m.push(2, 0, 4.0);
        let s = m.symmetrized();
        assert_eq!(s.nnz(), 4);
        assert!(s.entries().contains(&Entry::new(0, 2, 4.0)));
    }

    #[test]
    fn sort_orders() {
        let mut m = sample();
        m.sort_col_major();
        let cols: Vec<u32> = m.iter().map(|e| e.col).collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]));
        m.sort_row_major();
        let rows: Vec<u32> = m.iter().map(|e| e.row).collect();
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn from_iterator_infers_shape() {
        let m: Coo = vec![Entry::new(2, 5, 1.0)].into_iter().collect();
        assert_eq!((m.nrows(), m.ncols()), (3, 6));
    }

    #[test]
    fn storage_bytes_counts_indices_and_values() {
        let m = sample();
        assert_eq!(m.storage_bytes(crate::Precision::Fp64), 4 * 16);
        assert_eq!(m.storage_bytes(crate::Precision::Int8), 4 * 9);
    }
}
