//! Compressed sparse row (CSR) format.
//!
//! The host-side preprocessing (level analysis, partitioning, reference
//! kernels, graph applications) works on CSR; the PIM banks themselves store
//! COO (paper §IV-C).

use crate::{Coo, SparseError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A sparse matrix in compressed sparse row form.
///
/// Column indices within each row are sorted ascending.
///
/// ```
/// use psim_sparse::{Coo, Csr};
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 1, 2.0);
/// coo.push(1, 0, 3.0);
/// let csr = Csr::from(&coo);
/// assert_eq!(csr.row(0).collect::<Vec<_>>(), vec![(1, 2.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Parse`] when array lengths are inconsistent or
    /// [`SparseError::IndexOutOfBounds`] when a column index is invalid.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != nrows + 1
            || col_idx.len() != values.len()
            || row_ptr.last().copied().unwrap_or(0) != col_idx.len()
        {
            return Err(SparseError::Parse(
                "inconsistent CSR array lengths".to_string(),
            ));
        }
        if let Some(&c) = col_idx.iter().find(|&&c| c as usize >= ncols) {
            return Err(SparseError::IndexOutOfBounds {
                row: 0,
                col: c as usize,
                nrows,
                ncols,
            });
        }
        Ok(Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// An empty `nrows x ncols` matrix.
    #[must_use]
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of dimension `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[must_use]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate over `(col, value)` pairs of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of non-zeros in row `r`.
    #[must_use]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(r, c)` if stored.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let seg = &self.col_idx[lo..hi];
        seg.binary_search(&(c as u32))
            .ok()
            .map(|i| self.values[lo + i])
    }

    /// Reference sparse matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    #[must_use]
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "spmv operand length mismatch");
        let mut y = vec![0.0; self.nrows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        y
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Csr {
        // Counting sort by column.
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                let dst = cursor[c];
                cursor[c] += 1;
                col_idx[dst] = r as u32;
                values[dst] = v;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx,
            values,
        }
    }

    /// The row pointers, column indices and values, moved out.
    pub(crate) fn into_arrays(self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Permute rows and columns symmetrically: `B[i, j] = A[perm[i], perm[j]]`.
    ///
    /// `perm[i]` gives the *old* index placed at new position `i`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `perm.len() != nrows`.
    #[must_use]
    pub fn permute_symmetric(&self, perm: &[usize]) -> Csr {
        assert_eq!(self.nrows, self.ncols, "symmetric permutation needs square");
        assert_eq!(perm.len(), self.nrows);
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut coo = Coo::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                coo.push(inv[r] as u32, inv[c] as u32, v);
            }
        }
        Csr::from(&coo)
    }

    /// Maximum non-zeros in any row (load-imbalance indicator).
    #[must_use]
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|r| self.row_nnz(r)).max().unwrap_or(0)
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csr {}x{} nnz={}", self.nrows, self.ncols, self.nnz())
    }
}

impl From<&Coo> for Csr {
    fn from(coo: &Coo) -> Self {
        let entries = coo.iter().map(|e| (e.row, e.col, e.val));
        let (row_ptr, col_idx, values) = compress(coo.nrows(), coo.nnz(), entries);
        Csr {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compress `nnz` entries `(major, minor, value)` into `majors` segments:
/// the pointer array, and each segment's minor indices and values. A
/// counting pass buckets the entries by major index in their order, then a
/// stable sort orders each segment by minor index, so duplicate entries
/// keep their order; a segment already in order is left as it is. CSR
/// passes rows as majors, CSC columns.
pub(crate) fn compress(
    majors: usize,
    nnz: usize,
    entries: impl Iterator<Item = (u32, u32, f64)> + Clone,
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let mut ptr = vec![0usize; majors + 1];
    for (major, _, _) in entries.clone() {
        ptr[major as usize + 1] += 1;
    }
    for i in 0..majors {
        ptr[i + 1] += ptr[i];
    }
    let mut idx = vec![0u32; nnz];
    let mut values = vec![0.0; nnz];
    let mut cursor = ptr.clone();
    for (major, minor, v) in entries {
        let dst = cursor[major as usize];
        cursor[major as usize] += 1;
        idx[dst] = minor;
        values[dst] = v;
    }
    // Sort each segment through one buffer for all of them.
    let mut pairs: Vec<(u32, f64)> = Vec::new();
    for m in 0..majors {
        let (lo, hi) = (ptr[m], ptr[m + 1]);
        if idx[lo..hi].is_sorted() {
            continue;
        }
        pairs.clear();
        pairs.extend(
            idx[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied()),
        );
        pairs.sort_by_key(|&(i, _)| i);
        for (k, &(i, v)) in pairs.iter().enumerate() {
            idx[lo + k] = i;
            values[lo + k] = v;
        }
    }
    (ptr, idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 2, 2.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        Csr::from(&coo)
    }

    #[test]
    fn conversion_sorts_columns() {
        let m = sample();
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn conversion_sorts_by_column_and_keeps_duplicates_in_insertion_order() {
        // Rows out of column order, rows already in order, duplicate
        // (row, col) entries, a row longer than a small-sort run, and
        // empty rows; each value is its insertion index.
        let mut coo = Coo::new(6, 64);
        let cols: [&[u32]; 6] = [&[5, 1, 5, 0, 1], &[], &[0, 2, 2, 7], &[9, 9, 9], &[], &[]];
        for (r, row) in cols.iter().enumerate() {
            for &c in *row {
                coo.push(r as u32, c, coo.nnz() as f64);
            }
        }
        for k in 0..48u32 {
            coo.push(5, (k * 37) % 64, coo.nnz() as f64);
            coo.push(5, (k * 11) % 8, coo.nnz() as f64);
        }
        let mut reference: Vec<(u32, u32, f64)> =
            coo.iter().map(|e| (e.row, e.col, e.val)).collect();
        reference.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        let mut row_ptr = vec![0usize; 7];
        for &(r, _, _) in &reference {
            row_ptr[r as usize + 1] += 1;
        }
        for r in 0..6 {
            row_ptr[r + 1] += row_ptr[r];
        }
        let expected = Csr::from_raw(
            6,
            64,
            row_ptr,
            reference.iter().map(|e| e.1).collect(),
            reference.iter().map(|e| e.2).collect(),
        )
        .unwrap();
        assert_eq!(Csr::from(&coo), expected);
    }

    #[test]
    fn get_finds_stored_values() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(2, 0), Some(4.0));
    }

    #[test]
    fn spmv_matches_coo() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(Csr::from(&coo).spmv(&x), coo.spmv(&x));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = Csr::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn permute_symmetric_reverses() {
        let m = sample();
        let perm: Vec<usize> = (0..3).rev().collect();
        let p = m.permute_symmetric(&perm);
        // A[2,0]=4 moves to B[0,2].
        assert_eq!(p.get(0, 2), Some(4.0));
        // Applying the inverse (same reversal) restores.
        assert_eq!(p.permute_symmetric(&perm), m);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        let coo = Coo::from(&m);
        assert_eq!(Csr::from(&coo), m);
    }

    #[test]
    fn max_row_nnz() {
        assert_eq!(sample().max_row_nnz(), 2);
        assert_eq!(Csr::zeros(3, 3).max_row_nnz(), 0);
    }
}
