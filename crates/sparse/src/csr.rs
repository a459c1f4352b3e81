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
        let mut row_ptr = vec![0usize; coo.nrows() + 1];
        for e in coo.iter() {
            row_ptr[e.row as usize + 1] += 1;
        }
        for i in 0..coo.nrows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = coo.nnz();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        let mut cursor = row_ptr.clone();
        for e in coo.iter() {
            let dst = cursor[e.row as usize];
            cursor[e.row as usize] += 1;
            col_idx[dst] = e.col;
            values[dst] = e.val;
        }
        // Sort columns within each row.
        for r in 0..coo.nrows() {
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            let mut pairs: Vec<(u32, f64)> = col_idx[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied())
                .collect();
            pairs.sort_by_key(|&(c, _)| c);
            for (i, (c, v)) in pairs.into_iter().enumerate() {
                col_idx[lo + i] = c;
                values[lo + i] = v;
            }
        }
        Csr {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            row_ptr,
            col_idx,
            values,
        }
    }
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
