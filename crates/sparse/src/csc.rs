//! Compressed sparse column (CSC) format.
//!
//! The SpTRSV column-sweep kernel (paper Algorithm 3) walks the matrix
//! column-by-column; host-side planning for it uses CSC.

use crate::csr::compress;
use crate::{Coo, Csr, SparseError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A sparse matrix in compressed sparse column form.
///
/// Row indices within each column are sorted ascending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csc {
    /// Build from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Parse`] on inconsistent lengths or
    /// [`SparseError::IndexOutOfBounds`] on a bad row index.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != ncols + 1
            || row_idx.len() != values.len()
            || col_ptr.last().copied().unwrap_or(0) != row_idx.len()
        {
            return Err(SparseError::Parse(
                "inconsistent CSC array lengths".to_string(),
            ));
        }
        if let Some(&r) = row_idx.iter().find(|&&r| r as usize >= nrows) {
            return Err(SparseError::IndexOutOfBounds {
                row: r as usize,
                col: 0,
                nrows,
                ncols,
            });
        }
        Ok(Csc {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
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

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column pointer array (`ncols + 1` entries).
    #[must_use]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Iterate over `(row, value)` pairs of one column.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols`.
    pub fn col(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Number of non-zeros in column `c`.
    #[must_use]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// Reference SpMV `y = A x` via column sweeps (scalar-multiplication
    /// order — the same dataflow as the PIM SpTRSV kernel).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    #[must_use]
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "spmv operand length mismatch");
        let mut y = vec![0.0; self.nrows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for (r, v) in self.col(c) {
                y[r] += v * xc;
            }
        }
        y
    }

    /// The CSC form of a matrix whose transpose is `t` in CSR form: the
    /// same arrays.
    fn from_transpose(t: Csr) -> Self {
        let (nrows, ncols) = (t.ncols(), t.nrows());
        let (col_ptr, row_idx, values) = t.into_arrays();
        Csc {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

impl fmt::Display for Csc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csc {}x{} nnz={}", self.nrows, self.ncols, self.nnz())
    }
}

/// One counting pass over the columns: entries grouped by column in their
/// order, each column's rows sorted stably (duplicates keep their order).
impl From<&Coo> for Csc {
    fn from(coo: &Coo) -> Self {
        let entries = coo.iter().map(|e| (e.col, e.row, e.val));
        let (col_ptr, row_idx, values) = compress(coo.ncols(), coo.nnz(), entries);
        Csc {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            col_ptr,
            row_idx,
            values,
        }
    }
}

impl From<&Csr> for Csc {
    fn from(csr: &Csr) -> Self {
        Csc::from_transpose(csr.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo
    }

    #[test]
    fn column_access() {
        let m = Csc::from(&sample_coo());
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 4.0)]);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(2), 1);
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = sample_coo();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(Csc::from(&coo).spmv(&x), coo.spmv(&x));
    }

    #[test]
    fn csr_csc_roundtrip_through_coo() {
        let coo = sample_coo();
        let csr = Csr::from(&coo);
        let csc = Csc::from(&csr);
        let mut back = Coo::from(&csc);
        back.sort_row_major();
        let mut orig = coo.clone();
        orig.sort_row_major();
        assert_eq!(back, orig);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Csc::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert!(Csc::from_raw(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(Csc::from_raw(2, 2, vec![0, 1, 2], vec![0, 7], vec![1.0, 2.0]).is_err());
    }
}
