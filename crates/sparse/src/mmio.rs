//! MatrixMarket coordinate-format I/O.
//!
//! The paper evaluates on SuiteSparse/SNAP matrices distributed as `.mtx`
//! files. The synthetic suite ([`crate::suite`]) is the default, but real
//! files can be loaded with [`read_str`] / [`read_file`] and plugged into
//! every kernel and benchmark.

use crate::{Coo, SparseError};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Parse a MatrixMarket `coordinate` body from a string.
///
/// Supports the `real`, `integer` and `pattern` fields and the `general`,
/// `symmetric` and `skew-symmetric` symmetries.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] on malformed input, including an index
/// past the `u32` coordinate range, and [`SparseError::IndexOutOfBounds`]
/// on indices outside the declared size.
pub fn read_str(text: &str) -> Result<Coo, SparseError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".to_string()))?;
    let header_lc = header.to_ascii_lowercase();
    if !header_lc.starts_with("%%matrixmarket") {
        return Err(SparseError::Parse(
            "missing MatrixMarket banner".to_string(),
        ));
    }
    if !header_lc.contains("coordinate") {
        return Err(SparseError::Parse(
            "only coordinate format is supported".to_string(),
        ));
    }
    let pattern = header_lc.contains("pattern");
    let symmetric = header_lc.contains(" symmetric");
    let skew = header_lc.contains("skew-symmetric");

    let mut body = lines.filter(|l| !l.trim_start().starts_with('%') && !l.trim().is_empty());
    let size_line = body
        .next()
        .ok_or_else(|| SparseError::Parse("missing size line".to_string()))?;
    let mut it = size_line.split_whitespace();
    let nrows: usize = parse_tok(it.next(), "rows")?;
    let ncols: usize = parse_tok(it.next(), "cols")?;
    let nnz: usize = parse_tok(it.next(), "nnz")?;

    let mut coo = Coo::new(nrows, ncols);
    let mut count = 0usize;
    for line in body {
        let mut it = line.split_whitespace();
        let r: usize = parse_tok(it.next(), "row index")?;
        let c: usize = parse_tok(it.next(), "col index")?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| SparseError::Parse("missing value".to_string()))?
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad value: {e}")))?
        };
        let (row, col) = (zero_based(r, "row")?, zero_based(c, "col")?);
        coo.try_push(row, col, v)?;
        if (symmetric || skew) && r != c {
            let mv = if skew { -v } else { v };
            coo.try_push(col, row, mv)?;
        }
        count += 1;
    }
    if count != nnz {
        return Err(SparseError::Parse(format!(
            "size line declares {nnz} entries but {count} found"
        )));
    }
    Ok(coo)
}

/// Read a `.mtx` file from disk.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] wrapping I/O and format failures.
pub fn read_file(path: impl AsRef<Path>) -> Result<Coo, SparseError> {
    let text = fs::read_to_string(path.as_ref())
        .map_err(|e| SparseError::Parse(format!("io error: {e}")))?;
    read_str(&text)
}

/// Serialize a matrix as MatrixMarket `coordinate real general`.
#[must_use]
pub fn write_str(m: &Coo) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(out, "{} {} {}", m.nrows(), m.ncols(), m.nnz());
    for e in m.iter() {
        let _ = writeln!(out, "{} {} {:e}", e.row + 1, e.col + 1, e.val);
    }
    out
}

/// Write a matrix to a `.mtx` file.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] wrapping I/O failures.
pub fn write_file(m: &Coo, path: impl AsRef<Path>) -> Result<(), SparseError> {
    fs::write(path.as_ref(), write_str(m)).map_err(|e| SparseError::Parse(format!("io error: {e}")))
}

/// A 1-based MatrixMarket index as a 0-based `u32` coordinate.
fn zero_based(index: usize, what: &str) -> Result<u32, SparseError> {
    let i = index
        .checked_sub(1)
        .ok_or_else(|| SparseError::Parse("indices are 1-based".to_string()))?;
    u32::try_from(i)
        .map_err(|_| SparseError::Parse(format!("{what} index {index} exceeds the u32 range")))
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, SparseError>
where
    T::Err: std::fmt::Display,
{
    tok.ok_or_else(|| SparseError::Parse(format!("missing {what}")))?
        .parse()
        .map_err(|e| SparseError::Parse(format!("bad {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Entry;

    #[test]
    fn roundtrip() {
        let mut m = Coo::new(3, 4);
        m.push(0, 0, 1.5);
        m.push(2, 3, -2.25);
        let text = write_str(&m);
        let back = read_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parses_comments_and_pattern() {
        let text =
            "%%MatrixMarket matrix coordinate pattern general\n% comment\n\n2 2 2\n1 1\n2 2\n";
        let m = read_str(text).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.entries()[0], Entry::new(0, 0, 1.0));
    }

    #[test]
    fn expands_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 5\n2 1 3\n";
        let m = read_str(text).unwrap();
        assert_eq!(m.nnz(), 3); // diag + both mirrored off-diag
        assert!(m.entries().contains(&Entry::new(0, 1, 3.0)));
    }

    #[test]
    fn expands_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n";
        let m = read_str(text).unwrap();
        assert!(m.entries().contains(&Entry::new(0, 1, -3.0)));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(read_str("").is_err());
        assert!(read_str("%%MatrixMarket matrix array real general\n2 2\n").is_err());
        assert!(read_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5\n").is_err());
        assert!(read_str("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n").is_err());
        assert!(read_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n9 1 5\n").is_err());
        // An index past u32 must not wrap to a low row.
        assert!(read_str(
            "%%MatrixMarket matrix coordinate real general\n8589934592 4 1\n4294967297 1 1.0\n"
        )
        .is_err());
    }

    #[test]
    fn file_roundtrip() {
        let mut m = Coo::new(2, 2);
        m.push(1, 0, 4.0);
        let path = std::env::temp_dir().join("psim_mmio_test.mtx");
        write_file(&m, &path).unwrap();
        let back = read_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, m);
    }
}
