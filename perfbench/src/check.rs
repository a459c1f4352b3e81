//! Output checks against CPU references and exact latency percentiles.

use psim_sparse::{Coo, Precision};

/// Whether one output element matches its reference.
///
/// Floating point: within `rel` of `want` (absolute below magnitude 1).
/// Integer precisions: within half a unit, since arithmetic on quantized
/// operands is exact until it saturates. Every partial sum the device
/// keeps saturates at the precision's maximum, in an order the reference
/// does not model. With non-negative operands (which the benchmark gives
/// integer kernels) the saturated result still lies between that maximum
/// and the exact sum, whatever the order, so a reference beyond the range
/// is checked as that interval.
#[must_use]
pub fn element_ok(got: f64, want: f64, precision: Precision, rel: f64) -> bool {
    if precision.is_float() {
        return (got - want).abs() <= rel * want.abs().max(1.0);
    }
    let max = precision.quantize(f64::MAX);
    if want <= max {
        (got - want).abs() <= 0.5
    } else {
        got >= max - 0.5 && got <= want + 0.5
    }
}

/// Whether every element of `got` matches `want` (see [`element_ok`]).
#[must_use]
pub fn vectors_match(got: &[f64], want: &[f64], precision: Precision, rel: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| element_ok(*g, *w, precision, rel))
}

/// CPU reference `y = A x` over the values the device sees at `precision`.
#[must_use]
pub fn spmv_reference(a: &Coo, x: &[f64], precision: Precision) -> Vec<f64> {
    if precision == Precision::Fp64 {
        return a.spmv(x);
    }
    let xq: Vec<f64> = x.iter().map(|&v| precision.quantize(v)).collect();
    let mut y = vec![0.0; a.nrows()];
    for e in a.iter() {
        y[e.row as usize] += precision.quantize(e.val) * xq[e.col as usize];
    }
    y
}

/// An exact nearest-rank percentile with its sample count and the number
/// of samples strictly above it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: u64,
    /// Samples strictly greater than `value`.
    pub beyond: u64,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    if values.is_empty() {
        return Percentile::default();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    Percentile {
        value,
        samples: sorted.len() as u64,
        beyond: beyond as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&v, 0.99);
        assert_eq!((p99.value, p99.samples, p99.beyond), (99.0, 100, 1));
        assert_eq!(percentile(&v, 0.5).value, 50.0);
        assert_eq!(percentile(&[3.0], 0.99).value, 3.0);
        assert_eq!(percentile(&[], 0.5), Percentile::default());
    }

    #[test]
    fn integer_checks_are_exact_within_range_and_bounded_beyond() {
        assert!(vectors_match(&[3.0], &[3.4], Precision::Int8, 1e-9));
        assert!(!vectors_match(&[3.0], &[4.0], Precision::Int8, 1e-9));
        // A sum of 300 saturates partial sums at 127 in some order.
        assert!(element_ok(127.0, 300.0, Precision::Int8, 1e-9));
        assert!(element_ok(254.0, 300.0, Precision::Int8, 1e-9));
        assert!(!element_ok(120.0, 300.0, Precision::Int8, 1e-9));
        assert!(!element_ok(301.0, 300.0, Precision::Int8, 1e-9));
        assert!(!vectors_match(&[1.0], &[1.0 + 1e-6], Precision::Fp64, 1e-9));
    }
}
