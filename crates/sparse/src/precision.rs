//! Value precisions supported by the pSyncPIM VALU (Table VIII).
//!
//! The processing unit has a 32-byte datapath; the number of SIMD lanes per
//! vector operation therefore depends on element width: 32 lanes for 8-bit
//! elements down to 4 lanes for 64-bit elements.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Element precision of a matrix/vector as stored in DRAM and processed by
/// the PU's vector ALU.
///
/// The simulator carries all values as `f64` internally (a *functional*
/// superset); precision affects storage footprint, SIMD lane count and —
/// for integer types — value quantization.
///
/// ```
/// use psim_sparse::Precision;
/// assert_eq!(Precision::Fp64.bytes(), 8);
/// assert_eq!(Precision::Int8.lanes(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Precision {
    /// 8-bit signed integer.
    Int8,
    /// 16-bit signed integer.
    Int16,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// IEEE 754 half precision.
    Fp16,
    /// IEEE 754 single precision.
    Fp32,
    /// IEEE 754 double precision.
    Fp64,
}

impl Precision {
    /// All supported precisions, narrowest first within each family.
    pub const ALL: [Precision; 7] = [
        Precision::Int8,
        Precision::Int16,
        Precision::Int32,
        Precision::Int64,
        Precision::Fp16,
        Precision::Fp32,
        Precision::Fp64,
    ];

    /// Width of one element in bytes.
    #[must_use]
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Int8 => 1,
            Precision::Int16 | Precision::Fp16 => 2,
            Precision::Int32 | Precision::Fp32 => 4,
            Precision::Int64 | Precision::Fp64 => 8,
        }
    }

    /// Number of SIMD lanes in one 32-byte datapath pass (Table VIII:
    /// INT8: 32, INT16/FP16: 16, INT32/FP32: 8, INT64/FP64: 4).
    #[must_use]
    pub const fn lanes(self) -> usize {
        32 / self.bytes()
    }

    /// `true` for the floating-point family.
    #[must_use]
    pub const fn is_float(self) -> bool {
        matches!(self, Precision::Fp16 | Precision::Fp32 | Precision::Fp64)
    }

    /// Quantize a functional `f64` value to what this precision can
    /// represent. Floating types round via the nearest representable value
    /// (FP16 modeled with round-to-nearest on a 10-bit mantissa); integer
    /// types saturate.
    #[must_use]
    pub fn quantize(self, v: f64) -> f64 {
        match self {
            Precision::Fp64 => v,
            Precision::Fp32 => v as f32 as f64,
            Precision::Fp16 => fp16_round(v),
            Precision::Int8 => saturate(v, i8::MIN as f64, i8::MAX as f64),
            Precision::Int16 => saturate(v, i16::MIN as f64, i16::MAX as f64),
            Precision::Int32 => saturate(v, i32::MIN as f64, i32::MAX as f64),
            Precision::Int64 => {
                // i64 range exceeds f64's exact-integer range; clamp to the
                // f64-representable envelope.
                saturate(v, -(2f64.powi(63)), 2f64.powi(63) - 1.0)
            }
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Int8 => "INT8",
            Precision::Int16 => "INT16",
            Precision::Int32 => "INT32",
            Precision::Int64 => "INT64",
            Precision::Fp16 => "FP16",
            Precision::Fp32 => "FP32",
            Precision::Fp64 => "FP64",
        };
        f.write_str(s)
    }
}

impl Default for Precision {
    /// The paper evaluates SpTRSV and linear solvers in double precision.
    fn default() -> Self {
        Precision::Fp64
    }
}

fn saturate(v: f64, lo: f64, hi: f64) -> f64 {
    v.round().clamp(lo, hi)
}

fn fp16_round(v: f64) -> f64 {
    if !v.is_finite() {
        return v;
    }
    if v == 0.0 {
        return 0.0;
    }
    let max_fp16 = 65504.0;
    if v.abs() > max_fp16 {
        return v.signum() * f64::INFINITY;
    }
    // Round the mantissa to 10 bits by scaling to the binade.
    let exp = v.abs().log2().floor();
    let scale = 2f64.powf(10.0 - exp);
    (v * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_table_viii() {
        assert_eq!(Precision::Int8.lanes(), 32);
        assert_eq!(Precision::Int16.lanes(), 16);
        assert_eq!(Precision::Fp16.lanes(), 16);
        assert_eq!(Precision::Int32.lanes(), 8);
        assert_eq!(Precision::Fp32.lanes(), 8);
        assert_eq!(Precision::Int64.lanes(), 4);
        assert_eq!(Precision::Fp64.lanes(), 4);
    }

    #[test]
    fn quantize_int8_saturates() {
        assert_eq!(Precision::Int8.quantize(1000.0), 127.0);
        assert_eq!(Precision::Int8.quantize(-1000.0), -128.0);
        assert_eq!(Precision::Int8.quantize(3.4), 3.0);
    }

    #[test]
    fn quantize_fp32_roundtrips_small_values() {
        let v = 1.25;
        assert_eq!(Precision::Fp32.quantize(v), v);
    }

    #[test]
    fn quantize_fp16_loses_precision() {
        let v = 1.0 + 1e-6;
        assert_eq!(Precision::Fp16.quantize(v), 1.0);
        // But representable values survive.
        assert_eq!(Precision::Fp16.quantize(1.5), 1.5);
        assert_eq!(Precision::Fp16.quantize(0.0), 0.0);
    }

    #[test]
    fn fp16_overflow_is_infinite() {
        assert!(Precision::Fp16.quantize(1e6).is_infinite());
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Fp64.to_string(), "FP64");
        assert_eq!(Precision::Int8.to_string(), "INT8");
    }

    #[test]
    fn default_is_fp64() {
        assert_eq!(Precision::default(), Precision::Fp64);
    }
}
