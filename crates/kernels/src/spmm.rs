//! SpMM: multi-vector SpMV sharing one matrix traversal.
//!
//! [`SpmvPim::run_fused`] runs it; this module holds its width bound, its
//! result and the fusion contract's tests. The service-mode scheduler
//! coalesces concurrent SpMV jobs that share a matrix into one SpMM pass
//! (SparseP's observation: real PIM wins come from reusing a resident
//! matrix across vectors). The kernel reuses the verified batched stream
//! program unchanged and pushes the fusion into the data layout — a
//! *block-diagonal expansion*:
//!
//! * each bank's submatrix entries are replicated once per fused vector
//!   `v`, with indices shifted to `(row + v·max_out, col + v·max_in)`;
//! * the gathered input slices are stacked into one region of
//!   `width · max_in` elements, the outputs into `width · max_out`;
//! * one kernel launch per wave then computes all `width` products, so
//!   the per-launch fixed costs — the mode-switch cycle, CRF programming,
//!   completion polls, and the partition itself — are paid once instead
//!   of `width` times.
//!
//! Because the expansion keeps every per-vector entry stream in its
//! original order and every `(v, row)` output slot disjoint, each fused
//! vector's result is **bit-identical** to running [`SpmvPim::run`] on
//! that vector alone — the scheduler can scatter fused results back to
//! the original jobs without any numeric disclaimer. [`SpmvPim::run`] is
//! the width-1 pass itself.

use crate::device::KernelRun;
#[cfg(doc)]
use crate::spmv::SpmvPim;
use psim_sparse::partition::PartitionStats;

/// Largest fusion width [`SpmvPim::run_fused`] accepts. The expansion
/// multiplies the per-bank stream length by the width, so very wide
/// fusions stop amortizing fixed costs and start serializing unrelated
/// jobs behind one launch; 16 keeps the win while bounding the blast
/// radius of one fused group.
pub const MAX_SPMM_WIDTH: usize = 16;

/// Result of a distributed SpMM.
#[derive(Debug, Clone)]
pub struct SpmmResult {
    /// One product `y_v = A x_v` per fused vector, in input order.
    pub ys: Vec<Vec<f64>>,
    /// Timing/energy/commands for the whole fused pass.
    pub run: KernelRun,
    /// Distribution statistics of the partition.
    pub stats: PartitionStats,
    /// Number of sequential waves executed.
    pub waves: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PimDevice;
    use crate::spmv::SpmvPim;
    use psim_sparse::{gen, Coo, Precision};
    use psyncpim_core::isa::BinaryOp;

    fn validated(channels: usize) -> PimDevice {
        let mut d = PimDevice::tiny(channels);
        d.validate = true;
        d
    }

    fn vectors(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
        (0..width)
            .map(|v| gen::dense_vector(n, seed + v as u64))
            .collect()
    }

    fn fused(spmv: &SpmvPim, a: &Coo, xs: &[Vec<f64>]) -> SpmmResult {
        let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        spmv.run_fused(a, &xs).unwrap()
    }

    /// Every fused vector's product must equal the width-1 pass on that
    /// vector alone, bit for bit.
    fn assert_matches_solo(spmv: &SpmvPim, a: &Coo, xs: &[Vec<f64>]) {
        let r = fused(spmv, a, xs);
        assert_eq!(r.ys.len(), xs.len());
        assert_eq!(r.run.violations, 0);
        for (v, x) in xs.iter().enumerate() {
            let want = spmv.run(a, x).unwrap().y;
            for (i, (g, s)) in r.ys[v].iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    s.to_bits(),
                    "vector {v} row {i}: fused {g} vs solo {s}"
                );
            }
        }
    }

    #[test]
    fn width_one_is_bit_identical_to_spmv() {
        // `run` is the width-1 pass: same result bits AND the same
        // accounting (cycles, commands, bytes) — there is no "SpMM tax"
        // on an unfused job.
        for (a, seed) in [
            (gen::rmat(96, 5, 11), 3u64),
            (gen::banded_fem(700, 10, 5, 7), 5),
            (gen::web_hubs(128, 512, 9), 8),
        ] {
            let x = gen::dense_vector(a.ncols(), seed);
            let spmv = SpmvPim::new(validated(2), Precision::Fp64);
            let m = spmv.run_fused(&a, &[&x]).unwrap();
            let s = spmv.run(&a, &x).unwrap();
            let bits =
                |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect::<Vec<_>>() };
            assert_eq!(bits(&m.ys[0]), bits(&s.y));
            assert_eq!(m.run.dram_cycles, s.run.dram_cycles);
            assert_eq!(m.run.commands, s.run.commands);
            assert_eq!(m.run.external_bytes, s.run.external_bytes);
            assert_eq!(m.run.kernel_s.to_bits(), s.run.kernel_s.to_bits());
            assert_eq!(m.run.host_s.to_bits(), s.run.host_s.to_bits());
            assert_eq!(m.waves, s.waves);
            assert_eq!(m.run.violations, 0);
        }
    }

    #[test]
    fn fused_vectors_match_solo_spmv_bitwise() {
        // The scheduler's fusion contract: every fused vector's result is
        // bit-identical to the per-job SpMV it replaced. The expansion
        // keeps per-vector entry order and disjoint (v, row) slots, so the
        // accumulation order per output element is exactly the solo order.
        for (a, w) in [
            (gen::rmat(96, 5, 11), 4usize),
            (gen::banded_fem(500, 8, 4, 3), 3),
            (gen::web_hubs(120, 480, 2), MAX_SPMM_WIDTH),
        ] {
            let xs = vectors(a.ncols(), w, 17);
            assert_matches_solo(&SpmvPim::new(validated(2), Precision::Fp64), &a, &xs);
        }
    }

    #[test]
    fn fusion_amortizes_fixed_costs() {
        // One fused pass must be cheaper than running the vectors one by
        // one: the matrix traversal is shared and the per-launch overheads
        // (mode switches, CRF programming, completion polls) are paid once
        // per wave instead of once per vector.
        let a = gen::rmat(128, 4, 21);
        let w = 8usize;
        let xs = vectors(a.ncols(), w, 5);
        let spmv = SpmvPim::new(PimDevice::tiny(2), Precision::Fp64);
        let fused = fused(&spmv, &a, &xs).run.total_s();
        let solo: f64 = xs
            .iter()
            .map(|x| spmv.run(&a, x).unwrap().run.total_s())
            .sum();
        assert!(
            fused < solo,
            "fused {fused:.3e}s must beat {w} solo runs {solo:.3e}s"
        );
    }

    #[test]
    fn mixed_precision_matches_quantized_reference() {
        let a = gen::rmat(80, 3, 13);
        let xs = vectors(a.ncols(), 3, 29);
        for p in [Precision::Fp32, Precision::Int8] {
            assert_matches_solo(&SpmvPim::new(validated(2), p), &a, &xs);
        }
    }

    #[test]
    fn semiring_spmm_matches_solo() {
        // Min-plus fusion (SSSP relaxation steps for several frontiers).
        let a = gen::rmat(64, 3, 31);
        let spmv =
            SpmvPim::with_semiring(validated(1), Precision::Fp64, BinaryOp::Add, BinaryOp::Min);
        assert_matches_solo(&spmv, &a, &vectors(a.ncols(), 2, 41));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Coo::new(10, 10);
        let spmv = SpmvPim::new(PimDevice::tiny(2), Precision::Fp64);
        let res = fused(&spmv, &a, &vectors(10, 2, 1));
        assert_eq!(res.ys, vec![vec![0.0; 10]; 2]);
        assert_eq!(res.waves, 0);
    }

    #[test]
    #[should_panic(expected = "spmm width")]
    fn zero_width_is_rejected() {
        let a = Coo::new(4, 4);
        let _ = SpmvPim::new(PimDevice::tiny(1), Precision::Fp64).run_fused(&a, &[]);
    }
}
