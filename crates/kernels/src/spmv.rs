//! SpMV on pSyncPIM (paper §V).
//!
//! The matrix is compressed and distributed with
//! [`psim_sparse::partition::BankPartition`]; each bank may receive several
//! submatrices, which execute as sequential *waves* (one kernel launch per
//! wave — every wave needs its own input-vector broadcast anyway). Within a
//! wave every bank runs the Algorithm-2 stream kernel in lockstep; banks
//! whose stream is shorter pad with the −1 sentinel and exit early via
//! CEXIT. The host replicates compacted input-vector slices and accumulates
//! non-zero partial outputs over the external bus.

use crate::device::{
    batched_sparse_bindings, mode_cycle, pack_triples, triple_pairs, KernelRun, PimDevice,
};
use crate::programs;
use psim_sparse::partition::{
    BankPartition, DistPolicy, PartitionConfig, PartitionScheme, PartitionStats, SubMatrix,
};
use psim_sparse::{Coo, Layout, MatrixFormat, Precision};
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::memory::Binding;
use psyncpim_core::CoreError;

/// SpMV kernel runner.
#[derive(Debug, Clone)]
pub struct SpmvPim {
    /// Target device.
    pub device: PimDevice,
    /// Element precision (the paper runs most matrices FP64 but exploits
    /// INT8 on `soc-sign-epinions` and `Stanford`).
    pub precision: Precision,
    /// Submatrix placement policy.
    pub policy: DistPolicy,
    /// Semiring multiply (applied to `val ⊙ x[col]`); MUL for arithmetic
    /// SpMV.
    pub mul: BinaryOp,
    /// Semiring accumulate (applied into `y[row]`); ADD for arithmetic
    /// SpMV, MIN for the min-plus semiring of SSSP/CC, MAX for BFS
    /// reachability.
    pub acc: BinaryOp,
    /// Matrix compression (paper Figure 6); disable only for the ablation.
    pub compress: bool,
    /// Storage format the matrix executes from. Element formats (COO/CSR)
    /// stream the true non-zeros; blocked formats (BCSR/BCOO) stream
    /// their tiles with fill zeros — sound only for the arithmetic
    /// semiring, which [`SpmvPim::run`] asserts.
    pub format: MatrixFormat,
    /// Partition scheme (1D row strips or a 2D column-blocked variant).
    pub scheme: PartitionScheme,
}

/// Result of a distributed SpMV.
#[derive(Debug, Clone)]
pub struct SpmvResult {
    /// The product `y = A x`.
    pub y: Vec<f64>,
    /// Timing/energy/commands.
    pub run: KernelRun,
    /// Distribution statistics of the partition (Figure 8 analysis).
    pub stats: PartitionStats,
    /// Number of sequential waves executed.
    pub waves: usize,
}

impl SpmvPim {
    /// Runner on the given device at a precision.
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        SpmvPim {
            device,
            precision,
            policy: DistPolicy::RoundRobin,
            mul: BinaryOp::Mul,
            acc: BinaryOp::Add,
            compress: true,
            format: MatrixFormat::Coo,
            scheme: PartitionScheme::Row1D,
        }
    }

    /// Runner over an arbitrary semiring `(mul, acc)` — the GraphBLAS-style
    /// generality the PU's Binary field provides (paper Table IV).
    #[must_use]
    pub fn with_semiring(
        device: PimDevice,
        precision: Precision,
        mul: BinaryOp,
        acc: BinaryOp,
    ) -> Self {
        SpmvPim {
            device,
            precision,
            policy: DistPolicy::RoundRobin,
            mul,
            acc,
            compress: true,
            format: MatrixFormat::Coo,
            scheme: PartitionScheme::Row1D,
        }
    }

    /// Adopt a tuned [`Layout`] (format, scheme, policy) wholesale.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.format = layout.format;
        self.scheme = layout.scheme;
        self.policy = layout.policy;
        self
    }

    /// The layout this runner executes from.
    #[must_use]
    pub fn layout(&self) -> Layout {
        Layout {
            format: self.format,
            scheme: self.scheme,
            policy: self.policy,
        }
    }

    /// Compute `y = A x` on the PIM device.
    ///
    /// # Errors
    ///
    /// Propagates engine/program failures.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != a.ncols()`.
    pub fn run(&self, a: &Coo, x: &[f64]) -> Result<SpmvResult, CoreError> {
        assert_eq!(x.len(), a.ncols(), "spmv operand length mismatch");
        // Blocked fill zeros are inert only when 0·x is the accumulator
        // identity — the arithmetic semiring. Min/Max accumulation would
        // absorb the fill, so refuse rather than corrupt.
        assert!(
            !self.format.is_blocked() || (self.mul == BinaryOp::Mul && self.acc == BinaryOp::Add),
            "blocked formats require the arithmetic (Mul, Add) semiring"
        );
        let expanded = self.format.expand(a);
        let a = expanded.as_ref().unwrap_or(a);
        let nbanks = self.device.total_banks();
        let part = BankPartition::build(
            a,
            PartitionConfig {
                num_banks: nbanks,
                row_bytes: self.device.hbm.row_bytes(),
                precision: self.precision,
                policy: self.policy,
                compress: self.compress,
                scheme: self.scheme,
            },
        );
        let stats = part.stats();

        // Group submatrices into per-bank queues; wave w takes each bank's
        // w-th submatrix.
        let mut per_bank: Vec<Vec<&SubMatrix>> = vec![Vec::new(); nbanks];
        for s in part.submatrices() {
            per_bank[s.bank].push(s);
        }
        let waves = per_bank.iter().map(Vec::len).max().unwrap_or(0);

        let lanes = self.precision.lanes();
        let ebytes = self.precision.bytes();
        let banks_per_cube = self.device.hbm.total_banks();
        let program = programs::compiled(&programs::sparse_stream_batched(
            self.precision,
            &self.mul.to_string(),
            &self.acc.to_string(),
        ))?;
        let identity = self.acc.identity();

        let mut host = self.device.make_host();
        let mut run = KernelRun::default();
        let mut y = vec![identity; a.nrows()];

        for wave in 0..waves {
            // Broadcast this wave's gathered input slices.
            let bcast: usize = per_bank
                .iter()
                .filter_map(|q| q.get(wave))
                .map(|s| s.input_len() * ebytes)
                .sum();
            host.broadcast(bcast);
            mode_cycle(&mut host, program.len());

            let mut wave_seconds = 0.0f64;
            let mut wave_cycles = 0u64;
            let mut wave_wall = psyncpim_core::CycleBreakdown::default();
            let mut collect_bytes = 0usize;
            for cube in 0..self.device.cubes {
                let lo = cube * banks_per_cube;
                // Equal-rows-per-bank padding within the cube.
                let max_nnz = (0..banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave))
                    .map(|s| s.nnz())
                    .max()
                    .unwrap_or(0);
                if max_nnz == 0 {
                    continue;
                }
                let pairs = triple_pairs(max_nnz, lanes);
                let max_in = (0..banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave))
                    .map(|s| s.input_len())
                    .max()
                    .unwrap_or(1)
                    .max(1);
                let max_out = (0..banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave))
                    .map(|s| s.output_len())
                    .max()
                    .unwrap_or(1)
                    .max(1);

                let mut engine = self.device.make_engine();
                let mut bindings: Vec<Option<Binding>> = Vec::new();
                for b in 0..banks_per_cube {
                    let sub = per_bank[lo + b].get(wave);
                    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
                    let mut xg = vec![0.0; max_in];
                    if let Some(s) = sub {
                        entries = s.entries.iter().map(|e| (e.row, e.col, e.val)).collect();
                        for (i, &c) in s.cols.iter().enumerate() {
                            xg[i] = self.precision.quantize(x[c as usize]);
                        }
                    }
                    let triples = pack_triples(&entries, lanes, pairs, self.precision);
                    let mem = engine.mem_mut(b);
                    let rt = mem.alloc("triples", ebytes, triples);
                    let rx = mem.alloc("x", ebytes, xg);
                    let ry = mem.alloc("y", ebytes, vec![identity; max_out]);
                    if b == 0 {
                        bindings = batched_sparse_bindings(rt, rx, ry, lanes);
                    }
                }
                engine.load_verified(&program, bindings.clone())?;
                let report = engine.run()?;
                wave_seconds = wave_seconds.max(report.seconds);
                // Cubes run in parallel within a wave: the wave's cycles
                // (and its wall-clock attribution) come from the slowest
                // cube of the wave.
                if report.dram_cycles > wave_cycles {
                    wave_cycles = report.dram_cycles;
                    if let Some(m) = &report.metrics {
                        wave_wall = m.wall();
                    }
                }
                run.absorb_engine(&report);

                // Host accumulates only rows that received partial sums.
                let y_region = bindings[10].expect("output bound").region;
                for b in 0..banks_per_cube {
                    if let Some(s) = per_bank[lo + b].get(wave) {
                        let data = engine.mem(b).region(y_region).data();
                        let mut touched: Vec<u32> = s.entries.iter().map(|e| e.row).collect();
                        touched.sort_unstable();
                        touched.dedup();
                        for &lr in &touched {
                            let g = s.row_lo + lr as usize;
                            y[g] = self.acc.apply(data[lr as usize], y[g]);
                        }
                        collect_bytes += touched.len() * (ebytes + 4);
                    }
                }
            }
            run.kernel_s += wave_seconds;
            run.dram_cycles += wave_cycles;
            run.attr.add_all(&wave_wall);
            run.phases += 1;
            host.collect(collect_bytes);
        }
        run.absorb_host(&host);

        Ok(SpmvResult {
            y,
            run,
            stats,
            waves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::gen;

    fn tiny_runner(precision: Precision) -> SpmvPim {
        SpmvPim::new(PimDevice::tiny(2), precision)
    }

    #[test]
    fn spmv_matches_reference_fp64() {
        let a = gen::rmat(96, 5, 11);
        let x = gen::dense_vector(96, 3);
        let res = tiny_runner(Precision::Fp64).run(&a, &x).unwrap();
        let want = a.spmv(&x);
        for (i, (g, w)) in res.y.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "row {i}: {g} vs {w}");
        }
        assert!(res.run.kernel_s > 0.0);
        assert!(res.run.total_s() > res.run.kernel_s);
        assert!(res.waves >= 1);
    }

    #[test]
    fn spmv_multiwave_banded() {
        // A banded matrix on a tiny device forces multiple waves per bank.
        let a = gen::banded_fem(1400, 12, 6, 7);
        let x = gen::dense_vector(1400, 5);
        let res = tiny_runner(Precision::Fp64).run(&a, &x).unwrap();
        assert!(res.waves > 1, "expected multiple waves, got {}", res.waves);
        let want = a.spmv(&x);
        for (g, w) in res.y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn spmv_int8_completes_and_reduces_traffic() {
        let a = gen::rmat(128, 4, 9);
        let x = vec![1.0; 128];
        let f64run = tiny_runner(Precision::Fp64).run(&a, &x).unwrap();
        let i8run = tiny_runner(Precision::Int8).run(&a, &x).unwrap();
        assert!(i8run.run.external_bytes < f64run.run.external_bytes);
        // Values are small positive ints (quantized), x = 1: products are
        // exact, sums may saturate only beyond 127 — this graph is small
        // enough to stay exact.
        let want = {
            let mut q = Coo::new(128, 128);
            for e in a.iter() {
                q.push(e.row, e.col, Precision::Int8.quantize(e.val));
            }
            q.spmv(&x)
        };
        for (g, w) in i8run.y.iter().zip(&want) {
            assert!((g - w).abs() <= 1.0, "{g} vs {w}");
        }
    }

    #[test]
    fn min_plus_semiring_relaxation() {
        // d'[r] = min over entries (r, c) of (w + d[c]) - one SSSP step.
        let mut a = Coo::new(4, 4);
        a.push(1, 0, 2.0);
        a.push(2, 1, 1.0);
        a.push(2, 0, 5.0);
        let d = vec![0.0, 3.0, 100.0, 100.0];
        let r = SpmvPim::with_semiring(
            PimDevice::tiny(1),
            Precision::Fp64,
            psyncpim_core::isa::BinaryOp::Add,
            psyncpim_core::isa::BinaryOp::Min,
        )
        .run(&a, &d)
        .unwrap();
        assert_eq!(r.y[1], 2.0); // 2 + 0
        assert_eq!(r.y[2], 4.0); // min(1 + 3, 5 + 0)
        assert!(r.y[0].is_infinite(), "no in-edges keeps the identity");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Coo::new(10, 10);
        let res = tiny_runner(Precision::Fp64).run(&a, &[0.0; 10]).unwrap();
        assert_eq!(res.y, vec![0.0; 10]);
        assert_eq!(res.waves, 0);
    }
}
