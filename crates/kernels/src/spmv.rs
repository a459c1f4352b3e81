//! SpMV on pSyncPIM (paper §V), and SpMM as its fused multi-vector form.
//!
//! The matrix is compressed and distributed with
//! [`psim_sparse::partition::BankPartition`]; each bank may receive several
//! submatrices, which execute as sequential *waves* (one kernel launch per
//! wave — every wave needs its own input-vector broadcast anyway). Within a
//! wave every bank runs the Algorithm-2 stream kernel in lockstep; banks
//! whose stream is shorter pad with the −1 sentinel and exit early via
//! CEXIT. The host replicates compacted input-vector slices and accumulates
//! non-zero partial outputs over the external bus.
//!
//! [`SpmvPim::run_fused`] runs up to [`MAX_SPMM_WIDTH`] vectors through one
//! traversal by block-diagonal expansion (see [`crate::spmm`]), and
//! [`SpmvPim::run`] is its width-1 pass: one wave loop serves SpMV and
//! fused SpMM alike.
//!
//! The runner executes a crate-private `WavePlan` (partition, per-bank
//! wave queues, each launch's banks), the plan
//! [`crate::CostModel::spmv_layout`] prices. A launch lays out its triples
//! with `device::place_triples`, as SpTRSV's level batches do.

use crate::device::{batched_sparse_bindings, place_triples, KernelRun, PimDevice};
use crate::programs;
use crate::spmm::{SpmmResult, MAX_SPMM_WIDTH};
use psim_sparse::partition::{BankPartition, PartitionConfig, PartitionStats, SubMatrix};
use psim_sparse::{Coo, Layout, Precision};
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::CoreError;

/// SpMV kernel runner.
#[derive(Debug, Clone)]
pub struct SpmvPim {
    /// Target device.
    pub device: PimDevice,
    /// Element precision (the paper runs most matrices FP64 but exploits
    /// INT8 on `soc-sign-epinions` and `Stanford`).
    pub precision: Precision,
    /// Partition scheme and bank placement the matrix executes from
    /// ([`Layout::baseline`] is the paper's). Every layout streams the
    /// true non-zeros, so every layout is sound under every semiring.
    pub layout: Layout,
    /// Semiring multiply (applied to `val ⊙ x[col]`); MUL for arithmetic
    /// SpMV.
    pub mul: BinaryOp,
    /// Semiring accumulate (applied into `y[row]`); ADD for arithmetic
    /// SpMV, MIN for the min-plus semiring of SSSP/CC, MAX for BFS
    /// reachability.
    pub acc: BinaryOp,
    /// Matrix compression (paper Figure 6); disable only for the ablation.
    pub compress: bool,
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

/// SpMV's launch plan (§V): the matrix's entry stream cut by a layout into
/// submatrices across the device's banks, each bank's submatrices queued
/// as sequential waves. Launch (`wave`, `cube`) runs the cube's banks on
/// their `wave`-th submatrices; the cubes of a wave run in parallel.
pub(crate) struct WavePlan {
    part: BankPartition,
    /// Per bank: the indices of its submatrices in `part`, in order.
    queues: Vec<Vec<usize>>,
    banks_per_cube: usize,
    /// Sequential waves: the longest bank queue.
    pub(crate) waves: usize,
}

impl WavePlan {
    /// Partition `a` across `device`'s banks by `layout`.
    pub(crate) fn new(
        a: &Coo,
        device: &PimDevice,
        precision: Precision,
        layout: Layout,
        compress: bool,
    ) -> Self {
        let part = BankPartition::build(
            a,
            PartitionConfig {
                num_banks: device.total_banks(),
                row_bytes: device.hbm.row_bytes(),
                precision,
                policy: layout.policy,
                compress,
                scheme: layout.scheme,
            },
        );
        let mut queues = vec![Vec::new(); device.total_banks()];
        for (i, s) in part.submatrices().iter().enumerate() {
            queues[s.bank].push(i);
        }
        let waves = queues.iter().map(Vec::len).max().unwrap_or(0);
        WavePlan {
            part,
            queues,
            banks_per_cube: device.hbm.total_banks(),
            waves,
        }
    }

    /// The launch of `cube` in `wave`: each bank of the cube whose queue
    /// reaches `wave` (as its index within the cube) with that submatrix.
    pub(crate) fn launch(
        &self,
        wave: usize,
        cube: usize,
    ) -> impl Iterator<Item = (usize, &SubMatrix)> + Clone {
        let lo = cube * self.banks_per_cube;
        self.queues[lo..lo + self.banks_per_cube]
            .iter()
            .enumerate()
            .filter_map(move |(b, q)| Some((b, &self.part.submatrices()[*q.get(wave)?])))
    }

    /// The longest bank stream of launch (`wave`, `cube`); 0 when the
    /// cube is idle in that wave.
    pub(crate) fn longest(&self, wave: usize, cube: usize) -> usize {
        let nnz = self.launch(wave, cube).map(|(_, s)| s.nnz());
        nnz.max().unwrap_or(0)
    }
}

impl SpmvPim {
    /// Runner on the given device at a precision.
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        SpmvPim {
            device,
            precision,
            layout: Layout::baseline(),
            mul: BinaryOp::Mul,
            acc: BinaryOp::Add,
            compress: true,
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
            mul,
            acc,
            ..SpmvPim::new(device, precision)
        }
    }

    /// Adopt a tuned [`Layout`] (scheme, policy) wholesale.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Compute `y = A x` on the PIM device: the width-1
    /// [`SpmvPim::run_fused`] pass.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] if `x.len() != a.ncols()`; otherwise
    /// propagates engine/program failures.
    pub fn run(&self, a: &Coo, x: &[f64]) -> Result<SpmvResult, CoreError> {
        let SpmmResult {
            mut ys,
            run,
            stats,
            waves,
        } = self.run_fused(a, &[x])?;
        Ok(SpmvResult {
            y: ys.pop().expect("one product per vector"),
            run,
            stats,
            waves,
        })
    }

    /// Compute `y_v = A x_v` for every vector of `xs` in one traversal.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] when a vector's length differs from
    /// `a.ncols()`; otherwise propagates engine/program failures.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is empty or wider than [`MAX_SPMM_WIDTH`].
    pub fn run_fused(&self, a: &Coo, xs: &[&[f64]]) -> Result<SpmmResult, CoreError> {
        let width = xs.len();
        assert!(
            (1..=MAX_SPMM_WIDTH).contains(&width),
            "spmm width {width} outside 1..={MAX_SPMM_WIDTH}"
        );
        if let Some((v, x)) = xs.iter().enumerate().find(|(_, x)| x.len() != a.ncols()) {
            return Err(CoreError::Operand(format!(
                "spmv vector {v} has {} elements for a matrix with {} columns",
                x.len(),
                a.ncols()
            )));
        }
        let plan = WavePlan::new(a, &self.device, self.precision, self.layout, self.compress);

        let lanes = self.precision.lanes();
        let ebytes = self.precision.bytes();
        let program = programs::compiled(&programs::sparse_stream_batched(
            self.precision,
            &self.mul.to_string(),
            &self.acc.to_string(),
        ))?;
        let identity = self.acc.identity();

        let mut host = self.device.make_host();
        let mut run = KernelRun::default();
        let mut ys = vec![vec![identity; a.nrows()]; width];

        for wave in 0..plan.waves {
            // Broadcast this wave's gathered input slices — one slice per
            // fused vector per bank (the matrix-side traversal is shared;
            // the vector-side traffic still scales with the width).
            let bcast: usize = (0..self.device.cubes)
                .flat_map(|cube| plan.launch(wave, cube))
                .map(|(_, s)| s.input_len() * ebytes * width)
                .sum();
            host.broadcast(bcast);

            let mut wave_seconds = 0.0f64;
            let mut wave_cycles = 0u64;
            let mut wave_wall = psyncpim_core::CycleBreakdown::default();
            let mut collect_bytes = 0usize;
            for cube in 0..self.device.cubes {
                // Equal-rows-per-bank padding within the cube.
                let max_nnz = plan.longest(wave, cube);
                if max_nnz == 0 {
                    continue;
                }
                let launch = plan.launch(wave, cube);
                let (max_in, max_out) = launch.clone().fold((1, 1), |(i, o), (_, s)| {
                    (i.max(s.input_len()), o.max(s.output_len()))
                });

                // The block-diagonal stream is `width` copies of each bank's
                // stream, vector `v`'s rows and columns offset by `v` times
                // the cube's widest output and input slice; the sentinel
                // pair still closes it.
                let mut engine = self.device.make_engine();
                let rt = place_triples(
                    &mut engine,
                    width * max_nnz,
                    self.precision,
                    launch.clone().map(|(b, s)| {
                        let stream = (0..width).flat_map(move |v| {
                            let (dr, dc) = ((v * max_out) as u32, (v * max_in) as u32);
                            s.entries
                                .iter()
                                .map(move |e| (e.row + dr, e.col + dc, e.val))
                        });
                        (b, stream)
                    }),
                );
                let (x0, y0) = (vec![0.0; width * max_in], vec![identity; width * max_out]);
                let mut regions = None;
                for b in 0..engine.num_banks() {
                    let mem = engine.mem_mut(b);
                    regions = Some((mem.alloc_copy(ebytes, &x0), mem.alloc_copy(ebytes, &y0)));
                }
                let (rx, ry) = regions.expect("a cube has at least one bank");
                for (b, s) in launch.clone() {
                    let xg = engine.mem_mut(b).region_mut(rx).data_mut();
                    for (v, x) in xs.iter().enumerate() {
                        for (i, &c) in s.cols.iter().enumerate() {
                            xg[v * max_in + i] = self.precision.quantize(x[c as usize]);
                        }
                    }
                }
                engine.load_verified(&program, batched_sparse_bindings(rt, rx, ry, lanes))?;
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

                // Host accumulates only the rows that received partial
                // sums ("the host chip accumulates only non-zero outputs",
                // §V), for every fused vector. A submatrix's entries are
                // row-major (`BankPartition::build` cuts them from the
                // row-sorted matrix in order), so each touched row is one
                // run of equal rows.
                for (b, s) in launch {
                    debug_assert!(s.entries.windows(2).all(|e| e[0].row <= e[1].row));
                    let data = engine.mem(b).region(ry).data();
                    let mut rows = 0usize;
                    let mut last = None;
                    for e in &s.entries {
                        if last == Some(e.row) {
                            continue;
                        }
                        last = Some(e.row);
                        rows += 1;
                        let g = s.row_lo + e.row as usize;
                        for (v, y) in ys.iter_mut().enumerate() {
                            y[g] = self.acc.apply(data[v * max_out + e.row as usize], y[g]);
                        }
                    }
                    collect_bytes += width * rows * (ebytes + 4);
                }
            }
            run.kernel_s += wave_seconds;
            run.dram_cycles += wave_cycles;
            run.attr.add_all(&wave_wall);
            run.phases += 1;
            host.collect(collect_bytes);
        }
        run.absorb_host(&host);

        Ok(SpmmResult {
            ys,
            run,
            stats: plan.part.stats(),
            waves: plan.waves,
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
    fn short_vector_is_an_operand_error() {
        let a = gen::rmat(48, 3, 5);
        let x = gen::dense_vector(47, 1);
        let err = tiny_runner(Precision::Fp64).run(&a, &x).unwrap_err();
        assert!(matches!(err, CoreError::Operand(_)), "{err:?}");
        let full = gen::dense_vector(48, 2);
        let err = tiny_runner(Precision::Fp64)
            .run_fused(&a, &[&full, &x])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::Operand("spmv vector 1 has 47 elements for a matrix with 48 columns".into())
        );
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
