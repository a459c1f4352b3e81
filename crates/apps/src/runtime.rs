//! Device abstraction for the real-world benchmarks.
//!
//! An application is written once against [`Runtime`] and runs on either
//! the simulated pSyncPIM device ([`PimRuntime`] — kernels actually execute
//! on the PU interpreter) or the calibrated GPU model ([`GpuRuntime`] —
//! results computed with reference kernels, times from the roofline model;
//! graph applications use GraphBLAST-overhead costing and linear solvers
//! plain CUDA costing, matching the paper's §VII-A methodology).
//!
//! Each runtime accumulates a per-kernel-family time [`Breakdown`] — the
//! data behind the paper's Figures 2 and 12.

use psim_baselines::GpuModel;
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{PimDevice, SpmvPim, SptrsvPim};
use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{dense, Coo, LevelSchedule, Precision};
use psyncpim_core::isa::BinaryOp;
use serde::{Deserialize, Serialize};

/// Accumulated kernel-family times in seconds (Figures 2 and 12).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// SpMV kernels.
    pub spmv_s: f64,
    /// SpTRSV kernels.
    pub sptrsv_s: f64,
    /// Level-1 vector kernels.
    pub vector_s: f64,
    /// SpGEMM kernels (TC only).
    pub spgemm_s: f64,
}

impl Breakdown {
    /// Total seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.spmv_s + self.sptrsv_s + self.vector_s + self.spgemm_s
    }

    /// Fractions in `[spmv, sptrsv, vector, spgemm]` order; all zero for
    /// an empty breakdown.
    #[must_use]
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total_s();
        if t <= 0.0 {
            return [0.0; 4];
        }
        [
            self.spmv_s / t,
            self.sptrsv_s / t,
            self.vector_s / t,
            self.spgemm_s / t,
        ]
    }

    /// Difference between two snapshots (`later - self`).
    #[must_use]
    pub fn delta(&self, later: &Breakdown) -> Breakdown {
        Breakdown {
            spmv_s: later.spmv_s - self.spmv_s,
            sptrsv_s: later.sptrsv_s - self.sptrsv_s,
            vector_s: later.vector_s - self.vector_s,
            spgemm_s: later.spgemm_s - self.spgemm_s,
        }
    }
}

/// The kernel interface applications are written against.
pub trait Runtime {
    /// `y = A x` over the arithmetic semiring.
    fn spmv(&mut self, a: &Coo, x: &[f64]) -> Vec<f64>;
    /// `y = A x` over an arbitrary `(mul, acc)` semiring (graph kernels).
    fn spmv_semiring(&mut self, a: &Coo, x: &[f64], mul: BinaryOp, acc: BinaryOp) -> Vec<f64>;
    /// Solve `T x = b` for a unit triangular `T`.
    fn sptrsv(&mut self, t: &UnitTriangular, b: &[f64]) -> Vec<f64>;
    /// `y <- a x + y`.
    fn axpy(&mut self, a: f64, x: &[f64], y: &mut Vec<f64>);
    /// `x <- a x`.
    fn scal(&mut self, a: f64, x: &mut Vec<f64>);
    /// Element-wise `z = x (op) y`.
    fn vv(&mut self, x: &[f64], y: &[f64], op: BinaryOp) -> Vec<f64>;
    /// Dot product.
    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64;
    /// Euclidean norm.
    fn norm2(&mut self, x: &[f64]) -> f64;
    /// Snapshot of accumulated kernel times.
    fn breakdown(&self) -> Breakdown;
}

/// Runtime executing every kernel on the simulated pSyncPIM device.
#[derive(Debug, Clone)]
pub struct PimRuntime {
    device: PimDevice,
    precision: Precision,
    times: Breakdown,
}

impl PimRuntime {
    /// Runtime on a device at a precision.
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        PimRuntime {
            device,
            precision,
            times: Breakdown::default(),
        }
    }

    fn blas(&self) -> Blas1Pim {
        Blas1Pim::new(self.device.clone(), self.precision)
    }
}

impl Runtime for PimRuntime {
    fn spmv(&mut self, a: &Coo, x: &[f64]) -> Vec<f64> {
        let r = SpmvPim::new(self.device.clone(), self.precision)
            .run(a, x)
            .expect("pim spmv");
        self.times.spmv_s += r.run.total_s();
        r.y
    }

    fn spmv_semiring(&mut self, a: &Coo, x: &[f64], mul: BinaryOp, acc: BinaryOp) -> Vec<f64> {
        let r = SpmvPim::with_semiring(self.device.clone(), self.precision, mul, acc)
            .run(a, x)
            .expect("pim semiring spmv");
        self.times.spmv_s += r.run.total_s();
        r.y
    }

    fn sptrsv(&mut self, t: &UnitTriangular, b: &[f64]) -> Vec<f64> {
        let mut solver = SptrsvPim::new(self.device.clone());
        solver.precision = self.precision;
        let r = solver.run(t, b).expect("pim sptrsv");
        self.times.sptrsv_s += r.run.total_s();
        r.x
    }

    fn axpy(&mut self, a: f64, x: &[f64], y: &mut Vec<f64>) {
        let r = self.blas().daxpy(a, x, y).expect("pim daxpy");
        self.times.vector_s += r.run.total_s();
        *y = r.v;
    }

    fn scal(&mut self, a: f64, x: &mut Vec<f64>) {
        let r = self.blas().dscal(a, x).expect("pim dscal");
        self.times.vector_s += r.run.total_s();
        *x = r.v;
    }

    fn vv(&mut self, x: &[f64], y: &[f64], op: BinaryOp) -> Vec<f64> {
        let r = self.blas().dvdv(x, y, op).expect("pim dvdv");
        self.times.vector_s += r.run.total_s();
        r.v
    }

    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        let r = self.blas().ddot(x, y).expect("pim ddot");
        self.times.vector_s += r.run.total_s();
        r.s
    }

    fn norm2(&mut self, x: &[f64]) -> f64 {
        let r = self.blas().dnrm2(x).expect("pim dnrm2");
        self.times.vector_s += r.run.total_s();
        r.s
    }

    fn breakdown(&self) -> Breakdown {
        self.times
    }
}

/// Which GPU software stack a kernel family is costed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GpuStack {
    /// Plain CUDA/cuSPARSE (linear system solvers).
    Cuda,
    /// GraphBLAST (graph applications) — large per-op overheads.
    GraphBlast,
}

/// Runtime computing results with reference kernels and charging the
/// calibrated GPU model's time.
#[derive(Debug, Clone)]
pub struct GpuRuntime {
    model: GpuModel,
    stack: GpuStack,
    precision: Precision,
    times: Breakdown,
}

impl GpuRuntime {
    /// Runtime over a GPU model with the given software stack.
    #[must_use]
    pub fn new(model: GpuModel, stack: GpuStack) -> Self {
        GpuRuntime {
            model,
            stack,
            precision: Precision::Fp64,
            times: Breakdown::default(),
        }
    }

    fn charge_vector(&mut self, n: usize, streams: usize) {
        let t = match self.stack {
            GpuStack::Cuda => self.model.vector_op_seconds(n, streams, self.precision),
            GpuStack::GraphBlast => self.model.graphblast_op_seconds(n, streams, self.precision),
        };
        self.times.vector_s += t;
    }
}

impl Runtime for GpuRuntime {
    fn spmv(&mut self, a: &Coo, x: &[f64]) -> Vec<f64> {
        let t = match self.stack {
            GpuStack::Cuda => {
                self.model
                    .spmv_seconds(a.nnz(), a.nrows(), a.ncols(), self.precision)
            }
            GpuStack::GraphBlast => {
                self.model
                    .graphblast_spmv_seconds(a.nnz(), a.nrows(), a.ncols(), self.precision)
            }
        };
        self.times.spmv_s += t;
        a.spmv(x)
    }

    fn spmv_semiring(&mut self, a: &Coo, x: &[f64], mul: BinaryOp, acc: BinaryOp) -> Vec<f64> {
        let t = match self.stack {
            GpuStack::Cuda => {
                self.model
                    .spmv_seconds(a.nnz(), a.nrows(), a.ncols(), self.precision)
            }
            GpuStack::GraphBlast => {
                self.model
                    .graphblast_spmv_seconds(a.nnz(), a.nrows(), a.ncols(), self.precision)
            }
        };
        self.times.spmv_s += t;
        // Reference semiring SpMV.
        let mut y = vec![acc.identity(); a.nrows()];
        for e in a.iter() {
            let prod = mul.apply(e.val, x[e.col as usize]);
            y[e.row as usize] = acc.apply(prod, y[e.row as usize]);
        }
        y
    }

    fn sptrsv(&mut self, t: &UnitTriangular, b: &[f64]) -> Vec<f64> {
        let sched = LevelSchedule::analyze(t);
        self.times.sptrsv_s += self
            .model
            .sptrsv_seconds(t.nnz(), t.dim(), &sched, self.precision);
        t.solve_colwise(b).expect("reference solve")
    }

    fn axpy(&mut self, a: f64, x: &[f64], y: &mut Vec<f64>) {
        self.charge_vector(x.len(), 3);
        dense::axpy(a, x, y);
    }

    fn scal(&mut self, a: f64, x: &mut Vec<f64>) {
        self.charge_vector(x.len(), 2);
        dense::scal(a, x);
    }

    fn vv(&mut self, x: &[f64], y: &[f64], op: BinaryOp) -> Vec<f64> {
        self.charge_vector(x.len(), 3);
        x.iter().zip(y).map(|(&a, &b)| op.apply(a, b)).collect()
    }

    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        self.charge_vector(x.len(), 2);
        dense::dot(x, y)
    }

    fn norm2(&mut self, x: &[f64]) -> f64 {
        self.charge_vector(x.len(), 2);
        dense::nrm2(x)
    }

    fn breakdown(&self) -> Breakdown {
        self.times
    }
}

/// Result wrapper every application returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRun {
    /// Per-kernel-family times of this run.
    pub breakdown: Breakdown,
    /// Outer iterations performed.
    pub iterations: usize,
}

impl AppRun {
    /// Total seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.breakdown.total_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::gen;

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = Breakdown {
            spmv_s: 1.0,
            sptrsv_s: 2.0,
            vector_s: 3.0,
            spgemm_s: 4.0,
        };
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(Breakdown::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn gpu_runtime_accumulates_and_computes() {
        let mut rt = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::Cuda);
        let a = gen::rmat(64, 4, 1);
        let x = vec![1.0; 64];
        let y = rt.spmv(&a, &x);
        assert_eq!(y, a.spmv(&x));
        let mut z = vec![0.0; 64];
        rt.axpy(2.0, &y, &mut z);
        let n = rt.norm2(&z);
        assert!(n > 0.0);
        let b = rt.breakdown();
        assert!(b.spmv_s > 0.0 && b.vector_s > 0.0);
    }

    #[test]
    fn graphblast_stack_costs_more_per_vector_op() {
        let mut cuda = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::Cuda);
        let mut gb = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::GraphBlast);
        let x = vec![1.0; 10_000];
        let y = vec![2.0; 10_000];
        let _ = cuda.vv(&x, &y, BinaryOp::Add);
        let _ = gb.vv(&x, &y, BinaryOp::Add);
        assert!(gb.breakdown().vector_s > 3.0 * cuda.breakdown().vector_s);
    }

    #[test]
    fn pim_runtime_runs_kernels_functionally() {
        let mut rt = PimRuntime::new(PimDevice::tiny(1), Precision::Fp64);
        let a = gen::rmat(48, 4, 2);
        let x = gen::dense_vector(48, 1);
        let y = rt.spmv(&a, &x);
        let want = a.spmv(&x);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        let d = rt.dot(&x, &y);
        assert!((d - dense::dot(&x, &y)).abs() < 1e-9);
        assert!(rt.breakdown().total_s() > 0.0);
    }
}

#[cfg(test)]
mod pim_app_tests {
    use super::*;
    use crate::{pagerank, sssp, tc};
    use psim_baselines::SpgemmAccel;
    use psim_kernels::PimDevice;
    use psim_sparse::gen;

    #[test]
    fn pagerank_agrees_between_devices() {
        let g = gen::rmat(80, 4, 44).symmetrized();
        let mut gpu = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::GraphBlast);
        let mut pim = PimRuntime::new(PimDevice::tiny(1), Precision::Fp64);
        let (r1, _) = pagerank::pagerank(&mut gpu, &g, 1e-9, 60);
        let (r2, run) = pagerank::pagerank(&mut pim, &g, 1e-9, 60);
        let drift = psim_kernels::oracle::max_abs_err(&r2, &r1);
        assert!(drift < 1e-7, "rank drift {drift}");
        assert!(run.breakdown.spmv_s > 0.0 && run.breakdown.vector_s > 0.0);
    }

    #[test]
    fn sssp_agrees_between_devices() {
        let g = gen::rmat(64, 4, 45);
        let mut gpu = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::GraphBlast);
        let mut pim = PimRuntime::new(PimDevice::tiny(1), Precision::Fp64);
        let (d1, _) = sssp::sssp(&mut gpu, &g, 0);
        let (d2, _) = sssp::sssp(&mut pim, &g, 0);
        for (a, b) in d1.iter().zip(&d2) {
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn tc_pim_backend_counts_match_gpu_backend() {
        let g = gen::rmat(96, 6, 46).symmetrized();
        let (t1, _) = tc::triangle_count(&g, &tc::TcBackend::Gpu(GpuModel::rtx3080()));
        let (t2, run) = tc::triangle_count(
            &g,
            &tc::TcBackend::AccelPlusPim(SpgemmAccel::innersp(), PimDevice::tiny(1)),
        );
        assert_eq!(t1, t2);
        assert!(run.breakdown.spgemm_s > 0.0 && run.breakdown.spmv_s > 0.0);
    }
}
