//! Cost-model calibration: the O(nnz) analytical [`CostModel`] against
//! the cycle engine.
//!
//! The autotuner ranks layouts by the model's estimates, so it has to
//! stay close to what the engine simulates. A fixed grid of kernel × matrix-class points (R-MAT and
//! banded-FEM SpMV at several scales, lower-triangular SpTRSV on both
//! classes, dense BLAS-1 at two sizes) runs through both; each kernel's
//! mean absolute percentage error must stay under [`MAPE_BOUND_PCT`].
//! On failure the message lists every point's signed error.

use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{CostEstimate, CostModel, KernelRun, PimDevice, SpmvPim, SptrsvPim};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, Precision};
use psyncpim_core::isa::BinaryOp;

/// Per-kernel bound on the mean absolute percentage error of the
/// analytical estimate vs the cycle engine over that kernel's classes.
const MAPE_BOUND_PCT: f64 = 25.0;

/// One estimate-vs-engine comparison.
struct Point {
    kernel: &'static str,
    class: &'static str,
    est_cycles: u64,
    actual_cycles: u64,
}

impl Point {
    fn new(kernel: &'static str, class: &'static str, est: CostEstimate, run: &KernelRun) -> Self {
        Point {
            kernel,
            class,
            est_cycles: est.cycles,
            actual_cycles: run.dram_cycles,
        }
    }

    /// Signed error of the estimate, percent of the engine's cycles.
    fn err_pct(&self) -> f64 {
        100.0 * (self.est_cycles as f64 - self.actual_cycles as f64) / self.actual_cycles as f64
    }
}

fn grid() -> Vec<Point> {
    let device = PimDevice::tiny(2);
    let model = CostModel::new(&device);
    let p = Precision::Fp64;
    let mut points = Vec::new();

    for (class, a) in [
        ("rmat", gen::rmat(96, 5, 11)),
        ("rmat", gen::rmat(400, 8, 3)),
        ("rmat", gen::rmat(1024, 3, 9)),
        ("banded_fem", gen::banded_fem(600, 8, 4, 2)),
        ("banded_fem", gen::banded_fem(1400, 12, 6, 7)),
    ] {
        let x = gen::dense_vector(a.ncols(), 13);
        let r = SpmvPim::new(device.clone(), p).run(&a, &x).expect("spmv");
        points.push(Point::new("SpMV", class, model.spmv(&a, p), &r.run));
    }

    for (class, a) in [
        ("rmat-lower", gen::rmat(192, 4, 5)),
        ("banded-lower", gen::banded_fem(384, 10, 5, 3)),
    ] {
        let t = unit_triangular_from(&a, Triangle::Lower).expect("square matrix");
        let b = t.matvec(&gen::dense_vector(a.ncols(), 17));
        let r = SptrsvPim::new(device.clone()).run(&t, &b).expect("sptrsv");
        points.push(Point::new("SpTRSV", class, model.sptrsv(&t, p), &r.run));
    }

    let blas = Blas1Pim::new(device, p);
    for n in [512usize, 4096] {
        let x = gen::dense_vector(n, 1);
        let y = gen::dense_vector(n, 2);
        let class = if n < 1024 {
            "dense-small"
        } else {
            "dense-large"
        };
        let r = blas.daxpy(1.5, &x, &y).expect("daxpy");
        points.push(Point::new("AXPY", class, model.axpy(n, p), &r.run));
        let r = blas.dscal(0.5, &x).expect("dscal");
        points.push(Point::new("SCAL", class, model.scal(n, p), &r.run));
        let r = blas.dvdv(&x, &y, BinaryOp::Mul).expect("dvdv");
        points.push(Point::new("VV", class, model.vv(n, p), &r.run));
        let r = blas.ddot(&x, &y).expect("ddot");
        points.push(Point::new("DOT", class, model.dot(n, p), &r.run));
        let r = blas.dnrm2(&x).expect("dnrm2");
        points.push(Point::new("NRM2", class, model.norm2(n, p), &r.run));
    }
    points
}

#[test]
fn estimates_stay_within_the_mape_bound_per_kernel() {
    let points = grid();
    let table: String = points
        .iter()
        .map(|p| {
            format!(
                "\n{}\t{}\test {}\tactual {}\t{:+.1}%",
                p.kernel,
                p.class,
                p.est_cycles,
                p.actual_cycles,
                p.err_pct()
            )
        })
        .collect();
    for kernel in ["SpMV", "SpTRSV", "AXPY", "SCAL", "VV", "DOT", "NRM2"] {
        let errs: Vec<f64> = points
            .iter()
            .filter(|p| p.kernel == kernel)
            .map(|p| p.err_pct().abs())
            .collect();
        assert!(!errs.is_empty(), "{kernel} has no calibration points");
        let mape = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            mape <= MAPE_BOUND_PCT,
            "{kernel} MAPE {mape:.1}% exceeds {MAPE_BOUND_PCT}%{table}"
        );
    }
}
