//! Cost-model calibration: the O(nnz) analytical [`CostModel`] against
//! the cycle engine.
//!
//! The autotuner ranks layouts by the model's SpMV estimates, so they have
//! to stay close to what the engine simulates. A fixed grid of R-MAT and
//! banded-FEM SpMV points at several scales runs through both; the mean
//! absolute percentage error must stay under [`MAPE_BOUND_PCT`]. On
//! failure the message lists every point's signed error.

use psim_kernels::{CostModel, PimDevice, SpmvPim};
use psim_sparse::{gen, Precision};

/// Bound on the mean absolute percentage error of the analytical
/// estimate vs the cycle engine over the grid.
const MAPE_BOUND_PCT: f64 = 25.0;

#[test]
fn estimates_stay_within_the_mape_bound_per_kernel() {
    let device = PimDevice::tiny(2);
    let model = CostModel::new(&device);
    let p = Precision::Fp64;
    let mut table = String::new();
    let mut errs = Vec::new();
    for (class, a) in [
        ("rmat", gen::rmat(96, 5, 11)),
        ("rmat", gen::rmat(400, 8, 3)),
        ("rmat", gen::rmat(1024, 3, 9)),
        ("banded_fem", gen::banded_fem(600, 8, 4, 2)),
        ("banded_fem", gen::banded_fem(1400, 12, 6, 7)),
    ] {
        let x = gen::dense_vector(a.ncols(), 13);
        let actual = SpmvPim::new(device.clone(), p)
            .run(&a, &x)
            .expect("spmv")
            .run
            .dram_cycles;
        let est = model.spmv(&a, p).cycles;
        // Signed error of the estimate, percent of the engine's cycles.
        let err = 100.0 * (est as f64 - actual as f64) / actual as f64;
        table.push_str(&format!(
            "\nSpMV\t{class}\test {est}\tactual {actual}\t{err:+.1}%"
        ));
        errs.push(err.abs());
    }
    let mape = errs.iter().sum::<f64>() / errs.len() as f64;
    assert!(
        mape <= MAPE_BOUND_PCT,
        "SpMV MAPE {mape:.1}% exceeds {MAPE_BOUND_PCT}%{table}"
    );
}
