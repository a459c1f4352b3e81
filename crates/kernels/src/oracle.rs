//! Differential kernel oracle: run the PIM kernels against plain CPU
//! references over a randomized matrix suite and cross-check both the
//! numerics and the run-level accounting invariants.
//!
//! The [`selftest`](mod@crate::selftest) battery checks one instance of every
//! kernel; the oracle instead sweeps *many* randomly generated inputs
//! (different sparsity structures, sizes, and degrees) through the kernel
//! families the paper evaluates — SpMV, SpMM (fused multi-vector SpMV),
//! SpTRSV, and BLAS-1 — with the independent protocol checker forced on. A kernel that produces the
//! right numbers through an illegal command stream, or that claims more
//! productive memory ops than the channels delivered bursts, fails here
//! even though a pure numerics test would pass.

use crate::blas1::Blas1Pim;
use crate::device::{KernelRun, PimDevice};
use crate::spmv::SpmvPim;
use crate::sptrsv::SptrsvPim;
use psim_sparse::dense;
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{adversarial, gen, Coo, Layout, Precision};
use psyncpim_core::CoreError;

/// One differential comparison: a kernel on one generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCase {
    /// Kernel family.
    pub kernel: &'static str,
    /// Generator family the input came from.
    pub matrix: String,
    /// Problem dimension.
    pub n: usize,
    /// Nonzeros of the sparse input (0 for dense BLAS-1).
    pub nnz: usize,
    /// Largest absolute error against the CPU reference.
    pub max_err: f64,
    /// Tolerance the error was checked against.
    pub tolerance: f64,
    /// Accounting-invariant failures (empty when the run was sound).
    pub audit: Vec<String>,
    /// Whether numerics and accounting both checked out.
    pub pass: bool,
}

/// All cases of one oracle sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// Every comparison performed.
    pub cases: Vec<OracleCase>,
}

impl OracleReport {
    /// `true` when every case passed.
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.cases.iter().all(|c| c.pass)
    }

    /// The failing cases.
    #[must_use]
    pub fn failures(&self) -> Vec<&OracleCase> {
        self.cases.iter().filter(|c| !c.pass).collect()
    }
}

/// Run-level accounting invariants every kernel execution must satisfy,
/// regardless of its numerics.
#[must_use]
pub fn audit_run(run: &KernelRun) -> Vec<String> {
    let mut failures = Vec::new();
    if run.violations > 0 {
        failures.push(format!(
            "protocol checker reported {} violation(s)",
            run.violations
        ));
    }
    if run.mem_ops > run.bank_bursts {
        failures.push(format!(
            "PUs consumed {} memory ops from only {} bank bursts",
            run.mem_ops, run.bank_bursts
        ));
    }
    if run.commands == 0 || run.dram_cycles == 0 {
        failures.push("run issued no DRAM commands".to_string());
    }
    if run.all_bank_commands + run.per_bank_commands != run.commands {
        failures.push(format!(
            "scope accounting leak: {} all-bank + {} per-bank != {} total",
            run.all_bank_commands, run.per_bank_commands, run.commands
        ));
    }
    failures
}

/// Deterministic splitmix64 step for deriving per-case parameters.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the `i`-th random square matrix of a sweep: the four
/// benchmark families plus the four adversarial shapes
/// ([`psim_sparse::adversarial`]), so every sweep of ≥ 8 cases crosses
/// all kernels with the partitioner's worst inputs too.
fn gen_matrix(i: usize, rng: &mut u64) -> (String, Coo) {
    let n = 40 + (splitmix(rng) % 161) as usize; // 40..=200
    let deg = 2 + (splitmix(rng) % 5) as usize; // 2..=6
    let salt = splitmix(rng);
    match i % 8 {
        0 => (format!("rmat(n={n},deg={deg})"), gen::rmat(n, deg, salt)),
        1 => {
            let bw = 2 + (splitmix(rng) % 8) as usize;
            (
                format!("banded_fem(n={n},bw={bw})"),
                gen::banded_fem(n, bw, deg, salt),
            )
        }
        2 => (
            format!("web_hubs(n={n},nnz={})", n * deg),
            gen::web_hubs(n, n * deg, salt),
        ),
        3 => (
            format!("layered_dag(n={n},deg={deg})"),
            gen::layered_dag(n, deg, 4, salt),
        ),
        4 => (
            format!("adv_hub_rows(n={n})"),
            adversarial::power_law_hubs(n, n * deg, 3, salt),
        ),
        5 => (format!("adv_arrow(n={n})"), adversarial::arrow(n, n, salt)),
        6 => (
            format!("adv_dense_blocks(n={n})"),
            adversarial::near_dense_blocks(n, 8, 4, salt),
        ),
        _ => (
            format!("adv_empty_extremes(n={n})"),
            adversarial::empty_extremes(n, salt),
        ),
    }
}

/// Sweep `cases` random inputs through SpMV, SpTRSV and BLAS-1 on the
/// device (validation forced on) and diff every result against a CPU
/// reference.
///
/// # Errors
///
/// Returns the first simulator error; a numeric mismatch or accounting
/// failure is reported in the [`OracleReport`], not as an error.
pub fn run_oracle(device: &PimDevice, cases: usize, seed: u64) -> Result<OracleReport, CoreError> {
    let device = {
        let mut d = device.clone();
        d.validate = true;
        d
    };
    let mut rng = seed ^ 0x5EED_0AC1E;
    let mut report = OracleReport::default();
    for i in 0..cases {
        let (name, a) = gen_matrix(i, &mut rng);
        let n = a.nrows();
        let x = gen::dense_vector(n, splitmix(&mut rng));
        let y = gen::dense_vector(n, splitmix(&mut rng));

        // SpMV against the COO reference.
        {
            let r = SpmvPim::new(device.clone(), Precision::Fp64).run(&a, &x)?;
            let want = a.spmv(&x);
            report
                .cases
                .push(diff("SpMV", &name, &a, &r.y, &want, 1e-9, &r.run));
        }
        // SpMM: fuse 2..=5 vectors through one pass; every fused result
        // must match the per-vector SpMV oracle output *bit-exactly* (the
        // scheduler's fusion contract, not just a tolerance check).
        {
            let width = 2 + (splitmix(&mut rng) % 4) as usize;
            let xs: Vec<Vec<f64>> = (0..width)
                .map(|_| gen::dense_vector(n, splitmix(&mut rng)))
                .collect();
            let spmv = SpmvPim::new(device.clone(), Precision::Fp64);
            let r = spmv.run_fused(&a, &xs.iter().map(Vec::as_slice).collect::<Vec<_>>())?;
            let mut max_err = 0.0f64;
            let mut exact = true;
            for (v, x) in xs.iter().enumerate() {
                let solo = spmv.run(&a, x)?;
                for (g, s) in r.ys[v].iter().zip(&solo.y) {
                    max_err = max_err.max((g - s).abs());
                    exact &= g.to_bits() == s.to_bits();
                }
            }
            let audit = audit_run(&r.run);
            report.cases.push(OracleCase {
                kernel: "SpMM",
                matrix: format!("{name} w={width}"),
                n,
                nnz: a.nnz(),
                max_err,
                tolerance: 0.0,
                pass: exact && audit.is_empty(),
                audit,
            });
        }
        // SpTRSV: solve L x = b for a unit-triangular L built from the
        // matrix pattern; the exact solution is the x we built b from.
        {
            let t = unit_triangular_from(&a, Triangle::Lower)
                .map_err(|e| CoreError::Execution(e.to_string()))?;
            let b = t.matvec(&x);
            let r = SptrsvPim::new(device.clone()).run(&t, &b)?;
            report
                .cases
                .push(diff("SpTRSV", &name, &a, &r.x, &x, 1e-7, &r.run));
        }
        // BLAS-1: one axpy + one dot per case.
        {
            let blas = Blas1Pim::new(device.clone(), Precision::Fp64);
            let alpha = -0.5 + (splitmix(&mut rng) % 1000) as f64 / 250.0;
            let r = blas.daxpy(alpha, &x, &y)?;
            let mut want = y.clone();
            dense::axpy(alpha, &x, &mut want);
            report
                .cases
                .push(diff("DAXPY", &name, &a, &r.v, &want, 1e-9, &r.run));
            let d = blas.ddot(&x, &y)?;
            let want = dense::dot(&x, &y);
            let max_err = (d.s - want).abs();
            let tolerance = 1e-9_f64.max(want.abs() * 1e-12);
            let audit = audit_run(&d.run);
            report.cases.push(OracleCase {
                kernel: "DDOT",
                matrix: name.clone(),
                n,
                nnz: 0,
                max_err,
                tolerance,
                pass: max_err <= tolerance && audit.is_empty(),
                audit,
            });
        }
    }
    Ok(report)
}

/// Differential sweep over every adversarial shape × each of its
/// [`Layout::candidates`]: SpMV against the CPU reference and a width-2
/// SpMM against its own solo runs (bit-exact — the fusion contract holds
/// per layout), with validation forced on so the protocol checker rides
/// along.
///
/// # Errors
///
/// Returns the first simulator error; mismatches land in the report.
pub fn run_layout_oracle(
    device: &PimDevice,
    n: usize,
    seed: u64,
) -> Result<OracleReport, CoreError> {
    let device = {
        let mut d = device.clone();
        d.validate = true;
        d
    };
    let mut rng = seed ^ 0x1A10_0AC1E;
    let mut report = OracleReport::default();
    for (name, a) in adversarial::suite(n, splitmix(&mut rng)) {
        let want_x = gen::dense_vector(a.ncols(), splitmix(&mut rng));
        let want = a.spmv(&want_x);
        for layout in Layout::candidates(a.ncols()) {
            let tag = format!("{name} {}", layout.label());
            let spmv = SpmvPim::new(device.clone(), Precision::Fp64).with_layout(layout);
            let r = spmv.run(&a, &want_x)?;
            report
                .cases
                .push(diff("SpMV", &tag, &a, &r.y, &want, 1e-9, &r.run));

            let xs: Vec<Vec<f64>> = (0..2)
                .map(|_| gen::dense_vector(a.ncols(), splitmix(&mut rng)))
                .collect();
            let r = spmv.run_fused(&a, &[&xs[0], &xs[1]])?;
            let mut max_err = 0.0f64;
            let mut exact = true;
            for (v, x) in xs.iter().enumerate() {
                let solo = spmv.run(&a, x)?;
                for (g, s) in r.ys[v].iter().zip(&solo.y) {
                    max_err = max_err.max((g - s).abs());
                    exact &= g.to_bits() == s.to_bits();
                }
            }
            let audit = audit_run(&r.run);
            report.cases.push(OracleCase {
                kernel: "SpMM",
                matrix: format!("{tag} w=2"),
                n: a.nrows(),
                nnz: a.nnz(),
                max_err,
                tolerance: 0.0,
                pass: exact && audit.is_empty(),
                audit,
            });
        }
    }
    Ok(report)
}

/// The largest elementwise error `|g - w|` of `got` against the reference
/// `want`. Exactly equal elements count zero, equal infinities included.
/// A NaN on either side, or a length mismatch, counts as an infinite
/// error, so every tolerance check fails it (`fold(0.0, f64::max)` would
/// drop the NaN and pass).
#[must_use]
pub fn max_abs_err(got: &[f64], want: &[f64]) -> f64 {
    max_err(got, want, |_| 1.0)
}

/// [`max_abs_err`] with each error relative to `max(|w|, 1)`.
#[must_use]
pub fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    max_err(got, want, |w| w.abs().max(1.0))
}

fn max_err(got: &[f64], want: &[f64], scale: impl Fn(f64) -> f64) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    (got.iter().zip(want))
        .map(|(&g, &w)| {
            if g == w {
                return 0.0;
            }
            let err = (g - w).abs() / scale(w);
            if err.is_nan() {
                f64::INFINITY
            } else {
                err
            }
        })
        .fold(0.0, f64::max)
}

fn diff(
    kernel: &'static str,
    matrix: &str,
    a: &Coo,
    got: &[f64],
    want: &[f64],
    tolerance: f64,
    run: &KernelRun,
) -> OracleCase {
    let max_err = max_abs_err(got, want);
    let audit = audit_run(run);
    OracleCase {
        kernel,
        matrix: matrix.to_string(),
        n: a.nrows(),
        nnz: a.nnz(),
        max_err,
        tolerance,
        pass: max_err <= tolerance && audit.is_empty(),
        audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn oracle_sweep_passes_on_tiny_device() {
        // 8 cases covers every generator family once, adversarial
        // shapes included.
        let report = run_oracle(&PimDevice::tiny(2), 8, 0xC0FFEE).expect("simulator ok");
        assert_eq!(report.cases.len(), 40); // 5 kernels × 8 cases
        assert!(report.all_pass(), "{:?}", report.failures());
    }

    #[test]
    fn layout_oracle_passes_every_layout_times_shape() {
        let report = run_layout_oracle(&PimDevice::tiny(2), 64, 0xBEEF).expect("simulator ok");
        // 4 adversarial shapes × 11 candidates × (SpMV + SpMM).
        assert_eq!(report.cases.len(), 88);
        assert!(report.all_pass(), "{:?}", report.failures());
    }

    #[test]
    fn oracle_covers_perbank_mode_too() {
        let mut dev = PimDevice::tiny(2);
        dev.mode = psyncpim_core::ExecMode::PerBank;
        let report = run_oracle(&dev, 1, 7).expect("simulator ok");
        assert!(report.all_pass(), "{:?}", report.failures());
    }

    #[test]
    fn reference_comparison_fails_on_nan() {
        // A NaN output must fail, wherever it sits; f64::max would drop it.
        assert!(max_abs_err(&[1.0, f64::NAN], &[1.0, 2.0]) > 1e-9);
        assert!(max_abs_err(&[f64::NAN, 2.0], &[1.0, 2.0]) > 1e-9);
        assert!(max_rel_err(&[1.0, 2.0], &[1.0, f64::NAN]) > 1e-9);
        assert!(max_abs_err(&[f64::NAN], &[f64::NAN]) > 1e-9);
        // So do an infinity off its reference and a length mismatch.
        assert!(max_rel_err(&[1.0], &[f64::INFINITY]) > 1e-9);
        assert!(max_abs_err(&[1.0], &[1.0, 2.0]) > 1e-9);
        // Equal values pass, equal infinities included.
        let inf = [f64::INFINITY, f64::NEG_INFINITY, 3.0];
        assert_eq!(max_abs_err(&inf, &inf), 0.0);
        assert_eq!(max_rel_err(&inf, &inf), 0.0);
        assert_eq!(max_abs_err(&[1.5, 3.0], &[1.0, 2.0]), 1.0);
        assert_eq!(max_rel_err(&[1.5, 3.0], &[1.0, 2.0]), 0.5);
    }

    #[test]
    fn audit_flags_inconsistent_runs() {
        let mut run = KernelRun {
            commands: 10,
            all_bank_commands: 10,
            dram_cycles: 100,
            mem_ops: 5,
            bank_bursts: 8,
            ..Default::default()
        };
        assert!(audit_run(&run).is_empty());
        run.violations = 3;
        run.mem_ops = 9; // more consumed than delivered
        run.per_bank_commands = 1; // breaks scope accounting
        let audit = audit_run(&run);
        assert_eq!(audit.len(), 3, "{audit:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn random_spmv_matches_reference_with_clean_protocol(
            n in 30usize..120,
            deg in 2usize..6,
            salt in 0u64..1000,
        ) {
            let a = gen::rmat(n, deg, salt);
            let x = gen::dense_vector(n, salt ^ 1);
            let mut dev = PimDevice::tiny(2);
            dev.validate = true;
            let r = SpmvPim::new(dev, Precision::Fp64).run(&a, &x).unwrap();
            let max_err = max_abs_err(&r.y, &a.spmv(&x));
            prop_assert!(max_err <= 1e-9, "max_err {}", max_err);
            prop_assert_eq!(r.run.violations, 0);
            prop_assert!(r.run.mem_ops <= r.run.bank_bursts);
        }
    }
}
