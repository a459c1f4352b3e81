//! Device self-test: a quick battery that runs one instance of every
//! kernel family on a device and checks it against host references.
//!
//! Downstream users call [`selftest`] after changing device parameters
//! (row size, bank count, timing) to confirm the configuration still
//! executes every kernel correctly — the simulation equivalent of a
//! post-bring-up vector test.

use crate::blas1::Blas1Pim;
use crate::device::PimDevice;
use crate::gemv::Gemv;
use crate::spmv::SpmvPim;
use crate::sptrsv::SptrsvPim;
use psim_sparse::dense::{self, SparseVec};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, Precision};

/// Outcome of one self-test item.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Kernel name.
    pub kernel: &'static str,
    /// Largest absolute error against the host reference.
    pub max_err: f64,
    /// Whether the kernel passed (error below its tolerance).
    pub pass: bool,
}

/// Run the battery on a device; returns one result per kernel, plus a
/// final `protocol` entry counting violations found by the independent
/// JEDEC checker (the battery always runs with validation forced on).
///
/// # Errors
///
/// Returns the first simulator error encountered (a failing *check* is
/// reported in the results, not as an error).
pub fn selftest(device: &PimDevice) -> Result<Vec<CheckResult>, psyncpim_core::CoreError> {
    let device = {
        let mut d = device.clone();
        d.validate = true;
        d
    };
    let mut out = Vec::new();
    let mut violations = 0u64;
    let tol = 1e-9;
    let n = 300usize;
    let a = gen::rmat(n, 5, 0xA11CE);
    let x = gen::dense_vector(n, 1);
    let y = gen::dense_vector(n, 2);

    // SpMV.
    {
        let r = SpmvPim::new(device.clone(), Precision::Fp64).run(&a, &x)?;
        let want = a.spmv(&x);
        out.push(check("SpMV", &r.y, &want, tol));
        violations += r.run.violations;
    }
    // SpMM (fused 3-vector SpMV): must be bit-exact vs per-vector SpMV.
    {
        let xs = vec![x.clone(), y.clone(), gen::dense_vector(n, 6)];
        let spmm = crate::spmm::SpmmPim::new(device.clone(), Precision::Fp64);
        let r = spmm.run(&a, &xs)?;
        let mut max_err = 0.0f64;
        for (v, xv) in xs.iter().enumerate() {
            let solo = spmm.as_spmv().run(&a, xv)?;
            for (g, s) in r.ys[v].iter().zip(&solo.y) {
                if g.to_bits() != s.to_bits() {
                    max_err = max_err.max((g - s).abs()).max(f64::MIN_POSITIVE);
                }
            }
        }
        out.push(CheckResult {
            kernel: "SpMM",
            max_err,
            pass: max_err == 0.0,
        });
        violations += r.run.violations;
    }
    // SpTRSV (lower).
    {
        let t = unit_triangular_from(&a, Triangle::Lower)
            .map_err(|e| psyncpim_core::CoreError::Execution(e.to_string()))?;
        let b = t.matvec(&x);
        let r = SptrsvPim::new(device.clone()).run(&t, &b)?;
        out.push(check("SpTRSV", &r.x, &x, 1e-7));
        violations += r.run.violations;
    }
    let blas = Blas1Pim::new(device.clone(), Precision::Fp64);
    // DCOPY / DSCAL / DAXPY.
    {
        let r = blas.dcopy(&x)?;
        out.push(check("DCOPY", &r.v, &x, 0.0));
        violations += r.run.violations;
        let r = blas.dscal(1.5, &x)?;
        let want: Vec<f64> = x.iter().map(|v| 1.5 * v).collect();
        out.push(check("DSCAL", &r.v, &want, tol));
        violations += r.run.violations;
        let r = blas.daxpy(-0.5, &x, &y)?;
        let mut want = y.clone();
        dense::axpy(-0.5, &x, &mut want);
        out.push(check("DAXPY", &r.v, &want, tol));
        violations += r.run.violations;
    }
    // DDOT / DNRM2.
    {
        let d = blas.ddot(&x, &y)?;
        out.push(scalar_check("DDOT", d.s, dense::dot(&x, &y), tol));
        violations += d.run.violations;
        let m = blas.dnrm2(&x)?;
        out.push(scalar_check("DNRM2", m.s, dense::nrm2(&x), tol));
        violations += m.run.violations;
    }
    // GATHER / SCATTER / SpAXPY / SpDOT.
    {
        let mut sparse_src = vec![0.0; n];
        for i in (0..n).step_by(7) {
            sparse_src[i] = i as f64 + 0.5;
        }
        let (sv, gr) = blas.gather(&sparse_src)?;
        out.push(check("GATHER", &sv.to_dense(), &sparse_src, 0.0));
        violations += gr.violations;
        let r = blas.scatter(&sv, &vec![0.0; n])?;
        out.push(check("SCATTER", &r.v, &sparse_src, 0.0));
        violations += r.run.violations;
        let sp = SparseVec::gather(&sparse_src);
        let r = blas.spaxpy(2.0, &sp, &y)?;
        let mut want = y.clone();
        dense::spaxpy(2.0, &sp, &mut want);
        out.push(check("SpAXPY", &r.v, &want, tol));
        violations += r.run.violations;
        let d = blas.spdot(&sp, &y)?;
        out.push(scalar_check("SpDOT", d.s, dense::spdot(&sp, &y), tol));
        violations += d.run.violations;
    }
    // DGEMV.
    {
        let (nr, nc) = (24usize, 20usize);
        let m = gen::dense_vector(nr * nc, 3);
        let xg = gen::dense_vector(nc, 4);
        let r = Gemv::new(device.clone(), Precision::Fp64).dgemv(&m, nr, nc, &xg)?;
        let want: Vec<f64> = (0..nr)
            .map(|i| (0..nc).map(|j| m[i * nc + j] * xg[j]).sum())
            .collect();
        out.push(check("DGEMV", &r.y, &want, tol));
        violations += r.run.violations;
    }
    // Every command stream above replayed through the independent JEDEC
    // checker; the battery fails if any stream broke the protocol.
    out.push(CheckResult {
        kernel: "protocol",
        max_err: violations as f64,
        pass: violations == 0,
    });
    Ok(out)
}

/// `true` when every check passed.
#[must_use]
pub fn all_pass(results: &[CheckResult]) -> bool {
    results.iter().all(|r| r.pass)
}

fn check(kernel: &'static str, got: &[f64], want: &[f64], tol: f64) -> CheckResult {
    let max_err = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    CheckResult {
        kernel,
        max_err,
        pass: got.len() == want.len() && max_err <= tol.max(f64::EPSILON * 64.0),
    }
}

fn scalar_check(kernel: &'static str, got: f64, want: f64, tol: f64) -> CheckResult {
    let max_err = (got - want).abs();
    CheckResult {
        kernel,
        max_err,
        pass: max_err <= tol.max(want.abs() * 1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_passes_on_tiny_device() {
        let results = selftest(&PimDevice::tiny(2)).expect("simulator ok");
        assert_eq!(results.len(), 14);
        for r in &results {
            assert!(r.pass, "{} failed with max_err {}", r.kernel, r.max_err);
        }
        assert!(all_pass(&results));
        let protocol = results.last().unwrap();
        assert_eq!(protocol.kernel, "protocol");
        assert_eq!(protocol.max_err, 0.0, "checker found violations");
    }

    #[test]
    fn battery_passes_on_nonstandard_row_size() {
        let mut device = PimDevice::tiny(1);
        device.hbm.num_cols = 32; // 512 B rows
        let results = selftest(&device).expect("simulator ok");
        assert!(all_pass(&results), "{results:?}");
    }
}
