//! Dense Level-2 kernels: DGEMV and DTRSV (Table III).
//!
//! DGEMV stripes matrix rows across banks; each bank streams its rows
//! against a replicated copy of `x`, accumulating each row's dot product in
//! the SRF and appending it to the output region (nested ORDER'd loops,
//! paper §IV-F). Wide matrices are split into column panels so the inner
//! loop count fits the 10-bit JUMP immediate; the host sums the per-panel
//! partials.
//!
//! DTRSV reuses the sparse triangular machinery on the dense triangle's
//! full pattern — the dense solve is the degenerate (fully dense) case of
//! the paper's SpTRSV algorithm.

use crate::device::{KernelRun, PimDevice};
use crate::programs;
use crate::sptrsv::SptrsvPim;
use psim_sparse::triangular::{Triangle, UnitTriangular};
use psim_sparse::{Coo, Precision};
use psyncpim_core::{CoreError, RegionId};

/// Dense Level-2 kernel runner.
#[derive(Debug, Clone)]
pub struct Gemv {
    /// Target device.
    pub device: PimDevice,
    /// Element precision.
    pub precision: Precision,
}

/// DGEMV result.
#[derive(Debug, Clone)]
pub struct GemvResult {
    /// `y = A x`.
    pub y: Vec<f64>,
    /// Timing/energy/commands.
    pub run: KernelRun,
    /// Column panels executed.
    pub panels: usize,
}

impl Gemv {
    /// Runner on a device at a precision.
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        Gemv { device, precision }
    }

    /// Compute `y = A x` for a dense row-major `A` of shape
    /// `(nrows, ncols)`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != nrows * ncols` or `x.len() != ncols`.
    pub fn dgemv(
        &self,
        a: &[f64],
        nrows: usize,
        ncols: usize,
        x: &[f64],
    ) -> Result<GemvResult, CoreError> {
        assert_eq!(a.len(), nrows * ncols, "matrix shape mismatch");
        assert_eq!(x.len(), ncols, "operand length mismatch");
        let lanes = self.precision.lanes();
        let ebytes = self.precision.bytes();
        let nbanks = self.device.hbm.total_banks();
        let rows_per_bank = nrows.div_ceil(nbanks).max(1);
        // Panel width: inner loop count must fit the 10-bit immediate.
        let max_chunks_per_row = 1023usize;
        let panel_cols = (max_chunks_per_row * lanes).min(ncols.max(1));
        let panels = ncols.div_ceil(panel_cols).max(1);

        let mut y = vec![0.0; nrows];
        let mut run = KernelRun::default();

        for panel in 0..panels {
            let c0 = panel * panel_cols;
            let c1 = (c0 + panel_cols).min(ncols);
            let chunks = (c1 - c0).div_ceil(lanes).max(1);
            let padded_cols = chunks * lanes;

            let mut engine = self.device.make_engine();
            let mut bindings: Vec<Option<RegionId>> = Vec::new();
            for b in 0..nbanks {
                // Row stripe of A restricted to the panel, row-major,
                // each row padded to whole bursts; x replicated per row
                // (the PU re-reads x for every row).
                let mut astripe = Vec::with_capacity(rows_per_bank * padded_cols);
                let mut xrep = Vec::with_capacity(rows_per_bank * padded_cols);
                for i in 0..rows_per_bank {
                    let r = b * rows_per_bank + i;
                    for c in c0..c0 + padded_cols {
                        let av = if r < nrows && c < c1 {
                            self.precision.quantize(a[r * ncols + c])
                        } else {
                            0.0
                        };
                        astripe.push(av);
                        let xv = if c < c1 {
                            self.precision.quantize(x[c])
                        } else {
                            0.0
                        };
                        xrep.push(xv);
                    }
                }
                let mem = engine.mem_mut(b);
                let ra = mem.alloc(ebytes, astripe);
                let rx = mem.alloc(ebytes, xrep);
                let ry = mem.alloc_zeroed(ebytes, rows_per_bank);
                if b == 0 {
                    bindings = vec![
                        Some(ra),
                        Some(rx),
                        None,
                        None,
                        None,
                        Some(ry),
                        None,
                        None,
                        None,
                        None,
                    ];
                }
            }
            let asm = programs::dgemv(self.precision, rows_per_bank as u16, chunks as u16);
            let program = programs::compiled(&asm)?;
            let mut host = self.device.make_host();
            engine.load_verified(&program, bindings.clone())?;
            engine.set_srf_all(0.0);
            let report = engine.run()?;
            run.absorb_launch(&report);
            if panels > 1 {
                // Host accumulates per-panel partials.
                host.collect(nrows * ebytes);
            }
            run.absorb_host(&host);

            let ry = bindings[5].expect("output bound");
            for b in 0..nbanks {
                let data = engine.mem(b).region(ry).data();
                for (i, &d) in data.iter().enumerate().take(rows_per_bank) {
                    let r = b * rows_per_bank + i;
                    if r < nrows {
                        y[r] += d;
                    }
                }
            }
        }
        Ok(GemvResult { y, run, panels })
    }

    /// DTRSV: solve the dense unit triangle `T x = b` by running the
    /// SpTRSV pipeline on its full pattern.
    ///
    /// # Errors
    ///
    /// Propagates engine failures or [`CoreError::Execution`] if the dense
    /// triangle is malformed.
    pub fn dtrsv(
        &self,
        a: &[f64],
        n: usize,
        triangle: Triangle,
        b: &[f64],
    ) -> Result<(Vec<f64>, KernelRun), CoreError> {
        assert_eq!(a.len(), n * n, "matrix shape mismatch");
        let mut strict = Coo::new(n, n);
        for r in 0..n {
            for c in 0..n {
                let keep = match triangle {
                    Triangle::Lower => r > c,
                    Triangle::Upper => r < c,
                };
                if keep && a[r * n + c] != 0.0 {
                    strict.push(r as u32, c as u32, a[r * n + c]);
                }
            }
        }
        let t = UnitTriangular::from_strict(triangle, strict)
            .map_err(|e| CoreError::Execution(e.to_string()))?;
        let solver = SptrsvPim {
            device: self.device.clone(),
            precision: self.precision,
        };
        let res = solver.run(&t, b)?;
        Ok((res.x, res.run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::gen;

    fn runner() -> Gemv {
        Gemv::new(PimDevice::tiny(2), Precision::Fp64)
    }

    fn dense_gemv(a: &[f64], nrows: usize, ncols: usize, x: &[f64]) -> Vec<f64> {
        (0..nrows)
            .map(|r| (0..ncols).map(|c| a[r * ncols + c] * x[c]).sum())
            .collect()
    }

    #[test]
    fn dgemv_matches_reference() {
        let (nr, nc) = (24, 20);
        let a = gen::dense_vector(nr * nc, 1);
        let x = gen::dense_vector(nc, 2);
        let res = runner().dgemv(&a, nr, nc, &x).unwrap();
        let want = dense_gemv(&a, nr, nc, &x);
        for (g, w) in res.y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        assert_eq!(res.panels, 1);
        assert!(res.run.total_s() > 0.0);
    }

    #[test]
    fn dgemv_nonsquare_and_unaligned() {
        let (nr, nc) = (13, 7); // deliberately awkward
        let a = gen::dense_vector(nr * nc, 3);
        let x = gen::dense_vector(nc, 4);
        let res = runner().dgemv(&a, nr, nc, &x).unwrap();
        let want = dense_gemv(&a, nr, nc, &x);
        for (g, w) in res.y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dtrsv_solves_dense_lower() {
        let n = 20;
        let mut a = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..r {
                a[r * n + c] = 0.3 / (1.0 + (r - c) as f64);
            }
            a[r * n + r] = 1.0;
        }
        let x_want = gen::dense_vector(n, 5);
        // b = A x
        let b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| a[r * n + c] * x_want[c]).sum::<f64>())
            .collect();
        let (x, run) = runner().dtrsv(&a, n, Triangle::Lower, &b).unwrap();
        for (g, w) in x.iter().zip(&x_want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        assert!(run.total_s() > 0.0);
    }
}

#[cfg(test)]
mod panel_tests {
    use super::*;
    use psim_sparse::gen;

    #[test]
    fn wide_matrix_splits_into_column_panels() {
        // ncols > 1023 chunks * 4 lanes forces >1 panel at FP64.
        let (nr, nc) = (6usize, 4100usize);
        let a = gen::dense_vector(nr * nc, 21);
        let x = gen::dense_vector(nc, 22);
        let g = Gemv::new(PimDevice::tiny(1), Precision::Fp64);
        let res = g.dgemv(&a, nr, nc, &x).unwrap();
        assert!(
            res.panels > 1,
            "expected multiple panels, got {}",
            res.panels
        );
        let want: Vec<f64> = (0..nr)
            .map(|r| (0..nc).map(|c| a[r * nc + c] * x[c]).sum())
            .collect();
        for (got, want) in res.y.iter().zip(&want) {
            assert!((got - want).abs() < 1e-8 * want.abs().max(1.0));
        }
    }

    #[test]
    fn int8_gemv_quantizes_and_runs_wider_lanes() {
        let (nr, nc) = (8usize, 64usize);
        let a: Vec<f64> = (0..nr * nc)
            .map(|i| f64::from((i % 5) as i32 - 2))
            .collect();
        let x: Vec<f64> = (0..nc).map(|i| f64::from((i % 3) as i32)).collect();
        let g = Gemv::new(PimDevice::tiny(1), Precision::Int8);
        let res = g.dgemv(&a, nr, nc, &x).unwrap();
        // Exact in INT8 as long as each row dot stays within i8 range?
        // Row sums can exceed 127, so compare with the quantized pipeline:
        // products are small ints, accumulation happens in the SRF at FP64
        // internally and quantizes on store.
        let want: Vec<f64> = (0..nr)
            .map(|r| {
                let s: f64 = (0..nc).map(|c| a[r * nc + c] * x[c]).sum();
                Precision::Int8.quantize(s)
            })
            .collect();
        assert_eq!(res.y, want);
    }

    #[test]
    fn dtrsv_solves_dense_upper() {
        let n = 12;
        let mut a = vec![0.0; n * n];
        for r in 0..n {
            a[r * n + r] = 1.0;
            for c in (r + 1)..n {
                a[r * n + c] = 0.2 / (1.0 + (c - r) as f64);
            }
        }
        let x_want = gen::dense_vector(n, 31);
        let b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| a[r * n + c] * x_want[c]).sum())
            .collect();
        let g = Gemv::new(PimDevice::tiny(1), Precision::Fp64);
        let (x, _run) = g.dtrsv(&a, n, Triangle::Upper, &b).unwrap();
        for (got, want) in x.iter().zip(&x_want) {
            assert!((got - want).abs() < 1e-9);
        }
    }
}
