//! Dense and sparse BLAS Level-1 kernels on pSyncPIM (Table III).
//!
//! Vectors are striped contiguously across banks (the application runtime
//! keeps them resident in PIM memory, so Level-1 kernels run at internal
//! bandwidth; only scalar results cross the external bus). Each kernel
//! fetches its compiled program from [`crate::programs`], lays out
//! stripes, executes, and reads results back from bank memory.

use crate::device::{KernelRun, PimDevice};
use crate::programs;
use psim_sparse::dense::SparseVec;
use psim_sparse::Precision;
use psyncpim_core::memory::SENTINEL;
use psyncpim_core::{CoreError, Engine, RegionId};

/// BLAS Level-1 kernel runner.
#[derive(Debug, Clone)]
pub struct Blas1Pim {
    /// Target device.
    pub device: PimDevice,
    /// Element precision.
    pub precision: Precision,
}

/// A vector result plus its run report.
#[derive(Debug, Clone)]
pub struct VecRun {
    /// The resulting vector.
    pub v: Vec<f64>,
    /// Timing/energy/commands.
    pub run: KernelRun,
}

/// A scalar result plus its run report.
#[derive(Debug, Clone)]
pub struct ScalarRun {
    /// The resulting scalar.
    pub s: f64,
    /// Timing/energy/commands.
    pub run: KernelRun,
}

/// [`CoreError::Operand`] unless `kernel`'s two operands have the same
/// length: a short operand fails the call instead of panicking.
fn same_len(kernel: &str, x: usize, y: usize) -> Result<(), CoreError> {
    if x == y {
        Ok(())
    } else {
        Err(CoreError::Operand(format!(
            "{kernel} operands have {x} and {y} elements"
        )))
    }
}

/// Stripe geometry: `n` elements over `nbanks` banks in `lanes`-aligned
/// contiguous stripes.
fn stripe_len(n: usize, nbanks: usize, lanes: usize) -> usize {
    n.div_ceil(nbanks).div_ceil(lanes).max(1) * lanes
}

impl Blas1Pim {
    /// Runner on a device at a precision.
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        Blas1Pim { device, precision }
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn nbanks(&self) -> usize {
        self.device.hbm.total_banks()
    }

    /// Lay a dense vector out as per-bank stripe regions (one region per
    /// call, same id on every bank). Returns the region id and stripe
    /// length.
    fn alloc_stripes(&self, engine: &mut Engine, v: &[f64]) -> (RegionId, usize) {
        let nbanks = self.nbanks();
        let sl = stripe_len(v.len(), nbanks, self.lanes());
        let mut id = RegionId(0);
        for b in 0..nbanks {
            let data: Vec<f64> = (0..sl)
                .map(|i| {
                    v.get(b * sl + i)
                        .map_or(0.0, |&x| self.precision.quantize(x))
                })
                .collect();
            id = engine.mem_mut(b).alloc(self.precision.bytes(), data);
        }
        (id, sl)
    }

    /// Read striped data back into a host vector of length `n`.
    fn read_stripes(&self, engine: &Engine, id: RegionId, n: usize, sl: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for b in 0..self.nbanks() {
            let data = engine.mem(b).region(id).data();
            for (i, &d) in data.iter().enumerate().take(sl) {
                let g = b * sl + i;
                if g < n {
                    out[g] = d;
                }
            }
        }
        out
    }

    /// Run one kernel launch. After the run the host reads
    /// `collect_bytes` back over the external bus (a reduction's per-bank
    /// partials; 0 when the result stays resident).
    fn execute(
        &self,
        engine: &mut Engine,
        asm: &str,
        bindings: Vec<Option<RegionId>>,
        srf: Option<f64>,
        collect_bytes: usize,
    ) -> Result<KernelRun, CoreError> {
        let program = programs::compiled(asm)?;
        let mut host = self.device.make_host();
        engine.load_verified(&program, bindings)?;
        if let Some(v) = srf {
            engine.set_srf_all(v);
        }
        let report = engine.run()?;
        host.collect(collect_bytes);
        let mut run = KernelRun::default();
        run.absorb_launch(&report);
        run.absorb_host(&host);
        Ok(run)
    }

    /// DCOPY: `y <- x`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn dcopy(&self, x: &[f64]) -> Result<VecRun, CoreError> {
        let mut engine = self.device.make_engine();
        let (rx, sl) = self.alloc_stripes(&mut engine, x);
        let (ry, _) = self.alloc_stripes(&mut engine, &vec![0.0; x.len()]);
        let chunks = (sl / self.lanes()) as u16;
        let run = self.execute(
            &mut engine,
            &programs::dcopy(self.precision, chunks),
            vec![Some(rx), Some(ry), None, None],
            None,
            0,
        )?;
        Ok(VecRun {
            v: self.read_stripes(&engine, ry, x.len(), sl),
            run,
        })
    }

    /// DSWAP: `x <-> y`; returns `(new_x, new_y)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] on a length mismatch; otherwise propagates
    /// engine failures.
    pub fn dswap(&self, x: &[f64], y: &[f64]) -> Result<(VecRun, Vec<f64>), CoreError> {
        same_len("dswap", x.len(), y.len())?;
        let mut engine = self.device.make_engine();
        let (rx, sl) = self.alloc_stripes(&mut engine, x);
        let (ry, _) = self.alloc_stripes(&mut engine, y);
        let chunks = (sl / self.lanes()) as u16;
        // Slots: 0 load x, 1 load y, 2 store x->y region, 3 store y->x.
        let run = self.execute(
            &mut engine,
            &programs::dswap(self.precision, chunks),
            vec![Some(rx), Some(ry), Some(ry), Some(rx), None, None],
            None,
            0,
        )?;
        let new_x = self.read_stripes(&engine, rx, x.len(), sl);
        let new_y = self.read_stripes(&engine, ry, y.len(), sl);
        Ok((VecRun { v: new_x, run }, new_y))
    }

    /// DSCAL: `x <- a x`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn dscal(&self, a: f64, x: &[f64]) -> Result<VecRun, CoreError> {
        let mut engine = self.device.make_engine();
        let (rx, sl) = self.alloc_stripes(&mut engine, x);
        let chunks = (sl / self.lanes()) as u16;
        let run = self.execute(
            &mut engine,
            &programs::dscal(self.precision, chunks),
            vec![Some(rx), None, Some(rx), None],
            Some(a),
            0,
        )?;
        Ok(VecRun {
            v: self.read_stripes(&engine, rx, x.len(), sl),
            run,
        })
    }

    /// DAXPY: `y <- a x + y`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] on a length mismatch; otherwise propagates
    /// engine failures.
    pub fn daxpy(&self, a: f64, x: &[f64], y: &[f64]) -> Result<VecRun, CoreError> {
        same_len("daxpy", x.len(), y.len())?;
        let mut engine = self.device.make_engine();
        let (rx, sl) = self.alloc_stripes(&mut engine, x);
        let (ry, _) = self.alloc_stripes(&mut engine, y);
        let chunks = (sl / self.lanes()) as u16;
        let run = self.execute(
            &mut engine,
            &programs::daxpy(self.precision, chunks),
            vec![Some(rx), Some(ry), None, None, Some(ry), None],
            Some(a),
            0,
        )?;
        Ok(VecRun {
            v: self.read_stripes(&engine, ry, y.len(), sl),
            run,
        })
    }

    /// Element-wise `z <- x (op) y` (DVDV over any Binary-field op —
    /// MIN/MAX drive the graph-application masks).
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] on a length mismatch; otherwise propagates
    /// engine failures.
    pub fn dvdv(
        &self,
        x: &[f64],
        y: &[f64],
        op: psyncpim_core::isa::BinaryOp,
    ) -> Result<VecRun, CoreError> {
        same_len("dvdv", x.len(), y.len())?;
        let mut engine = self.device.make_engine();
        let (rx, sl) = self.alloc_stripes(&mut engine, x);
        let (ry, _) = self.alloc_stripes(&mut engine, y);
        let (rz, _) = self.alloc_stripes(&mut engine, &vec![0.0; x.len()]);
        let chunks = (sl / self.lanes()) as u16;
        let run = self.execute(
            &mut engine,
            &programs::dvdv(self.precision, &op.to_string(), chunks),
            vec![Some(rx), Some(ry), None, Some(rz), None, None],
            None,
            0,
        )?;
        Ok(VecRun {
            v: self.read_stripes(&engine, rz, x.len(), sl),
            run,
        })
    }

    /// DDOT: `s <- x^T y`. Per-bank partials accumulate in the SRFs; the
    /// host collects and reduces them (one external read per bank).
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] on a length mismatch; otherwise propagates
    /// engine failures.
    pub fn ddot(&self, x: &[f64], y: &[f64]) -> Result<ScalarRun, CoreError> {
        same_len("ddot", x.len(), y.len())?;
        let mut engine = self.device.make_engine();
        let (rx, sl) = self.alloc_stripes(&mut engine, x);
        let (ry, _) = self.alloc_stripes(&mut engine, y);
        let chunks = (sl / self.lanes()) as u16;
        let run = self.execute(
            &mut engine,
            &programs::ddot(self.precision, chunks),
            vec![Some(rx), Some(ry), None, None, None, None],
            Some(0.0),
            self.nbanks() * self.precision.bytes(),
        )?;
        let s = (0..self.nbanks()).map(|b| engine.pu(b).srf()).sum();
        Ok(ScalarRun { s, run })
    }

    /// DNRM2: `s <- ||x||₂` via DDOT.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn dnrm2(&self, x: &[f64]) -> Result<ScalarRun, CoreError> {
        let mut r = self.ddot(x, x)?;
        r.s = r.s.sqrt();
        Ok(r)
    }

    /// GATHER: `x_sp <- y_d` (collect the non-zeros of a dense vector).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn gather(&self, y: &[f64]) -> Result<(SparseVec, KernelRun), CoreError> {
        let mut engine = self.device.make_engine();
        let (ry, sl) = self.alloc_stripes(&mut engine, y);
        // Output: (row, col, val) triples via SpFW; worst case every
        // element is non-zero.
        let nbanks = self.nbanks();
        let mut rout = RegionId(0);
        for b in 0..nbanks {
            rout = engine
                .mem_mut(b)
                .alloc_zeroed(self.precision.bytes(), 3 * sl);
        }
        let chunks = (sl / self.lanes()) as u16;
        let run = self.execute(
            &mut engine,
            &programs::gather(self.precision, chunks),
            vec![Some(ry), Some(rout), None, None],
            None,
            0,
        )?;
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for b in 0..nbanks {
            let data = engine.mem(b).region(rout).data();
            for t in data.chunks(3) {
                let (c, v) = (t[1], t[2]);
                if v != 0.0 {
                    let global = b * sl + c as usize;
                    if global < y.len() {
                        pairs.push((global as u32, v));
                    }
                }
            }
        }
        Ok((SparseVec::from_pairs(y.len(), pairs), run))
    }

    /// SCATTER: `y_d <- x_sp` over an existing dense vector.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] when `x_sp`'s dimension differs from
    /// `y.len()`; otherwise propagates engine failures.
    pub fn scatter(&self, x_sp: &SparseVec, y: &[f64]) -> Result<VecRun, CoreError> {
        same_len("scatter", x_sp.dim(), y.len())?;
        let mut engine = self.device.make_engine();
        let (ry, sl) = self.alloc_stripes(&mut engine, y);
        let (r0, r1, r2) = self.alloc_triple_streams(&mut engine, x_sp, sl);
        let run = self.execute(
            &mut engine,
            &programs::scatter(self.precision),
            vec![Some(r0), Some(r1), Some(r2), Some(ry), None, None],
            None,
            0,
        )?;
        Ok(VecRun {
            v: self.read_stripes(&engine, ry, y.len(), sl),
            run,
        })
    }

    /// SpAXPY: `y <- a x_sp + y`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] when `x_sp`'s dimension differs from
    /// `y.len()`; otherwise propagates engine failures.
    pub fn spaxpy(&self, a: f64, x_sp: &SparseVec, y: &[f64]) -> Result<VecRun, CoreError> {
        same_len("spaxpy", x_sp.dim(), y.len())?;
        let mut engine = self.device.make_engine();
        let (ry, sl) = self.alloc_stripes(&mut engine, y);
        let (r0, r1, r2) = self.alloc_triple_streams(&mut engine, x_sp, sl);
        let run = self.execute(
            &mut engine,
            &programs::spaxpy(self.precision),
            vec![Some(r0), Some(r1), Some(r2), None, Some(ry), None, None],
            Some(a),
            0,
        )?;
        Ok(VecRun {
            v: self.read_stripes(&engine, ry, y.len(), sl),
            run,
        })
    }

    /// SpDOT: `s <- x_sp^T y_d`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] when `x_sp`'s dimension differs from
    /// `y.len()`; otherwise propagates engine failures.
    pub fn spdot(&self, x_sp: &SparseVec, y: &[f64]) -> Result<ScalarRun, CoreError> {
        same_len("spdot", x_sp.dim(), y.len())?;
        let mut engine = self.device.make_engine();
        let (ry, sl) = self.alloc_stripes(&mut engine, y);
        let (r0, r1, r2) = self.alloc_triple_streams(&mut engine, x_sp, sl);
        // Products land in a per-bank staging region; the host reduces.
        let nbanks = self.nbanks();
        let max_nnz = per_bank_nnz_max(x_sp, sl, nbanks);
        let mut rprod = RegionId(0);
        for b in 0..nbanks {
            // SpFW writes (row, col, value) triples: three slots per product.
            rprod = engine
                .mem_mut(b)
                .alloc_zeroed(self.precision.bytes(), 3 * max_nnz.max(1));
        }
        let run = self.execute(
            &mut engine,
            &programs::spdot(self.precision),
            vec![
                Some(r0),
                Some(r1),
                Some(r2),
                Some(ry),
                None,
                Some(rprod),
                None,
                None,
            ],
            None,
            nbanks * self.precision.bytes(),
        )?;
        let mut s = 0.0;
        for b in 0..nbanks {
            // Values sit at every third slot of the SpFW triples.
            s += engine
                .mem(b)
                .region(rprod)
                .data()
                .chunks(3)
                .map(|t| t.get(2).copied().unwrap_or(0.0))
                .sum::<f64>();
        }
        Ok(ScalarRun { s, run })
    }

    /// Allocate sentinel-terminated (row, col, val) streams for a sparse
    /// vector, striped by element index; `col` carries the *stripe-local*
    /// position (the gather/scatter address within the bank's stripe).
    fn alloc_triple_streams(
        &self,
        engine: &mut Engine,
        x_sp: &SparseVec,
        sl: usize,
    ) -> (RegionId, RegionId, RegionId) {
        let nbanks = self.nbanks();
        let lanes = self.lanes();
        let mut per_bank: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nbanks];
        for &(i, v) in x_sp.iter() {
            let b = (i as usize / sl).min(nbanks - 1);
            per_bank[b].push((i % sl as u32, v));
        }
        let max_chunks = per_bank
            .iter()
            .map(|e| e.len().div_ceil(lanes))
            .max()
            .unwrap_or(0);
        let len = (max_chunks + 1) * lanes;
        let mut ids = (RegionId(0), RegionId(0), RegionId(0));
        for (b, entries) in per_bank.iter().enumerate() {
            let mut rows = vec![SENTINEL; len];
            let mut cols = vec![SENTINEL; len];
            let mut vals = vec![0.0; len];
            for (i, &(local, v)) in entries.iter().enumerate() {
                rows[i] = f64::from(local);
                cols[i] = f64::from(local);
                vals[i] = self.precision.quantize(v);
            }
            let mem = engine.mem_mut(b);
            let r0 = mem.alloc(self.precision.bytes(), rows);
            let r1 = mem.alloc(self.precision.bytes(), cols);
            let r2 = mem.alloc(self.precision.bytes(), vals);
            ids = (r0, r1, r2);
        }
        ids
    }
}

fn per_bank_nnz_max(x_sp: &SparseVec, sl: usize, nbanks: usize) -> usize {
    let mut counts = vec![0usize; nbanks];
    for &(i, _) in x_sp.iter() {
        counts[(i as usize / sl).min(nbanks - 1)] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::dense;
    use psim_sparse::gen;

    fn runner() -> Blas1Pim {
        Blas1Pim::new(PimDevice::tiny(2), Precision::Fp64)
    }

    #[test]
    fn dcopy_matches() {
        let x = gen::dense_vector(100, 1);
        let r = runner().dcopy(&x).unwrap();
        assert_eq!(r.v, x);
        assert!(r.run.total_s() > 0.0);
    }

    #[test]
    fn dswap_exchanges() {
        let x = gen::dense_vector(50, 2);
        let y = gen::dense_vector(50, 3);
        let (rx, new_y) = runner().dswap(&x, &y).unwrap();
        assert_eq!(rx.v, y);
        assert_eq!(new_y, x);
    }

    #[test]
    fn dscal_scales() {
        let x = gen::dense_vector(70, 4);
        let r = runner().dscal(-2.5, &x).unwrap();
        for (g, w) in r.v.iter().zip(&x) {
            assert!((g - w * -2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn daxpy_matches_reference() {
        let x = gen::dense_vector(90, 5);
        let y = gen::dense_vector(90, 6);
        let r = runner().daxpy(3.0, &x, &y).unwrap();
        let mut want = y.clone();
        dense::axpy(3.0, &x, &mut want);
        for (g, w) in r.v.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_operands_are_operand_errors() {
        let r = runner();
        let (x, short) = (vec![1.0; 30], vec![1.0; 29]);
        let sp = SparseVec::from_pairs(30, vec![(2, 1.0)]);
        let errors = [
            r.daxpy(2.0, &x, &short).map(|_| ()),
            r.dswap(&x, &short).map(|_| ()),
            r.dvdv(&x, &short, psyncpim_core::isa::BinaryOp::Add)
                .map(|_| ()),
            r.ddot(&x, &short).map(|_| ()),
            r.scatter(&sp, &short).map(|_| ()),
            r.spaxpy(2.0, &sp, &short).map(|_| ()),
            r.spdot(&sp, &short).map(|_| ()),
        ];
        let kernels = [
            "daxpy", "dswap", "dvdv", "ddot", "scatter", "spaxpy", "spdot",
        ];
        for (err, kernel) in errors.into_iter().zip(kernels) {
            assert_eq!(
                err.unwrap_err(),
                CoreError::Operand(format!("{kernel} operands have 30 and 29 elements"))
            );
        }
    }

    #[test]
    fn ddot_and_dnrm2() {
        let x = gen::dense_vector(120, 7);
        let y = gen::dense_vector(120, 8);
        let d = runner().ddot(&x, &y).unwrap();
        assert!((d.s - dense::dot(&x, &y)).abs() < 1e-9);
        let n = runner().dnrm2(&x).unwrap();
        assert!((n.s - dense::nrm2(&x)).abs() < 1e-9);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut y = vec![0.0; 64];
        y[3] = 1.5;
        y[17] = -2.0;
        y[40] = 7.0;
        y[63] = 0.25;
        let (sp, _run) = runner().gather(&y).unwrap();
        assert_eq!(sp.nnz(), 4);
        assert_eq!(sp.to_dense(), y);
        let zeros = vec![0.0; 64];
        let r = runner().scatter(&sp, &zeros).unwrap();
        assert_eq!(r.v, y);
    }

    #[test]
    fn spaxpy_matches_reference() {
        let y = gen::dense_vector(80, 9);
        let sp = SparseVec::from_pairs(80, vec![(2, 1.0), (40, -3.0), (79, 0.5)]);
        let r = runner().spaxpy(2.0, &sp, &y).unwrap();
        let mut want = y.clone();
        dense::spaxpy(2.0, &sp, &mut want);
        for (g, w) in r.v.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn spdot_matches_reference() {
        let y = gen::dense_vector(100, 10);
        let sp = SparseVec::from_pairs(100, vec![(0, 2.0), (55, 1.5), (99, -1.0)]);
        let r = runner().spdot(&sp, &y).unwrap();
        assert!((r.s - dense::spdot(&sp, &y)).abs() < 1e-12);
    }

    #[test]
    fn int8_dense_throughput_uses_wider_lanes() {
        // INT8 moves 32 lanes per burst: same vector, fewer rounds.
        let x: Vec<f64> = (0..256).map(|i| f64::from(i % 100)).collect();
        let f = Blas1Pim::new(PimDevice::tiny(2), Precision::Fp64)
            .dcopy(&x)
            .unwrap();
        let i = Blas1Pim::new(PimDevice::tiny(2), Precision::Int8)
            .dcopy(&x)
            .unwrap();
        assert!(i.run.rounds <= f.run.rounds);
        assert!(i.run.kernel_s < f.run.kernel_s);
        assert_eq!(i.v, x); // values < 128 survive quantization
    }
}
