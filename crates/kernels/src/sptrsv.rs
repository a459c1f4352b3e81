//! SpTRSV on pSyncPIM (paper §VI).
//!
//! The solve follows the paper's three mechanisms:
//!
//! 1. **Recursive block decomposition** ([`psim_sparse::BlockPlan`]):
//!    diagonal triangular blocks small enough for the in-PIM kernel, square
//!    off-diagonal blocks handled by the SpMV kernel.
//! 2. **Row-striped memory mapping** (Figure 7): each bank owns a
//!    contiguous stripe of the block's rows; its slice of the solution
//!    vector stays resident in the bank across levels.
//! 3. **Scalar-multiplication column sweep** (Algorithm 3) executed
//!    level-by-level: for each level the host reads the just-finalized
//!    scales from their owner banks (SB mode), broadcasts them to all banks
//!    (AB mode), and launches the stream kernel with an `RSUB`
//!    accumulation: `x[r] -= scale[c] · v` — no divisions anywhere, thanks
//!    to the host-side ILDU normalization (§VI-D).
//!
//! The per-level mode switches and scale reads are the serialization cost
//! that makes high-level-count matrices (the paper's `parabolic_fem`) slow
//! on pSyncPIM; the model reproduces that directly.

use crate::device::{
    batched_sparse_bindings, mode_cycle, pack_triples, triple_pairs, KernelRun, PimDevice,
};
use crate::programs;
use crate::spmv::SpmvPim;
use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{BlockPlan, BlockStep, LevelSchedule, Precision};
use psyncpim_core::memory::Binding;
use psyncpim_core::{CoreError, Engine, RegionId};

/// SpTRSV kernel runner.
#[derive(Debug, Clone)]
pub struct SptrsvPim {
    /// Target device (the diagonal-block solve uses one cube; the SpMV
    /// update steps use the whole device).
    pub device: PimDevice,
    /// Element precision (the paper evaluates SpTRSV in FP64).
    pub precision: Precision,
    /// Columns per level batch — bounded by the scales fitting one DRAM
    /// row (1 KB / 8 B = 128 for FP64).
    pub level_chunk: usize,
}

/// Result of a triangular solve.
#[derive(Debug, Clone)]
pub struct SptrsvResult {
    /// The solution `x` with `T x = b`.
    pub x: Vec<f64>,
    /// Timing/energy/commands.
    pub run: KernelRun,
    /// Total level batches executed across all diagonal blocks (the
    /// serialization metric).
    pub level_batches: u64,
    /// Diagonal solve steps in the block plan.
    pub solve_steps: usize,
    /// SpMV update steps in the block plan.
    pub update_steps: usize,
}

impl SptrsvPim {
    /// Runner on a device at FP64.
    #[must_use]
    pub fn new(device: PimDevice) -> Self {
        let precision = Precision::Fp64;
        let level_chunk = device.hbm.row_bytes() / precision.bytes();
        SptrsvPim {
            device,
            precision,
            level_chunk,
        }
    }

    /// Maximum diagonal-block dimension: one DRAM row of solution vector
    /// per bank across the cube (the paper's 32,768 for FP64 at 256 banks).
    #[must_use]
    pub fn max_block(&self) -> usize {
        let per_bank = self.device.hbm.row_bytes() / self.precision.bytes();
        per_bank * self.device.hbm.total_banks()
    }

    /// Solve `T x = b` on the PIM device.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != t.dim()`.
    pub fn run(&self, t: &UnitTriangular, b: &[f64]) -> Result<SptrsvResult, CoreError> {
        assert_eq!(b.len(), t.dim(), "sptrsv operand length mismatch");
        let plan = BlockPlan::build(t.triangle(), t.dim(), self.max_block());
        let mut x = b.to_vec();
        let mut run = KernelRun::default();
        let mut level_batches = 0u64;

        let spmv = SpmvPim::new(self.device.clone(), self.precision);

        for step in plan.steps() {
            match *step {
                BlockStep::Solve { lo, hi } => {
                    let batches = self.solve_block(t, lo, hi, &mut x, &mut run)?;
                    level_batches += batches;
                }
                BlockStep::Update {
                    row_lo,
                    row_hi,
                    col_lo,
                    col_hi,
                } => {
                    let m = t.strict().submatrix(row_lo, row_hi, col_lo, col_hi);
                    if m.nnz() == 0 {
                        continue;
                    }
                    let res = spmv.run(&m, &x[col_lo..col_hi])?;
                    for (i, v) in res.y.into_iter().enumerate() {
                        x[row_lo + i] -= v;
                    }
                    run.merge(&res.run);
                }
            }
        }

        Ok(SptrsvResult {
            x,
            run,
            level_batches,
            solve_steps: plan.num_solves(),
            update_steps: plan.num_updates(),
        })
    }

    /// Solve one diagonal block in-PIM; returns the number of level
    /// batches executed.
    fn solve_block(
        &self,
        t: &UnitTriangular,
        lo: usize,
        hi: usize,
        x: &mut [f64],
        run: &mut KernelRun,
    ) -> Result<u64, CoreError> {
        let m = hi - lo;
        let block = t.diagonal_block(lo, hi);
        let sched = LevelSchedule::analyze(&block);
        let nbanks = self.device.hbm.total_banks();
        let stripe = m.div_ceil(nbanks).max(1);
        let lanes = self.precision.lanes();
        let ebytes = self.precision.bytes();
        let program = programs::compiled(&programs::sparse_stream_batched(
            self.precision,
            "MUL",
            "RSUB",
        ))?;
        let mut host = self.device.make_host();

        // One engine lives for the whole block: stripe regions persist
        // across levels.
        let mut engine = self.device.make_engine();
        let mut stripe_region: Option<RegionId> = None;
        for bank in 0..nbanks {
            let base = bank * stripe;
            let data: Vec<f64> = (0..stripe)
                .map(|i| {
                    let r = base + i;
                    if r < m {
                        self.precision.quantize(x[lo + r])
                    } else {
                        0.0
                    }
                })
                .collect();
            let id = engine.mem_mut(bank).alloc("x-stripe", ebytes, data);
            if bank == 0 {
                stripe_region = Some(id);
            }
        }
        let stripe_region = stripe_region.expect("at least one bank");
        // Upload of the block's b slice (the stripes).
        host.broadcast(m * ebytes);

        // Pre-bucket entries by column for fast per-level stream building.
        let csc = psim_sparse::Csc::from(block.strict());

        // Each level batch allocates its triples and scales above this mark
        // and releases them after its launch, so a bank holds its stripe
        // plus one batch however many levels the block has. Every bank
        // holds just its equal-length stripe here, so bank 0's mark is
        // every bank's. Cycles do not depend on which rows a batch reuses:
        // each launch replays on a fresh channel, which only compares row
        // numbers within the launch.
        let batch_mark = engine.mem(0).mark();

        let mut batches = 0u64;
        for level in sched.iter() {
            for chunk in level.chunks(self.level_chunk) {
                batches += 1;
                // Scales: read the just-finalized x values from their
                // owner banks (SB mode), then broadcast to every bank.
                let scales: Vec<f64> = chunk
                    .iter()
                    .map(|&c| {
                        let bank = c / stripe;
                        engine.mem(bank).region(stripe_region).data()[c % stripe]
                    })
                    .collect();
                host.collect(chunk.len() * ebytes);
                host.broadcast(chunk.len() * ebytes);
                mode_cycle(&mut host, program.len());

                // Per-bank streams: entry (r, c) goes to the bank owning
                // row r, with the column remapped to its chunk position.
                let mut streams: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); nbanks];
                for (ci, &c) in chunk.iter().enumerate() {
                    for (r, v) in csc.col(c) {
                        let bank = r / stripe;
                        streams[bank].push(((r % stripe) as u32, ci as u32, v));
                    }
                }
                let max_nnz = streams.iter().map(Vec::len).max().unwrap_or(0);
                if max_nnz == 0 {
                    continue;
                }
                let pairs = triple_pairs(max_nnz, lanes);

                let mut bindings: Vec<Option<Binding>> = Vec::new();
                for (bank, entries) in streams.iter().enumerate() {
                    let triples = pack_triples(entries, lanes, pairs, self.precision);
                    let mem = engine.mem_mut(bank);
                    let rt = mem.alloc("triples", ebytes, triples);
                    let rs = mem.alloc("scales", ebytes, scales.clone());
                    if bank == 0 {
                        bindings = batched_sparse_bindings(rt, rs, stripe_region, lanes);
                    }
                }
                engine.load_verified(&program, bindings)?;
                let report = engine.run()?;
                for bank in 0..nbanks {
                    engine.mem_mut(bank).truncate(batch_mark);
                }
                run.kernel_s += report.seconds;
                run.dram_cycles += report.dram_cycles;
                run.absorb_wall(&report);
                run.absorb_engine(&report);
                run.phases += 1;
            }
        }

        // Read the solved stripes back into the host copy.
        for bank in 0..nbanks {
            let data = engine.mem(bank).region(stripe_region).data();
            for (i, &d) in data.iter().enumerate().take(stripe) {
                let r = bank * stripe + i;
                if r < m {
                    x[lo + r] = d;
                }
            }
        }
        host.collect(m * ebytes);
        run.absorb_host(&host);
        Ok(batches)
    }
}

/// Collect an [`Engine`]'s per-bank SRF values (helper shared with BLAS
/// reductions; exposed for diagnostics).
#[must_use]
pub fn srf_values(engine: &Engine) -> Vec<f64> {
    (0..engine.num_banks())
        .map(|b| engine.pu(b).srf())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::triangular::{unit_triangular_from, Triangle};
    use psim_sparse::{gen, Coo};

    fn runner() -> SptrsvPim {
        SptrsvPim::new(PimDevice::tiny(2))
    }

    #[test]
    fn solves_small_lower_triangle() {
        let a = gen::rmat_seeded(60, 5, 3, 77);
        let t = unit_triangular_from(&a, Triangle::Lower).unwrap();
        let want_x = gen::dense_vector(60, 9);
        let b = t.matvec(&want_x);
        let res = runner().run(&t, &b).unwrap();
        for (g, w) in res.x.iter().zip(&want_x) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        assert!(res.run.total_s() > 0.0);
        assert!(res.level_batches >= 1);
    }

    #[test]
    fn solves_upper_triangle() {
        let a = gen::rmat_seeded(48, 4, 5, 21);
        let t = unit_triangular_from(&a, Triangle::Upper).unwrap();
        let want_x = gen::dense_vector(48, 2);
        let b = t.matvec(&want_x);
        let res = runner().run(&t, &b).unwrap();
        for (g, w) in res.x.iter().zip(&want_x) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn recursive_blocks_used_for_large_dims() {
        // tiny device: max_block = 128 * 8 = 1024; a 2500-dim triangle
        // needs the recursive plan.
        let a = gen::banded_fem(2500, 20, 3, 13);
        let t = unit_triangular_from(&a, Triangle::Lower).unwrap();
        let want_x = vec![1.0; 2500];
        let b = t.matvec(&want_x);
        let r = runner();
        let res = r.run(&t, &b).unwrap();
        assert!(
            res.solve_steps > 1,
            "expected recursion: {}",
            res.solve_steps
        );
        assert!(res.update_steps >= 1);
        for (g, w) in res.x.iter().zip(&want_x) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    #[test]
    fn serial_chain_needs_many_level_batches() {
        // A pure chain has n levels — the worst case for pSyncPIM.
        let mut s = Coo::new(40, 40);
        for i in 1..40 {
            s.push(i, i - 1, 0.25);
        }
        let t = UnitTriangular::from_strict(Triangle::Lower, s).unwrap();
        let b = vec![1.0; 40];
        let res = runner().run(&t, &b).unwrap();
        assert_eq!(res.level_batches, 40, "one batch per level");
        let want = t.solve_colwise(&b).unwrap();
        for (g, w) in res.x.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    /// FNV-1a over a vector's bit patterns.
    fn fingerprint(x: &[f64]) -> u64 {
        x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn validated_multi_level_solve_is_clean_and_unchanged() {
        // A banded factor solves in 32 level batches: every batch loads
        // the one compiled program and reuses the rows the previous batch
        // released. Validation replays every launch through the
        // protocol checker without changing a value or a cycle, and the
        // figures are pinned to the ones from before kernels shared one
        // compiled program and released batch regions.
        let a = gen::banded_fem(120, 4, 3, 31);
        let t = unit_triangular_from(&a, Triangle::Lower).unwrap();
        let b = gen::dense_vector(120, 8);
        let plain = runner().run(&t, &b).unwrap();
        let mut dev = PimDevice::tiny(2);
        dev.validate = true;
        let checked = SptrsvPim::new(dev).run(&t, &b).unwrap();
        assert_eq!(checked.run.violations, 0);
        assert_eq!(fingerprint(&checked.x), fingerprint(&plain.x));
        assert_eq!(checked.run.dram_cycles, plain.run.dram_cycles);
        assert_eq!(checked.run.commands, plain.run.commands);
        let want = t.solve_colwise(&b).unwrap();
        for (g, w) in checked.x.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        assert_eq!(
            (
                checked.level_batches,
                checked.run.dram_cycles,
                checked.run.commands,
                fingerprint(&checked.x)
            ),
            (32, 7502, 4092, 10_732_686_434_722_218_344)
        );
    }

    #[test]
    fn identity_triangle_is_trivial() {
        let t = UnitTriangular::from_strict(Triangle::Lower, Coo::new(16, 16)).unwrap();
        let b = gen::dense_vector(16, 4);
        let res = runner().run(&t, &b).unwrap();
        assert_eq!(res.x, b);
        assert_eq!(res.level_batches, 1);
    }
}
