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
//!
//! A level batch holds as many columns as one DRAM row holds scales at the
//! runner's precision (128 for FP64, 256 for FP32). Each batch is one
//! launch of SpMV's stream program, and its triples are laid out by the
//! same `device::place_triples` as an SpMV wave.

use crate::device::{batched_sparse_bindings, place_triples, triple_pairs, KernelRun, PimDevice};
use crate::programs;
use crate::spmv::SpmvPim;
use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{BlockPlan, BlockStep, LevelSchedule, Precision};
use psyncpim_core::{CoreError, RegionId};

/// SpTRSV kernel runner.
#[derive(Debug, Clone)]
pub struct SptrsvPim {
    /// Target device (the diagonal-block solve uses one cube; the SpMV
    /// update steps use the whole device).
    pub device: PimDevice,
    /// Element precision (the paper evaluates SpTRSV in FP64).
    pub precision: Precision,
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
        SptrsvPim {
            device,
            precision: Precision::Fp64,
        }
    }

    /// Elements of the runner's precision in one DRAM row (128 for FP64).
    /// It bounds both a bank's stripe of the solution vector and a level
    /// batch, whose scales every bank holds in one row.
    fn row_elems(&self) -> usize {
        self.device.hbm.row_bytes() / self.precision.bytes()
    }

    /// Maximum diagonal-block dimension: one DRAM row of solution vector
    /// per bank across the cube (the paper's 32,768 for FP64 at 256 banks).
    #[must_use]
    pub fn max_block(&self) -> usize {
        self.row_elems() * self.device.hbm.total_banks()
    }

    /// Solve `T x = b` on the PIM device.
    ///
    /// # Errors
    ///
    /// [`CoreError::Operand`] if `b.len() != t.dim()`; otherwise
    /// propagates engine failures.
    pub fn run(&self, t: &UnitTriangular, b: &[f64]) -> Result<SptrsvResult, CoreError> {
        if b.len() != t.dim() {
            return Err(CoreError::Operand(format!(
                "sptrsv right-hand side has {} elements for a triangle of dimension {}",
                b.len(),
                t.dim()
            )));
        }
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
            let id = engine.mem_mut(bank).alloc(ebytes, data);
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
        // numbers within the launch. A batch touches the banks owning its
        // entries' rows; every other bank stores one sentinel pair, so the
        // engine replays a channel of padding once and its twins take that
        // outcome (DESIGN.md §14).
        let batch_mark = engine.mem(0).mark();

        // Every batch copies into the storage the previous one released.
        // Size it once, for the block's largest batch: storage grown batch
        // by batch would leave outgrown buffers scattered between live
        // ones and raise the peak footprint. The sizing pass only counts;
        // each launch groups its batch once.
        let mut streams = BatchStreams::new(nbanks);
        let level_batches = || {
            sched
                .iter()
                .flat_map(|level| level.chunks(self.row_elems()))
        };
        let (mut widest, mut longest, mut most) = (0, 0, 0);
        for chunk in level_batches() {
            if let Some(n) = streams.count(&csc, chunk, stripe) {
                widest = widest.max(chunk.len());
                longest = longest.max(n);
                most = most.max(streams.counted());
            }
        }
        streams.entries.reserve_exact(most);
        let triples_len = triple_pairs(longest, lanes) * 6 * lanes;
        for bank in 0..nbanks {
            let mem = engine.mem_mut(bank);
            mem.alloc(ebytes, Vec::with_capacity(triples_len));
            mem.alloc(ebytes, Vec::with_capacity(widest));
            mem.truncate(batch_mark);
        }

        let mut scales: Vec<f64> = Vec::with_capacity(widest);
        let mut batches = 0u64;
        for chunk in level_batches() {
            batches += 1;
            let Some(max_nnz) = streams.fill(&csc, chunk, stripe) else {
                continue;
            };
            // Scales: read the just-finalized x values from their owner
            // banks (SB mode), then broadcast to every bank. A batch with
            // no entries never launches, and no bank reads its scales.
            scales.clear();
            scales.extend(chunk.iter().map(|&c| {
                let bank = c / stripe;
                engine.mem(bank).region(stripe_region).data()[c % stripe]
            }));
            host.collect(chunk.len() * ebytes);
            host.broadcast(chunk.len() * ebytes);
            let rt = place_triples(&mut engine, max_nnz, self.precision, streams.banks());
            let mut rs = None;
            for bank in 0..nbanks {
                rs = Some(engine.mem_mut(bank).alloc_copy(ebytes, &scales));
            }
            let rs = rs.expect("at least one bank");
            let bindings = batched_sparse_bindings(rt, rs, stripe_region, lanes);
            engine.load_verified(&program, bindings)?;
            let report = engine.run()?;
            for bank in 0..nbanks {
                engine.mem_mut(bank).truncate(batch_mark);
            }
            run.absorb_launch(&report);
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

/// One level batch's entries grouped by the bank owning each row: entry
/// `(r, c)` goes to bank `r / stripe` as (row within the stripe, position
/// of `c` in the batch), in column order. A counting sort into one flat
/// buffer; the buffers live for a whole diagonal block, and a refill
/// resets only the banks the previous batch touched.
struct BatchStreams {
    /// The entries, bank after bank in first-touch order.
    entries: Vec<(u32, u32, f64)>,
    /// Per bank: its entry count while counting, then the end of its
    /// entries in `entries`.
    end: Vec<usize>,
    /// Banks holding entries, in first-touch order.
    touched: Vec<usize>,
}

impl BatchStreams {
    fn new(nbanks: usize) -> Self {
        BatchStreams {
            entries: Vec::new(),
            end: vec![0; nbanks],
            touched: Vec::new(),
        }
    }

    /// Count the batch `chunk` of `csc`'s columns per bank; returns the
    /// longest bank stream, `None` when the batch has no entries.
    fn count(&mut self, csc: &psim_sparse::Csc, chunk: &[usize], stripe: usize) -> Option<usize> {
        for &bank in &self.touched {
            self.end[bank] = 0;
        }
        self.touched.clear();
        for &c in chunk {
            for (r, _) in csc.col(c) {
                let bank = r / stripe;
                if self.end[bank] == 0 {
                    self.touched.push(bank);
                }
                self.end[bank] += 1;
            }
        }
        self.touched.iter().map(|&b| self.end[b]).max()
    }

    /// The entries of the batch the last [`BatchStreams::count`] counted.
    fn counted(&self) -> usize {
        self.touched.iter().map(|&b| self.end[b]).sum()
    }

    /// Group the batch `chunk` of `csc`'s columns; returns the longest
    /// bank stream, `None` when the batch has no entries.
    fn fill(&mut self, csc: &psim_sparse::Csc, chunk: &[usize], stripe: usize) -> Option<usize> {
        let longest = self.count(csc, chunk, stripe)?;
        // Counts become start offsets, which the fill advances to ends.
        let mut start = 0;
        for &bank in &self.touched {
            let n = self.end[bank];
            self.end[bank] = start;
            start += n;
        }
        self.entries.clear();
        self.entries.resize(start, (0, 0, 0.0));
        for (ci, &c) in chunk.iter().enumerate() {
            for (r, v) in csc.col(c) {
                let bank = r / stripe;
                self.entries[self.end[bank]] = ((r % stripe) as u32, ci as u32, v);
                self.end[bank] += 1;
            }
        }
        Some(longest)
    }

    /// Each touched bank with its entry count and entries.
    fn banks(
        &self,
    ) -> impl Iterator<Item = (usize, usize, impl Iterator<Item = (u32, u32, f64)> + '_)> {
        let mut start = 0;
        self.touched.iter().map(move |&bank| {
            let entries = &self.entries[start..self.end[bank]];
            start = self.end[bank];
            (bank, entries.len(), entries.iter().copied())
        })
    }
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

    #[test]
    fn level_batches_follow_the_runner_precision() {
        // Two levels of 200 columns: row 200 + i depends on column i. A
        // batch's scales fill one DRAM row, which holds 128 FP64 or 256
        // FP32 elements.
        let mut s = Coo::new(400, 400);
        for i in 0..200 {
            s.push(200 + i, i, 0.5);
        }
        let t = UnitTriangular::from_strict(Triangle::Lower, s).unwrap();
        let b = gen::dense_vector(400, 6);
        let want = t.solve_colwise(&b).unwrap();
        let mut solver = runner();
        for (precision, batches) in [(Precision::Fp64, 4), (Precision::Fp32, 2)] {
            solver.precision = precision;
            let res = solver.run(&t, &b).unwrap();
            assert_eq!(res.level_batches, batches, "{precision:?}");
            for (g, w) in res.x.iter().zip(&want) {
                assert!((g - w).abs() < 1e-5, "{precision:?}: {g} vs {w}");
            }
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
    fn short_right_hand_side_is_an_operand_error() {
        let t = UnitTriangular::from_strict(Triangle::Lower, Coo::new(16, 16)).unwrap();
        let err = runner().run(&t, &[1.0; 15]).unwrap_err();
        assert!(matches!(err, CoreError::Operand(_)), "{err:?}");
    }

    #[test]
    fn an_empty_level_batch_books_no_scale_round_trip() {
        // The strict triangle is empty: its one level batch never
        // launches, so the host moves only the 16 FP64 stripe elements up
        // and back, two 400 ns latency floors and 128 B each at 256 GB/s.
        let t = UnitTriangular::from_strict(Triangle::Lower, Coo::new(16, 16)).unwrap();
        let run = runner().run(&t, &gen::dense_vector(16, 4)).unwrap().run;
        assert_eq!((run.phases, run.external_bytes), (0, 256));
        assert!((run.host_s - 801e-9).abs() < 1e-18, "{}", run.host_s);
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
