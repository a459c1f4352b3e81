//! SpMM: multi-vector SpMV sharing one matrix traversal.
//!
//! The service-mode scheduler coalesces concurrent SpMV jobs that share a
//! matrix into one SpMM pass (SparseP's observation: real PIM wins come
//! from reusing a resident matrix across vectors). The kernel reuses the
//! verified batched stream program unchanged and pushes the fusion into
//! the data layout — a *block-diagonal expansion*:
//!
//! * each bank's submatrix entries are replicated once per fused vector
//!   `v`, with indices shifted to `(row + v·max_out, col + v·max_in)`;
//! * the gathered input slices are stacked into one region of
//!   `width · max_in` elements, the outputs into `width · max_out`;
//! * one kernel launch per wave then computes all `width` products, so
//!   the per-launch fixed costs — the mode-switch cycle, CRF programming,
//!   completion polls, and the partition itself — are paid once instead
//!   of `width` times.
//!
//! Because the expansion keeps every per-vector entry stream in its
//! original order and every `(v, row)` output slot disjoint, each fused
//! vector's result is **bit-identical** to running [`SpmvPim`] on that
//! vector alone — the scheduler can scatter fused results back to the
//! original jobs without any numeric disclaimer. Width 1 degenerates to
//! exactly the SpMV data path (same pairs, same regions, same bytes).

use crate::device::{
    batched_sparse_bindings, mode_cycle, pack_triples, triple_pairs, KernelRun, PimDevice,
};
use crate::programs;
use crate::spmv::SpmvPim;
use psim_sparse::partition::{
    BankPartition, DistPolicy, PartitionConfig, PartitionScheme, PartitionStats, SubMatrix,
};
use psim_sparse::{Coo, Layout, MatrixFormat, Precision};
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::memory::Binding;
use psyncpim_core::CoreError;

/// Largest fusion width the kernel accepts. The expansion multiplies the
/// per-bank stream length by the width, so very wide fusions stop
/// amortizing fixed costs and start serializing unrelated jobs behind one
/// launch; 16 keeps the win while bounding the blast radius of one fused
/// group.
pub const MAX_SPMM_WIDTH: usize = 16;

/// SpMM kernel runner (multi-vector [`SpmvPim`]).
#[derive(Debug, Clone)]
pub struct SpmmPim {
    /// Target device.
    pub device: PimDevice,
    /// Element precision.
    pub precision: Precision,
    /// Submatrix placement policy.
    pub policy: DistPolicy,
    /// Semiring multiply.
    pub mul: BinaryOp,
    /// Semiring accumulate.
    pub acc: BinaryOp,
    /// Matrix compression (paper Figure 6).
    pub compress: bool,
    /// Storage format the matrix executes from (see [`SpmvPim::format`]).
    pub format: MatrixFormat,
    /// Partition scheme (see [`SpmvPim::scheme`]).
    pub scheme: PartitionScheme,
}

/// Result of a distributed SpMM.
#[derive(Debug, Clone)]
pub struct SpmmResult {
    /// One product `y_v = A x_v` per fused vector, in input order.
    pub ys: Vec<Vec<f64>>,
    /// Timing/energy/commands for the whole fused pass.
    pub run: KernelRun,
    /// Distribution statistics of the partition.
    pub stats: PartitionStats,
    /// Number of sequential waves executed.
    pub waves: usize,
    /// Fused width (`ys.len()`).
    pub width: usize,
}

impl SpmmPim {
    /// Runner on the given device at a precision (arithmetic semiring).
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        SpmmPim {
            device,
            precision,
            policy: DistPolicy::RoundRobin,
            mul: BinaryOp::Mul,
            acc: BinaryOp::Add,
            compress: true,
            format: MatrixFormat::Coo,
            scheme: PartitionScheme::Row1D,
        }
    }

    /// Runner over an arbitrary semiring `(mul, acc)`.
    #[must_use]
    pub fn with_semiring(
        device: PimDevice,
        precision: Precision,
        mul: BinaryOp,
        acc: BinaryOp,
    ) -> Self {
        SpmmPim {
            device,
            precision,
            policy: DistPolicy::RoundRobin,
            mul,
            acc,
            compress: true,
            format: MatrixFormat::Coo,
            scheme: PartitionScheme::Row1D,
        }
    }

    /// Adopt a tuned [`Layout`] (format, scheme, policy) wholesale.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.format = layout.format;
        self.scheme = layout.scheme;
        self.policy = layout.policy;
        self
    }

    /// The equivalent single-vector runner (shared partition/semiring
    /// configuration) — what each fused vector would have run alone.
    #[must_use]
    pub fn as_spmv(&self) -> SpmvPim {
        SpmvPim {
            device: self.device.clone(),
            precision: self.precision,
            policy: self.policy,
            mul: self.mul,
            acc: self.acc,
            compress: self.compress,
            format: self.format,
            scheme: self.scheme,
        }
    }

    /// Compute `y_v = A x_v` for every fused vector in one pass.
    ///
    /// # Errors
    ///
    /// Propagates engine/program failures.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is empty, wider than [`MAX_SPMM_WIDTH`], or any
    /// vector's length differs from `a.ncols()`.
    pub fn run(&self, a: &Coo, xs: &[Vec<f64>]) -> Result<SpmmResult, CoreError> {
        let width = xs.len();
        assert!(
            (1..=MAX_SPMM_WIDTH).contains(&width),
            "spmm width {width} outside 1..={MAX_SPMM_WIDTH}"
        );
        for x in xs {
            assert_eq!(x.len(), a.ncols(), "spmm operand length mismatch");
        }
        assert!(
            !self.format.is_blocked() || (self.mul == BinaryOp::Mul && self.acc == BinaryOp::Add),
            "blocked formats require the arithmetic (Mul, Add) semiring"
        );
        let expanded = self.format.expand(a);
        let a = expanded.as_ref().unwrap_or(a);
        let nbanks = self.device.total_banks();
        let part = BankPartition::build(
            a,
            PartitionConfig {
                num_banks: nbanks,
                row_bytes: self.device.hbm.row_bytes(),
                precision: self.precision,
                policy: self.policy,
                compress: self.compress,
                scheme: self.scheme,
            },
        );
        let stats = part.stats();

        let mut per_bank: Vec<Vec<&SubMatrix>> = vec![Vec::new(); nbanks];
        for s in part.submatrices() {
            per_bank[s.bank].push(s);
        }
        let waves = per_bank.iter().map(Vec::len).max().unwrap_or(0);

        let lanes = self.precision.lanes();
        let ebytes = self.precision.bytes();
        let banks_per_cube = self.device.hbm.total_banks();
        let program = programs::compiled(&programs::spmm_stream(
            self.precision,
            &self.mul.to_string(),
            &self.acc.to_string(),
        ))?;
        let identity = self.acc.identity();

        let mut host = self.device.make_host();
        let mut run = KernelRun::default();
        let mut ys = vec![vec![identity; a.nrows()]; width];

        for wave in 0..waves {
            // Broadcast this wave's gathered input slices — one slice per
            // fused vector per bank (the matrix-side traversal is shared;
            // the vector-side traffic still scales with the width).
            let bcast: usize = per_bank
                .iter()
                .filter_map(|q| q.get(wave))
                .map(|s| s.input_len() * ebytes * width)
                .sum();
            host.broadcast(bcast);
            mode_cycle(&mut host, program.len());

            let mut wave_seconds = 0.0f64;
            let mut wave_cycles = 0u64;
            let mut wave_wall = psyncpim_core::CycleBreakdown::default();
            let mut collect_bytes = 0usize;
            for cube in 0..self.device.cubes {
                let lo = cube * banks_per_cube;
                let max_nnz = (0..banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave))
                    .map(|s| s.nnz())
                    .max()
                    .unwrap_or(0);
                if max_nnz == 0 {
                    continue;
                }
                // The block-diagonal stream is `width` copies of the
                // longest bank stream; the sentinel pair still closes it.
                let pairs = triple_pairs(width * max_nnz, lanes);
                let max_in = (0..banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave))
                    .map(|s| s.input_len())
                    .max()
                    .unwrap_or(1)
                    .max(1);
                let max_out = (0..banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave))
                    .map(|s| s.output_len())
                    .max()
                    .unwrap_or(1)
                    .max(1);

                let mut engine = self.device.make_engine();
                let mut bindings: Vec<Option<Binding>> = Vec::new();
                for b in 0..banks_per_cube {
                    let sub = per_bank[lo + b].get(wave);
                    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
                    let mut xg = vec![0.0; width * max_in];
                    if let Some(s) = sub {
                        entries.reserve(width * s.entries.len());
                        for (v, x) in xs.iter().enumerate() {
                            let (dr, dc) = ((v * max_out) as u32, (v * max_in) as u32);
                            entries
                                .extend(s.entries.iter().map(|e| (e.row + dr, e.col + dc, e.val)));
                            for (i, &c) in s.cols.iter().enumerate() {
                                xg[v * max_in + i] = self.precision.quantize(x[c as usize]);
                            }
                        }
                    }
                    let triples = pack_triples(&entries, lanes, pairs, self.precision);
                    let mem = engine.mem_mut(b);
                    let rt = mem.alloc("triples", ebytes, triples);
                    let rx = mem.alloc("x", ebytes, xg);
                    let ry = mem.alloc("y", ebytes, vec![identity; width * max_out]);
                    if b == 0 {
                        bindings = batched_sparse_bindings(rt, rx, ry, lanes);
                    }
                }
                engine.load_verified(&program, bindings.clone())?;
                let report = engine.run()?;
                wave_seconds = wave_seconds.max(report.seconds);
                if report.dram_cycles > wave_cycles {
                    wave_cycles = report.dram_cycles;
                    if let Some(m) = &report.metrics {
                        wave_wall = m.wall();
                    }
                }
                run.absorb_engine(&report);

                // Host accumulates the touched rows of every fused vector.
                let y_region = bindings[10].expect("output bound").region;
                for b in 0..banks_per_cube {
                    if let Some(s) = per_bank[lo + b].get(wave) {
                        let data = engine.mem(b).region(y_region).data();
                        let mut touched: Vec<u32> = s.entries.iter().map(|e| e.row).collect();
                        touched.sort_unstable();
                        touched.dedup();
                        for (v, y) in ys.iter_mut().enumerate() {
                            for &lr in &touched {
                                let g = s.row_lo + lr as usize;
                                y[g] = self.acc.apply(data[v * max_out + lr as usize], y[g]);
                            }
                        }
                        collect_bytes += width * touched.len() * (ebytes + 4);
                    }
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
            stats,
            waves,
            width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::gen;

    fn validated(channels: usize) -> PimDevice {
        let mut d = PimDevice::tiny(channels);
        d.validate = true;
        d
    }

    fn vectors(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
        (0..width)
            .map(|v| gen::dense_vector(n, seed + v as u64))
            .collect()
    }

    #[test]
    fn width_one_is_bit_identical_to_spmv() {
        // The degenerate fusion must reproduce the SpMV data path exactly:
        // same result bits AND the same accounting (cycles, commands,
        // bytes) — there is no "SpMM tax" on an unfused job.
        for (a, seed) in [
            (gen::rmat(96, 5, 11), 3u64),
            (gen::banded_fem(700, 10, 5, 7), 5),
            (gen::web_hubs(128, 512, 9), 8),
        ] {
            let x = gen::dense_vector(a.ncols(), seed);
            let spmm = SpmmPim::new(validated(2), Precision::Fp64);
            let m = spmm.run(&a, std::slice::from_ref(&x)).unwrap();
            let s = spmm.as_spmv().run(&a, &x).unwrap();
            let bits =
                |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect::<Vec<_>>() };
            assert_eq!(bits(&m.ys[0]), bits(&s.y));
            assert_eq!(m.run.dram_cycles, s.run.dram_cycles);
            assert_eq!(m.run.commands, s.run.commands);
            assert_eq!(m.run.external_bytes, s.run.external_bytes);
            assert_eq!(m.run.kernel_s.to_bits(), s.run.kernel_s.to_bits());
            assert_eq!(m.run.host_s.to_bits(), s.run.host_s.to_bits());
            assert_eq!(m.waves, s.waves);
            assert_eq!(m.run.violations, 0);
        }
    }

    #[test]
    fn fused_vectors_match_solo_spmv_bitwise() {
        // The scheduler's fusion contract: every fused vector's result is
        // bit-identical to the per-job SpMV it replaced. The expansion
        // keeps per-vector entry order and disjoint (v, row) slots, so the
        // accumulation order per output element is exactly the solo order.
        for (a, w) in [
            (gen::rmat(96, 5, 11), 4usize),
            (gen::banded_fem(500, 8, 4, 3), 3),
            (gen::web_hubs(120, 480, 2), MAX_SPMM_WIDTH),
        ] {
            let xs = vectors(a.ncols(), w, 17);
            let spmm = SpmmPim::new(validated(2), Precision::Fp64);
            let fused = spmm.run(&a, &xs).unwrap();
            assert_eq!(fused.width, w);
            assert_eq!(fused.run.violations, 0);
            let solo = spmm.as_spmv();
            for (v, x) in xs.iter().enumerate() {
                let want = solo.run(&a, x).unwrap().y;
                for (i, (g, s)) in fused.ys[v].iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        s.to_bits(),
                        "vector {v} row {i}: fused {g} vs solo {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn fusion_amortizes_fixed_costs() {
        // One fused pass must be cheaper than running the vectors one by
        // one: the matrix traversal is shared and the per-launch overheads
        // (mode switches, CRF programming, completion polls) are paid once
        // per wave instead of once per vector.
        let a = gen::rmat(128, 4, 21);
        let w = 8usize;
        let xs = vectors(a.ncols(), w, 5);
        let spmm = SpmmPim::new(PimDevice::tiny(2), Precision::Fp64);
        let fused = spmm.run(&a, &xs).unwrap().run.total_s();
        let solo: f64 = xs
            .iter()
            .map(|x| spmm.as_spmv().run(&a, x).unwrap().run.total_s())
            .sum();
        assert!(
            fused < solo,
            "fused {fused:.3e}s must beat {w} solo runs {solo:.3e}s"
        );
    }

    #[test]
    fn mixed_precision_matches_quantized_reference() {
        let a = gen::rmat(80, 3, 13);
        let xs = vectors(a.ncols(), 3, 29);
        for p in [Precision::Fp32, Precision::Int8] {
            let fused = SpmmPim::new(validated(2), p).run(&a, &xs).unwrap();
            let solo = SpmmPim::new(validated(2), p).as_spmv();
            for (v, x) in xs.iter().enumerate() {
                let want = solo.run(&a, x).unwrap().y;
                for (g, s) in fused.ys[v].iter().zip(&want) {
                    assert_eq!(g.to_bits(), s.to_bits(), "{p:?} vector {v}");
                }
            }
        }
    }

    #[test]
    fn semiring_spmm_matches_solo() {
        // Min-plus fusion (SSSP relaxation steps for several frontiers).
        let a = gen::rmat(64, 3, 31);
        let xs = vectors(a.ncols(), 2, 41);
        let spmm =
            SpmmPim::with_semiring(validated(1), Precision::Fp64, BinaryOp::Add, BinaryOp::Min);
        let fused = spmm.run(&a, &xs).unwrap();
        for (v, x) in xs.iter().enumerate() {
            let want = spmm.as_spmv().run(&a, x).unwrap().y;
            for (g, s) in fused.ys[v].iter().zip(&want) {
                assert_eq!(g.to_bits(), s.to_bits(), "vector {v}");
            }
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Coo::new(10, 10);
        let res = SpmmPim::new(PimDevice::tiny(2), Precision::Fp64)
            .run(&a, &vectors(10, 2, 1))
            .unwrap();
        assert_eq!(res.ys, vec![vec![0.0; 10]; 2]);
        assert_eq!(res.waves, 0);
    }

    #[test]
    #[should_panic(expected = "spmm width")]
    fn zero_width_is_rejected() {
        let a = Coo::new(4, 4);
        let _ = SpmmPim::new(PimDevice::tiny(1), Precision::Fp64).run(&a, &[]);
    }
}
