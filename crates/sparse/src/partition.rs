//! SpMV matrix distribution and compression across PIM banks (paper §V).
//!
//! The matrix is cut row-wise into strips whose height fits one DRAM row's
//! worth of output vector; within each strip, all-zero columns are removed
//! (*matrix compression*, Figure 6) before the strip is cut column-wise into
//! submatrices whose compacted width fits one DRAM row's worth of input
//! vector. Each submatrix is assigned to a bank; the host replicates the
//! needed input-vector slices over the external bus and accumulates partial
//! outputs, so compression directly reduces the external traffic that the
//! paper identifies as the SpMV bottleneck.
//!
//! Beyond the paper's fixed 1D row split, a [`PartitionScheme`] can first
//! cut the column range into blocks (SparseP's 2D variants): equally-wide
//! blocks ([`PartitionScheme::Grid2D`]) bound each bank's input-slice span,
//! while nnz-balanced variable-width blocks
//! ([`PartitionScheme::Balanced2D`]) even out column skew (hub columns)
//! before the per-strip compression and column cut run unchanged inside
//! each block.

use crate::{Coo, Entry, Precision};
use serde::{Deserialize, Serialize};

/// How submatrices are placed onto banks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistPolicy {
    /// Cyclic assignment in submatrix order (the paper's base policy: it
    /// favors low replication over evenness — see the `bcsstk32` discussion
    /// in §VII-B).
    #[default]
    RoundRobin,
    /// Greedy assignment to the currently least-loaded bank (an ablation).
    LeastLoaded,
}

/// How the matrix is cut into submatrices before placement.
///
/// All schemes share the row-strip outer cut (a strip's output must fit
/// one DRAM row) and the per-cell compression + column cut; they differ in
/// whether and how the *column* range is pre-blocked. Every scheme
/// therefore emits plain [`SubMatrix`] values and runs through the same
/// wave machinery and stream programs — the layout changes the cut, never
/// the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionScheme {
    /// The paper's 1D scheme: row strips, compressed columns chunked by
    /// row capacity. Column blocks = the whole column range.
    #[default]
    Row1D,
    /// 2D grid with `col_blocks` equally-wide column blocks (SparseP's
    /// equally-wide variant): bounds each cell's input-vector span, so
    /// banks gather from a localized slice of `x`.
    Grid2D {
        /// Number of equal-width column blocks (clamped to ≥ 1).
        col_blocks: usize,
    },
    /// 2D grid with `col_blocks` variable-width column blocks balancing
    /// non-zeros per block (SparseP's variable-sized variant): hub-heavy
    /// columns get narrow blocks, sparse ranges get wide ones.
    Balanced2D {
        /// Number of nnz-balanced column blocks (clamped to ≥ 1).
        col_blocks: usize,
    },
}

impl PartitionScheme {
    /// Number of column blocks this scheme cuts (the 2D "shard count").
    #[must_use]
    pub fn col_blocks(&self) -> usize {
        match *self {
            PartitionScheme::Row1D => 1,
            PartitionScheme::Grid2D { col_blocks } | PartitionScheme::Balanced2D { col_blocks } => {
                col_blocks.max(1)
            }
        }
    }

    /// Short label for reports (`1d`, `grid2d(k)`, `bal2d(k)`).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            PartitionScheme::Row1D => "1d".to_string(),
            PartitionScheme::Grid2D { col_blocks } => format!("grid2d({col_blocks})"),
            PartitionScheme::Balanced2D { col_blocks } => format!("bal2d({col_blocks})"),
        }
    }

    /// The half-open global column ranges this scheme cuts `a` into, in
    /// ascending order, covering `0..ncols` exactly. `Row1D` is the single
    /// full range; `Grid2D` cuts equal widths; `Balanced2D` places the
    /// boundaries so each block carries ≈ `nnz / col_blocks` non-zeros.
    #[must_use]
    pub fn column_bounds(&self, a: &Coo) -> Vec<(u32, u32)> {
        let ncols = a.ncols();
        if ncols == 0 {
            return vec![(0, 0)];
        }
        let k = self.col_blocks().min(ncols).max(1);
        match *self {
            PartitionScheme::Row1D => vec![(0, ncols as u32)],
            PartitionScheme::Grid2D { .. } => {
                let width = ncols.div_ceil(k);
                (0..k)
                    .map(|b| ((b * width) as u32, ((b + 1) * width).min(ncols) as u32))
                    .filter(|(lo, hi)| lo < hi)
                    .collect()
            }
            PartitionScheme::Balanced2D { .. } => {
                let counts = a.col_counts();
                let total: usize = counts.iter().sum();
                if total == 0 {
                    return vec![(0, ncols as u32)];
                }
                // Greedy prefix cut: close a block once it holds its fair
                // share of the remaining nnz, leaving one column per
                // remaining block so every block is non-empty in columns.
                let mut bounds = Vec::with_capacity(k);
                let mut lo = 0usize;
                let mut carried = 0usize;
                let mut remaining = total;
                for b in 0..k {
                    let blocks_left = k - b;
                    let target = remaining.div_ceil(blocks_left);
                    let mut hi = lo;
                    let mut acc = 0usize;
                    while hi < ncols {
                        // Keep at least one column per remaining block.
                        if ncols - (hi + 1) < blocks_left - 1 {
                            break;
                        }
                        acc += counts[hi];
                        hi += 1;
                        if acc >= target && b + 1 < k {
                            break;
                        }
                    }
                    if b + 1 == k {
                        hi = ncols;
                    }
                    bounds.push((lo as u32, hi as u32));
                    carried += acc;
                    remaining = total - carried;
                    lo = hi;
                }
                bounds.retain(|(l, h)| l < h);
                bounds
            }
        }
    }
}

/// Partitioning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Number of PIM banks (processing units); the paper's cube has 256.
    pub num_banks: usize,
    /// DRAM row size in bytes per bank (HBM2: 1024).
    pub row_bytes: usize,
    /// Element precision — smaller values pack larger submatrix dimensions
    /// into one row, cutting partition count and external traffic (§V).
    pub precision: Precision,
    /// Placement policy.
    pub policy: DistPolicy,
    /// Matrix compression (Figure 6): drop all-zero columns per row strip
    /// before the column cut. Disabling it reproduces the naive
    /// distribution the paper compares against (ablation).
    pub compress: bool,
    /// Partitioning scheme (1D row split or a 2D column-blocked variant).
    pub scheme: PartitionScheme,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            num_banks: 256,
            row_bytes: 1024,
            precision: Precision::Fp64,
            policy: DistPolicy::RoundRobin,
            compress: true,
            scheme: PartitionScheme::Row1D,
        }
    }
}

impl PartitionConfig {
    /// Maximum submatrix dimension: one DRAM row of vector elements.
    #[must_use]
    pub fn max_dim(&self) -> usize {
        (self.row_bytes / self.precision.bytes()).max(1)
    }
}

/// One submatrix mapped to one bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubMatrix {
    /// Bank (processing unit) index.
    pub bank: usize,
    /// Global row range covered (half-open).
    pub row_lo: usize,
    /// Global row range end.
    pub row_hi: usize,
    /// Global column ids kept after compression, in ascending order; the
    /// local column index of `entries` indexes into this list.
    pub cols: Vec<u32>,
    /// Entries with *local* (row - row_lo, position-in-cols) indices.
    pub entries: Vec<Entry>,
}

impl SubMatrix {
    /// Number of non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Input-vector elements this bank needs replicated.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.cols.len()
    }

    /// Output rows this bank produces partial sums for.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.row_hi - self.row_lo
    }
}

/// Aggregate statistics of a partition — the quantities §V reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Total submatrices produced.
    pub num_submatrices: usize,
    /// Banks with at least one submatrix.
    pub banks_used: usize,
    /// Total input-vector elements replicated across banks.
    pub input_replication: usize,
    /// Max non-zeros on any single bank (lockstep completion is bounded by
    /// the heaviest bank).
    pub max_bank_nnz: usize,
    /// Mean non-zeros per *used* bank.
    pub avg_bank_nnz: f64,
}

impl PartitionStats {
    /// Load imbalance: `max_bank_nnz / avg_bank_nnz` (1.0 = perfect).
    ///
    /// An empty partition (no used banks — e.g. every submatrix landed
    /// empty after a 2D cut) has no meaningful ratio; it reports 1.0
    /// instead of dividing by zero. The negated comparison also catches a
    /// NaN average, so a corrupted stats value can never propagate NaN
    /// into placement decisions.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.avg_bank_nnz.is_nan() || self.avg_bank_nnz <= 0.0 {
            return 1.0;
        }
        self.max_bank_nnz as f64 / self.avg_bank_nnz
    }
}

/// The result of distributing a matrix across PIM banks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankPartition {
    config: PartitionConfig,
    nrows: usize,
    ncols: usize,
    submatrices: Vec<SubMatrix>,
}

impl BankPartition {
    /// Partition `a` according to `config` (row-strip, column-block by the
    /// scheme, compress, col-cut, place). With [`PartitionScheme::Row1D`]
    /// the single full-width column block reproduces the paper's 1D cut
    /// exactly.
    #[must_use]
    pub fn build(a: &Coo, config: PartitionConfig) -> Self {
        let max_dim = config.max_dim();
        let col_bounds = config.scheme.column_bounds(a);
        let mut subs: Vec<SubMatrix> = Vec::new();

        // Row-major order so strips are contiguous entry runs. The sort is
        // stable, and linear on entries that already arrive row-major.
        let mut sorted = a.clone();
        sorted.sort_row_major();
        let entries = sorted.entries();

        let mut cut = StripCut::new(a.ncols());
        let mut start = 0usize;
        for row_lo in (0..a.nrows()).step_by(max_dim) {
            let row_hi = (row_lo + max_dim).min(a.nrows());
            let len = entries[start..].partition_point(|e| (e.row as usize) < row_hi);
            let strip = &entries[start..start + len];
            start += len;
            cut.cut(strip, row_lo..row_hi, &col_bounds, &config, &mut subs);
        }
        Self::place(a, config, subs)
    }

    /// Assign each submatrix of `a`'s cut a bank by `config`'s policy.
    fn place(a: &Coo, config: PartitionConfig, mut subs: Vec<SubMatrix>) -> Self {
        match config.policy {
            DistPolicy::RoundRobin => {
                for (i, s) in subs.iter_mut().enumerate() {
                    s.bank = i % config.num_banks;
                }
            }
            DistPolicy::LeastLoaded => {
                let mut load = vec![0usize; config.num_banks];
                // Place heaviest first for a better greedy bound.
                let mut order: Vec<usize> = (0..subs.len()).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(subs[i].nnz()));
                for i in order {
                    let bank = (0..config.num_banks)
                        .min_by_key(|&b| load[b])
                        .expect("num_banks > 0");
                    subs[i].bank = bank;
                    load[bank] += subs[i].nnz();
                }
            }
        }

        BankPartition {
            config,
            nrows: a.nrows(),
            ncols: a.ncols(),
            submatrices: subs,
        }
    }

    /// The configuration used.
    #[must_use]
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// All submatrices.
    #[must_use]
    pub fn submatrices(&self) -> &[SubMatrix] {
        &self.submatrices
    }

    /// Non-zeros per bank.
    #[must_use]
    pub fn bank_nnz(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.config.num_banks];
        for s in &self.submatrices {
            load[s.bank] += s.nnz();
        }
        load
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> PartitionStats {
        let loads = self.bank_nnz();
        let banks_used = loads.iter().filter(|&&l| l > 0).count();
        let max_bank_nnz = loads.iter().copied().max().unwrap_or(0);
        let total_nnz: usize = loads.iter().sum();
        let input_replication: usize = self.submatrices.iter().map(SubMatrix::input_len).sum();
        PartitionStats {
            num_submatrices: self.submatrices.len(),
            banks_used,
            input_replication,
            max_bank_nnz,
            avg_bank_nnz: if banks_used == 0 {
                0.0
            } else {
                total_nnz as f64 / banks_used as f64
            },
        }
    }

    /// Total non-zeros across all submatrices (must equal the source nnz —
    /// conservation invariant).
    #[must_use]
    pub fn total_nnz(&self) -> usize {
        self.submatrices.iter().map(SubMatrix::nnz).sum()
    }

    /// Reference distributed SpMV: every bank computes its submatrix with a
    /// gathered input slice; the host accumulates partial outputs. Must
    /// equal [`Coo::spmv`] — this is the correctness model the PIM engine is
    /// checked against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    #[must_use]
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "partitioned spmv length mismatch");
        let mut y = vec![0.0; self.nrows];
        for s in &self.submatrices {
            // Host replicates exactly the compacted columns.
            let gathered: Vec<f64> = s.cols.iter().map(|&c| x[c as usize]).collect();
            for e in &s.entries {
                y[s.row_lo + e.row as usize] += e.val * gathered[e.col as usize];
            }
        }
        y
    }
}

/// Per-column scratch for cutting a matrix strip by strip: each strip
/// takes one sweep over its entries to collect its distinct columns and one
/// to deal the entries to their chunks, with no sort or search over the
/// entries.
struct StripCut {
    /// Per column: the last strip (counted from 1) with an entry in it, so
    /// the per-column arrays need no reset between strips.
    stamp: Vec<u32>,
    /// Per column of the current strip: its entry count.
    count: Vec<u32>,
    /// Per column of the current strip: its chunk, counted from the
    /// strip's first, and its local index in that chunk.
    index: Vec<(u32, u32)>,
    /// The current strip's distinct columns.
    cols: Vec<u32>,
    /// The current strip's chunk sizes.
    sizes: Vec<usize>,
    /// Strips cut so far: the current strip's stamp.
    strips: u32,
}

impl StripCut {
    fn new(ncols: usize) -> Self {
        StripCut {
            stamp: vec![0; ncols],
            count: vec![0; ncols],
            index: vec![(0, 0); ncols],
            cols: Vec::new(),
            sizes: Vec::new(),
            strips: 0,
        }
    }

    /// Append the chunks of one row strip to `subs`: `strip` holds its
    /// entries, row-major, for rows `rows`. Each column block's columns
    /// (with compression, only those the strip has entries in) are cut
    /// into runs of `max_dim`, and every run holding an entry becomes a
    /// chunk, its entries in strip order.
    fn cut(
        &mut self,
        strip: &[Entry],
        rows: std::ops::Range<usize>,
        col_bounds: &[(u32, u32)],
        config: &PartitionConfig,
        subs: &mut Vec<SubMatrix>,
    ) {
        let max_dim = config.max_dim();
        self.strips += 1;
        self.cols.clear();
        for e in strip {
            let c = e.col as usize;
            if self.stamp[c] != self.strips {
                self.stamp[c] = self.strips;
                self.count[c] = 0;
                self.cols.push(e.col);
            }
            self.count[c] += 1;
        }
        self.cols.sort_unstable();

        // Walk the distinct columns block by block. Matrix compression
        // keeps only the columns with an entry in the cell; without it, a
        // cell spans its block's full column range (the naive distribution
        // of Figure 6's left side). A column's run is its position among
        // the cell's columns divided by `max_dim`.
        let first = subs.len();
        self.sizes.clear();
        let (mut block, mut block_start) = (0, 0);
        let mut current = None;
        for (i, &c) in self.cols.iter().enumerate() {
            while c >= col_bounds[block].1 {
                block += 1;
                block_start = i;
            }
            let (lo, hi) = col_bounds[block];
            let pos = if config.compress {
                i - block_start
            } else {
                (c - lo) as usize
            };
            let run = pos / max_dim;
            if current != Some((block, run)) {
                current = Some((block, run));
                let cols = if config.compress {
                    let end = (block_start + (run + 1) * max_dim).min(self.cols.len());
                    let run_cols = self.cols[i..end].iter().copied();
                    run_cols.take_while(|&c| c < hi).collect()
                } else {
                    let lo = lo as usize + run * max_dim;
                    (lo as u32..(lo + max_dim).min(hi as usize) as u32).collect()
                };
                subs.push(SubMatrix {
                    bank: 0, // placed by the caller
                    row_lo: rows.start,
                    row_hi: rows.end,
                    cols,
                    entries: Vec::new(),
                });
                self.sizes.push(0);
            }
            let chunk = self.sizes.len() - 1;
            self.sizes[chunk] += self.count[c as usize] as usize;
            self.index[c as usize] = (chunk as u32, (pos % max_dim) as u32);
        }

        for (s, &size) in subs[first..].iter_mut().zip(&self.sizes) {
            s.entries.reserve_exact(size);
        }
        for e in strip {
            let (chunk, local) = self.index[e.col as usize];
            let row = e.row - rows.start as u32;
            subs[first + chunk as usize]
                .entries
                .push(Entry::new(row, local, e.val));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The cut `BankPartition::build` made before `StripCut`: per (strip ×
    /// column block) cell, collect, sort and dedup the columns, then
    /// rescan the strip once per chunk and binary-search each entry's
    /// local column.
    fn reference(a: &Coo, config: PartitionConfig) -> BankPartition {
        let max_dim = config.max_dim();
        let col_bounds = config.scheme.column_bounds(a);
        let mut subs: Vec<SubMatrix> = Vec::new();
        let mut sorted = a.clone();
        sorted.sort_row_major();
        let entries = sorted.entries();
        let mut strip_start_idx = 0usize;
        let mut row_lo = 0usize;
        while row_lo < a.nrows() {
            let row_hi = (row_lo + max_dim).min(a.nrows());
            let mut idx = strip_start_idx;
            while idx < entries.len() && (entries[idx].row as usize) < row_hi {
                idx += 1;
            }
            let strip = &entries[strip_start_idx..idx];
            strip_start_idx = idx;
            for &(block_lo, block_hi) in &col_bounds {
                if strip.is_empty() {
                    continue;
                }
                let cols: Vec<u32> = if config.compress {
                    let mut c: Vec<u32> = strip
                        .iter()
                        .map(|e| e.col)
                        .filter(|&c| c >= block_lo && c < block_hi)
                        .collect();
                    c.sort_unstable();
                    c.dedup();
                    c
                } else {
                    (block_lo..block_hi).collect()
                };
                for chunk in cols.chunks(max_dim) {
                    let lo_col = chunk[0];
                    let hi_col = *chunk.last().unwrap();
                    let local: Vec<Entry> = strip
                        .iter()
                        .filter(|e| e.col >= lo_col && e.col <= hi_col)
                        .map(|e| {
                            let local_col = chunk.binary_search(&e.col).unwrap();
                            Entry::new(e.row - row_lo as u32, local_col as u32, e.val)
                        })
                        .collect();
                    if !local.is_empty() {
                        subs.push(SubMatrix {
                            bank: 0,
                            row_lo,
                            row_hi,
                            cols: chunk.to_vec(),
                            entries: local,
                        });
                    }
                }
            }
            row_lo = row_hi;
        }
        BankPartition::place(a, config, subs)
    }

    #[test]
    fn one_pass_cut_matches_the_reference_cut() {
        let mut sparse = Coo::new(90, 70); // empty rows and columns
        for (r, c) in [(3, 5), (3, 60), (40, 5), (41, 33), (89, 69), (88, 0)] {
            sparse.push(r, c, f64::from(r) + 0.5);
        }
        let mut duplicates = gen::rmat(64, 3, 4);
        for e in gen::rmat(64, 3, 4).iter().step_by(3) {
            duplicates.push(e.row, e.col, -e.val);
        }
        let mut col_major = gen::banded_fem(150, 9, 4, 2);
        col_major.sort_col_major();
        let matrices = [
            gen::rmat(300, 5, 1),
            gen::web_hubs(257, 3000, 3),
            gen::banded_fem(400, 12, 6, 7),
            sparse,
            duplicates,
            col_major,
            gen::erdos_renyi(130, 517, 1800, 6), // not square
        ];
        let schemes = [
            PartitionScheme::Row1D,
            PartitionScheme::Grid2D { col_blocks: 2 },
            PartitionScheme::Grid2D { col_blocks: 7 },
            PartitionScheme::Balanced2D { col_blocks: 3 },
            PartitionScheme::Balanced2D { col_blocks: 8 },
        ];
        for (m, a) in matrices.iter().enumerate() {
            for scheme in schemes {
                for policy in [DistPolicy::RoundRobin, DistPolicy::LeastLoaded] {
                    for compress in [true, false] {
                        for precision in [Precision::Fp64, Precision::Int8] {
                            for row_bytes in [1024, 64] {
                                let config = PartitionConfig {
                                    num_banks: 16,
                                    row_bytes,
                                    precision,
                                    policy,
                                    compress,
                                    scheme,
                                };
                                assert!(
                                    BankPartition::build(a, config) == reference(a, config),
                                    "matrix {m}: {config:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn cfg(num_banks: usize, row_bytes: usize, precision: Precision) -> PartitionConfig {
        PartitionConfig {
            num_banks,
            row_bytes,
            precision,
            policy: DistPolicy::RoundRobin,
            compress: true,
            scheme: PartitionScheme::Row1D,
        }
    }

    #[test]
    fn max_dim_depends_on_precision() {
        assert_eq!(cfg(4, 1024, Precision::Fp64).max_dim(), 128);
        assert_eq!(cfg(4, 1024, Precision::Int8).max_dim(), 1024);
    }

    #[test]
    fn nnz_is_conserved() {
        let a = gen::rmat(300, 5, 1);
        let p = BankPartition::build(&a, cfg(8, 256, Precision::Fp64));
        assert_eq!(p.total_nnz(), a.nnz());
    }

    #[test]
    fn partitioned_spmv_matches_reference() {
        let a = gen::rmat(200, 6, 2);
        let x = gen::dense_vector(200, 3);
        let want = a.spmv(&x);
        for rb in [128usize, 256, 1024] {
            let p = BankPartition::build(&a, cfg(16, rb, Precision::Fp64));
            let got = p.spmv(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "row_bytes={rb}");
            }
        }
    }

    #[test]
    fn compression_removes_zero_columns() {
        // A matrix with one dense column: every strip keeps just that column.
        let mut a = Coo::new(64, 64);
        for r in 0..64 {
            a.push(r, 7, 1.0);
        }
        let p = BankPartition::build(&a, cfg(4, 64, Precision::Fp64)); // max_dim 8
        let stats = p.stats();
        // 8 row strips, each compressed to exactly 1 input column.
        assert_eq!(stats.num_submatrices, 8);
        assert_eq!(stats.input_replication, 8);
        // Without compression this would replicate 8 * 64 columns.
    }

    #[test]
    fn submatrix_dims_respect_row_capacity() {
        let a = gen::rmat(500, 4, 4);
        let config = cfg(8, 128, Precision::Fp64); // max_dim 16
        let p = BankPartition::build(&a, config);
        for s in p.submatrices() {
            assert!(s.output_len() <= 16);
            assert!(s.input_len() <= 16);
        }
    }

    #[test]
    fn least_loaded_beats_round_robin_imbalance() {
        let a = gen::web_hubs(512, 6000, 1); // heavily skewed
        let rr = BankPartition::build(&a, cfg(16, 128, Precision::Fp64));
        let mut ll_cfg = cfg(16, 128, Precision::Fp64);
        ll_cfg.policy = DistPolicy::LeastLoaded;
        let ll = BankPartition::build(&a, ll_cfg);
        assert!(
            ll.stats().imbalance() <= rr.stats().imbalance() + 1e-9,
            "LL {} vs RR {}",
            ll.stats().imbalance(),
            rr.stats().imbalance()
        );
    }

    #[test]
    fn smaller_precision_reduces_external_traffic() {
        let a = gen::rmat(1000, 6, 5);
        let f64p = BankPartition::build(&a, cfg(32, 1024, Precision::Fp64));
        let i8p = BankPartition::build(&a, cfg(32, 1024, Precision::Int8));
        // The broadcast half of the traffic: replicated input bytes.
        let broadcast = |p: &BankPartition, precision: Precision| {
            p.stats().input_replication * precision.bytes()
        };
        let (int8, fp64) = (
            broadcast(&i8p, Precision::Int8),
            broadcast(&f64p, Precision::Fp64),
        );
        assert!(int8 < fp64, "INT8 {int8} vs FP64 {fp64}");
        // Larger submatrices => fewer partitions.
        assert!(i8p.stats().num_submatrices <= f64p.stats().num_submatrices);
    }

    #[test]
    fn empty_matrix_partitions_cleanly() {
        let a = Coo::new(100, 100);
        let p = BankPartition::build(&a, PartitionConfig::default());
        assert_eq!(p.total_nnz(), 0);
        assert_eq!(p.stats().banks_used, 0);
        assert_eq!(p.spmv(&vec![0.0; 100]), vec![0.0; 100]);
    }

    #[test]
    fn disabling_compression_inflates_replication() {
        let a = gen::rmat(600, 5, 8);
        let mut on = cfg(16, 256, Precision::Fp64);
        on.compress = true;
        let mut off = on;
        off.compress = false;
        let pon = BankPartition::build(&a, on);
        let poff = BankPartition::build(&a, off);
        // Same math, very different external traffic.
        let x = gen::dense_vector(600, 1);
        let yon = pon.spmv(&x);
        let yoff = poff.spmv(&x);
        for (a_, b_) in yon.iter().zip(&yoff) {
            assert!((a_ - b_).abs() < 1e-9);
        }
        assert!(
            poff.stats().input_replication > 2 * pon.stats().input_replication,
            "naive {} vs compressed {}",
            poff.stats().input_replication,
            pon.stats().input_replication
        );
    }

    #[test]
    fn stats_imbalance_on_empty_is_one() {
        assert_eq!(PartitionStats::default().imbalance(), 1.0);
    }

    #[test]
    fn stats_imbalance_guards_nan_and_zero_averages() {
        // Regression: an empty-bank partition reports avg_bank_nnz 0.0 —
        // and a corrupted average (NaN from a 0/0 elsewhere) must not
        // propagate. Both degenerate cases pin imbalance at 1.0.
        let mut s = PartitionStats {
            max_bank_nnz: 7,
            avg_bank_nnz: 0.0,
            ..PartitionStats::default()
        };
        assert_eq!(s.imbalance(), 1.0);
        s.avg_bank_nnz = f64::NAN;
        assert_eq!(s.imbalance(), 1.0);
        s.avg_bank_nnz = -1.0;
        assert_eq!(s.imbalance(), 1.0);
        s.avg_bank_nnz = 3.5;
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn row1d_default_scheme_is_unchanged() {
        // The scheme extension must not perturb the paper's 1D cut: a
        // Row1D build is bit-identical to the pre-scheme behaviour
        // (single full-width column block).
        let a = gen::rmat(300, 5, 1);
        let p = BankPartition::build(&a, cfg(8, 256, Precision::Fp64));
        assert_eq!(
            PartitionScheme::Row1D.column_bounds(&a),
            vec![(0, a.ncols() as u32)]
        );
        assert_eq!(p.total_nnz(), a.nnz());
    }

    #[test]
    fn column_bounds_cover_and_partition_the_range() {
        let a = gen::web_hubs(257, 2000, 3); // non-power-of-two, skewed
        for scheme in [
            PartitionScheme::Grid2D { col_blocks: 4 },
            PartitionScheme::Grid2D { col_blocks: 7 },
            PartitionScheme::Balanced2D { col_blocks: 4 },
            PartitionScheme::Balanced2D { col_blocks: 7 },
        ] {
            let bounds = scheme.column_bounds(&a);
            assert_eq!(bounds.len(), scheme.col_blocks(), "{}", scheme.label());
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds.last().unwrap().1 as usize, a.ncols());
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "blocks must tile: {}", scheme.label());
                assert!(w[0].0 < w[0].1);
            }
        }
    }

    #[test]
    fn balanced2d_evens_column_skew() {
        // Hub columns concentrate nnz at low indices; equal-width blocks
        // leave the first block carrying most of the matrix while the
        // nnz-balanced cut keeps every block near the fair share.
        let a = gen::web_hubs(512, 6000, 1);
        let spread = |scheme: PartitionScheme| {
            let bounds = scheme.column_bounds(&a);
            let counts = a.col_counts();
            let loads: Vec<usize> = bounds
                .iter()
                .map(|&(lo, hi)| (lo as usize..hi as usize).map(|c| counts[c]).sum())
                .collect();
            *loads.iter().max().unwrap() as f64 / *loads.iter().min().unwrap().max(&1) as f64
        };
        let grid = spread(PartitionScheme::Grid2D { col_blocks: 4 });
        let bal = spread(PartitionScheme::Balanced2D { col_blocks: 4 });
        assert!(bal < grid, "balanced {bal:.2} must beat grid {grid:.2}");
        assert!(bal < 2.0, "balanced spread {bal:.2}");
    }

    #[test]
    fn two_d_schemes_conserve_nnz_and_match_reference() {
        let a = gen::rmat(300, 5, 9);
        let x = gen::dense_vector(300, 4);
        let want = a.spmv(&x);
        for scheme in [
            PartitionScheme::Grid2D { col_blocks: 3 },
            PartitionScheme::Balanced2D { col_blocks: 5 },
        ] {
            let mut c = cfg(8, 256, Precision::Fp64);
            c.scheme = scheme;
            let p = BankPartition::build(&a, c);
            assert_eq!(p.total_nnz(), a.nnz(), "{}", scheme.label());
            let got = p.spmv(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "{}", scheme.label());
            }
            let max_dim = c.max_dim();
            for s in p.submatrices() {
                assert!(s.output_len() <= max_dim);
                assert!(s.input_len() <= max_dim);
            }
        }
    }

    #[test]
    fn two_d_without_compression_spans_block_ranges_only() {
        // Naive (uncompressed) 2D cells span their column block, not the
        // whole matrix — the 2D cut itself is a coarse compression.
        let a = gen::rmat(128, 4, 2);
        let mut c = cfg(8, 1024, Precision::Fp64);
        c.compress = false;
        c.scheme = PartitionScheme::Grid2D { col_blocks: 4 };
        let p = BankPartition::build(&a, c);
        let width = a.ncols().div_ceil(4);
        for s in p.submatrices() {
            assert!(s.cols.len() <= width);
        }
        let x = gen::dense_vector(128, 7);
        let want = a.spmv(&x);
        for (g, w) in p.spmv(&x).iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }
}
