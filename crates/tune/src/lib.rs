//! Format & partitioning autotuner.
//!
//! SparseP's central finding (PAPERS.md) is that no single (format,
//! partitioning) wins across matrices on real PIM: row-balanced 1D is
//! right for even matrices, nnz-balanced placement for skewed ones, 2D
//! column blocking for hub-dominated ones, blocked formats for locally
//! dense ones. The paper under reproduction fixes one layout (COO
//! entries, 1D row strips, round-robin); ROADMAP item 3 calls for the
//! tuner that picks per matrix instead.
//!
//! The decision procedure is two-stage (DESIGN.md §17):
//!
//! 1. **Rule shortlist** from O(nnz) structural statistics
//!    ([`psim_sparse::MatrixStats`], [`psim_sparse::blocked::block_fill_ratio`],
//!    column skew): each triggered rule adds candidate [`Layout`]s and a
//!    human-readable reason. The baseline layout is always a candidate, so
//!    the tuner can never do worse than the paper's fixed choice *by its
//!    own estimate*.
//! 2. **Analytical scoring**: every candidate is costed by
//!    [`psim_kernels::CostModel::spmv_layout`] — an O(nnz) model of the
//!    kernels' own partition walk — and the lowest predicted cycle count
//!    wins; storage bytes break ties, shortlist order breaks exact ties
//!    (keeping decisions deterministic).
//!
//! The tuner never runs the cycle engine: tuning a matrix costs a few
//! partition walks, which is why the scheduler can afford to tune every
//! SpMV matrix once, when its first job is planned. [`fidelity`] checks
//! against the cycle engine that the model's ranking, and so the tuner's
//! pick, holds up.

pub mod fidelity;

use psim_kernels::{CostModel, PimDevice};
use psim_sparse::blocked::block_fill_ratio;
use psim_sparse::partition::{DistPolicy, PartitionScheme};
use psim_sparse::{Coo, Layout, MatrixFormat, MatrixStats, Precision};
use serde::Serialize;

/// The cheap structural features a decision is made from.
#[derive(Debug, Clone, Serialize)]
pub struct TuneFeatures {
    /// Full structural summary (row skew, bandwidth, density, ...).
    pub stats: MatrixStats,
    /// Column-length skew: `max / mean` over non-empty columns.
    pub col_skew: f64,
    /// Block-fill ratio at block size 4.
    pub fill4: f64,
    /// Block-fill ratio at block size 8.
    pub fill8: f64,
}

impl TuneFeatures {
    /// Analyze `a` (every feature is O(nnz)).
    #[must_use]
    pub fn analyze(a: &Coo) -> TuneFeatures {
        let counts = a.col_counts();
        let used = counts.iter().filter(|&&c| c > 0).count().max(1);
        let mean = a.nnz() as f64 / used as f64;
        let max = counts.iter().copied().max().unwrap_or(0);
        TuneFeatures {
            stats: MatrixStats::analyze(a),
            col_skew: if mean > 0.0 { max as f64 / mean } else { 1.0 },
            fill4: block_fill_ratio(a, 4),
            fill8: block_fill_ratio(a, 8),
        }
    }
}

/// One scored candidate of a decision.
#[derive(Debug, Clone, Serialize)]
pub struct CandidateScore {
    /// The layout.
    pub layout: Layout,
    /// Short label (`format/scheme/policy`).
    pub label: String,
    /// Predicted DRAM cycles ([`CostModel::spmv_layout`]).
    pub cycles: u64,
    /// Host storage footprint of the matrix in this format.
    pub storage_bytes: usize,
}

/// The tuner's verdict for one matrix.
#[derive(Debug, Clone, Serialize)]
pub struct TuneDecision {
    /// The winning layout.
    pub choice: Layout,
    /// Its label (`format/scheme/policy`).
    pub label: String,
    /// Predicted cycles of the winner.
    pub est_cycles: u64,
    /// Recommended executor shard count (power of two, capacity-driven).
    pub shards: usize,
    /// The features the shortlist was built from.
    pub features: TuneFeatures,
    /// Every rule that fired, in order.
    pub reasons: Vec<String>,
    /// Every scored candidate, best first.
    pub candidates: Vec<CandidateScore>,
}

/// The autotuner: rule shortlist + analytical scoring for one device.
#[derive(Debug, Clone)]
pub struct Autotuner {
    model: CostModel,
    total_banks: usize,
}

/// Rule thresholds. Calibrated on the ablation grid (see [`fidelity`]):
/// chosen so each rule fires on the shape family it targets and stays
/// quiet on the benchmark suite's even matrices.
const SKEW_THRESHOLD: f64 = 3.0;
const FILL_THRESHOLD: f64 = 0.5;
const HUB_COL_THRESHOLD: f64 = 4.0;

impl Autotuner {
    /// A tuner for `device` (reads its timing and geometry only).
    #[must_use]
    pub fn new(device: &PimDevice) -> Autotuner {
        Autotuner {
            model: CostModel::new(device),
            total_banks: device.total_banks(),
        }
    }

    /// The underlying analytical model.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Decide a layout for `a` at `precision`.
    #[must_use]
    pub fn decide(&self, a: &Coo, precision: Precision) -> TuneDecision {
        let features = TuneFeatures::analyze(a);
        let (candidates, reasons) = self.shortlist(&features);

        let mut scored: Vec<CandidateScore> = candidates
            .into_iter()
            .map(|layout| CandidateScore {
                layout,
                label: layout.label(),
                cycles: self.model.spmv_layout(a, precision, layout).cycles,
                storage_bytes: layout.format.storage_bytes(a, precision),
            })
            .collect();
        // Deterministic ranking: cycles, then storage, then shortlist
        // order (sort is stable, so exact ties keep rule order).
        scored.sort_by_key(|c| (c.cycles, c.storage_bytes));

        let best = &scored[0];
        TuneDecision {
            choice: best.layout,
            label: best.label.clone(),
            est_cycles: best.cycles,
            shards: self.recommend_shards(&features),
            features,
            reasons,
            candidates: scored,
        }
    }

    /// The rule stage: which layouts are worth scoring for these
    /// features, and why. The baseline is always first.
    fn shortlist(&self, f: &TuneFeatures) -> (Vec<Layout>, Vec<String>) {
        fn add(layouts: &mut Vec<Layout>, l: Layout, reason: String, reasons: &mut Vec<String>) {
            if !layouts.contains(&l) {
                layouts.push(l);
                reasons.push(reason);
            }
        }
        let mut layouts = vec![Layout::baseline()];
        let mut reasons = vec!["baseline: coo/1d/rr is always a candidate".to_string()];

        // CSR rides along free: identical execution stream, leaner
        // host-side metadata — it can only win the storage tie-break.
        add(
            &mut layouts,
            Layout {
                format: MatrixFormat::Csr,
                ..Layout::baseline()
            },
            "csr: same stream as coo, leaner metadata".to_string(),
            &mut reasons,
        );

        // 2D column blocks when hub rows/columns concentrate work: the
        // cut splits a heavy strip across column blocks, shrinking the
        // wave bound.
        let k = if f.stats.ncols >= 128 { 4 } else { 2 };
        if f.stats.row_skew >= SKEW_THRESHOLD {
            add(
                &mut layouts,
                Layout {
                    scheme: PartitionScheme::Balanced2D { col_blocks: k },
                    policy: DistPolicy::LeastLoaded,
                    ..Layout::baseline()
                },
                format!(
                    "row skew {:.1} ≥ {SKEW_THRESHOLD}: nnz-balanced 2D + least-loaded",
                    f.stats.row_skew
                ),
                &mut reasons,
            );
            add(
                &mut layouts,
                Layout {
                    policy: DistPolicy::LeastLoaded,
                    ..Layout::baseline()
                },
                "row skew: least-loaded placement alone".to_string(),
                &mut reasons,
            );
        }
        if f.col_skew >= HUB_COL_THRESHOLD {
            add(
                &mut layouts,
                Layout {
                    scheme: PartitionScheme::Balanced2D { col_blocks: k },
                    ..Layout::baseline()
                },
                format!(
                    "column skew {:.1} ≥ {HUB_COL_THRESHOLD}: narrow blocks around hub columns",
                    f.col_skew
                ),
                &mut reasons,
            );
        } else if f.stats.normalized_bandwidth > 0.15 && f.stats.ncols >= 64 {
            add(
                &mut layouts,
                Layout {
                    scheme: PartitionScheme::Grid2D { col_blocks: k },
                    ..Layout::baseline()
                },
                format!(
                    "scattered pattern (band {:.2}): equally-wide 2D localizes x",
                    f.stats.normalized_bandwidth
                ),
                &mut reasons,
            );
        }

        // Blocked formats when tiles actually fill: the fill tax is
        // bounded by 1/fill, and block metadata amortizes.
        if f.fill4 >= FILL_THRESHOLD {
            add(
                &mut layouts,
                Layout {
                    format: MatrixFormat::Bcsr { block: 4 },
                    ..Layout::baseline()
                },
                format!(
                    "fill4 {:.2} ≥ {FILL_THRESHOLD}: bcsr(4) amortizes metadata",
                    f.fill4
                ),
                &mut reasons,
            );
            add(
                &mut layouts,
                Layout {
                    format: MatrixFormat::Bcoo { block: 4 },
                    ..Layout::baseline()
                },
                "fill4: bcoo(4) rides the storage tie-break".to_string(),
                &mut reasons,
            );
        }
        if f.fill8 >= FILL_THRESHOLD {
            add(
                &mut layouts,
                Layout {
                    format: MatrixFormat::Bcsr { block: 8 },
                    ..Layout::baseline()
                },
                format!("fill8 {:.2} ≥ {FILL_THRESHOLD}: bcsr(8)", f.fill8),
                &mut reasons,
            );
        }

        // Scheme sweep: scoring a candidate is one O(nnz) partition walk
        // and the model ranks layouts exactly as the cycle engine on the
        // ablation grid, so every block count the matrix can support is
        // worth the walk. The rules above explain *why* a shape wants a
        // scheme (and order the shortlist for tie-breaks); the sweep
        // guarantees the model also sees the block counts no rule named.
        add(
            &mut layouts,
            Layout {
                policy: DistPolicy::LeastLoaded,
                ..Layout::baseline()
            },
            "sweep: 1d + least-loaded".to_string(),
            &mut reasons,
        );
        for k in [2usize, 4, 8] {
            // A block narrower than 8 columns fragments x for nothing.
            if f.stats.ncols < 8 * k {
                continue;
            }
            add(
                &mut layouts,
                Layout {
                    scheme: PartitionScheme::Grid2D { col_blocks: k },
                    ..Layout::baseline()
                },
                format!("sweep: grid2d({k})"),
                &mut reasons,
            );
            add(
                &mut layouts,
                Layout {
                    scheme: PartitionScheme::Balanced2D { col_blocks: k },
                    ..Layout::baseline()
                },
                format!("sweep: bal2d({k})"),
                &mut reasons,
            );
            add(
                &mut layouts,
                Layout {
                    scheme: PartitionScheme::Balanced2D { col_blocks: k },
                    policy: DistPolicy::LeastLoaded,
                    ..Layout::baseline()
                },
                format!("sweep: bal2d({k}) + least-loaded"),
                &mut reasons,
            );
        }

        (layouts, reasons)
    }

    /// Shard recommendation: enough banks per shard that the matrix's
    /// heaviest wave still fills them, as a power of two (the executor
    /// requires the shard count to divide the device's channels). A small
    /// matrix on many shards wastes whole sub-devices; a huge one wants
    /// every shard it can get.
    fn recommend_shards(&self, f: &TuneFeatures) -> usize {
        let per_shard_capacity = (self.total_banks * 16).max(1);
        let mut shards = 1usize;
        while shards * 2 <= 16 && f.stats.nnz / (shards * 2) >= per_shard_capacity {
            shards *= 2;
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::{adversarial, gen};

    fn tuner() -> Autotuner {
        Autotuner::new(&PimDevice::tiny(2))
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = gen::rmat(128, 4, 3);
        let t = tuner();
        let d1 = t.decide(&a, Precision::Fp64);
        let d2 = t.decide(&a, Precision::Fp64);
        assert_eq!(d1.choice, d2.choice);
        assert_eq!(d1.est_cycles, d2.est_cycles);
        assert_eq!(
            d1.candidates.iter().map(|c| c.cycles).collect::<Vec<_>>(),
            d2.candidates.iter().map(|c| c.cycles).collect::<Vec<_>>()
        );
    }

    #[test]
    fn baseline_is_always_scored() {
        let t = tuner();
        for (_, a) in adversarial::suite(64, 1) {
            let d = t.decide(&a, Precision::Fp64);
            assert!(
                d.candidates.iter().any(|c| c.layout == Layout::baseline()),
                "baseline missing for {:?}",
                d.reasons
            );
            // The winner can never be predicted slower than the baseline.
            let base = d
                .candidates
                .iter()
                .find(|c| c.layout == Layout::baseline())
                .unwrap();
            assert!(d.est_cycles <= base.cycles);
        }
    }

    #[test]
    fn skewed_rows_trigger_balancing_rules() {
        let a = adversarial::power_law_hubs(128, 1024, 2, 1);
        let d = tuner().decide(&a, Precision::Fp64);
        assert!(
            d.reasons.iter().any(|r| r.contains("row skew")),
            "{:?}",
            d.reasons
        );
        // The tuned choice must beat the baseline's estimate on this shape.
        let base = d
            .candidates
            .iter()
            .find(|c| c.layout == Layout::baseline())
            .unwrap();
        assert!(
            d.est_cycles < base.cycles,
            "tuned {} vs baseline {}",
            d.est_cycles,
            base.cycles
        );
    }

    #[test]
    fn dense_blocks_trigger_blocked_candidates() {
        let a = adversarial::near_dense_blocks(64, 8, 4, 2);
        let d = tuner().decide(&a, Precision::Fp64);
        assert!(
            d.candidates.iter().any(|c| c.layout.format.is_blocked()),
            "{:?}",
            d.reasons
        );
    }

    #[test]
    fn banded_matrix_keeps_an_element_format() {
        // A well-banded FEM matrix has no hub columns and modest fill;
        // nothing should drag it off the element fast path.
        let a = gen::banded_fem(256, 4, 3, 7);
        let d = tuner().decide(&a, Precision::Fp64);
        assert!(!d.choice.format.is_blocked() || d.features.fill4 >= FILL_THRESHOLD);
    }

    #[test]
    fn shard_recommendation_scales_with_size_and_stays_pow2() {
        let t = tuner();
        let small = t.decide(&gen::rmat(64, 3, 1), Precision::Fp64);
        let large = t.decide(&gen::rmat(4096, 16, 1), Precision::Fp64);
        assert!(small.shards <= large.shards);
        for s in [small.shards, large.shards] {
            assert!(s.is_power_of_two() && s <= 16, "shards {s}");
        }
    }

    #[test]
    fn decision_serializes_to_json() {
        let d = tuner().decide(&gen::rmat(64, 3, 1), Precision::Fp64);
        let json = d.to_json();
        assert!(json.contains("\"choice\""));
        assert!(json.contains("\"est_cycles\""));
        assert!(json.contains("\"reasons\""));
    }
}
