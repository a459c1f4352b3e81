//! Partitioning autotuner.
//!
//! SparseP's central finding (PAPERS.md) is that no single (format,
//! partitioning) wins across matrices on real PIM: row-balanced 1D is
//! right for even matrices, nnz-balanced placement for skewed ones, 2D
//! column blocking for hub-dominated ones. Its formats matter because
//! UPMEM cores walk each one in software; here every layout streams the
//! same COO triples (DESIGN.md §17), so a layout is a partition scheme and
//! a placement policy. The paper under reproduction fixes one layout (1D
//! row strips, round-robin); the tuner picks one per matrix instead.
//!
//! The decision is the cost model's argmin over one fixed list
//! (DESIGN.md §17): [`Autotuner::decide`] costs every entry of
//! [`Layout::candidates`] with [`psim_kernels::CostModel::spmv_layout`] —
//! an O(nnz) model of the kernel's own wave plan — and picks the lowest
//! prediction, the first listed winning exact ties. The list starts with
//! the baseline, so the tuner can never do worse than the paper's fixed
//! choice *by its own estimate*, and every decision carries every
//! candidate's prediction: that list is the whole answer to "why this
//! layout".
//!
//! The tuner never runs the cycle engine: tuning a matrix costs a few
//! partition walks, which is why the scheduler can afford to tune every
//! SpMV matrix once, when its first job is planned. [`fidelity`] checks
//! against the cycle engine that the model's ranking of the same list,
//! and so the tuner's pick, holds up.

pub mod fidelity;

use psim_kernels::{CostModel, PimDevice};
use psim_sparse::{Coo, Layout, Precision};
use serde::Serialize;

/// One scored candidate of a decision.
#[derive(Debug, Clone, Serialize)]
pub struct CandidateScore {
    /// The layout.
    pub layout: Layout,
    /// Short label (`scheme/policy`).
    pub label: String,
    /// Predicted DRAM cycles ([`CostModel::spmv_layout`]).
    pub cycles: u64,
}

/// The tuner's verdict for one matrix.
#[derive(Debug, Clone, Serialize)]
pub struct TuneDecision {
    /// The winning layout.
    pub choice: Layout,
    /// Its label (`scheme/policy`).
    pub label: String,
    /// Predicted cycles of the winner.
    pub est_cycles: u64,
    /// Every entry of [`Layout::candidates`] with its prediction, in list
    /// order.
    pub candidates: Vec<CandidateScore>,
}

/// The autotuner: the cost model's argmin over [`Layout::candidates`] for
/// one device.
#[derive(Debug, Clone)]
pub struct Autotuner {
    model: CostModel,
}

impl Autotuner {
    /// A tuner for `device` (reads its timing and geometry only).
    #[must_use]
    pub fn new(device: &PimDevice) -> Autotuner {
        Autotuner {
            model: CostModel::new(device),
        }
    }

    /// The underlying analytical model.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Decide a layout for `a` at `precision`: score every entry of
    /// [`Layout::candidates`] and pick the lowest prediction, the first
    /// listed on an exact tie.
    #[must_use]
    pub fn decide(&self, a: &Coo, precision: Precision) -> TuneDecision {
        let candidates: Vec<CandidateScore> = Layout::candidates(a.ncols())
            .into_iter()
            .map(|layout| CandidateScore {
                layout,
                label: layout.label(),
                cycles: self.model.spmv_layout(a, precision, layout).cycles,
            })
            .collect();
        // `min_by_key` returns the first of equal minima.
        let best = (candidates.iter().min_by_key(|c| c.cycles))
            .expect("the list holds the baseline")
            .clone();
        TuneDecision {
            choice: best.layout,
            label: best.label,
            est_cycles: best.cycles,
            candidates,
        }
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
        for (name, a) in adversarial::suite(64, 1) {
            let d = t.decide(&a, Precision::Fp64);
            // The baseline heads the list, so the winner can never be
            // predicted slower than it.
            assert_eq!(d.candidates[0].layout, Layout::baseline(), "{name}");
            assert!(d.est_cycles <= d.candidates[0].cycles, "{name}");
        }
    }

    #[test]
    fn decide_is_the_first_model_argmin_over_the_candidates() {
        let t = tuner();
        let hubs = adversarial::power_law_hubs(128, 1024, 2, 1);
        let mut corpus = adversarial::suite(96, 7);
        corpus.push(("hubs", hubs.clone()));
        for (name, a) in corpus {
            let d = t.decide(&a, Precision::Fp64);
            let list = Layout::candidates(a.ncols());
            assert_eq!(d.candidates.len(), list.len(), "{name}");
            for (c, &layout) in d.candidates.iter().zip(&list) {
                assert_eq!(c.layout, layout, "{name}: list order");
                let model = t.model().spmv_layout(&a, Precision::Fp64, layout);
                assert_eq!(c.cycles, model.cycles, "{name} {}", c.label);
            }
            let low = d.candidates.iter().map(|c| c.cycles).min().unwrap();
            let first = d.candidates.iter().position(|c| c.cycles == low).unwrap();
            assert_eq!(d.choice, list[first], "{name}: the first minimum wins");
            assert_eq!(
                (d.label.as_str(), d.est_cycles),
                (d.candidates[first].label.as_str(), low)
            );
        }
        // On a hub-skewed shape the pick beats the baseline's estimate.
        let d = t.decide(&hubs, Precision::Fp64);
        assert!(
            d.est_cycles < d.candidates[0].cycles,
            "tuned {} vs baseline {}",
            d.est_cycles,
            d.candidates[0].cycles
        );
    }

    #[test]
    fn decision_serializes_to_json() {
        let d = tuner().decide(&gen::rmat(64, 3, 1), Precision::Fp64);
        let json = d.to_json();
        assert!(json.contains("\"choice\""));
        assert!(json.contains("\"est_cycles\""));
        assert!(json.contains("\"candidates\""));
    }
}
