//! The layout zoo: partition scheme × placement policy.
//!
//! A [`Layout`] is the unit the autotuner picks and the kernels execute
//! from. Every layout streams the matrix's true non-zeros to the banks as
//! COO triples (paper §V), so a storage format could only add fill
//! entries or change host-side metadata; it is not a layout axis. The
//! partition scheme cuts the stream ([`PartitionScheme::column_bounds`])
//! and the policy places the pieces — so every layout runs through the
//! *same* wave machinery, stream-program builders and protocol lints,
//! under every semiring; layouts change the cut, never the kernel.
//! [`Layout::candidates`] is the one list of layouts worth trying on a
//! matrix.

use crate::partition::{DistPolicy, PartitionScheme};
use serde::{Deserialize, Serialize};

/// One point in the layout space: what the tuner picks per matrix.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Layout {
    /// Partition scheme (1D row strips or a 2D column-blocked variant).
    pub scheme: PartitionScheme,
    /// Bank placement policy.
    pub policy: DistPolicy,
}

impl Layout {
    /// The paper's baseline: 1D row strips, round-robin.
    #[must_use]
    pub fn baseline() -> Layout {
        Layout::default()
    }

    /// The candidate layouts for a matrix of `ncols` columns, in a fixed
    /// order: the [`baseline`](Layout::baseline) `1d/rr`, then `1d/ll`,
    /// then for each column-block count k ∈ {2, 4, 8} with `ncols ≥ 8k`
    /// the layouts `grid2d(k)/rr`, `bal2d(k)/rr` and `bal2d(k)/ll` (a
    /// block narrower than 8 columns fragments x for nothing). The
    /// autotuner scores exactly this list, and its gates, tests and the
    /// layout ablation iterate it.
    #[must_use]
    pub fn candidates(ncols: usize) -> Vec<Layout> {
        use DistPolicy::{LeastLoaded, RoundRobin};
        use PartitionScheme::{Balanced2D, Grid2D, Row1D};
        let layout = |scheme, policy| Layout { scheme, policy };
        let mut list = vec![Layout::baseline(), layout(Row1D, LeastLoaded)];
        for col_blocks in [2, 4, 8].into_iter().filter(|&k| ncols >= 8 * k) {
            list.extend([
                layout(Grid2D { col_blocks }, RoundRobin),
                layout(Balanced2D { col_blocks }, RoundRobin),
                layout(Balanced2D { col_blocks }, LeastLoaded),
            ]);
        }
        list
    }

    /// Short label for reports, e.g. `bal2d(4)/ll`.
    #[must_use]
    pub fn label(&self) -> String {
        let policy = match self.policy {
            DistPolicy::RoundRobin => "rr",
            DistPolicy::LeastLoaded => "ll",
        };
        format!("{}/{policy}", self.scheme.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(ncols: usize) -> Vec<String> {
        Layout::candidates(ncols)
            .iter()
            .map(Layout::label)
            .collect()
    }

    #[test]
    fn labels_are_distinct_across_the_grid() {
        let mut all = labels(64);
        assert_eq!(all.len(), 11);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 11);
    }

    #[test]
    fn candidates_start_at_the_baseline_and_grow_with_width() {
        assert_eq!(Layout::candidates(1)[0], Layout::baseline());
        assert_eq!(labels(15), ["1d/rr", "1d/ll"]);
        assert_eq!(
            labels(16),
            [
                "1d/rr",
                "1d/ll",
                "grid2d(2)/rr",
                "bal2d(2)/rr",
                "bal2d(2)/ll"
            ]
        );
        assert_eq!(labels(63).len(), 8);
        assert_eq!(
            &labels(64)[8..],
            ["grid2d(8)/rr", "bal2d(8)/rr", "bal2d(8)/ll"]
        );
    }
}
