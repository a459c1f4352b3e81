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

    #[test]
    fn labels_are_distinct_across_the_grid() {
        let grid = [
            Layout::baseline(),
            Layout {
                scheme: PartitionScheme::Balanced2D { col_blocks: 4 },
                policy: DistPolicy::LeastLoaded,
            },
            Layout {
                scheme: PartitionScheme::Grid2D { col_blocks: 2 },
                policy: DistPolicy::RoundRobin,
            },
        ];
        let mut labels: Vec<String> = grid.iter().map(Layout::label).collect();
        assert_eq!(labels[0], "1d/rr");
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), grid.len());
    }
}
