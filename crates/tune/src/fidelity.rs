//! Tuner fidelity: does the analytical model rank layouts the way the
//! cycle engine does, and does the tuner's pick win?
//!
//! SparseP's finding that no single layout wins across matrices
//! (PAPERS.md) makes the model's *ordering* of layouts a correctness
//! property of the tuner, not just its accuracy. [`sweep`] measures it
//! once: every [`layout_grid`] layout plus the tuner's pick, simulated
//! with validation on over the ablation [`corpus`]. The
//! `ablation_autotune` gate runs it at n = 96 and the crate's
//! `rank_agreement` test at n = 64.

use crate::Autotuner;
use psim_kernels::oracle::max_rel_err;
use psim_kernels::{audit_run, layout_grid, PimDevice, SpmvPim};
use psim_sparse::{adversarial, gen, Coo, Layout, Precision};
use serde::Serialize;

/// Pairs closer than this (relative simulated-cycle gap) are ties the
/// model is free to order either way.
pub const RANK_SEPARATION: f64 = 0.05;

/// Minimum pairwise rank agreement between analytical and simulated
/// cycles on separated pairs.
pub const RANK_AGREEMENT_FLOOR: f64 = 0.90;

/// Largest relative error a simulated result may have against the CPU
/// reference.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// The ablation corpus: the benchmark suite's four pattern families at
/// dimension `n` plus every adversarial shape.
#[must_use]
pub fn corpus(n: usize) -> Vec<(String, Coo)> {
    let families = [
        ("rmat", gen::rmat(n, 4, 1)),
        ("banded_fem", gen::banded_fem(n, 8, 5, 2)),
        ("web_hubs", gen::web_hubs(n, n * 4, 3)),
        ("layered_dag", gen::layered_dag(n, 4, 6, 4)),
    ];
    (families.into_iter().chain(adversarial::suite(n, 7)))
        .map(|(name, a)| (name.to_string(), a))
        .collect()
}

/// One layout's outcome on one matrix.
#[derive(Debug, Clone, Serialize)]
pub struct LayoutCell {
    /// Layout label (`scheme/policy`).
    pub label: String,
    /// Simulated DRAM cycles.
    pub sim_cycles: u64,
    /// The analytical model's estimate.
    pub model_cycles: u64,
}

/// One corpus matrix with its sweep.
#[derive(Debug, Clone, Serialize)]
pub struct MatrixRow {
    /// Corpus name.
    pub name: String,
    /// Rows.
    pub n: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// The tuner's pick.
    pub tuned_label: String,
    /// Simulated cycles of the pick.
    pub tuned_cycles: u64,
    /// Fewest simulated cycles of any grid layout.
    pub best_fixed_cycles: u64,
    /// Every grid layout, in [`layout_grid`] order.
    pub fixed: Vec<LayoutCell>,
}

/// Geomean of one fixed configuration over the corpus.
#[derive(Debug, Clone, Serialize)]
pub struct ConfigGeomean {
    /// Layout label.
    pub label: String,
    /// Geomean of its simulated cycles.
    pub geomean_cycles: f64,
}

/// What one [`sweep`] measured, and every condition it found broken.
#[derive(Debug, Clone)]
pub struct Fidelity {
    /// One row per corpus matrix.
    pub corpus: Vec<MatrixRow>,
    /// One geomean per grid layout.
    pub fixed: Vec<ConfigGeomean>,
    /// The grid layout with the lowest geomean.
    pub best_fixed_label: String,
    /// Its geomean.
    pub best_fixed_geomean: f64,
    /// Geomean of the tuner's picks.
    pub tuned_geomean: f64,
    /// Layout pairs the simulator separates by at least [`RANK_SEPARATION`].
    pub rank_pairs: usize,
    /// Of those, the pairs the model orders as the simulator does.
    pub rank_agreements: usize,
    /// `rank_agreements / rank_pairs` (1 when there are no pairs).
    pub rank_agreement: f64,
    /// Every failed condition, in the order found.
    pub violations: Vec<String>,
}

/// Sweep the [`corpus`] at dimension `n` across the fixed layout grid and
/// the [`Autotuner`]'s pick on `device`, with full cycle simulation and
/// validation on. Each failed condition is a violation:
///
/// 1. **Correctness per execution**: every simulated run (fixed or tuned)
///    matches the CPU reference to 1e-9 and passes [`audit_run`].
/// 2. **Tuning wins**: the geomean of the tuned picks' simulated cycles is
///    no worse than the best *single* fixed layout's.
/// 3. **Model fidelity**: on layout pairs the simulator separates by at
///    least [`RANK_SEPARATION`], the analytical model orders them as the
///    simulator does at least [`RANK_AGREEMENT_FLOOR`] of the time.
///
/// # Panics
///
/// If a simulation fails outright.
#[must_use]
pub fn sweep(device: &PimDevice, n: usize) -> Fidelity {
    let grid = layout_grid();
    let validated = PimDevice {
        validate: true,
        ..device.clone()
    };
    let tuner = Autotuner::new(device);
    let mut violations = Vec::new();
    let mut rows = Vec::new();
    let (mut rank_pairs, mut rank_agreements) = (0usize, 0usize);
    for (name, a) in corpus(n) {
        let x = gen::dense_vector(a.ncols(), 11);
        let reference = a.spmv(&x);
        let mut sim = |layout: Layout, tag: String| {
            let r = SpmvPim::new(validated.clone(), Precision::Fp64)
                .with_layout(layout)
                .run(&a, &x)
                .unwrap_or_else(|e| panic!("{tag}: simulation failed: {e}"));
            violations.extend(
                audit_run(&r.run)
                    .iter()
                    .map(|f| format!("audit {tag}: {f}")),
            );
            let worst = max_rel_err(&r.y, &reference);
            if worst > REFERENCE_TOLERANCE {
                violations.push(format!("oracle {tag}: diff {worst:.2e} vs CPU reference"));
            }
            r.run.dram_cycles
        };
        let fixed: Vec<LayoutCell> = grid
            .iter()
            .map(|&layout| LayoutCell {
                label: layout.label(),
                sim_cycles: sim(layout, format!("{name} {}", layout.label())),
                model_cycles: tuner
                    .model()
                    .spmv_layout(&a, Precision::Fp64, layout)
                    .cycles,
            })
            .collect();
        let decision = tuner.decide(&a, Precision::Fp64);
        let tuned_cycles = sim(decision.choice, format!("{name} tuned:{}", decision.label));
        for (i, ci) in fixed.iter().enumerate() {
            for cj in &fixed[i + 1..] {
                let (si, sj) = (ci.sim_cycles as f64, cj.sim_cycles as f64);
                if (si - sj).abs() / si.min(sj).max(1.0) < RANK_SEPARATION {
                    continue;
                }
                rank_pairs += 1;
                rank_agreements += usize::from((si < sj) == (ci.model_cycles < cj.model_cycles));
            }
        }
        rows.push(MatrixRow {
            name,
            n: a.nrows(),
            nnz: a.nnz(),
            tuned_label: decision.label,
            tuned_cycles,
            best_fixed_cycles: fixed.iter().map(|c| c.sim_cycles).min().unwrap_or(0),
            fixed,
        });
    }

    let fixed_geo: Vec<ConfigGeomean> = grid
        .iter()
        .enumerate()
        .map(|(i, layout)| ConfigGeomean {
            label: layout.label(),
            geomean_cycles: geomean(rows.iter().map(|r| r.fixed[i].sim_cycles)),
        })
        .collect();
    let tuned_geomean = geomean(rows.iter().map(|r| r.tuned_cycles));
    let best = fixed_geo
        .iter()
        .min_by(|a, b| a.geomean_cycles.total_cmp(&b.geomean_cycles))
        .expect("non-empty grid");
    let (best_fixed_label, best_fixed_geomean) = (best.label.clone(), best.geomean_cycles);
    // The tuner may tie the best fixed layout (up to floating-point
    // geomean noise) but must never lose to it.
    if tuned_geomean > best_fixed_geomean * (1.0 + 1e-9) {
        violations.push(format!(
            "tune: tuned geomean {tuned_geomean:.1} worse than fixed {best_fixed_label} {best_fixed_geomean:.1}"
        ));
    }
    let rank_agreement = if rank_pairs == 0 {
        1.0
    } else {
        rank_agreements as f64 / rank_pairs as f64
    };
    if rank_agreement < RANK_AGREEMENT_FLOOR {
        violations.push(format!(
            "rank: analytical/simulated rank agreement {:.1}% below {:.0}%",
            rank_agreement * 100.0,
            RANK_AGREEMENT_FLOOR * 100.0
        ));
    }
    Fidelity {
        corpus: rows,
        fixed: fixed_geo,
        best_fixed_label,
        best_fixed_geomean,
        tuned_geomean,
        rank_pairs,
        rank_agreements,
        rank_agreement,
        violations,
    }
}

/// Geometric mean of the positive cycle counts (0 for none).
fn geomean(cycles: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = cycles
        .filter(|&c| c > 0)
        .fold((0.0, 0u32), |(s, n), c| (s + (c as f64).ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}
