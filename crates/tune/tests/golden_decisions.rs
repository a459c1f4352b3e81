//! Golden snapshot of the autotuner's decisions over the ablation corpus
//! ([`psim_tune::fidelity::corpus`] at the gate's n = 96).
//!
//! The tuner is deterministic, so its choices are a behavioural contract:
//! a cost-model retune or a rule edit that silently flips a layout
//! decision shows up here as a diff against the committed golden. Bless
//! intentional changes with:
//!
//! ```text
//! PSIM_BLESS=1 cargo test -p psim-tune --test golden_decisions
//! ```

use std::path::PathBuf;

use psim_kernels::PimDevice;
use psim_sparse::Precision;
use psim_tune::{fidelity, Autotuner};
use serde::Serialize;

/// One matrix's decision, reduced to the fields worth pinning (estimated
/// cycles are pinned too: they are the model output the choice hangs on).
#[derive(Serialize)]
struct GoldenDecision {
    matrix: String,
    nnz: usize,
    label: String,
    est_cycles: u64,
    reasons: Vec<String>,
}

#[derive(Serialize)]
struct GoldenReport {
    device: &'static str,
    decisions: Vec<GoldenDecision>,
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("{name}.json"))
}

#[test]
fn tuner_decisions_match_golden() {
    let tuner = Autotuner::new(&PimDevice::tiny(2));
    let decisions = fidelity::corpus(96)
        .into_iter()
        .map(|(matrix, a)| {
            let d = tuner.decide(&a, Precision::Fp64);
            GoldenDecision {
                matrix,
                nnz: a.nnz(),
                label: d.label,
                est_cycles: d.est_cycles,
                reasons: d.reasons,
            }
        })
        .collect();
    let report = GoldenReport {
        device: "tiny(2)",
        decisions,
    };
    let actual = report.to_json();
    let path = golden_path("tune_decisions");
    if std::env::var_os("PSIM_BLESS").is_some() {
        std::fs::write(&path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with PSIM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        want.trim_end(),
        actual,
        "tuner decisions diverged from {} (rerun with PSIM_BLESS=1 if intentional)",
        path.display()
    );
}
