//! Model-fidelity contract: the tuner picks by the analytical cost
//! model, so the model's layout *ordering* must track the cycle engine's. This runs the `ablation_autotune` gate's fidelity sweep
//! ([`psim_tune::fidelity::sweep`]) at n = 64 instead of 96, so a gate
//! failure reproduces here.

use psim_kernels::PimDevice;
use psim_sparse::Layout;
use psim_tune::fidelity;

#[test]
fn model_ranking_tracks_simulation_and_tuner_wins_geomean() {
    let sweep = fidelity::sweep(&PimDevice::tiny(2), 64);
    assert!(
        sweep.violations.is_empty(),
        "fidelity sweep at n = 64: {:#?}",
        sweep.violations
    );
    assert!(
        sweep.rank_pairs > 0,
        "separation threshold left no rankable pairs"
    );
    // The sweep ranks exactly the list the tuner picks from.
    for row in &sweep.corpus {
        let labels: Vec<&str> = row.candidates.iter().map(|c| c.label.as_str()).collect();
        let list: Vec<String> = Layout::candidates(row.n)
            .iter()
            .map(Layout::label)
            .collect();
        assert_eq!(labels, list, "{}", row.name);
        assert!(labels.contains(&row.tuned_label.as_str()), "{}", row.name);
    }
}
