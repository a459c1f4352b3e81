//! Model-fidelity contract: the tuner's tie-breaker is the analytical
//! cost model, so the model's layout *ordering* must track the cycle
//! engine's. This runs the `ablation_autotune` gate's fidelity sweep
//! ([`psim_tune::fidelity::sweep`]) at n = 64 instead of 96, so a gate
//! failure reproduces here.

use psim_kernels::PimDevice;
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
    for row in &sweep.corpus {
        let worst = row.fixed.iter().map(|c| c.sim_cycles).max();
        assert!(
            Some(row.tuned_cycles) <= worst,
            "{}: tuned {} worse than the worst fixed layout",
            row.name,
            row.tuned_label
        );
    }
}
