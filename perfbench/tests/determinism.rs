//! The benchmark's workloads are deterministic: one seed gives identical
//! simulated figures in every pass, and another seed gives other inputs.

use psim_perfbench::backlog::Backlog;
use psim_perfbench::inputs::suite_matrix;
use psim_perfbench::suites::{SpmvSuite, SptrsvSuite};
use psim_perfbench::{calibrate, fastest_laps_s, Opts, Workload};
use psim_sparse::suite::TABLE_IX;

/// Small instances of the three workloads.
fn small() -> Vec<(&'static str, Box<dyn Workload>)> {
    vec![
        ("spmv_suite", Box::new(SpmvSuite { scale: 0.002 })),
        ("sptrsv_suite", Box::new(SptrsvSuite { scale: 0.001 })),
        ("service_backlog", Box::new(Backlog { jobs: 400 })),
    ]
}

#[test]
fn one_seed_repeats_exactly_and_another_differs() {
    for (name, w) in small() {
        let (pa, pb) = (w.pass(7, Opts::default()), w.pass(7, Opts::default()));
        assert!(pa.laps_s.len() > 1, "{name}: the timed section has no laps");
        assert_eq!(
            pa.laps_s.len(),
            pb.laps_s.len(),
            "{name}: lap counts differ between passes"
        );
        let passes = [pa, pb];
        let fastest = passes
            .iter()
            .map(|p| p.timed_s)
            .fold(f64::INFINITY, f64::min);
        let laps = passes.each_ref().map(|p| p.laps_s.as_slice());
        assert!(
            fastest_laps_s(&laps).is_some_and(|s| s <= fastest),
            "{name}"
        );
        let [a, b] = passes.map(|p| p.outcome);
        assert!(a.attempted > 0, "{name}: nothing attempted");
        assert_eq!((a.failed, b.failed), (0, 0), "{name}: failed operations");
        assert_eq!(
            a.sim, b.sim,
            "{name}: simulated figures differ between passes"
        );
        let other = w.pass(8, Opts::default()).outcome;
        assert_eq!(other.failed, 0, "{name}: failed operations at seed 8");
        assert_ne!(a.sim, other.sim, "{name}: seed 8 repeats seed 7's figures");
    }
}

#[test]
fn traced_and_attributed_passes_leave_simulation_unchanged() {
    for (name, w) in small() {
        let plain = w.pass(3, Opts::default()).outcome.sim;
        let spans = w.pass(
            3,
            Opts {
                spans: true,
                attribute: false,
            },
        );
        assert_eq!(
            spans.outcome.sim, plain,
            "{name}: spans changed the simulation"
        );
        assert!(
            spans.spans.get("core.engine_s") > 0.0,
            "{name}: no engine span"
        );
        let attributed = w
            .pass(
                3,
                Opts {
                    spans: false,
                    attribute: true,
                },
            )
            .outcome
            .sim;
        assert_eq!(
            attributed.without_attr(),
            plain,
            "{name}: attribution changed cycles"
        );
        assert_eq!(
            attributed.attr.iter().sum::<u64>(),
            attributed.dram_cycles,
            "{name}"
        );
    }
}

#[test]
fn seed_changes_the_structure_of_every_suite_matrix() {
    for spec in &TABLE_IX {
        let a = suite_matrix(spec, 0.002, 1);
        assert_eq!(a, suite_matrix(spec, 0.002, 1), "{}", spec.name);
        assert_ne!(a, suite_matrix(spec, 0.002, 2), "{}", spec.name);
    }
}

#[test]
fn calibration_repeats_its_checksum() {
    let want = calibrate::lap_work();
    let laps = calibrate::laps(want).expect("every lap gives the same checksum");
    assert_eq!(laps.len(), calibrate::LAPS);
    assert!(laps.iter().all(|&t| t > 0.0));
    assert!(calibrate::laps(want ^ 1).is_none());
}
