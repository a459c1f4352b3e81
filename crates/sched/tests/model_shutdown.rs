//! The scheduler's interleaving scenarios ([`psim_sched::scenarios`]) at
//! test budgets.
//!
//! The service's close protocol has racy windows that unit tests
//! exercise only under one OS schedule each: producers blocked on a full
//! queue, a producer closing the queue while the admission loop is
//! mid-window, waiters blocked in `pop_wait_batch` when the close lands,
//! and the shared `MatrixStore` evicting under concurrent insert/get.
//! Each scenario runs under the interleaving explorer, so every schedule
//! distinguishable through the sync shim is checked for deadlock-freedom,
//! lost wakeups and the scenario's invariants, and a failing schedule
//! comes back as a deterministic repro trail. The `psim_model` gate runs
//! the same functions at its committed budgets, so a gate failure
//! reproduces here.

use psim_sched::scenarios;

#[test]
fn admission_backpressure_delivers_every_job_once() {
    let report = scenarios::admission_backpressure(1_000);
    report.assert_ok("admission under full backpressure");
    assert!(report.executions > 1, "the producers must actually race");
}

#[test]
fn close_during_inflight_fusion_window_loses_no_jobs() {
    let report = scenarios::close_during_fusion_window(5_000);
    report.assert_ok("close during in-flight fusion window");
    assert!(report.executions > 1, "the close race must actually branch");
}

#[test]
fn close_releases_blocked_batch_waiters() {
    let report = scenarios::close_blocked_waiters(60_000);
    report.assert_ok("close with blocked pop_wait_batch waiters");
    assert!(report.complete, "queue-only scenario must be exhaustible");
}

#[test]
fn matrix_store_eviction_race_keeps_lru_invariants() {
    let report = scenarios::store_eviction_race(10_000);
    report.assert_ok("MatrixStore concurrent insert/evict");
    assert!(report.complete, "store scenario must be exhaustible");
}

#[test]
fn fused_results_match_unfused_golden_under_every_admission_schedule() {
    let report = scenarios::fusion_equivalence(5_000);
    report.assert_ok("fused vs unfused equivalence");
    assert!(
        report.executions > 1,
        "equivalence must hold across schedules"
    );
}
