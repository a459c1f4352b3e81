//! Self-tests for the model checker: each class of concurrency bug the
//! layer claims to catch is a seeded mutant ([`psim_conc::model::mutants`],
//! which the `psim_model` gate runs too), and the explorer must produce
//! the matching counterexample. Plus coverage properties (all
//! interleavings of a store-buffer-like scenario are observed) and the
//! passthrough backend's poison-recovery semantics.

use psim_conc::{model, order, Mutex};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex as StdMutex};

#[test]
fn explores_all_lock_interleavings() {
    // T1: a = true; read b.   T2: b = true; read a.   Under mutual
    // exclusion the reachable outcomes are exactly (F,T), (T,F), (T,T):
    // (F,F) would need both reads to precede both writes, impossible
    // when each thread writes before it reads. Exhaustive exploration
    // must observe all three and nothing else.
    let seen: Arc<StdMutex<BTreeSet<(bool, bool)>>> = Arc::new(StdMutex::new(BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    let report = model::Explorer::new(10_000).explore(move || {
        let a = Arc::new(Mutex::labeled("sb.a", false));
        let b = Arc::new(Mutex::labeled("sb.b", false));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = model::spawn(move || {
            *a2.lock() = true;
            *b2.lock()
        });
        let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
        let t2 = model::spawn(move || {
            *b3.lock() = true;
            *a3.lock()
        });
        let saw_b = t1.join();
        let saw_a = t2.join();
        seen2.lock().unwrap().insert((saw_a, saw_b));
    });
    report.assert_ok("store-buffer interleavings");
    assert!(report.complete, "2x2-op scenario must be exhaustible");
    assert!(report.executions > 1, "must actually branch");
    let outcomes = seen.lock().unwrap().clone();
    let expect: BTreeSet<(bool, bool)> = [(false, true), (true, false), (true, true)]
        .into_iter()
        .collect();
    assert_eq!(outcomes, expect);
}

#[test]
fn mutation_dropped_notify_is_caught_as_deadlock() {
    match model::mutants::dropped_notify(10_000).failure {
        Some(model::Failure::Deadlock { ref detail }) => {
            assert!(
                detail.contains("condvar"),
                "deadlock report names the wait site: {detail}"
            );
        }
        ref other => panic!("dropped notify must deadlock, got {other:?}"),
    }
}

#[test]
fn mutation_double_lock_is_caught() {
    match model::mutants::double_lock(100).failure {
        Some(model::Failure::DoubleLock { label }) => assert_eq!(label, "mut.double"),
        ref other => panic!("double lock must be caught, got {other:?}"),
    }
}

#[test]
fn mutation_swapped_lock_order_deadlocks_and_cycles() {
    // The explorer must find the wedged schedule, and the order graph
    // must record the inversion.
    let report = model::mutants::swapped_lock_order(10_000);
    assert!(
        matches!(report.failure, Some(model::Failure::Deadlock { .. })),
        "AB/BA must deadlock in some schedule, got {:?}",
        report.failure
    );
    let edges = order::edges();
    assert!(edges.contains(&("mut.order.a", "mut.order.b")));
    assert!(edges.contains(&("mut.order.b", "mut.order.a")));
    let cycle = order::find_cycle().expect("inverted pair forms a cycle");
    assert!(cycle.len() >= 2);
}

#[test]
fn consistent_lock_order_explores_clean() {
    // Same two locks, both threads in the same order: no deadlock in
    // any schedule, and only the one edge direction recorded.
    let report = model::Explorer::new(10_000).explore(|| {
        let a = Arc::new(Mutex::labeled("ok.order.a", ()));
        let b = Arc::new(Mutex::labeled("ok.order.b", ()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = model::spawn(move || {
            let ga = a2.lock();
            let gb = b2.lock();
            drop(gb);
            drop(ga);
        });
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        t1.join();
    });
    report.assert_ok("consistent lock order");
    assert!(report.complete);
    let edges = order::edges();
    assert!(edges.contains(&("ok.order.a", "ok.order.b")));
    assert!(!edges.contains(&("ok.order.b", "ok.order.a")));
}

#[test]
fn scenario_assertion_failures_are_reported_with_repro_trail() {
    // An interleaving-dependent assertion: fails only when t1's two
    // increments are split by t2's. The explorer must find it and hand
    // back a non-empty repro trail.
    let report = model::Explorer::new(10_000).explore(|| {
        let n = Arc::new(Mutex::labeled("assert.n", 0u32));
        let n2 = Arc::clone(&n);
        let t1 = model::spawn(move || {
            let before = *n2.lock();
            *n2.lock() = before + 1;
            before
        });
        *n.lock() += 10;
        let seen = t1.join();
        let final_n = *n.lock();
        assert!(
            !(seen == 0 && final_n == 1),
            "t2's increment was lost by t1's stale read-modify-write"
        );
    });
    match report.failure {
        Some(model::Failure::Panic { ref message }) => {
            assert!(message.contains("lost"), "got: {message}");
        }
        ref other => panic!("expected the seeded lost-update panic, got {other:?}"),
    }
    assert!(
        !report.trail.is_empty(),
        "failing schedule must be reproducible"
    );
}

#[test]
fn runaway_scenario_hits_step_limit() {
    let ex = model::Explorer {
        max_executions: 4,
        max_steps: 64,
    };
    let report = ex.explore(|| loop {
        model::yield_now();
    });
    assert!(matches!(
        report.failure,
        Some(model::Failure::StepLimit { .. })
    ));
}

#[test]
fn atomic_rmw_is_a_scheduling_point_but_stays_atomic() {
    let report = model::Explorer::new(10_000).explore(|| {
        let n = Arc::new(psim_conc::AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = model::spawn(move || {
            n2.fetch_add(1);
        });
        n.fetch_add(1);
        t.join();
        assert_eq!(n.load(), 2, "fetch_add must never lose an increment");
    });
    report.assert_ok("atomic rmw");
    assert!(report.complete);
}

#[test]
fn passthrough_recovers_poisoned_locks() {
    // Satellite audit regression: a submitter panicking while holding a
    // shim lock must not cascade Err(Poisoned) into every later locker
    // — the shim recovers the inner state (predicates are re-established
    // under the lock by the callers; see DESIGN.md §16).
    let m = Arc::new(Mutex::labeled("poison.m", 5u32));
    let m2 = Arc::clone(&m);
    let t = std::thread::spawn(move || {
        let _g = m2.lock();
        panic!("die while holding the lock");
    });
    assert!(t.join().is_err());
    // std::sync::Mutex would now be poisoned; the shim just locks.
    assert_eq!(*m.lock(), 5);
    *m.lock() = 6;
    assert_eq!(*m.lock(), 6);
}

#[test]
fn exploration_is_deterministic() {
    // Two runs of the same scenario visit the same number of executions
    // and decision points — no seeds, no timing dependence.
    let run = || {
        model::Explorer::new(10_000).explore(|| {
            let m = Arc::new(Mutex::labeled("det.m", 0u32));
            let (m2, m3) = (Arc::clone(&m), Arc::clone(&m));
            let t1 = model::spawn(move || *m2.lock() += 1);
            let t2 = model::spawn(move || *m3.lock() += 1);
            t1.join();
            t2.join();
            assert_eq!(*m.lock(), 2);
        })
    };
    let (r1, r2) = (run(), run());
    r1.assert_ok("deterministic scenario");
    assert!(r1.complete);
    assert_eq!(r1.executions, r2.executions);
    assert_eq!(r1.decision_points, r2.decision_points);
}
