//! psim-model: the concurrency verification gate.
//!
//! The fourth leg of the verification stack (lint → check → trace →
//! **model**): where psim-lint proves things about PIM *programs*, this
//! gate proves things about the *host scheduler* that feeds them. Three
//! sections, all mandatory:
//!
//! 1. **Scenarios** — small configurations of the real scheduler code
//!    (bounded-queue admission under backpressure, close with blocked
//!    `pop_wait_batch` waiters, `MatrixStore` LRU churn, fused-vs-unfused
//!    service equivalence) run under the bounded exhaustive interleaving
//!    explorer ([`psim_conc::model::Explorer`]). Any deadlock, lost
//!    wakeup, or invariant violation in any explored schedule fails the
//!    gate with a deterministic repro trail.
//! 2. **Lock-order graph** — the acquire-while-holding edges recorded by
//!    the model backend across all scenarios must be acyclic
//!    ([`psim_conc::order::find_cycle`]): a cycle is a potential
//!    inversion deadlock even if no explored schedule tripped it.
//! 3. **Mutation self-checks** — seeded bugs (double-lock, dropped
//!    notify, swapped lock order) and seeded partial-synchrony lint
//!    violations (`PSL014`–`PSL016` mutants of the shipped stream
//!    kernels) must each be *caught*. A checker that cannot catch its
//!    own mutants proves nothing, so a missed catch fails the gate too.

use crate::{Ctx, Output};
use psim_conc::{model, order, Condvar, Mutex};
use psim_kernels::{programs, PimDevice};
use psim_sched::{
    ExecutorConfig, JobKind, JobQueue, JobSpec, JobValue, MatrixStore, Service, ServiceConfig,
    ShardExecutor,
};
use psim_sparse::Precision;
use psyncpim_core::isa::{assemble, LintCode};
use serde::Serialize;
use std::sync::Arc;

/// Executions explored per scenario (the service-driving scenarios get a
/// reduced share: they simulate kernels on every execution).
const BUDGET: usize = 4_000;

#[derive(Serialize)]
struct ScenarioRow {
    name: String,
    executions: usize,
    decision_points: usize,
    complete: bool,
    /// Counterexample description, empty when the scenario passed.
    failure: String,
}

#[derive(Serialize)]
struct MutationRow {
    name: String,
    caught: bool,
    detail: String,
}

#[derive(Serialize)]
struct LintRow {
    code: String,
    corpus_clean: bool,
    mutant_caught: bool,
}

#[derive(Serialize)]
struct ModelReport {
    budget: usize,
    scenarios: Vec<ScenarioRow>,
    lock_order_edges: Vec<(String, String)>,
    lock_order_acyclic: bool,
    mutations: Vec<MutationRow>,
    lints: Vec<LintRow>,
    pass: bool,
}

fn spmv_spec(a: &Arc<psim_sparse::Coo>, i: u64) -> JobSpec {
    let n = a.ncols();
    let x: Vec<f64> = (0..n as u64)
        .map(|k| (i * 7 + k + 1) as f64 * 0.5)
        .collect();
    JobSpec::batch("t0", JobKind::spmv(Arc::clone(a), x))
}

fn row(name: &str, report: &model::Report) -> ScenarioRow {
    let failure = report
        .failure
        .as_ref()
        .map(ToString::to_string)
        .unwrap_or_default();
    ScenarioRow {
        name: name.to_string(),
        executions: report.executions,
        decision_points: report.decision_points,
        complete: report.complete,
        failure,
    }
}

// ---- section 1: scheduler scenarios ------------------------------------

/// Two producers race into a capacity-1 queue (full backpressure: every
/// submit may block) while a consumer drains batches until close. No
/// schedule may deadlock, and all four jobs arrive exactly once.
fn scenario_admission_backpressure(budget: usize) -> ScenarioRow {
    let a = Arc::new(psim_sparse::gen::rmat(8, 2, 1));
    let report = model::Explorer::new(budget).explore(move || {
        let queue = Arc::new(JobQueue::bounded(1));
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let queue = Arc::clone(&queue);
                let a = Arc::clone(&a);
                model::spawn(move || {
                    for i in 0..2u64 {
                        queue.submit(spmv_spec(&a, p * 2 + i)).expect("queue open");
                    }
                })
            })
            .collect();
        let consumer = {
            let queue = Arc::clone(&queue);
            model::spawn(move || {
                let mut ids = Vec::new();
                loop {
                    let batch = queue.pop_wait_batch(3);
                    if batch.is_empty() {
                        return ids;
                    }
                    ids.extend(batch.into_iter().map(|j| j.id));
                }
            })
        };
        for p in producers {
            p.join();
        }
        queue.close();
        let mut ids = consumer.join();
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![0, 1, 2, 3],
            "every submitted job delivered exactly once"
        );
    });
    row("admission_backpressure", &report)
}

/// Two waiters blocked in `pop_wait_batch` when one job and the close
/// land: the close's notify_all must reach both (a lost wakeup would
/// deadlock — the model condvar has no spurious wakeups to paper over
/// it), and the single job goes to exactly one waiter.
fn scenario_close_blocked_waiters(budget: usize) -> ScenarioRow {
    let a = Arc::new(psim_sparse::gen::rmat(8, 2, 2));
    let report = model::Explorer::new(budget).explore(move || {
        let queue = Arc::new(JobQueue::bounded(2));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                model::spawn(move || queue.pop_wait_batch(2).len())
            })
            .collect();
        queue.submit(spmv_spec(&a, 0)).expect("queue open");
        queue.close();
        let got: usize = waiters.into_iter().map(model::JoinHandle::join).sum();
        assert_eq!(got, 1, "one job, one winner, no waiter hangs");
    });
    row("close_blocked_waiters", &report)
}

/// Concurrent insert/get against a store whose budget holds only one of
/// the two matrices: every schedule churns LRU eviction, and the store's
/// byte accounting must audit clean afterwards.
fn scenario_store_eviction_race(budget: usize) -> ScenarioRow {
    let m0 = psim_sparse::gen::rmat(16, 2, 3);
    let m1 = psim_sparse::gen::rmat(16, 2, 4);
    let probe = MatrixStore::new();
    probe.insert("m0", m0.clone());
    let store_budget = probe.resident_bytes() * 3 / 2;
    let report = model::Explorer::new(budget).explore(move || {
        let store = Arc::new(MatrixStore::with_budget(store_budget));
        let threads: Vec<_> = [("m0", m0.clone()), ("m1", m1.clone())]
            .into_iter()
            .map(|(name, m)| {
                let store = Arc::clone(&store);
                model::spawn(move || {
                    let a = store.insert(name, m);
                    assert_eq!(a.nnz(), store.get(name).map_or(a.nnz(), |g| g.nnz()));
                })
            })
            .collect();
        for t in threads {
            t.join();
        }
        store.audit();
        assert!(
            store.get("m0").is_some() || store.get("m1").is_some(),
            "at least the most recent insert is resident"
        );
    });
    row("store_eviction_race", &report)
}

/// Fused service vs unfused batch executor on the same jobs: values must
/// be bit-identical in every explored admission/close interleaving.
fn scenario_fusion_equivalence(budget: usize) -> ScenarioRow {
    let a = Arc::new(psim_sparse::gen::rmat(16, 2, 5));
    let golden: Arc<Vec<(u64, JobValue)>> = {
        let queue = JobQueue::bounded(8);
        for i in 0..3u64 {
            queue.submit(spmv_spec(&a, i)).expect("queue open");
        }
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 1))
            .expect("shards divide channels");
        let mut jobs = exec.drain_and_run(&queue).expect("golden run").jobs;
        jobs.sort_by_key(|j| j.id);
        Arc::new(jobs.into_iter().map(|j| (j.id, j.value)).collect())
    };
    let report = model::Explorer::new(budget).explore(move || {
        let queue = Arc::new(JobQueue::bounded(2));
        let producer = {
            let queue = Arc::clone(&queue);
            let a = Arc::clone(&a);
            model::spawn(move || {
                for i in 0..3u64 {
                    queue.submit(spmv_spec(&a, i)).expect("queue open");
                }
                queue.close();
            })
        };
        let svc = Service::new(ServiceConfig::new(
            ExecutorConfig::sharded(PimDevice::tiny(2), 1).with_fusion(2),
        ))
        .expect("shards divide channels");
        let mut got: Vec<(u64, JobValue)> = Vec::new();
        svc.run(&queue, &mut |job| got.push((job.id, job.value)))
            .expect("jobs execute");
        producer.join();
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got, *golden, "fusion must never change numerics");
    });
    row("fusion_equivalence", &report)
}

// ---- section 3a: model-checker mutation self-tests ---------------------

fn mutation(name: &str, caught: bool, detail: String) -> MutationRow {
    MutationRow {
        name: name.to_string(),
        caught,
        detail,
    }
}

fn mutation_double_lock() -> MutationRow {
    let report = model::Explorer::new(100).explore(|| {
        let m = Mutex::labeled("mut.double", 0u32);
        let g1 = m.lock();
        let g2 = m.lock(); // seeded bug
        drop(g2);
        drop(g1);
    });
    let caught = matches!(report.failure, Some(model::Failure::DoubleLock { .. }));
    mutation("double_lock", caught, format!("{:?}", report.failure))
}

fn mutation_dropped_notify(budget: usize) -> MutationRow {
    let report = model::Explorer::new(budget).explore(|| {
        let ch = Arc::new((Mutex::labeled("mut.notify", None::<u32>), Condvar::new()));
        let tx = Arc::clone(&ch);
        let producer = model::spawn(move || {
            *tx.0.lock() = Some(7); // seeded bug: no notify
        });
        let mut g = ch.0.lock();
        while g.is_none() {
            g = ch.1.wait(g);
        }
        drop(g);
        producer.join();
    });
    let caught = matches!(report.failure, Some(model::Failure::Deadlock { .. }));
    mutation("dropped_notify", caught, format!("{:?}", report.failure))
}

fn mutation_swapped_lock_order(budget: usize) -> MutationRow {
    let report = model::Explorer::new(budget).explore(|| {
        let a = Arc::new(Mutex::labeled("mut.order.a", ()));
        let b = Arc::new(Mutex::labeled("mut.order.b", ()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = model::spawn(move || {
            let ga = a2.lock();
            let gb = b2.lock();
            drop(gb);
            drop(ga);
        });
        let gb = b.lock(); // seeded bug: inverted order
        let ga = a.lock();
        drop(ga);
        drop(gb);
        t.join();
    });
    let deadlocked = matches!(report.failure, Some(model::Failure::Deadlock { .. }));
    let cycled = order::find_cycle().is_some();
    mutation(
        "swapped_lock_order",
        deadlocked && cycled,
        format!("deadlock={deadlocked} cycle={cycled}"),
    )
}

// ---- section 3b: partial-synchrony lint sweep + mutants ----------------

fn has_code(asm: &str, code: LintCode) -> bool {
    assemble(asm)
        .map(|p| p.verify().iter().any(|d| d.code == code))
        .unwrap_or(false)
}

fn psync_lints() -> Vec<LintRow> {
    // The shipped stream kernels must stay clean under PSL014-016...
    let corpus = [
        programs::sparse_stream_semiring(Precision::Fp64, "MUL", "ADD"),
        programs::sparse_stream_batched(Precision::Fp64, "MUL", "ADD"),
        programs::spmm_stream(Precision::Fp64, "MAX", "MIN"),
        programs::sparse_stream(Precision::Fp32, "ADD"),
    ];
    // ...and a seeded violation of each pass must be flagged.
    let mutants = [
        (
            LintCode::PhaseDivergence,
            "SDV DRF0, DRF0, MUL, FP64\nCEXIT SPVQ0\nJUMP 0, 0, 0\n".to_string(),
        ),
        (
            LintCode::FusionSafety,
            // The first SPVDV pops SPVQ0; the second combines the now
            // stale DRF2 gather anyway.
            "SPMOV SPVQ0, BANK, ROW, FP64\nSPMOV SPVQ0, BANK, COL, FP64\n\
             SPMOV SPVQ0, BANK, VAL, FP64\nSPMOV SPVQ0, BANK, ROW, FP64\n\
             SPMOV SPVQ0, BANK, COL, FP64\nSPMOV SPVQ0, BANK, VAL, FP64\n\
             INDMOV DRF2, SPVQ0, FP64\nSPVDV SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64\n\
             SPVDV SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64\nEXIT\n"
                .to_string(),
        ),
        (
            LintCode::CExitTermination,
            "SPMOV SPVQ0, BANK, ROW, FP64\nCEXIT SPVQ0\nJUMP 0, 0, 0\n".to_string(),
        ),
    ];
    let row = |(code, mutant): (LintCode, String)| LintRow {
        code: code.code().to_string(),
        corpus_clean: corpus.iter().all(|asm| !has_code(asm, code)),
        mutant_caught: has_code(&mutant, code),
    };
    mutants.into_iter().map(row).collect()
}

/// Run the three sections at [`BUDGET`] executions per scenario; every
/// failed scenario, cyclic lock order, missed mutant or lint miss is a
/// violation.
pub fn psim_model(_: &Ctx, _: f64) -> Output {
    let budget = BUDGET;
    order::reset();

    // Section 1: real-scheduler scenarios.
    let scenarios = vec![
        scenario_admission_backpressure(budget),
        scenario_close_blocked_waiters(budget.saturating_mul(3)),
        scenario_store_eviction_race(budget),
        scenario_fusion_equivalence((budget / 8).max(200)),
    ];

    // Section 2: snapshot the production lock-order graph *before* the
    // mutation section pollutes it with its seeded inversion.
    let lock_order_edges: Vec<(String, String)> = order::edges()
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let lock_order_acyclic = order::find_cycle().is_none();

    // Section 3: the checker must catch its own seeded bugs.
    let mutations = vec![
        mutation_double_lock(),
        mutation_dropped_notify(budget),
        mutation_swapped_lock_order(budget),
    ];
    let lints = psync_lints();

    let failed = |what: &str, name: &str, detail: &str| format!("model {what} {name}: {detail}");
    let mut violations: Vec<String> = (scenarios.iter())
        .filter(|s| !s.failure.is_empty() || s.executions == 0)
        .map(|s| failed("scenario", &s.name, &s.failure))
        .chain(
            (mutations.iter().filter(|m| !m.caught))
                .map(|m| failed("mutant missed", &m.name, &m.detail)),
        )
        .chain(
            (lints
                .iter()
                .filter(|l| !(l.corpus_clean && l.mutant_caught)))
            .map(|l| {
                let detail = format!(
                    "corpus_clean={} mutant_caught={}",
                    l.corpus_clean, l.mutant_caught
                );
                failed("lint", &l.code, &detail)
            }),
        )
        .collect();
    if !lock_order_acyclic {
        violations.push(failed(
            "lock order",
            "cycle",
            &format!("{lock_order_edges:?}"),
        ));
    }
    let report = ModelReport {
        budget,
        scenarios,
        lock_order_edges,
        lock_order_acyclic,
        mutations,
        lints,
        pass: violations.is_empty(),
    };
    Output::json(&report, violations)
}
