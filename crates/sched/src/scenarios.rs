//! The scheduler's interleaving scenarios: small configurations of the
//! real queue, store and service code, each explored through every
//! schedule the sync shim can distinguish ([`psim_conc::model::Explorer`])
//! up to an execution budget. Any deadlock, lost wakeup or failed
//! invariant in an explored schedule comes back as the report's
//! [`Failure`](psim_conc::model::Failure) with a repro trail.
//!
//! Each scenario asserts its invariants after its joins, where only one
//! thread is live, so the assertions add no scheduling decisions. The
//! `psim_model` gate of the results runner runs four of them at its
//! committed budgets; `tests/model_shutdown.rs` runs all five at test
//! budgets.

use crate::{
    ExecutorConfig, JobKind, JobQueue, JobSpec, JobValue, MatrixStore, Service, ServiceConfig,
};
use psim_conc::model::{self, Explorer, Report};
use psim_kernels::PimDevice;
use psim_sparse::{gen, Coo};
use std::sync::Arc;

fn spmv_spec(a: &Arc<Coo>, i: u64) -> JobSpec {
    let n = a.ncols();
    let x: Vec<f64> = (0..n as u64)
        .map(|k| (i * 7 + k + 1) as f64 * 0.5)
        .collect();
    JobSpec::batch("t0", JobKind::spmv(Arc::clone(a), x))
}

/// The fused service on one two-channel shard with fusion width 2.
fn fused_service() -> Service {
    Service::new(ServiceConfig::new(
        ExecutorConfig::sharded(PimDevice::tiny(2), 1).with_fusion(2),
    ))
    .expect("shards divide channels")
}

/// A producer that submits SpMV jobs `0..jobs` on `a`, then closes.
fn producer(queue: &Arc<JobQueue>, a: &Arc<Coo>, jobs: u64) -> model::JoinHandle<()> {
    let queue = Arc::clone(queue);
    let a = Arc::clone(a);
    model::spawn(move || {
        for i in 0..jobs {
            queue.submit(spmv_spec(&a, i)).expect("queue open");
        }
        queue.close();
    })
}

/// Two producers race into a capacity-1 queue (full backpressure: every
/// submit may block) while a consumer drains batches until close. No
/// schedule may deadlock, and all four jobs arrive exactly once.
#[must_use]
pub fn admission_backpressure(budget: usize) -> Report {
    let a = Arc::new(gen::rmat(8, 2, 1));
    Explorer::new(budget).explore(move || {
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
    })
}

/// Two waiters are blocked in `pop_wait_batch` when one job and the close
/// land. The close's `notify_all` must reach both (a lost wakeup would
/// deadlock: the model condvar has no spurious wakeups to paper over
/// it), the single job goes to exactly one waiter, and the closed queue
/// then drains empty.
#[must_use]
pub fn close_blocked_waiters(budget: usize) -> Report {
    let a = Arc::new(gen::rmat(8, 2, 2));
    Explorer::new(budget).explore(move || {
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
        assert!(queue.pop_wait_batch(2).is_empty(), "closed and drained");
    })
}

/// Two threads insert and get through a store whose budget holds only
/// one of the two matrices, so every schedule churns LRU eviction. A hit
/// returns the matrix inserted under its name, the store's byte
/// accounting audits clean afterwards, and the most recent insert
/// survives its own eviction pass.
#[must_use]
pub fn store_eviction_race(budget: usize) -> Report {
    let m0 = gen::rmat(16, 2, 3);
    let m1 = gen::rmat(16, 2, 4);
    let probe = MatrixStore::new();
    probe.insert("m0", m0.clone());
    let store_budget = probe.resident_bytes() * 3 / 2;
    Explorer::new(budget).explore(move || {
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
        assert!(store.len() <= 2, "never more resident than inserted");
        assert!(
            store.get("m0").is_some() || store.get("m1").is_some(),
            "at least the most recent insert is resident"
        );
        store.audit();
    })
}

/// The fused service against an unfused closed-batch run of the same
/// jobs, with a producer racing the admission loop: per-job values must
/// be bit-identical in every explored admission/close interleaving.
/// Fusion and admission timing change scheduling, never numerics.
#[must_use]
pub fn fusion_equivalence(budget: usize) -> Report {
    let a = Arc::new(gen::rmat(16, 2, 5));
    let golden: Arc<Vec<(u64, JobValue)>> = {
        let queue = JobQueue::bounded(8);
        for i in 0..3u64 {
            queue.submit(spmv_spec(&a, i)).expect("queue open");
        }
        queue.close();
        let unfused = Service::new(ServiceConfig {
            exec: ExecutorConfig::sharded(PimDevice::tiny(2), 1),
            window: usize::MAX,
        })
        .expect("shards divide channels");
        let mut values = Vec::new();
        unfused
            .run(&queue, &mut |job| values.push((job.id, job.value)))
            .expect("golden run");
        values.sort_by_key(|(id, _)| *id);
        Arc::new(values)
    };
    Explorer::new(budget).explore(move || {
        let queue = Arc::new(JobQueue::bounded(2));
        let producer = producer(&queue, &a, 3);
        let mut got: Vec<(u64, JobValue)> = Vec::new();
        fused_service()
            .run(&queue, &mut |job| got.push((job.id, job.value)))
            .expect("jobs execute");
        producer.join();
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got, *golden, "fusion must never change numerics");
    })
}

/// A producer submits three same-matrix SpMV jobs and closes while the
/// service admits fusion windows. Whether the close lands before, inside
/// or after a window, every submitted job completes exactly once and the
/// run terminates.
#[must_use]
pub fn close_during_fusion_window(budget: usize) -> Report {
    let a = Arc::new(gen::rmat(16, 2, 1));
    Explorer::new(budget).explore(move || {
        let queue = Arc::new(JobQueue::bounded(4));
        let producer = producer(&queue, &a, 3);
        let mut seen = Vec::new();
        let stats = fused_service()
            .run(&queue, &mut |job| seen.push(job.id))
            .expect("jobs execute")
            .stats;
        producer.join();
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![0, 1, 2],
            "every admitted job completes exactly once"
        );
        assert_eq!(stats.sim.jobs, 3);
    })
}
