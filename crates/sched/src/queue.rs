//! Bounded multi-tenant job queue with fair drain ordering.
//!
//! The queue is MPMC: any number of submitter threads block on
//! [`JobQueue::submit`] when the queue is full (backpressure instead of
//! unbounded memory growth), and any number of workers call
//! [`JobQueue::pop`] / [`JobQueue::pop_wait`].
//!
//! Drain order implements the scheduling policy:
//!
//! 1. **Strict class priority** — every queued [`JobClass::Interactive`]
//!    job is served before any [`JobClass::Batch`] job, which is served
//!    before any [`JobClass::BestEffort`] job.
//! 2. **Least-attained-service across tenants** — within a class, the next
//!    job comes from the tenant with the smallest accumulated served cost
//!    (a priori [`JobKind::cost_estimate`] units, ties broken by tenant
//!    name). A tenant that just ran a huge matrix therefore waits while
//!    tenants with small jobs catch up — one tenant cannot starve the
//!    others.
//! 3. **FIFO within a tenant** — a tenant's own jobs run in submission
//!    order.
//!
//! Given the same set of queued jobs, the drain order is a pure function
//! of specs and submission order — never of thread timing — which is what
//! lets the service promise bit-identical parallel results.
//!
//! Synchronization goes through the [`psim_conc`] shim: in production it
//! is `std::sync` with poisoning recovered (a panicked worker must not
//! cascade `Err(Poisoned)` into every submitter — all queue invariants
//! are re-established under the lock, and every wait re-checks its
//! predicate in a loop), while under `PSIM_SYNC=instrument` or the
//! `psim_conc::model` explorer the same code paths are lock-order
//! checked and interleaving-explored (see the `psim_model` gate).
//! Wakeups are signalled *after* the lock is released: correctness never
//! depends on it (waiters re-check predicates), it just spares the woken
//! thread an immediate block on the still-held mutex.

use std::collections::{BTreeMap, VecDeque};

use psim_conc::{Condvar, Mutex};

#[allow(unused_imports)] // doc link
use crate::job::JobKind;
use crate::job::{Job, JobClass, JobId, JobSpec};

/// Submission failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (only from [`JobQueue::try_submit`]).
    Full,
    /// The queue was closed; no further jobs are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "job queue is full"),
            SubmitError::Closed => write!(f, "job queue is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug, Default)]
struct TenantState {
    /// Per-class FIFO of this tenant's pending jobs.
    pending: [VecDeque<Job>; 3],
    /// Cost units this tenant has been served so far (fairness key).
    served_cost: u64,
}

#[derive(Debug)]
struct Inner {
    tenants: BTreeMap<String, TenantState>,
    len: usize,
    capacity: usize,
    next_id: JobId,
    closed: bool,
}

/// The bounded multi-tenant queue.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl JobQueue {
    /// A queue holding at most `capacity` pending jobs.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::labeled(
                "sched.queue",
                Inner {
                    tenants: BTreeMap::new(),
                    len: 0,
                    capacity: capacity.max(1),
                    next_id: 0,
                    closed: false,
                },
            ),
            not_full: Condvar::labeled("sched.queue.not_full"),
            not_empty: Condvar::labeled("sched.queue.not_empty"),
        }
    }

    /// Submit a job, blocking while the queue is full. Returns the
    /// assigned id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if the queue has been closed.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let mut inner = self.inner.lock();
        loop {
            if inner.closed {
                return Err(SubmitError::Closed);
            }
            if inner.len < inner.capacity {
                break;
            }
            inner = self.not_full.wait(inner);
        }
        let id = Self::enqueue(&mut inner, spec);
        drop(inner);
        self.not_empty.notify_one();
        Ok(id)
    }

    /// Submit without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when at capacity, [`SubmitError::Closed`]
    /// after [`JobQueue::close`].
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        if inner.len >= inner.capacity {
            return Err(SubmitError::Full);
        }
        let id = Self::enqueue(&mut inner, spec);
        drop(inner);
        self.not_empty.notify_one();
        Ok(id)
    }

    fn enqueue(inner: &mut Inner, spec: JobSpec) -> JobId {
        let id = inner.next_id;
        inner.next_id += 1;
        let class_idx = spec.class as usize;
        let tenant = inner.tenants.entry(spec.tenant.clone()).or_default();
        tenant.pending[class_idx].push_back(Job { id, spec });
        inner.len += 1;
        id
    }

    /// Close the queue: submissions fail from now on, pops drain what is
    /// left.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Take the next job per the fairness policy, or `None` if nothing is
    /// pending.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        let job = Self::pick(&mut inner);
        drop(inner);
        if job.is_some() {
            self.not_full.notify_one();
        }
        job
    }

    /// Take the next job, blocking until one is available. Returns `None`
    /// only when the queue is closed *and* drained.
    pub fn pop_wait(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = Self::pick(&mut inner) {
                drop(inner);
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner);
        }
    }

    /// Take up to `max` jobs in fairness order, blocking until at least
    /// one is available. Returns an empty vector only when the queue is
    /// closed *and* drained. This is the service admission primitive: one
    /// wakeup admits a whole window (the executor's fusion stage scans
    /// it for same-matrix SpMV runs), instead of paying a lock round-trip
    /// per job.
    #[must_use]
    pub fn pop_wait_batch(&self, max: usize) -> Vec<Job> {
        let mut inner = self.inner.lock();
        loop {
            if inner.len > 0 {
                break;
            }
            if inner.closed {
                return Vec::new();
            }
            inner = self.not_empty.wait(inner);
        }
        let take = max.max(1).min(inner.len);
        let mut jobs = Vec::with_capacity(take);
        while jobs.len() < take {
            jobs.push(Self::pick(&mut inner).expect("len > 0"));
        }
        drop(inner);
        self.not_full.notify_all();
        jobs
    }

    /// The fairness policy: highest non-empty class; within it, the tenant
    /// with least attained service (ties by name); within the tenant,
    /// FIFO.
    fn pick(inner: &mut Inner) -> Option<Job> {
        for class in JobClass::ALL {
            let class_idx = class as usize;
            let winner = inner
                .tenants
                .iter()
                .filter(|(_, t)| !t.pending[class_idx].is_empty())
                .min_by_key(|(name, t)| (t.served_cost, name.as_str().to_owned()))
                .map(|(name, _)| name.clone());
            if let Some(name) = winner {
                let tenant = inner.tenants.get_mut(&name).expect("winner exists");
                let job = tenant.pending[class_idx].pop_front().expect("non-empty");
                tenant.served_cost += job.cost_estimate();
                inner.len -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Pending jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum pending jobs before submitters block.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use std::sync::Arc;

    fn vec_job(tenant: &str, n: usize) -> JobSpec {
        JobSpec::batch(
            tenant,
            JobKind::Scal {
                alpha: 2.0,
                x: vec![1.0; n],
            },
        )
    }

    #[test]
    fn fifo_within_single_tenant() {
        let q = JobQueue::bounded(16);
        let a = q.submit(vec_job("t0", 8)).unwrap();
        let b = q.submit(vec_job("t0", 8)).unwrap();
        assert_eq!(q.pop().unwrap().id, a);
        assert_eq!(q.pop().unwrap().id, b);
        assert!(q.pop().is_none());
    }

    #[test]
    fn class_priority_beats_submission_order() {
        let q = JobQueue::bounded(16);
        let _batch = q.submit(vec_job("t0", 8)).unwrap();
        let urgent = q
            .submit(vec_job("t0", 8).with_class(JobClass::Interactive))
            .unwrap();
        let _idle = q
            .submit(vec_job("t0", 8).with_class(JobClass::BestEffort))
            .unwrap();
        assert_eq!(q.pop().unwrap().id, urgent);
        assert_eq!(q.pop().unwrap().spec.class, JobClass::Batch);
        assert_eq!(q.pop().unwrap().spec.class, JobClass::BestEffort);
    }

    #[test]
    fn large_tenant_cannot_starve_small_jobs() {
        let q = JobQueue::bounded(64);
        // "whale" queues five huge jobs before "minnow" queues four tiny
        // ones; least-attained-service must still interleave them.
        for _ in 0..5 {
            q.submit(vec_job("whale", 100_000)).unwrap();
        }
        for _ in 0..4 {
            q.submit(vec_job("minnow", 16)).unwrap();
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|j| j.spec.tenant)
            .collect();
        // One whale job charges 100k service units, so every minnow job
        // must drain before the whale's *second* job.
        let second_whale = order
            .iter()
            .enumerate()
            .filter(|(_, t)| *t == "whale")
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let last_minnow = order.iter().rposition(|t| t == "minnow").unwrap();
        assert!(
            last_minnow < second_whale,
            "minnow starved: order {order:?}"
        );
    }

    #[test]
    fn try_submit_backpressure_and_close() {
        let q = JobQueue::bounded(2);
        q.try_submit(vec_job("t", 4)).unwrap();
        q.try_submit(vec_job("t", 4)).unwrap();
        assert_eq!(q.try_submit(vec_job("t", 4)), Err(SubmitError::Full));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_submit(vec_job("t", 4)), Err(SubmitError::Closed));
        // Draining still works after close.
        assert!(q.pop_wait().is_some());
        assert!(q.pop_wait().is_some());
        assert!(q.pop_wait().is_none());
    }

    #[test]
    fn blocking_submit_resumes_after_pop() {
        let q = Arc::new(JobQueue::bounded(1));
        q.submit(vec_job("t", 4)).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.submit(vec_job("t", 8)).unwrap());
        // The producer blocks until this pop frees a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(q.pop().is_some());
        let id = producer.join().unwrap();
        assert_eq!(q.pop().unwrap().id, id);
    }

    #[test]
    fn pop_wait_batch_takes_a_fair_window() {
        let q = JobQueue::bounded(16);
        for n in [8, 16, 32, 64] {
            q.submit(vec_job("t0", n)).unwrap();
        }
        let urgent = q
            .submit(vec_job("t1", 8).with_class(JobClass::Interactive))
            .unwrap();
        let batch = q.pop_wait_batch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].id, urgent, "class priority leads the window");
        assert_eq!(q.len(), 2);
        // Asking for more than is pending returns what's there.
        assert_eq!(q.pop_wait_batch(10).len(), 2);
        // Closed and drained: empty without blocking.
        q.close();
        assert!(q.pop_wait_batch(4).is_empty());
    }

    #[test]
    fn drain_order_is_reproducible() {
        let build = || {
            let q = JobQueue::bounded(64);
            for (tenant, n) in [("a", 100), ("b", 10), ("a", 5), ("c", 50), ("b", 200)] {
                q.submit(vec_job(tenant, n)).unwrap();
            }
            std::iter::from_fn(|| q.pop())
                .map(|j| j.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
