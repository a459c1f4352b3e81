//! The scheduler's front-end, and the only way to execute jobs: an
//! admission loop over the bounded [`JobQueue`] driving the fusing,
//! work-stealing executor.
//!
//! A service faces *open arrivals*: producers keep submitting (blocking
//! on the queue's capacity for backpressure) while the service admits
//! windows of jobs, fuses same-matrix SpMV runs, and streams completions
//! into a caller-supplied sink. A closed batch is the special case: submit
//! every job, close the queue and run with `window: usize::MAX`, so one
//! admission window takes the whole batch and the lanes are planned over
//! all of it at once. Statistics accumulate incrementally
//! ([`crate::stats::SimAcc`]), so a million-job soak holds O(shards)
//! state, not a million result vectors.
//!
//! Determinism: `host_threads` never affects results, but the *admission
//! order* is whatever order jobs entered the queue. With one producer, a
//! queue closed before the run, or producers synchronized by the caller,
//! a service run is exactly reproducible; with racing producers the
//! interleaving is the caller's nondeterminism, not the service's.
//!
//! Concurrency verification: the service's only synchronization is the
//! queue's shim-backed locks (`psim_conc`), and the lane path degrades
//! to serial under the interleaving explorer — so the scenarios in
//! [`crate::scenarios`] (run by `tests/model_shutdown.rs` and the
//! `psim_model` gate) cover close racing an in-flight fusion window,
//! blocked `pop_wait_batch` waiters, and fused-vs-unfused value
//! equivalence across every explored schedule. See DESIGN.md §16.

use std::time::Instant;

use crate::executor::{CompletedJob, ExecutorConfig, LaneEngine, SchedError, ShardExecutor};
use crate::queue::JobQueue;
use crate::stats::{HostStats, ServiceStats, SimAcc};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The executor the admission loop drives (shards, fusion window
    /// width, validation, tracing).
    pub exec: ExecutorConfig,
    /// Jobs admitted per wakeup — the fusion stage scans one admission
    /// window at a time, so this bounds how far apart two SpMV jobs can
    /// be and still fuse. A few multiples of the fusion width is plenty
    /// for open arrivals; `usize::MAX` plans a closed batch at once.
    pub window: usize,
}

impl ServiceConfig {
    /// A service over `exec` with a default 4× fusion-width window.
    #[must_use]
    pub fn new(exec: ExecutorConfig) -> Self {
        let window = exec.fusion.max(1) * 4;
        ServiceConfig { exec, window }
    }
}

/// Report for one service run (queue opened → closed and drained).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Aggregated statistics (simulated half is deterministic given the
    /// admission order).
    pub stats: ServiceStats,
}

/// The always-on front-end.
#[derive(Debug)]
pub struct Service {
    exec: ShardExecutor,
    window: usize,
}

impl Service {
    /// Build the service, validating the executor's shard split.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadShardSplit`] when the shard count does not divide
    /// the device's pseudo-channels.
    pub fn new(cfg: ServiceConfig) -> Result<Self, SchedError> {
        Ok(Service {
            window: cfg.window.max(1),
            exec: ShardExecutor::new(cfg.exec)?,
        })
    }

    /// The underlying executor.
    #[must_use]
    pub fn executor(&self) -> &ShardExecutor {
        &self.exec
    }

    /// Serve the queue until it is closed and drained, streaming each
    /// completed job into `sink` (jobs are dropped after the sink returns
    /// — keep what you need). Lane clocks persist across admission
    /// windows, so simulated time is continuous for the whole run.
    ///
    /// # Errors
    ///
    /// [`SchedError::JobFailed`] when a kernel fails or its command
    /// stream breaks protocol; jobs admitted but not yet executed at that
    /// point are dropped.
    pub fn run(
        &self,
        queue: &JobQueue,
        sink: &mut dyn FnMut(CompletedJob),
    ) -> Result<ServiceReport, SchedError> {
        let started = Instant::now();
        let shards = self.exec.config().shards;
        let mut engine = LaneEngine::new(shards);
        let mut acc = SimAcc::new(shards);
        loop {
            let batch = queue.pop_wait_batch(self.window);
            if batch.is_empty() {
                break; // closed and drained
            }
            engine.feed(&self.exec, batch);
            engine.run_until_dry(&self.exec, &mut |job| {
                acc.record(&job);
                sink(job);
            })?;
        }
        acc.set_steals(engine.steals);
        Ok(ServiceReport {
            stats: ServiceStats {
                sim: acc.finish(),
                host: HostStats {
                    walltime_s: started.elapsed().as_secs_f64(),
                    threads: self.exec.config().host_threads.clamp(1, shards),
                },
            },
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec, JobValue};
    use crate::stats::ServiceStats;
    use psim_kernels::PimDevice;
    use serde::Serialize;
    use std::sync::Arc;

    /// Serve `queue` as a closed batch: close it, admit every queued job
    /// in one window, and return the completed jobs by id with the stats.
    pub(crate) fn serve_closed(
        exec: ExecutorConfig,
        queue: &JobQueue,
    ) -> (Vec<CompletedJob>, ServiceStats) {
        queue.close();
        let svc = Service::new(ServiceConfig {
            exec,
            window: usize::MAX,
        })
        .unwrap();
        let mut jobs = Vec::new();
        let report = svc.run(queue, &mut |job| jobs.push(job)).unwrap();
        jobs.sort_by_key(|j| j.id);
        (jobs, report.stats)
    }

    #[test]
    fn service_drains_open_arrivals_with_backpressure() {
        // A tiny queue (capacity 4) forces the producer to block on
        // submit while the service consumes — classic backpressure. The
        // producer stamps arrivals; the report must cover every job.
        let queue = Arc::new(JobQueue::bounded(4));
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let a = Arc::new(psim_sparse::gen::rmat(48, 3, 5));
                for i in 0..16u64 {
                    let x: Vec<f64> = (0..48).map(|k| (i + k + 1) as f64).collect();
                    let spec =
                        JobSpec::batch("t0", JobKind::spmv(Arc::clone(&a), x)).at(i as f64 * 1e-5);
                    queue.submit(spec).unwrap();
                }
                queue.close();
            })
        };
        let svc = Service::new(ServiceConfig::new(
            ExecutorConfig::sharded(PimDevice::tiny(2), 2).with_fusion(4),
        ))
        .unwrap();
        let mut seen = Vec::new();
        let report = svc.run(&queue, &mut |job| seen.push(job.id)).unwrap();
        producer.join().unwrap();
        assert_eq!(report.stats.sim.jobs, 16);
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
        assert!(
            report.stats.sim.fused_jobs > 0,
            "same-matrix SpMV stream must fuse"
        );
        // Arrivals are honored: no wait can be negative, and the makespan
        // at least reaches the last arrival.
        assert!(report.stats.sim.makespan_s >= 15.0 * 1e-5);
    }

    /// FNV-1a over a drain's deterministic output: the simulated stats
    /// plus every job's shard, service cycles, violations and value bits,
    /// in job order.
    fn drain_fingerprint(validate: bool) -> (u64, u64) {
        let a = Arc::new(psim_sparse::gen::rmat(40, 3, 9));
        let band = psim_sparse::gen::banded_fem(60, 3, 2, 5);
        let t = Arc::new(
            psim_sparse::triangular::unit_triangular_from(
                &band,
                psim_sparse::triangular::Triangle::Lower,
            )
            .unwrap(),
        );
        let queue = JobQueue::bounded(32);
        for i in 0..8u64 {
            let x: Vec<f64> = (0..40).map(|k| (i * 5 + k) as f64 * 0.5).collect();
            queue
                .submit(JobSpec::batch("t0", JobKind::spmv(Arc::clone(&a), x)))
                .unwrap();
            let b: Vec<f64> = (0..60).map(|k| 1.0 + ((i + k) % 7) as f64).collect();
            queue
                .submit(JobSpec::batch(
                    "t1",
                    JobKind::Sptrsv {
                        t: Arc::clone(&t),
                        b,
                    },
                ))
                .unwrap();
        }
        queue
            .submit(JobSpec::batch(
                "t2",
                JobKind::Dot {
                    x: vec![1.5; 300],
                    y: vec![2.0; 300],
                },
            ))
            .unwrap();
        queue.close();
        let mut exec = ExecutorConfig::sharded(PimDevice::tiny(2), 2).with_fusion(4);
        exec.validate = validate;
        let svc = Service::new(ServiceConfig::new(exec)).unwrap();
        let mut jobs = Vec::new();
        let report = svc.run(&queue, &mut |job| jobs.push(job)).unwrap();
        jobs.sort_by_key(|j| j.id);
        let mut text = report.stats.sim.to_json();
        let mut violations = 0;
        for job in &jobs {
            violations += job.run.violations;
            text.push_str(&format!("|{}:{}:{}", job.id, job.shard, job.service_cycles));
            match &job.value {
                JobValue::Vector(v) => v
                    .iter()
                    .for_each(|x| text.push_str(&format!(",{:x}", x.to_bits()))),
                JobValue::Scalar(x) => text.push_str(&format!(",{:x}", x.to_bits())),
            }
        }
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (hash, violations)
    }

    #[test]
    fn validated_drain_matches_unvalidated_and_is_unchanged() {
        // Validation lints each compiled program once and replays every
        // launch through the protocol checker; neither may change a value,
        // a cycle or a placement. Pinned to the drain with every SpMV
        // group running its tuned layout.
        let checked = drain_fingerprint(true);
        assert_eq!(checked.1, 0, "a validated drain is protocol-clean");
        assert_eq!(checked, drain_fingerprint(false));
        assert_eq!(checked.0, 14_881_808_994_214_044_520);
    }

    #[test]
    fn a_short_operand_fails_its_job_instead_of_the_lane() {
        // An SpTRSV right-hand side or SpMV vector shorter than its matrix,
        // or a BLAS-1 `y` shorter than its `x`, is an operand error the
        // kernel returns, not a panic inside a lane: the service ends in
        // `JobFailed` naming the job, after the well-formed job ahead of it
        // completed.
        let band = psim_sparse::gen::banded_fem(60, 3, 2, 5);
        let t = psim_sparse::triangular::unit_triangular_from(
            &band,
            psim_sparse::triangular::Triangle::Lower,
        )
        .unwrap();
        let a = psim_sparse::gen::rmat(40, 3, 9);
        let bad = [
            (
                JobKind::Sptrsv {
                    t: Arc::new(t),
                    b: vec![1.0; 59],
                },
                "right-hand side has 59 elements",
            ),
            (
                JobKind::spmv(Arc::new(a), vec![1.0; 39]),
                "vector 0 has 39 elements",
            ),
            (
                JobKind::Axpy {
                    alpha: 2.0,
                    x: vec![1.0; 30],
                    y: vec![1.0; 29],
                },
                "daxpy operands have 30 and 29 elements",
            ),
            (
                JobKind::Vv {
                    x: vec![1.0; 30],
                    y: vec![1.0; 29],
                    op: psyncpim_core::isa::BinaryOp::Max,
                },
                "dvdv operands have 30 and 29 elements",
            ),
            (
                JobKind::Dot {
                    x: vec![1.0; 30],
                    y: vec![1.0; 29],
                },
                "ddot operands have 30 and 29 elements",
            ),
        ];
        for (kind, message) in bad {
            let queue = JobQueue::bounded(4);
            let dot = JobKind::Dot {
                x: vec![1.5; 30],
                y: vec![2.0; 30],
            };
            queue.submit(JobSpec::batch("t0", dot)).unwrap();
            let id = queue.submit(JobSpec::batch("t0", kind)).unwrap();
            queue.close();
            let exec = ExecutorConfig::sharded(PimDevice::tiny(2), 2);
            let svc = Service::new(ServiceConfig::new(exec)).unwrap();
            match svc.run(&queue, &mut |_| {}) {
                Err(SchedError::JobFailed { id: failed, error }) => {
                    assert_eq!(failed, id);
                    assert!(error.contains(message), "{error}");
                }
                other => panic!("expected JobFailed, got {other:?}"),
            }
        }
    }
}
