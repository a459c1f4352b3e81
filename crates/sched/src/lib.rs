//! psim-sched: multi-tenant job scheduling for the pSyncPIM simulator.
//!
//! Production PIM deployments don't run one kernel at a time — they serve
//! a stream of requests from many tenants against shared operands. This
//! crate layers that service model on top of the simulator:
//!
//! * [`job`] — job descriptions: a [`job::JobSpec`] names the tenant, a
//!   deadline [`job::JobClass`], the precision, and the requested kernel
//!   ([`job::JobKind`]: SpMV / SpTRSV / BLAS-1) over [`std::sync::Arc`]
//!   matrix handles registered in a [`job::MatrixStore`].
//! * [`queue`] — a bounded MPMC [`queue::JobQueue`] with backpressure
//!   (submitters block when full) and a fair drain order: strict class
//!   priority, least-attained-service across tenants, FIFO within a
//!   tenant. One tenant's giant matrix cannot starve another's small
//!   jobs.
//! * [`service`] — the front-end and the only way to execute jobs: an
//!   admission loop ([`service::Service::run`]) that pops fairness-ordered
//!   windows off the queue, fuses same-matrix SpMV jobs into SpMM passes
//!   and streams completions into a sink. A closed batch is a run over a
//!   closed queue whose one window (`window: usize::MAX`) takes every job.
//! * [`executor`] — the channel-sharded [`executor::ShardExecutor`] the
//!   service drives: the device's independent pseudo-channels are carved
//!   into equal shards ([`psim_kernels::PimDevice::shard`]) that serve
//!   different jobs concurrently *in simulated time*. Host threads
//!   (`std::thread::scope`) only accelerate the simulation itself:
//!   job→shard placement is deterministic and outcomes merge in shard
//!   order, so any thread count produces byte-identical results.
//! * [`stats`] — per-job service accounting: queue wait, service time and
//!   end-to-end latency histograms (p50/p95/p99 via
//!   [`psyncpim_core::Histogram`]), simulated makespan and jobs/s, split
//!   into a deterministic simulated half and a host-walltime half.
//! * [`scenarios`] — the queue, store and service scenarios the
//!   interleaving explorer checks, shared by the `psim_model` gate and
//!   this crate's tests.
//!
//! # Example
//!
//! A closed batch: queue the jobs, close the queue, serve it in one
//! admission window.
//!
//! ```
//! use psim_sched::{ExecutorConfig, JobKind, JobQueue, JobSpec, Service, ServiceConfig};
//! use psim_kernels::PimDevice;
//! use std::sync::Arc;
//!
//! let queue = JobQueue::bounded(32);
//! let a = Arc::new(psim_sparse::gen::rmat(32, 2, 1));
//! queue.submit(JobSpec::batch("alice", JobKind::spmv(a, vec![1.0; 32]))).unwrap();
//! queue.submit(JobSpec::batch("bob", JobKind::Norm2 { x: vec![3.0, 4.0] })).unwrap();
//! queue.close();
//!
//! let exec = ExecutorConfig::sharded(PimDevice::tiny(2), 2);
//! let svc = Service::new(ServiceConfig { exec, window: usize::MAX }).unwrap();
//! let mut jobs = Vec::new();
//! let report = svc.run(&queue, &mut |job| jobs.push(job)).unwrap();
//! assert_eq!(jobs.len(), 2);
//! assert!(report.stats.sim.jobs_per_sim_s > 0.0);
//! ```

pub mod executor;
pub mod job;
pub mod queue;
pub mod scenarios;
pub mod service;
pub mod stats;

pub use executor::{CompletedJob, ExecutorConfig, SchedError, ShardExecutor};
pub use job::{Job, JobClass, JobId, JobKind, JobSpec, JobValue, MatrixStore};
pub use queue::{JobQueue, SubmitError};
pub use service::{Service, ServiceConfig, ServiceReport};
pub use stats::{ClassStats, HostStats, ServiceStats, SimAcc, SimStats};
