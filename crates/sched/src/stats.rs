//! Per-job service statistics.
//!
//! Split into two halves on purpose:
//!
//! * [`SimStats`] is computed entirely from *simulated* quantities (DRAM
//!   cycles, modeled seconds) in deterministic merge order, so its JSON
//!   serialization is byte-identical across host thread counts — the
//!   determinism tests compare exactly this.
//! * [`HostStats`] is the host-side measurement (walltime, threads used)
//!   and is excluded from determinism comparisons.
//!
//! [`SimAcc`] builds [`SimStats`] as a stream: the service records each
//! [`CompletedJob`] as it finishes and drops it, so a million-job soak
//! never retains a million result vectors just to report quantiles at the
//! end.

use psyncpim_core::{CycleBreakdown, Histogram};
use serde::Serialize;

use crate::executor::CompletedJob;
use crate::job::JobClass;

/// Latency breakdown for one deadline class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassStats {
    /// Class label (`interactive`, `batch`, `best-effort`).
    pub class: String,
    /// Jobs completed in this class.
    pub jobs: u64,
    /// End-to-end simulated latency (queue wait + service), nanoseconds.
    pub latency_ns: Histogram,
}

/// Deterministic simulated-time statistics for one service run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimStats {
    /// Jobs completed.
    pub jobs: u64,
    /// Shards the device was split into.
    pub shards: usize,
    /// Simulated makespan: the busiest shard's total service time, in
    /// DRAM command cycles (kernel portion).
    pub makespan_cycles: u64,
    /// Simulated makespan in seconds: the latest job finish instant
    /// (kernel + host-interface service; includes arrival gaps under an
    /// open-arrival trace).
    pub makespan_s: f64,
    /// Device-busy seconds: the sum of every executed group's service
    /// time (fused followers excluded — their group's leader already
    /// carries it). For an unfused closed batch this is what a 1-shard
    /// device would need.
    pub serial_s: f64,
    /// `serial_s / makespan_s`: concurrency the shard split achieved.
    pub speedup_vs_serial: f64,
    /// Completed jobs per simulated second (`jobs / makespan_s`).
    pub jobs_per_sim_s: f64,
    /// Queue-wait (time on the shard's run queue), nanoseconds.
    pub wait_ns: Histogram,
    /// Service time (kernel + host interface), nanoseconds.
    pub service_ns: Histogram,
    /// End-to-end latency (wait + service), nanoseconds.
    pub latency_ns: Histogram,
    /// Per-class latency breakdown, in class-priority order (classes with
    /// no jobs omitted).
    pub per_class: Vec<ClassStats>,
    /// Busy cycles per shard, in shard order (load-balance visibility).
    pub per_shard_busy_cycles: Vec<u64>,
    /// psim-trace service attribution summed over jobs: where every
    /// service cycle of the batch went, per stall category. All-zero
    /// unless the executor traces; with tracing on its total equals the
    /// sum of every job's `service_cycles`.
    pub service_attr: CycleBreakdown,
    /// Stall events the jobs' bounded trace buffers could not hold —
    /// counted here so truncation is never silent.
    pub trace_dropped: u64,
    /// Groups moved between shard lanes by the deterministic stealer.
    pub steals: u64,
    /// Jobs that ran inside a fused SpMM group of width > 1.
    pub fused_jobs: u64,
    /// Fused SpMM passes executed (groups of width > 1).
    pub fused_groups: u64,
}

/// Streaming accumulator for [`SimStats`]: record each completed job as it
/// finishes, then [`SimAcc::finish`]. Every aggregate but one is
/// independent of the recording order; `serial_s` is a float sum, so its
/// last bit follows the order the service completes jobs in. Holds
/// histograms and counters only, never the jobs, so memory stays
/// O(shards) across a million-job soak.
#[derive(Debug, Clone)]
pub struct SimAcc {
    shards: usize,
    jobs: u64,
    wait_ns: Histogram,
    service_ns: Histogram,
    latency_ns: Histogram,
    class_hists: [(u64, Histogram); 3],
    per_shard_busy_cycles: Vec<u64>,
    shard_end_s: Vec<f64>,
    serial_s: f64,
    service_attr: CycleBreakdown,
    trace_dropped: u64,
    steals: u64,
    fused_jobs: u64,
    fused_groups: u64,
}

impl SimAcc {
    /// An empty accumulator for a `shards`-lane executor.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        SimAcc {
            shards,
            jobs: 0,
            wait_ns: Histogram::new(),
            service_ns: Histogram::new(),
            latency_ns: Histogram::new(),
            class_hists: [
                (0, Histogram::new()),
                (0, Histogram::new()),
                (0, Histogram::new()),
            ],
            per_shard_busy_cycles: vec![0; shards],
            shard_end_s: vec![0.0; shards],
            serial_s: 0.0,
            service_attr: CycleBreakdown::default(),
            trace_dropped: 0,
            steals: 0,
            fused_jobs: 0,
            fused_groups: 0,
        }
    }

    /// Fold one completed job in.
    pub fn record(&mut self, job: &CompletedJob) {
        self.jobs += 1;
        self.wait_ns.record_seconds(job.wait_s);
        self.service_ns.record_seconds(job.service_s);
        let latency_s = job.wait_s + job.service_s;
        self.latency_ns.record_seconds(latency_s);
        // Followers share their leader's service time; counting it once
        // (the leader) keeps serial_s equal to device-busy seconds.
        if job.fused_leader {
            self.serial_s += job.service_s;
        }
        if job.fused_width > 1 {
            self.fused_jobs += 1;
            if job.fused_leader {
                self.fused_groups += 1;
            }
        }
        self.per_shard_busy_cycles[job.shard] += job.service_cycles;
        self.shard_end_s[job.shard] = self.shard_end_s[job.shard].max(job.finish_s);
        self.service_attr.add_all(&job.run.attr);
        self.trace_dropped += job.run.metrics.as_ref().map_or(0, |m| m.events_dropped);
        let slot = &mut self.class_hists[job.class as usize];
        slot.0 += 1;
        slot.1.record_seconds(latency_s);
    }

    /// Record the executor's steal count (kept out of [`SimAcc::record`]
    /// because steals are per-run, not per-job).
    pub fn set_steals(&mut self, steals: u64) {
        self.steals = steals;
    }

    /// The aggregated statistics.
    #[must_use]
    pub fn finish(self) -> SimStats {
        let makespan_s = self.shard_end_s.iter().copied().fold(0.0f64, f64::max);
        let makespan_cycles = self
            .per_shard_busy_cycles
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let per_class = JobClass::ALL
            .iter()
            .filter_map(|&c| {
                let (n, h) = &self.class_hists[c as usize];
                (*n > 0).then(|| ClassStats {
                    class: c.label().to_string(),
                    jobs: *n,
                    latency_ns: *h,
                })
            })
            .collect();
        SimStats {
            jobs: self.jobs,
            shards: self.shards,
            makespan_cycles,
            makespan_s,
            serial_s: self.serial_s,
            speedup_vs_serial: if makespan_s > 0.0 {
                self.serial_s / makespan_s
            } else {
                0.0
            },
            jobs_per_sim_s: if makespan_s > 0.0 {
                self.jobs as f64 / makespan_s
            } else {
                0.0
            },
            wait_ns: self.wait_ns,
            service_ns: self.service_ns,
            latency_ns: self.latency_ns,
            per_class,
            per_shard_busy_cycles: self.per_shard_busy_cycles,
            service_attr: self.service_attr,
            trace_dropped: self.trace_dropped,
            steals: self.steals,
            fused_jobs: self.fused_jobs,
            fused_groups: self.fused_groups,
        }
    }
}

/// Host-side (non-deterministic) measurements for one service run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HostStats {
    /// Wall-clock seconds the host spent serving the run.
    pub walltime_s: f64,
    /// Host worker threads used (`host_threads` clamped to the shards).
    pub threads: usize,
}

/// Full service report: deterministic simulated half plus host half.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceStats {
    /// Simulated-time statistics (deterministic; compare this).
    pub sim: SimStats,
    /// Host-side measurements (informational only).
    pub host: HostStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::CompletedJob;
    use crate::job::JobValue;

    /// Fold `jobs` through a [`SimAcc`] the way the service does.
    fn aggregate(jobs: &[CompletedJob], shards: usize, steals: u64) -> SimStats {
        let mut acc = SimAcc::new(shards);
        for job in jobs {
            acc.record(job);
        }
        acc.set_steals(steals);
        acc.finish()
    }

    fn job(id: u64, shard: usize, class: JobClass, wait_s: f64, service_s: f64) -> CompletedJob {
        CompletedJob {
            id,
            tenant: "t".to_string(),
            class,
            kind: "scal",
            shard,
            value: JobValue::Scalar(0.0),
            run: psim_kernels::KernelRun::default(),
            wait_s,
            service_s,
            service_cycles: (service_s * 1e9) as u64,
            arrival_s: 0.0,
            finish_s: wait_s + service_s,
            fused_width: 1,
            fused_leader: true,
        }
    }

    #[test]
    fn aggregates_makespan_and_speedup() {
        let jobs = vec![
            job(0, 0, JobClass::Batch, 0.0, 2e-6),
            job(1, 1, JobClass::Batch, 0.0, 1e-6),
            job(2, 1, JobClass::Interactive, 1e-6, 1e-6),
        ];
        let s = aggregate(&jobs, 2, 0);
        assert_eq!(s.jobs, 3);
        assert!((s.serial_s - 4e-6).abs() < 1e-18);
        assert!((s.makespan_s - 2e-6).abs() < 1e-18);
        assert!((s.speedup_vs_serial - 2.0).abs() < 1e-9);
        assert_eq!(s.per_shard_busy_cycles, vec![2000, 2000]);
        // Interactive class appears first in the per-class breakdown.
        assert_eq!(s.per_class[0].class, "interactive");
        assert_eq!(s.per_class[0].jobs, 1);
        assert_eq!(s.per_class[1].jobs, 2);
        assert_eq!((s.steals, s.fused_jobs, s.fused_groups), (0, 0, 0));
    }

    #[test]
    fn fused_groups_count_service_once() {
        // A fused pair: leader carries the group's run, the follower
        // shares service_s but contributes no cycles. serial_s must count
        // the group once; both jobs' latencies still register.
        let leader = job(0, 0, JobClass::Batch, 0.0, 2e-6);
        let mut follower = job(1, 0, JobClass::Batch, 0.0, 2e-6);
        follower.service_cycles = 0;
        follower.fused_leader = false;
        let mut jobs = vec![leader, follower];
        for j in &mut jobs {
            j.fused_width = 2;
        }
        let s = aggregate(&jobs, 1, 3);
        assert_eq!(s.jobs, 2);
        assert!((s.serial_s - 2e-6).abs() < 1e-18, "group counted once");
        assert_eq!(s.latency_ns.count, 2, "both latencies recorded");
        assert_eq!(s.per_shard_busy_cycles, vec![2000]);
        assert_eq!(s.fused_jobs, 2);
        assert_eq!(s.fused_groups, 1);
        assert_eq!(s.steals, 3);
    }

    #[test]
    fn open_arrivals_stretch_makespan_not_busy_time() {
        // One job arrives late on an idle lane: makespan covers the
        // arrival gap, serial_s only the service.
        let mut late = job(0, 0, JobClass::Batch, 0.0, 1e-6);
        late.arrival_s = 5e-6;
        late.finish_s = 6e-6;
        let s = aggregate(&[late], 1, 0);
        assert!((s.makespan_s - 6e-6).abs() < 1e-18);
        assert!((s.serial_s - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let s = aggregate(&[], 4, 0);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.makespan_cycles, 0);
        assert_eq!(s.jobs_per_sim_s, 0.0);
        assert!(s.per_class.is_empty());
    }

    #[test]
    fn sim_stats_serialize_to_json() {
        use serde::Serialize as _;
        let jobs = vec![job(0, 0, JobClass::Batch, 0.0, 5e-7)];
        let s = aggregate(&jobs, 1, 0);
        let js = s.to_json();
        assert!(js.starts_with('{'), "{js}");
        assert!(js.contains("\"makespan_cycles\""));
        assert!(js.contains("\"per_class\""));
        assert!(js.contains("\"steals\""));
        assert!(js.contains("\"fused_groups\""));
    }
}
