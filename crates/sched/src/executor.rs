//! Channel-sharded job execution with SpMV→SpMM fusion and deterministic
//! work-stealing lanes: the machinery [`crate::Service::run`] drives.
//!
//! The device's pseudo-channels are independent (the cube's wall-clock is
//! just the slowest channel), so the executor carves one device into
//! `shards` equal channel slices via [`PimDevice::shard`] and serves
//! different jobs on different shards *concurrently in simulated time*:
//! each shard lane has its own simulated clock that advances by the
//! service time of every job it runs, and a run's makespan is the latest
//! lane finish instead of the serial sum. [`ShardExecutor`] holds the
//! configuration and the shard device; the lanes live in the service's
//! [`LaneEngine`], which every admission window feeds. A closed batch is
//! a service run whose one window admits every queued job.
//!
//! Three service-mode optimizations live here:
//!
//! * **Fusion** — same-matrix SpMV jobs (same semiring, precision, class)
//!   arriving in one admission window coalesce into a single
//!   [`SpmvPim::run_fused`] pass of up to [`ExecutorConfig::fusion`]
//!   vectors. The fused kernel's per-vector results are bit-identical to
//!   per-job SpMV (see `spmm.rs`), so fusion changes *when* jobs finish,
//!   never *what* they compute. The first member of a group is the
//!   *leader* and carries the real [`KernelRun`]; followers carry zeroed
//!   accounting (cycle conservation holds run-wide) but the group's
//!   service time (their latency is real).
//! * **Layout tuning** — every SpMV group, of any width, runs from the
//!   layout (storage format, partition scheme, placement policy)
//!   [`psim_tune::Autotuner`] picks for its matrix on the shard device,
//!   decided once per live matrix when the group is dealt (see
//!   [`LayoutMemo`]). Semirings other than `(Mul, Add)` keep the tuned
//!   scheme and policy but run the element format: blocked zero-fill is
//!   only sound under the arithmetic semiring. Every layout computes the
//!   same product; tuned results agree with the baseline layout to
//!   floating-point summation order (the differential oracle bounds the
//!   drift at 1e-9).
//! * **Work stealing** — jobs are dealt to per-lane deques by projected
//!   finish time; whenever a lane's deque runs dry it steals the *back*
//!   of the most-loaded lane. All steal decisions are planned
//!   single-threaded on simulated state (lane clocks + remaining
//!   estimated cost) in lane-index order at epoch barriers, then the
//!   planned groups execute host-parallel and merge in lane order — so
//!   stealing is a pure function of the admitted windows, never of thread
//!   timing.
//!
//! Determinism contract: `shards` is a *simulated resource* parameter and
//! changes results (a shard is a smaller device), but `host_threads` is
//! pure host-side parallelism and never does. An N-thread run is
//! byte-identical to a serial one, which the determinism tests check via
//! [`crate::SimStats`] JSON and job values.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};

use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{KernelRun, PimDevice, SpmvPim, SptrsvPim, MAX_SPMM_WIDTH};
use psim_sparse::{Coo, Layout, MatrixFormat, Precision};
use psim_tune::Autotuner;
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::CoreError;

use crate::job::{Job, JobClass, JobId, JobKind, JobValue};

/// Executor construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The requested shard count does not evenly divide the device's
    /// pseudo-channels.
    BadShardSplit {
        /// Pseudo-channels on the device.
        channels: usize,
        /// Requested shard count.
        shards: usize,
    },
    /// A job's kernel failed.
    JobFailed {
        /// The failing job.
        id: JobId,
        /// The kernel error message.
        error: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::BadShardSplit { channels, shards } => write!(
                f,
                "cannot split {channels} pseudo-channels into {shards} shards"
            ),
            SchedError::JobFailed { id, error } => write!(f, "job {id} failed: {error}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// The device to carve up.
    pub device: PimDevice,
    /// Channel shards (simulated concurrency; must divide the device's
    /// pseudo-channel count).
    pub shards: usize,
    /// Host worker threads (host-side parallelism; never affects
    /// results). Clamped to the shard count.
    pub host_threads: usize,
    /// Run every job with the independent protocol checker attached and
    /// fail jobs whose command streams violate the JEDEC contract. On by
    /// default in the constructors: a multi-tenant service must not
    /// silently serve results produced through an illegal stream.
    pub validate: bool,
    /// Run every job with psim-trace cycle attribution: each completed
    /// job's `run.attr` then accounts its `service_cycles` per stall
    /// category, and [`crate::SimStats`] aggregates the run-wide breakdown.
    /// Off by default (tracing is cheap but not free).
    pub trace: bool,
    /// Fusion window width: up to this many same-matrix SpMV jobs (same
    /// semiring, precision and class) from one admission window coalesce
    /// into a single SpMM pass. `1` (the constructors' default) disables
    /// fusion; values above [`MAX_SPMM_WIDTH`] are clamped.
    pub fusion: usize,
}

impl ExecutorConfig {
    /// `shards` shards served by as many host threads.
    #[must_use]
    pub fn sharded(device: PimDevice, shards: usize) -> Self {
        ExecutorConfig {
            device,
            shards,
            host_threads: shards,
            validate: true,
            trace: false,
            fusion: 1,
        }
    }

    /// Same configuration with an SpMV→SpMM fusion window of `width`.
    #[must_use]
    pub fn with_fusion(mut self, width: usize) -> Self {
        self.fusion = width;
        self
    }
}

/// One finished job with its service accounting.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// Queue id.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// Deadline class.
    pub class: JobClass,
    /// Kernel-family label.
    pub kind: &'static str,
    /// Shard the job ran on.
    pub shard: usize,
    /// The numeric result.
    pub value: JobValue,
    /// Kernel-level accounting (commands, energy, bytes).
    pub run: KernelRun,
    /// Simulated seconds the job waited between arrival and service start
    /// (queue time plus any time behind earlier jobs on its lane).
    pub wait_s: f64,
    /// Simulated service seconds (kernel + host interface). Fused
    /// followers share their group's service time — their end-to-end
    /// latency is the fused pass's, which is what tenants observe.
    pub service_s: f64,
    /// Service DRAM command cycles (kernel portion, exact integer).
    /// Zero for fused followers: the leader carries the whole group's
    /// cycles exactly once, so cycle conservation holds run-wide.
    pub service_cycles: u64,
    /// Simulated arrival instant (0.0 for closed batches).
    pub arrival_s: f64,
    /// Simulated completion instant (`arrival_s + wait_s + service_s`).
    pub finish_s: f64,
    /// Width of the fused group this job ran in (1 = ran alone).
    pub fused_width: u32,
    /// Whether this job was its group's leader (always true when
    /// `fused_width == 1`). The leader carries the group's [`KernelRun`].
    pub fused_leader: bool,
}

/// The channel-sharded executor.
#[derive(Debug, Clone)]
pub struct ShardExecutor {
    cfg: ExecutorConfig,
    shard_device: PimDevice,
}

impl ShardExecutor {
    /// Build an executor, validating the shard split.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadShardSplit`] when `shards` does not evenly divide
    /// the device's pseudo-channels.
    pub fn new(cfg: ExecutorConfig) -> Result<Self, SchedError> {
        let mut shard_device = cfg
            .device
            .shard(cfg.shards)
            .ok_or(SchedError::BadShardSplit {
                channels: cfg.device.hbm.num_pseudo_channels,
                shards: cfg.shards,
            })?;
        shard_device.validate = cfg.validate;
        shard_device.trace = cfg.trace;
        Ok(ShardExecutor { cfg, shard_device })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// The per-shard device slice jobs actually run on.
    #[must_use]
    pub fn shard_device(&self) -> &PimDevice {
        &self.shard_device
    }

    /// Coalesce an admission window (in scheduling order) into execution
    /// groups: same-matrix SpMV jobs with matching semiring, precision and
    /// class fuse up to the configured window width; everything else runs
    /// as a singleton. Group order follows each group's first member, so
    /// the queue's fairness order survives fusion.
    fn fuse_batch(&self, jobs: Vec<Job>) -> Vec<Group> {
        let width = self.cfg.fusion.clamp(1, MAX_SPMM_WIDTH);
        let mut groups: Vec<Group> = Vec::new();
        // Indices of still-open fusion groups; a linear scan is plenty at
        // admission-window sizes and keeps the matching deterministic.
        let mut open: Vec<usize> = Vec::new();
        for job in jobs {
            if width > 1 {
                if let Some(key) = fusion_key(&job) {
                    if let Some(pos) = open
                        .iter()
                        .position(|&gi| fusion_key(&groups[gi].jobs[0]) == Some(key))
                    {
                        let gi = open[pos];
                        groups[gi].push(job);
                        if groups[gi].jobs.len() >= width {
                            open.remove(pos);
                        }
                        continue;
                    }
                    open.push(groups.len());
                    groups.push(Group::singleton(job));
                    continue;
                }
            }
            groups.push(Group::singleton(job));
        }
        groups
    }

    /// Execute one group on the shard device. Returns one value per
    /// member (member order) plus the group's [`KernelRun`].
    fn run_group(&self, group: &Group) -> Result<(Vec<JobValue>, KernelRun), SchedError> {
        let fail = |e: String| SchedError::JobFailed {
            id: group.jobs[0].id,
            error: e,
        };
        let (values, run) = self.run_kernel(group).map_err(|e| fail(e.to_string()))?;
        if run.violations > 0 {
            return Err(fail(format!(
                "protocol validation failed: {} violation(s) in the command stream",
                run.violations
            )));
        }
        Ok((values, run))
    }

    /// Dispatch one group's kernel on the shard device: an SpMV group of
    /// any width is one fused pass on the group's layout; every other
    /// kind is a singleton running its own kernel.
    fn run_kernel(&self, group: &Group) -> Result<(Vec<JobValue>, KernelRun), CoreError> {
        let job = &group.jobs[0];
        let dev = self.shard_device.clone();
        let precision = job.spec.precision;
        let blas = || Blas1Pim::new(self.shard_device.clone(), precision);
        let (value, run) = match &job.spec.kind {
            JobKind::Spmv { a, mul, acc, .. } => {
                let xs: Vec<&[f64]> = group
                    .jobs
                    .iter()
                    .map(|j| {
                        let JobKind::Spmv { x, .. } = &j.spec.kind else {
                            unreachable!("fused groups are SpMV by construction")
                        };
                        x.as_slice()
                    })
                    .collect();
                let r = SpmvPim::with_semiring(dev, precision, *mul, *acc)
                    .with_layout(group.layout)
                    .run_fused(a, &xs)?;
                return Ok((r.ys.into_iter().map(JobValue::Vector).collect(), r.run));
            }
            JobKind::Sptrsv { t, b } => {
                let mut solver = SptrsvPim::new(dev);
                solver.precision = precision;
                let r = solver.run(t, b)?;
                (JobValue::Vector(r.x), r.run)
            }
            JobKind::Axpy { alpha, x, y } => {
                let r = blas().daxpy(*alpha, x, y)?;
                (JobValue::Vector(r.v), r.run)
            }
            JobKind::Scal { alpha, x } => {
                let r = blas().dscal(*alpha, x)?;
                (JobValue::Vector(r.v), r.run)
            }
            JobKind::Vv { x, y, op } => {
                let r = blas().dvdv(x, y, *op)?;
                (JobValue::Vector(r.v), r.run)
            }
            JobKind::Dot { x, y } => {
                let r = blas().ddot(x, y)?;
                (JobValue::Scalar(r.s), r.run)
            }
            JobKind::Norm2 { x } => {
                let r = blas().dnrm2(x)?;
                (JobValue::Scalar(r.s), r.run)
            }
        };
        Ok((vec![value], run))
    }
}

/// The fusion identity of an SpMV job: matrix identity (by `Arc` pointer
/// — same handle, not merely equal contents), semiring, precision, class.
/// `None` for every other kind.
type FusionKey = (
    *const psim_sparse::Coo,
    psyncpim_core::isa::BinaryOp,
    psyncpim_core::isa::BinaryOp,
    psim_sparse::Precision,
    JobClass,
);

fn fusion_key(job: &Job) -> Option<FusionKey> {
    match &job.spec.kind {
        JobKind::Spmv { a, mul, acc, .. } => Some((
            Arc::as_ptr(a),
            *mul,
            *acc,
            job.spec.precision,
            job.spec.class,
        )),
        _ => None,
    }
}

/// One execution unit: a fused SpMV group or a singleton of any kind.
#[derive(Debug)]
struct Group {
    /// Members in admission order; `jobs[0]` is the leader.
    jobs: Vec<Job>,
    /// Placement cost: the members' summed [`Job::cost_estimate`], an
    /// operand-size proxy (`nnz + len`).
    cost: u64,
    /// The layout an SpMV group runs from, set when the group is dealt
    /// (the baseline for every other kind).
    layout: Layout,
    /// The group becomes runnable when its latest member has arrived.
    arrival_s: f64,
}

impl Group {
    fn singleton(job: Job) -> Self {
        Group {
            arrival_s: job.spec.arrival_s,
            cost: job.cost_estimate(),
            layout: Layout::baseline(),
            jobs: vec![job],
        }
    }

    fn push(&mut self, job: Job) {
        self.arrival_s = self.arrival_s.max(job.spec.arrival_s);
        self.cost += job.cost_estimate();
        self.jobs.push(job);
    }
}

/// Tuned-layout memo: one [`Autotuner::decide`] per live matrix and
/// precision, so a [`MatrixStore`](crate::MatrixStore)-resident matrix is
/// analyzed at its first job and every later job against the same handle
/// reuses the decision.
///
/// Entries are keyed by matrix address (the identity fusion uses) and
/// hold a [`Weak`] handle: its weak count keeps the allocation, so no
/// later matrix can be allocated at a remembered address while the entry
/// exists. An entry whose matrix has been dropped is a miss, and
/// [`LayoutMemo::prune`] forgets it, so the memo holds only matrices that
/// were alive at the last admission window. It lives in the
/// single-threaded planner ([`LaneEngine`]) and needs no lock.
#[derive(Debug, Default)]
struct LayoutMemo {
    entries: HashMap<(usize, Precision), (Weak<Coo>, Layout)>,
}

impl LayoutMemo {
    /// The layout an SpMV job on `a` runs from on `device`: the tuner's
    /// choice, in the element format for semirings other than
    /// `(Mul, Add)` (blocked zero-fill is only sound under the arithmetic
    /// semiring).
    fn layout(
        &mut self,
        device: &PimDevice,
        a: &Arc<Coo>,
        precision: Precision,
        mul: BinaryOp,
        acc: BinaryOp,
    ) -> Layout {
        let key = (Arc::as_ptr(a) as usize, precision);
        let mut layout = match self.entries.get(&key) {
            Some((matrix, layout)) if matrix.strong_count() > 0 => *layout,
            _ => {
                let choice = Autotuner::new(device).decide(a, precision).choice;
                self.entries.insert(key, (Arc::downgrade(a), choice));
                choice
            }
        };
        if (mul, acc) != (BinaryOp::Mul, BinaryOp::Add) {
            layout.format = MatrixFormat::Coo;
        }
        layout
    }

    /// Forget every entry whose matrix has been dropped.
    fn prune(&mut self) {
        self.entries
            .retain(|_, (matrix, _)| matrix.strong_count() > 0);
    }
}

/// Per-lane deques with deterministic work stealing.
///
/// The engine is the executor's scheduling state machine, persistent
/// across admission windows (the service keeps one alive for its whole
/// run so lane clocks carry over):
///
/// * **deal** — each fed group goes to the lane with the earliest
///   *projected finish* (`clock + remaining_cost × scale`), ties to the
///   lowest lane index. With idle lanes this degenerates to the classic
///   least-loaded greedy.
/// * **epoch loop** — each epoch plans at most one group per lane,
///   single-threaded in lane-index order: a lane pops its own front, or
///   steals from the *back* of the lane with the most remaining estimated
///   cost — but only when the thief's projected finish of the stolen
///   group beats the victim's projected finish of its whole queue (a
///   steal that wouldn't help is not a steal). The planned groups then
///   execute host-parallel and merge in lane order.
///
/// Every decision reads only simulated state, so the schedule — and
/// therefore every statistic — is a pure function of the fed windows,
/// independent of host thread count.
#[derive(Debug)]
pub(crate) struct LaneEngine {
    lanes: Vec<VecDeque<Group>>,
    /// Simulated completion time of each lane's last finished group.
    clocks: Vec<f64>,
    /// Estimated cost still queued per lane.
    remaining: Vec<u64>,
    /// Groups moved between lanes by the stealer.
    pub(crate) steals: u64,
    /// Calibration: observed service seconds per executed cost unit.
    total_service_s: f64,
    total_cost: f64,
    /// Tuned layouts of the SpMV matrices seen so far.
    layouts: LayoutMemo,
}

impl LaneEngine {
    pub(crate) fn new(shards: usize) -> Self {
        LaneEngine {
            lanes: (0..shards).map(|_| VecDeque::new()).collect(),
            clocks: vec![0.0; shards],
            remaining: vec![0; shards],
            steals: 0,
            total_service_s: 0.0,
            total_cost: 0.0,
            layouts: LayoutMemo::default(),
        }
    }

    /// Seconds one estimated cost unit is currently worth — calibrated
    /// from every group executed so far (deterministic: simulated service
    /// seconds over estimated cost). The bootstrap value only matters for
    /// the very first deal, where all clocks are 0 anyway.
    fn scale(&self) -> f64 {
        if self.total_cost > 0.0 {
            self.total_service_s / self.total_cost
        } else {
            1e-9
        }
    }

    fn projected_finish(&self, lane: usize, scale: f64) -> f64 {
        self.clocks[lane] + self.remaining[lane] as f64 * scale
    }

    /// Fuse one admission window, decide each SpMV group's layout, and
    /// deal the groups onto the lanes.
    pub(crate) fn feed(&mut self, exec: &ShardExecutor, jobs: Vec<Job>) {
        self.layouts.prune();
        let scale = self.scale();
        for mut group in exec.fuse_batch(jobs) {
            let leader = &group.jobs[0].spec;
            if let JobKind::Spmv { a, mul, acc, .. } = &leader.kind {
                group.layout =
                    self.layouts
                        .layout(&exec.shard_device, a, leader.precision, *mul, *acc);
            }
            let lane = (0..self.lanes.len())
                .min_by(|&a, &b| {
                    self.projected_finish(a, scale)
                        .partial_cmp(&self.projected_finish(b, scale))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
                .expect("shards >= 1");
            self.remaining[lane] += group.cost;
            self.lanes[lane].push_back(group);
        }
    }

    /// Plan one epoch: at most one group per lane, in lane-index order.
    /// Mutates deques and steal counters; pure simulated state in, so the
    /// plan is deterministic.
    fn plan_epoch(&mut self) -> Vec<(usize, Group)> {
        let scale = self.scale();
        let mut plan = Vec::new();
        for lane in 0..self.lanes.len() {
            if let Some(group) = self.lanes[lane].pop_front() {
                self.remaining[lane] -= group.cost;
                plan.push((lane, group));
                continue;
            }
            // Steal from the back of the most-loaded victim, ties to the
            // lowest index.
            let Some(victim) = (0..self.lanes.len())
                .filter(|&v| !self.lanes[v].is_empty())
                .max_by_key(|&v| (self.remaining[v], std::cmp::Reverse(v)))
            else {
                continue;
            };
            let back = self.lanes[victim].back().expect("non-empty");
            let thief_finish = self.clocks[lane].max(back.arrival_s) + back.cost as f64 * scale;
            if thief_finish < self.projected_finish(victim, scale) {
                let group = self.lanes[victim].pop_back().expect("non-empty");
                self.remaining[victim] -= group.cost;
                self.steals += 1;
                plan.push((lane, group));
            }
        }
        plan
    }

    /// Run epochs until every lane's deque is empty, streaming each
    /// completed job (leader first within a group, groups in lane order
    /// within an epoch) into `sink`.
    pub(crate) fn run_until_dry(
        &mut self,
        exec: &ShardExecutor,
        sink: &mut dyn FnMut(CompletedJob),
    ) -> Result<(), SchedError> {
        type GroupOutcome = Result<(Vec<JobValue>, KernelRun), SchedError>;
        // Under the interleaving explorer raw scoped threads would be
        // invisible to the model scheduler, so the lane path degrades to
        // serial execution there — same results by the determinism
        // contract, every schedule decision stays explorable.
        let threads = if psim_conc::model::in_model() {
            1
        } else {
            exec.cfg.host_threads.max(1)
        };
        loop {
            let plan = self.plan_epoch();
            if plan.is_empty() {
                return Ok(());
            }
            // Execute the planned groups host-parallel. Kernel results
            // depend only on the group (every lane is the same device
            // slice), so threads never influence outcomes.
            let mut slots: Vec<Option<GroupOutcome>> = plan.iter().map(|_| None).collect();
            if threads <= 1 || plan.len() <= 1 {
                for ((_, group), slot) in plan.iter().zip(slots.iter_mut()) {
                    *slot = Some(exec.run_group(group));
                }
            } else {
                let mut buckets: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
                for (i, ((_, group), slot)) in plan.iter().zip(slots.iter_mut()).enumerate() {
                    buckets[i % threads].push((group, slot));
                }
                std::thread::scope(|s| {
                    for bucket in buckets {
                        s.spawn(|| {
                            for (group, slot) in bucket {
                                *slot = Some(exec.run_group(group));
                            }
                        });
                    }
                });
            }
            // Merge in plan (lane) order, advancing simulated clocks.
            for ((lane, group), slot) in plan.into_iter().zip(slots) {
                let (values, run) = slot.expect("every planned group executed")?;
                let service_s = run.total_s();
                let start_s = self.clocks[lane].max(group.arrival_s);
                self.clocks[lane] = start_s + service_s;
                self.total_service_s += service_s;
                self.total_cost += group.cost as f64;
                let width = group.jobs.len() as u32;
                for (i, (job, value)) in group.jobs.into_iter().zip(values).enumerate() {
                    let leader = i == 0;
                    sink(CompletedJob {
                        id: job.id,
                        tenant: job.spec.tenant,
                        class: job.spec.class,
                        kind: job.spec.kind.label(),
                        shard: lane,
                        value,
                        run: if leader {
                            run.clone()
                        } else {
                            KernelRun::default()
                        },
                        wait_s: start_s - job.spec.arrival_s,
                        service_s,
                        service_cycles: if leader { run.dram_cycles } else { 0 },
                        arrival_s: job.spec.arrival_s,
                        finish_s: start_s + service_s,
                        fused_width: width,
                        fused_leader: leader,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::queue::JobQueue;
    use crate::service::tests::serve_closed;
    use serde::Serialize as _;
    use std::sync::Arc;

    fn scal_job(tenant: &str, n: usize) -> JobSpec {
        JobSpec::batch(
            tenant,
            JobKind::Scal {
                alpha: 2.0,
                x: vec![1.0; n],
            },
        )
    }

    #[test]
    fn executor_validates_jobs_by_default() {
        let cfg = ExecutorConfig::sharded(PimDevice::tiny(2), 1);
        assert!(cfg.validate, "constructors must default validation on");
        let exec = ShardExecutor::new(cfg.clone()).unwrap();
        assert!(exec.shard_device().validate);
        // A validated batch runs clean: jobs complete, accounting carries
        // the checker's verdict and real service cycles.
        let queue = JobQueue::bounded(4);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        queue
            .submit(JobSpec::batch("t0", JobKind::spmv(a, x)))
            .unwrap();
        let (jobs, _) = serve_closed(cfg, &queue);
        let job = &jobs[0];
        assert_eq!(job.run.violations, 0);
        assert!(job.service_cycles > 0, "dram_cycles must be accounted");
        assert!(job.run.mem_ops <= job.run.bank_bursts);
        // Validation can still be switched off explicitly.
        let mut cfg = ExecutorConfig::sharded(PimDevice::tiny(2), 1);
        cfg.validate = false;
        let exec = ShardExecutor::new(cfg).unwrap();
        assert!(!exec.shard_device().validate);
    }

    #[test]
    fn shard_device_refuses_unverifiable_programs() {
        // ExecutorConfig::validate flows into the shard device, whose
        // engines run psim-lint before cycle 0: a job built on a program
        // with an Error-level diagnostic (here: SpFW draining a queue
        // nothing fills — a guaranteed no-op data path) fails instead of
        // silently serving a wrong answer.
        use psyncpim_core::isa::assemble;
        use psyncpim_core::memory::Binding;
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 1)).unwrap();
        let bad = assemble("SPFW SPVQ0, FP64\nEXIT\n").unwrap();

        let mut engine = exec.shard_device().make_engine();
        let err = engine
            .load_kernel(bad.clone(), vec![None::<Binding>; 2])
            .unwrap_err();
        assert!(matches!(err, CoreError::Verify { .. }));
        // The wrapped form a failing job reports carries the lint code.
        let job_err = SchedError::JobFailed {
            id: 7,
            error: err.to_string(),
        };
        assert!(job_err.to_string().contains("PSL011"), "{job_err}");

        // With validation off the same program passes the lint gate
        // (ablation / fault-injection runs need this escape hatch).
        let mut cfg = ExecutorConfig::sharded(PimDevice::tiny(2), 1);
        cfg.validate = false;
        let exec = ShardExecutor::new(cfg).unwrap();
        let mut engine = exec.shard_device().make_engine();
        let load = engine.load_kernel(bad, vec![None::<Binding>; 2]);
        assert!(!matches!(load, Err(CoreError::Verify { .. })), "{load:?}");
    }

    #[test]
    fn traced_batches_attribute_every_service_cycle() {
        let mut cfg = ExecutorConfig::sharded(PimDevice::tiny(4), 2);
        cfg.trace = true;
        let exec = ShardExecutor::new(cfg.clone()).unwrap();
        assert!(exec.shard_device().trace);
        let queue = JobQueue::bounded(16);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        queue
            .submit(JobSpec::batch(
                "t0",
                JobKind::spmv(Arc::clone(&a), x.clone()),
            ))
            .unwrap();
        queue
            .submit(JobSpec::batch("t1", JobKind::Dot { x: x.clone(), y: x }))
            .unwrap();
        let (jobs, stats) = serve_closed(cfg, &queue);
        assert_eq!(jobs.len(), 2);
        let mut total_cycles = 0u64;
        for job in &jobs {
            // Per-job service attribution accounts every service cycle.
            assert_eq!(
                job.run.attr.total(),
                job.service_cycles,
                "job {} ({})",
                job.id,
                job.kind
            );
            let m = job.run.metrics.as_ref().expect("tracing on");
            assert!(m.conservation_failures().is_empty(), "job {}", job.id);
            total_cycles += job.service_cycles;
        }
        assert_eq!(stats.sim.service_attr.total(), total_cycles);
        let js = stats.sim.to_json();
        assert!(js.contains("\"service_attr\""), "{js}");
        assert!(js.contains("\"trace_dropped\""), "{js}");
        // Untraced batches keep the attribution all-zero with no registry.
        let queue = JobQueue::bounded(4);
        queue.submit(scal_job("t0", 32)).unwrap();
        let (jobs, stats) = serve_closed(ExecutorConfig::sharded(PimDevice::tiny(2), 1), &queue);
        assert_eq!(stats.sim.service_attr.total(), 0);
        assert!(jobs[0].run.metrics.is_none());
    }

    #[test]
    fn tiny_trace_buffers_count_drops_instead_of_truncating() {
        let mut device = PimDevice::tiny(2);
        device.trace_events = 1;
        let mut cfg = ExecutorConfig::sharded(device, 1);
        cfg.trace = true;
        let queue = JobQueue::bounded(4);
        // An irregular SpMV: banks get unequal entry counts, so lighter
        // banks stream queue-empty rounds — far more stalls than one slot.
        let a = Arc::new(psim_sparse::gen::rmat(64, 3, 7));
        let x: Vec<f64> = (0..64).map(|i| 1.0 + i as f64).collect();
        queue
            .submit(JobSpec::batch("t0", JobKind::spmv(a, x)))
            .unwrap();
        let (jobs, stats) = serve_closed(cfg, &queue);
        let m = jobs[0].run.metrics.as_ref().unwrap();
        assert!(m.events.len() <= 1);
        assert!(m.events_dropped > 0, "overflow must be counted");
        assert_eq!(stats.sim.trace_dropped, m.events_dropped);
        // Dropping events never breaks cycle conservation.
        assert_eq!(jobs[0].run.attr.total(), jobs[0].service_cycles);
    }

    #[test]
    fn bad_shard_split_is_rejected() {
        let cfg = ExecutorConfig::sharded(PimDevice::tiny(4), 3);
        assert!(matches!(
            ShardExecutor::new(cfg),
            Err(SchedError::BadShardSplit {
                channels: 4,
                shards: 3
            })
        ));
    }

    #[test]
    fn assignment_balances_estimated_cost() {
        let jobs: Vec<Job> = [100, 100, 10, 10, 10, 10]
            .iter()
            .enumerate()
            .map(|(i, &n)| Job {
                id: i as u64,
                spec: scal_job("t", n),
            })
            .collect();
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 2)).unwrap();
        let mut engine = LaneEngine::new(2);
        engine.feed(&exec, jobs);
        // Greedy by projected finish: 100→lane0, 100→lane1, then the
        // small jobs alternate — both lanes end at 120 estimated cost.
        assert_eq!(engine.remaining, vec![120, 120]);
        assert_eq!(engine.lanes[0].len(), 3);
        assert_eq!(engine.lanes[1].len(), 3);
    }

    #[test]
    fn idle_lane_steals_from_the_most_loaded_back() {
        // Calibrate the engine's cost→seconds scale first, then load lane
        // 0 with everything (by feeding while lane 1's clock is inflated)
        // and watch lane 1 steal from lane 0's back once it is idle.
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 2)).unwrap();
        let mut engine = LaneEngine::new(2);
        engine.total_service_s = 1.0;
        engine.total_cost = 1.0; // scale = 1.0 s per cost unit
        engine.clocks[1] = 1e6; // repel the dealer from lane 1
        engine.feed(
            &exec,
            (0..4u64)
                .map(|i| Job {
                    id: i,
                    spec: scal_job("t", 64),
                })
                .collect(),
        );
        assert_eq!(engine.lanes[0].len(), 4, "deal must avoid the busy lane");
        engine.clocks[1] = 0.0; // lane 1 becomes idle before epoch 1
        let plan = engine.plan_epoch();
        // Lane 0 pops its front (job 0); lane 1 steals lane 0's back
        // (job 3) because its projected finish beats waiting behind the
        // victim's whole queue.
        let planned: Vec<(usize, u64)> =
            plan.iter().map(|(lane, g)| (*lane, g.jobs[0].id)).collect();
        assert_eq!(planned, vec![(0, 0), (1, 3)]);
        assert_eq!(engine.steals, 1);
    }

    #[test]
    fn executes_jobs_and_preserves_values() {
        let queue = JobQueue::bounded(16);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        let id_spmv = queue
            .submit(JobSpec::batch(
                "t0",
                JobKind::spmv(Arc::clone(&a), x.clone()),
            ))
            .unwrap();
        let id_dot = queue
            .submit(JobSpec::batch(
                "t1",
                JobKind::Dot {
                    x: x.clone(),
                    y: x.clone(),
                },
            ))
            .unwrap();
        let (jobs, stats) = serve_closed(ExecutorConfig::sharded(PimDevice::tiny(2), 1), &queue);
        assert_eq!(jobs.len(), 2);
        let value = |id| &jobs.iter().find(|j| j.id == id).unwrap().value;
        let y = value(id_spmv).as_vector().unwrap();
        let want = a.spmv(&x);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        let d = value(id_dot).as_scalar().unwrap();
        let want_d: f64 = x.iter().map(|v| v * v).sum();
        assert!((d - want_d).abs() < 1e-6 * want_d);
        assert!(stats.sim.makespan_s > 0.0);
        assert!(stats.host.walltime_s > 0.0);
    }

    /// An SpMV job on `a` against a deterministic operand.
    fn spmv_job(id: JobId, a: &Arc<Coo>) -> Job {
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 7) as f64).collect();
        Job {
            id,
            spec: JobSpec::batch("t0", JobKind::spmv(Arc::clone(a), x)),
        }
    }

    #[test]
    fn autotuned_executor_preserves_values_and_memoizes() {
        // Adversarial shapes that exercise non-baseline tuner choices:
        // hub rows (balancing rules) and near-dense blocks (blocked
        // candidates). Tuned jobs must return the baseline layout's
        // values — layouts change the schedule, not the product — and
        // each Arc-identical matrix is tuned only once.
        let hubs = Arc::new(psim_sparse::adversarial::power_law_hubs(96, 800, 3, 5));
        let blocks = Arc::new(psim_sparse::adversarial::near_dense_blocks(64, 8, 4, 5));
        let jobs = || -> Vec<Job> {
            (0..4u64)
                .map(|id| spmv_job(id, if id < 2 { &hubs } else { &blocks }))
                .collect()
        };
        let cfg = ExecutorConfig::sharded(PimDevice::tiny(2), 2);
        let exec = ShardExecutor::new(cfg.clone()).unwrap();
        let mut engine = LaneEngine::new(2);
        engine.feed(&exec, jobs());
        assert_eq!(
            engine.layouts.entries.len(),
            2,
            "one memoized decision per distinct matrix handle"
        );
        let l = engine.layouts.layout(
            exec.shard_device(),
            &hubs,
            Precision::Fp64,
            BinaryOp::Mul,
            BinaryOp::Add,
        );
        assert_ne!(
            l,
            Layout::baseline(),
            "hub rows must tune away from baseline"
        );

        let queue = JobQueue::bounded(4);
        for job in jobs() {
            queue.submit(job.spec).unwrap();
        }
        let (done, _) = serve_closed(cfg, &queue);
        let baseline = SpmvPim::new(exec.shard_device().clone(), Precision::Fp64);
        for (job, want) in done.iter().zip(jobs()) {
            let JobKind::Spmv { a, x, .. } = &want.spec.kind else {
                unreachable!()
            };
            let want = baseline.run(a, x).unwrap().y;
            let got = job.value.as_vector().unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn autotune_forces_element_format_for_exotic_semirings() {
        // Tropical (min-plus) SpMV: blocked zero-fill would corrupt the
        // result (an explicit 0 is not the semiring identity), so the
        // tuned layout must fall back to an element format while keeping
        // the tuned scheme/policy. Seed the memo with a blocked decision
        // directly — whether the tuner *would* pick blocked for this
        // matrix is a cost question; the safety demotion must hold for
        // any memoized layout.
        let a = Arc::new(psim_sparse::adversarial::near_dense_blocks(64, 8, 4, 11));
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let blocked = Layout {
            format: MatrixFormat::Bcsr { block: 4 },
            scheme: psim_sparse::PartitionScheme::Balanced2D { col_blocks: 2 },
            policy: psim_sparse::DistPolicy::LeastLoaded,
        };
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 1)).unwrap();
        let mut engine = LaneEngine::new(1);
        engine.layouts.entries.insert(
            (Arc::as_ptr(&a) as usize, Precision::Fp64),
            (Arc::downgrade(&a), blocked),
        );
        let tropical = JobKind::Spmv {
            a: Arc::clone(&a),
            x: x.clone(),
            mul: BinaryOp::Add,
            acc: BinaryOp::Min,
        };
        engine.feed(
            &exec,
            vec![Job {
                id: 0,
                spec: JobSpec::batch("t0", tropical),
            }],
        );
        let l = engine.lanes[0][0].layout;
        assert!(
            !l.format.is_blocked(),
            "non-arithmetic semirings must not execute from a zero-filled blocked stream: {}",
            l.label()
        );
        assert_eq!(l.scheme, blocked.scheme, "the tuned scheme survives");
        assert_eq!(l.policy, blocked.policy, "the tuned policy survives");
        // The arithmetic view of the same memo entry stays blocked.
        let arith = engine.layouts.layout(
            exec.shard_device(),
            &a,
            Precision::Fp64,
            BinaryOp::Mul,
            BinaryOp::Add,
        );
        assert_eq!(arith, blocked);
        // min-accumulation is order-insensitive and per-entry Add is
        // exact, so the demoted layout's values match the baseline
        // bit-for-bit.
        let mut done = Vec::new();
        engine
            .run_until_dry(&exec, &mut |job| done.push(job))
            .unwrap();
        let want = SpmvPim::with_semiring(
            exec.shard_device().clone(),
            Precision::Fp64,
            BinaryOp::Add,
            BinaryOp::Min,
        )
        .run(&a, &x)
        .unwrap()
        .y;
        assert_eq!(done[0].value, JobValue::Vector(want));
    }

    #[test]
    fn layout_memo_forgets_dropped_matrices() {
        // Tune a matrix, drop it, tune another: the memo must hold only
        // the live matrix, and the new one must get the tuner's own
        // choice — never a dead matrix's layout found at a reused
        // address, which would make simulated cycles depend on the heap.
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 1)).unwrap();
        let decide = |a: &Coo| {
            Autotuner::new(exec.shard_device())
                .decide(a, Precision::Fp64)
                .choice
        };
        let mut engine = LaneEngine::new(1);
        let hubs = Arc::new(psim_sparse::adversarial::power_law_hubs(96, 800, 3, 5));
        engine.feed(&exec, vec![spmv_job(0, &hubs)]);
        engine.run_until_dry(&exec, &mut |_| {}).unwrap();
        let hubs_choice = decide(&hubs);
        drop(hubs);

        let blocks = Arc::new(psim_sparse::adversarial::near_dense_blocks(64, 8, 4, 5));
        let blocks_choice = decide(&blocks);
        assert_ne!(hubs_choice, blocks_choice, "the two matrices tune apart");
        engine.feed(&exec, vec![spmv_job(1, &blocks)]);
        assert_eq!(engine.lanes[0][0].layout, blocks_choice);
        let keys: Vec<usize> = engine.layouts.entries.keys().map(|k| k.0).collect();
        assert_eq!(
            keys,
            vec![Arc::as_ptr(&blocks) as usize],
            "only live matrices stay memoized"
        );
    }

    #[test]
    fn autotuned_fusion_stays_bit_identical_to_solo_jobs() {
        // Fusion under a tuned layout: the fused pass adopts the same
        // layout as solo SpMV jobs, so per-vector results stay
        // bit-identical whether the batch fuses or not.
        let a = Arc::new(psim_sparse::adversarial::power_law_hubs(80, 600, 2, 9));
        let xs: Vec<Vec<f64>> = (0..3)
            .map(|v| (0..80).map(|i| 1.0 + (i * (v + 1)) as f64).collect())
            .collect();
        let run = |fusion: usize| {
            let queue = JobQueue::bounded(8);
            for x in &xs {
                queue
                    .submit(JobSpec::batch(
                        "t0",
                        JobKind::spmv(Arc::clone(&a), x.clone()),
                    ))
                    .unwrap();
            }
            let cfg = ExecutorConfig::sharded(PimDevice::tiny(2), 1).with_fusion(fusion);
            let (jobs, _) = serve_closed(cfg, &queue);
            jobs.into_iter().map(|j| j.value).collect::<Vec<_>>()
        };
        let solo = run(1);
        let fused = run(3);
        assert_eq!(solo, fused, "fused tuned results must match solo tuned");
    }

    #[test]
    fn sharded_concurrency_beats_serial_in_sim_time() {
        let mk_queue = || {
            let q = JobQueue::bounded(64);
            for i in 0..8 {
                q.submit(scal_job(&format!("t{}", i % 4), 64)).unwrap();
            }
            q
        };
        let serial = serve_closed(ExecutorConfig::sharded(PimDevice::tiny(4), 1), &mk_queue()).1;
        let sharded = serve_closed(ExecutorConfig::sharded(PimDevice::tiny(4), 4), &mk_queue()).1;
        assert!(
            sharded.sim.makespan_s < serial.sim.makespan_s,
            "sharded {} vs serial {}",
            sharded.sim.makespan_s,
            serial.sim.makespan_s
        );
        assert!(sharded.sim.speedup_vs_serial > 1.0);
    }
}
