//! psim-perfbench: the simulator's benchmark.
//!
//! A run repeats identical *passes* of one workload in one process on one
//! thread. Each pass rebuilds its inputs from the seed and a fresh
//! device or service in its set-up, then runs a timed section that ends
//! when its last output has been checked against a CPU reference.
//! Simulated figures ([`Sim`]) are exact for a seed and must repeat in
//! every pass; host end-to-end time is the sum of each lap's fastest time
//! over the run's passes ([`fastest_laps_s`]) on the process CPU clock
//! ([`host::CpuClock`]), scaled by the machine's speed during the run
//! ([`calibrate`]).
//! README.md in this directory documents every metric.

use std::collections::BTreeMap;

use psim_kernels::KernelRun;
use psyncpim_core::isa::{assemble, VerifiedProgram};
use psyncpim_core::trace::NUM_CATEGORIES;

pub mod backlog;
pub mod calibrate;
pub mod check;
pub mod host;
pub mod inputs;
pub mod suites;

use check::Percentile;
use host::CpuClock;

/// What a pass records besides its end-to-end timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Time layer spans around the benchmark's calls into each crate, and
    /// run the per-layer probes after the timed section.
    pub spans: bool,
    /// Run the simulated device with psim-trace cycle attribution.
    pub attribute: bool,
}

/// Host seconds by per-layer metric name. Off, it only runs the closures.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    on: bool,
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder that times spans only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            secs: BTreeMap::new(),
        }
    }

    /// Run `f`, adding its CPU time to `name` when recording.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = CpuClock::now();
        let r = f();
        self.add(name, t0.elapsed_s());
        r
    }

    /// Add `v` to `name` when recording.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.secs.entry(name).or_default() += v;
        }
    }

    /// The total under `name` (0 when never recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }
}

/// Scheduler figures of a service pass (zero on the suites).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedSim {
    /// Admission windows `Service::run` popped.
    pub windows: u64,
    /// Jobs served inside a fused group of width > 1.
    pub fused_jobs: u64,
    /// Fused groups executed.
    pub fused_groups: u64,
    /// Groups moved between shard lanes.
    pub steals: u64,
    /// Operands the matrix store evicted while it was filled.
    pub store_evictions: u64,
    /// Busy DRAM cycles per shard.
    pub shard_busy: Vec<u64>,
    /// Exact p99 of simulated queue wait, seconds.
    pub wait_p99: Percentile,
    /// Exact p99 of simulated service time, seconds.
    pub service_p99: Percentile,
}

/// Exact simulated figures of one pass. Identical in every pass of a seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sim {
    /// Operations run: kernel calls on the suites, jobs on the service.
    pub ops: u64,
    /// In-PIM seconds summed over operations (`KernelRun::kernel_s`).
    pub kernel_s: f64,
    /// Host-interface seconds summed over operations (`KernelRun::host_s`).
    pub host_s: f64,
    /// Simulated energy, joules.
    pub energy_j: f64,
    /// Time from the first operation's start to the last one's end.
    pub makespan_s: f64,
    /// Per-operation latency (wait + service) percentiles, seconds.
    pub p50: Percentile,
    /// See [`Sim::p50`].
    pub p99: Percentile,
    /// p99 over interactive jobs (every suite operation is interactive).
    pub interactive_p99: Percentile,
    /// Engine phases (kernel launches).
    pub launches: u64,
    /// DRAM command cycles.
    pub dram_cycles: u64,
    /// All-bank-scope commands.
    pub commands_all_bank: u64,
    /// Per-bank-scope commands.
    pub commands_per_bank: u64,
    /// Bytes over the external interface.
    pub external_bytes: u64,
    /// Memory instructions the PUs consumed.
    pub mem_ops: u64,
    /// Bank data bursts the channels delivered.
    pub bank_bursts: u64,
    /// Protocol violations the checker found.
    pub violations: u64,
    /// psim-lint verifications under validation: one per kernel
    /// invocation plus one per launch (zero with validation off).
    pub lint_calls: u64,
    /// Scheduler figures.
    pub sched: SchedSim,
    /// Wall-clock cycle attribution by psim-trace category (all zero
    /// unless the pass ran with [`Opts::attribute`]).
    pub attr: [u64; NUM_CATEGORIES],
}

impl Sim {
    /// Fold one kernel run's counters in.
    pub fn absorb(&mut self, run: &KernelRun) {
        self.kernel_s += run.kernel_s;
        self.host_s += run.host_s;
        self.energy_j += run.energy_j;
        self.launches += run.phases;
        self.dram_cycles += run.dram_cycles;
        self.commands_all_bank += run.all_bank_commands;
        self.commands_per_bank += run.per_bank_commands;
        self.external_bytes += run.external_bytes;
        self.mem_ops += run.mem_ops;
        self.bank_bursts += run.bank_bursts;
        self.violations += run.violations;
        for (a, b) in self.attr.iter_mut().zip(run.attr.cycles) {
            *a += b;
        }
    }

    /// Simulated seconds of all operations (`kernel_s + host_s`).
    #[must_use]
    pub fn sim_s(&self) -> f64 {
        self.kernel_s + self.host_s
    }

    /// The figures with the attribution vector cleared, for comparing an
    /// attributed pass against plain ones.
    #[must_use]
    pub fn without_attr(&self) -> Sim {
        Sim {
            attr: [0; NUM_CATEGORIES],
            ..self.clone()
        }
    }
}

/// The counted outcome of a pass's timed section.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a kernel or scheduler error, a protocol
    /// violation, or an output outside tolerance.
    pub failed: u64,
    /// Simulated figures.
    pub sim: Sim,
}

/// Split points of a timed section. A workload ends a lap at fixed points
/// of its work (after an operation, after a block of completed jobs), so
/// lap `k` does the same work in every pass of a seed.
#[derive(Debug)]
pub struct Laps {
    last: CpuClock,
    secs: Vec<f64>,
}

impl Laps {
    fn start() -> Self {
        Laps {
            last: CpuClock::now(),
            secs: Vec::new(),
        }
    }

    /// End the current lap and start the next.
    pub fn lap(&mut self) {
        let now = CpuClock::now();
        self.secs.push(now.since(self.last));
        self.last = now;
    }
}

/// One pass: set-up, timed section, probes.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the timed section (the sum of `laps_s`).
    pub timed_s: f64,
    /// Host seconds of each lap of the timed section.
    pub laps_s: Vec<f64>,
    /// What the timed section did.
    pub outcome: Outcome,
    /// Layer spans (empty unless [`Opts::spans`]).
    pub spans: Spans,
}

/// A benchmark workload.
pub trait Workload {
    /// Run one pass at `seed`.
    fn pass(&self, seed: u64, opts: Opts) -> Pass;
}

/// The three workloads at benchmark size, by name.
#[must_use]
pub fn workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "spmv_suite" => Some(Box::new(suites::SpmvSuite::BENCH)),
        "sptrsv_suite" => Some(Box::new(suites::SptrsvSuite::BENCH)),
        "service_backlog" => Some(Box::new(backlog::Backlog::BENCH)),
        _ => None,
    }
}

/// Run one pass: `setup` is timed as set-up, `execute` as the timed
/// section, and `probe` (only with [`Opts::spans`]) runs after the timed
/// section so it never inflates `timed_s`. The timed section's last lap
/// ends when `execute` returns. Engine wall time is drained around the
/// timed section into `core.engine_s`.
pub fn timed_pass<I>(
    opts: Opts,
    setup: impl FnOnce(&mut Spans) -> I,
    execute: impl FnOnce(&I, &mut Spans, &mut Laps) -> Outcome,
    probe: impl FnOnce(&I, &mut Spans),
) -> Pass {
    let mut spans = Spans::new(opts.spans);
    let t0 = CpuClock::now();
    let inputs = setup(&mut spans);
    let setup_s = t0.elapsed_s();
    let _ = psyncpim_core::take_engine_wall_s();
    let mut laps = Laps::start();
    let outcome = execute(&inputs, &mut spans, &mut laps);
    laps.lap();
    spans.add("core.engine_s", psyncpim_core::take_engine_wall_s());
    if opts.spans {
        probe(&inputs, &mut spans);
    }
    Pass {
        setup_s,
        timed_s: laps.secs.iter().sum(),
        laps_s: laps.secs,
        outcome,
        spans,
    }
}

/// The sum over lap positions of each lap's fastest time across `runs`
/// (one slice of lap times per pass): a lap that met interference in one
/// pass counts at its quiet time from another. `None` when there are no
/// runs or their lap counts differ (which only a failing pass can cause).
#[must_use]
pub fn fastest_laps_s(runs: &[&[f64]]) -> Option<f64> {
    let n = runs.first()?.len();
    if runs.iter().any(|laps| laps.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|k| {
                runs.iter()
                    .map(|laps| laps[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum(),
    )
}

/// The fastest of `n` timings from `f`, so one preemption does not decide it.
fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Time one `assemble` and one `VerifiedProgram::new` of each program
/// text (best of five) and record their means over the program kinds as
/// `core.asm_us` and `core.lint_us`.
pub fn probe_programs(programs: &[String], spans: &mut Spans) {
    let (mut asm, mut lint) = (0.0, 0.0);
    for text in programs {
        asm += best_of(5, || {
            let t0 = CpuClock::now();
            std::hint::black_box(assemble(text).expect("kernel programs assemble"));
            t0.elapsed_s()
        });
        let program = assemble(text).expect("kernel programs assemble");
        lint += best_of(5, || {
            let p = program.clone();
            let t0 = CpuClock::now();
            std::hint::black_box(VerifiedProgram::new(p).expect("kernel programs verify"));
            t0.elapsed_s()
        });
    }
    let kinds = programs.len().max(1) as f64;
    spans.add("core.asm_us", asm * 1e6 / kinds);
    spans.add("core.lint_us", lint * 1e6 / kinds);
}
