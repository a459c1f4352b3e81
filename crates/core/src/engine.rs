//! The partially synchronous execution engine.
//!
//! The engine couples the DRAM channel timing model with the processing
//! units. In **all-bank** mode (the pSyncPIM contribution) the host derives
//! a per-iteration command schedule from the kernel program and replays it:
//! every column command is broadcast to all banks of a pseudo-channel and
//! offered to every PU; row activations are shared ("reads and writes on
//! rows of all banks are synchronized", §I); the next command may not issue
//! until the slowest busy PU has drained (lockstep back-pressure); the loop
//! repeats until every PU has exited (CEXIT). In **per-bank** mode each
//! bank receives its own command stream through the shared, 2-command-per-
//! cycle channel bus — the baseline of Figures 3 and 8.
//!
//! Channels execute independently; the cube's wall-clock is the slowest
//! channel. Per-channel replay lives in [`channel`] as a pure function over
//! the loaded program and the channel's own bank slice, which lets
//! [`Engine::run_parallel`] fan channels out across host threads while
//! staying bit-identical to the serial [`Engine::run`] (outcomes are merged
//! in channel order). Modeling notes (see DESIGN.md §8): the engine tracks
//! open rows with its own non-stalling cursor per program slot (banks that
//! predicate off catch up within later iterations of the same rows), and
//! host completion detection is modeled as one status poll per iteration —
//! a column read of the status location while a row is open, an MRS
//! register read otherwise (MRS is only legal with every bank idle).

use crate::error::CoreError;
use crate::isa::{Program, VerifiedProgram};
use crate::memory::{BankMemory, Binding};
use crate::pu::{bind_slots, ProcessingUnit, SlotBindings};
use crate::stats::PuStats;
use crate::trace::MetricsRegistry;
use psim_dram::{ChannelStats, CmdKind, EnergyModel, EnergyStats, HbmConfig, Scope, Violation};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

mod channel;

use channel::{run_channel, ChannelCtx, ChannelOutcome};

/// All-bank (pSyncPIM) vs per-bank (PB baseline) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// One command drives every bank in a channel (AB-PIM).
    AllBank,
    /// Each bank is driven individually over the shared command bus.
    PerBank,
}

/// The engine's replay implementation, as a provenance label. There is
/// one: the event-driven replay, which synthesizes the outcome of offers
/// to parked PUs (the paper's predication, §IV-E) and keeps one
/// representative bank per all-bank channel. Devices carry it so
/// benchmark provenance can name it; nothing selects on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineTier {
    /// Event-driven replay (DESIGN.md §14).
    Event,
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Memory organization and timing.
    pub hbm: HbmConfig,
    /// Execution mode.
    pub mode: ExecMode,
    /// Energy model for the report.
    pub energy: EnergyModel,
    /// Safety bound on kernel loop iterations per channel.
    pub max_rounds: u64,
    /// Record every issued DRAM command into [`RunReport::trace`]
    /// (debug/visualization; memory-hungry on long kernels).
    pub record_trace: bool,
    /// Cap on recorded trace events *per channel*; commands beyond the cap
    /// are counted in [`RunReport::trace_dropped`] instead of growing the
    /// trace without bound on long kernels.
    pub trace_limit: usize,
    /// Model periodic refresh: every tREFI the engine precharges, issues
    /// an all-bank REF and reopens lazily — the bandwidth tax real DRAM
    /// pays. On by default; a kernel that runs refresh-free silently
    /// violates the JEDEC refresh contract the checker audits.
    pub refresh: bool,
    /// Self-audit: replay every issued command through an independent
    /// [`psim_dram::ProtocolChecker`] per channel and cross-check PU
    /// invariants, surfacing findings in [`RunReport::violations`] and
    /// [`RunReport::pu_audit`]. Costs one extra state machine per channel.
    pub validate: bool,
    /// psim-trace: attribute every DRAM cycle of every PU (and the shared
    /// command bus) to a [`crate::trace::Category`] and record stall
    /// events, surfacing a [`MetricsRegistry`] in [`RunReport::metrics`].
    /// Off by default; a disabled run pays only one branch per command.
    pub attribute: bool,
    /// Cap on recorded [`crate::trace::StallEvent`]s *per channel* (the
    /// `trace_limit` idiom — overflow is counted in the registry's
    /// `events_dropped`, never silently truncated).
    pub event_limit: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            hbm: HbmConfig::default(),
            mode: ExecMode::AllBank,
            energy: EnergyModel::default(),
            max_rounds: 50_000_000,
            record_trace: false,
            trace_limit: 1 << 22,
            refresh: true,
            validate: false,
            attribute: false,
            event_limit: 4096,
        }
    }
}

/// One issued DRAM command, as recorded when
/// [`EngineConfig::record_trace`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Pseudo-channel the command went to.
    pub channel: usize,
    /// Issue cycle (channel-local DRAM command clock).
    pub cycle: u64,
    /// Command scope.
    pub scope: Scope,
    /// The command.
    pub cmd: CmdKind,
}

/// Result of one kernel execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Wall-clock in DRAM command cycles (max over channels).
    pub dram_cycles: u64,
    /// Wall-clock in seconds.
    pub seconds: f64,
    /// Command counters summed over channels.
    pub commands: ChannelStats,
    /// Kernel loop iterations of the slowest channel.
    pub rounds: u64,
    /// Merged PU counters (exit_round keeps the last PU to finish).
    pub pu: PuStats,
    /// Energy accounting.
    pub energy: EnergyStats,
    /// Per-channel cycle counts.
    pub per_channel_cycles: Vec<u64>,
    /// Number of PUs that performed at least one productive memory op.
    pub active_pus: usize,
    /// Issued-command trace (empty unless [`EngineConfig::record_trace`]).
    pub trace: Vec<TraceEvent>,
    /// Commands not recorded because a channel hit
    /// [`EngineConfig::trace_limit`].
    pub trace_dropped: u64,
    /// Protocol violations found by the independent checker (empty unless
    /// [`EngineConfig::validate`]; a non-empty list means the timing model
    /// issued an illegal stream and the run's numbers are suspect).
    pub violations: Vec<Violation>,
    /// Violations beyond the per-report cap, counted but not stored.
    pub violations_suppressed: u64,
    /// PU-invariant audit failures (empty unless [`EngineConfig::validate`]).
    pub pu_audit: Vec<String>,
    /// psim-trace cycle attribution (`Some` only when
    /// [`EngineConfig::attribute`] is set): per-channel, per-PU breakdowns
    /// plus the bounded stall-event stream, assembled in channel order so
    /// parallel runs stay bit-identical to serial ones.
    pub metrics: Option<MetricsRegistry>,
}

impl RunReport {
    /// Data actually moved through the banks, in bytes (bursts × burst
    /// size).
    #[must_use]
    pub fn data_bytes(&self, cfg: &HbmConfig) -> u64 {
        self.commands.bank_bursts * cfg.burst_bytes as u64
    }

    /// Achieved internal bandwidth in bytes/second.
    #[must_use]
    pub fn achieved_bandwidth(&self, cfg: &HbmConfig) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.data_bytes(cfg) as f64 / self.seconds
    }

    /// Fraction of the cube's internal bandwidth actually used — the
    /// lockstep/row-thrash efficiency the paper's design trades for JEDEC
    /// compatibility.
    #[must_use]
    pub fn internal_utilization(&self, cfg: &HbmConfig) -> f64 {
        self.achieved_bandwidth(cfg) / cfg.internal_bw
    }

    /// Total validation findings: protocol violations (stored plus
    /// suppressed) and PU audit failures. Zero for a clean validated run —
    /// and trivially zero when validation was off.
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.violations_suppressed + self.pu_audit.len() as u64
    }
}

/// Host wall-clock nanoseconds spent inside engine phases, process-wide.
/// Benchmarks read this through [`take_engine_wall_s`] to time the
/// simulation kernel itself, excluding host-side data preparation, without
/// perturbing any serialized report (the accumulator lives outside
/// [`RunReport`], so deterministic artifacts stay deterministic).
static ENGINE_WALL_NANOS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Drain the process-wide engine wall-clock accumulator: returns the
/// seconds spent inside [`Engine::run`]/[`Engine::run_parallel`] since the
/// last call, and resets it to zero.
#[must_use]
pub fn take_engine_wall_s() -> f64 {
    ENGINE_WALL_NANOS.swap(0, std::sync::atomic::Ordering::Relaxed) as f64 * 1e-9
}

/// The pSyncPIM cube: processing units + bank memories + channel models.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: EngineConfig,
    mems: Vec<BankMemory>,
    pus: Vec<ProcessingUnit>,
    /// The loaded kernel; every PU holds a clone sharing its instructions.
    program: Option<Program>,
    bindings: SlotBindings,
}

impl Engine {
    /// Build a cube for the configuration.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let banks = cfg.hbm.total_banks();
        let row_bytes = cfg.hbm.row_bytes();
        Engine {
            mems: (0..banks).map(|_| BankMemory::new(row_bytes)).collect(),
            pus: (0..banks).map(|_| ProcessingUnit::new()).collect(),
            program: None,
            bindings: Arc::new([]),
            cfg,
        }
    }

    /// Total banks (= PUs).
    #[must_use]
    pub fn num_banks(&self) -> usize {
        self.mems.len()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// A bank's memory.
    #[must_use]
    pub fn mem(&self, bank: usize) -> &BankMemory {
        &self.mems[bank]
    }

    /// A bank's memory, mutably (host-side data placement).
    pub fn mem_mut(&mut self, bank: usize) -> &mut BankMemory {
        &mut self.mems[bank]
    }

    /// A bank's processing unit.
    #[must_use]
    pub fn pu(&self, bank: usize) -> &ProcessingUnit {
        &self.pus[bank]
    }

    /// A bank's processing unit, mutably.
    pub fn pu_mut(&mut self, bank: usize) -> &mut ProcessingUnit {
        &mut self.pus[bank]
    }

    /// Program the same raw kernel into every PU. Region ids are per-bank,
    /// so every bank must have allocated its regions in the same order (the
    /// paper's equal-rows-per-bank layout).
    ///
    /// In validate mode the program must first pass psim-lint: an
    /// Error-level diagnostic (guaranteed hang, counter clobber, dead
    /// queue path, …) refuses the load before cycle 0 — on-PIM failures
    /// are undebuggable from the host, so they must not start. Programs
    /// that are already verified load through [`Engine::load_verified`]
    /// without a second lint.
    ///
    /// # Errors
    ///
    /// [`CoreError::Verify`] for an unverifiable program under
    /// [`EngineConfig::validate`]; otherwise propagates binding
    /// validation failures.
    pub fn load_kernel<B: Into<Binding>>(
        &mut self,
        program: Program,
        bindings: Vec<Option<B>>,
    ) -> Result<(), CoreError> {
        if self.cfg.validate {
            VerifiedProgram::new(program.clone())?;
        }
        self.install(program, bindings)
    }

    /// Program a kernel that already passed psim-lint into every PU. The
    /// PUs share the verified program and one binding table, so a load
    /// costs one binding check whatever the bank count. Same layout
    /// contract as [`Engine::load_kernel`].
    ///
    /// # Errors
    ///
    /// Propagates binding validation failures.
    pub fn load_verified<B: Into<Binding>>(
        &mut self,
        program: &VerifiedProgram,
        bindings: Vec<Option<B>>,
    ) -> Result<(), CoreError> {
        self.install(program.program().clone(), bindings)
    }

    fn install<B: Into<Binding>>(
        &mut self,
        program: Program,
        bindings: Vec<Option<B>>,
    ) -> Result<(), CoreError> {
        let bindings = bind_slots(&program, bindings)?;
        for pu in &mut self.pus {
            pu.load_shared(program.clone(), Arc::clone(&bindings));
        }
        self.program = Some(program);
        self.bindings = bindings;
        Ok(())
    }

    /// Seed every PU's scalar register (e.g. α for AXPY).
    pub fn set_srf_all(&mut self, v: f64) {
        for pu in &mut self.pus {
            pu.set_srf(v);
        }
    }

    /// Execute the loaded kernel to completion, replaying channels
    /// serially.
    ///
    /// # Errors
    ///
    /// [`CoreError::Execution`] if no kernel is loaded or the round bound
    /// is exceeded (kernel never exits).
    pub fn run(&mut self) -> Result<RunReport, CoreError> {
        self.run_with_workers(1)
    }

    /// Execute the loaded kernel with up to `workers` host threads, one
    /// channel per thread at a time. Channels are simulated-independent, so
    /// the report is **bit-identical** to [`Engine::run`] for any worker
    /// count — outcomes are merged in channel order regardless of host
    /// completion order.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::run`].
    pub fn run_parallel(&mut self, workers: usize) -> Result<RunReport, CoreError> {
        self.run_with_workers(workers)
    }

    fn run_with_workers(&mut self, workers: usize) -> Result<RunReport, CoreError> {
        let wall_start = std::time::Instant::now();
        let result = self.run_with_workers_inner(workers);
        ENGINE_WALL_NANOS.fetch_add(
            wall_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        result
    }

    fn run_with_workers_inner(&mut self, workers: usize) -> Result<RunReport, CoreError> {
        let program = self
            .program
            .clone()
            .ok_or_else(|| CoreError::Execution("no kernel loaded".to_string()))?;
        let schedule = program.command_schedule()?;
        let banks_per_channel = self.cfg.hbm.banks_per_channel();
        let channels = self.cfg.hbm.num_pseudo_channels;
        let ctx = ChannelCtx {
            cfg: &self.cfg,
            program: &program,
            schedule: &schedule,
            bindings: &self.bindings,
        };

        // One outcome slot per channel, written by whichever worker runs
        // that channel and always merged below in channel order.
        let mut results: Vec<Option<Result<ChannelOutcome, CoreError>>> =
            (0..channels).map(|_| None).collect();
        let nworkers = workers.max(1).min(channels.max(1));
        let work = self
            .pus
            .chunks_mut(banks_per_channel)
            .zip(self.mems.chunks_mut(banks_per_channel))
            .zip(results.iter_mut())
            .enumerate();
        if nworkers <= 1 {
            for (ch, ((pus, mems), slot)) in work {
                *slot = Some(run_channel(&ctx, ch, pus, mems));
            }
        } else {
            let mut buckets: Vec<Vec<_>> = (0..nworkers).map(|_| Vec::new()).collect();
            for (ch, ((pus, mems), slot)) in work {
                buckets[ch % nworkers].push((ch, pus, mems, slot));
            }
            std::thread::scope(|s| {
                for bucket in buckets {
                    let ctx = &ctx;
                    s.spawn(move || {
                        for (ch, pus, mems, slot) in bucket {
                            *slot = Some(run_channel(ctx, ch, pus, mems));
                        }
                    });
                }
            });
        }

        let mut per_channel_cycles = Vec::with_capacity(channels);
        let mut commands = ChannelStats::default();
        let mut max_rounds_seen = 0u64;
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut trace_dropped = 0u64;
        let mut check = psim_dram::CheckReport::default();
        let mut metrics = self
            .cfg
            .attribute
            .then(|| MetricsRegistry::new(self.cfg.event_limit));
        for slot in results {
            let outcome = slot.expect("every channel executed")?;
            per_channel_cycles.push(outcome.cycles);
            commands.merge(&outcome.stats);
            max_rounds_seen = max_rounds_seen.max(outcome.rounds);
            trace.extend(outcome.trace);
            trace_dropped += outcome.trace_dropped;
            if let Some(c) = outcome.check {
                check.merge(&c);
            }
            if let (Some(reg), Some(m)) = (metrics.as_mut(), outcome.metrics) {
                reg.push_channel(m, outcome.stall_events, outcome.stall_events_dropped);
            }
        }

        let dram_cycles = per_channel_cycles.iter().copied().max().unwrap_or(0);
        let seconds = dram_cycles as f64 * self.cfg.hbm.cycle_seconds();

        // exit_round: max-merge with u64::MAX (still running) dominating,
        // so the identity is the all-zero default, not PuStats::new().
        let mut pu_stats = PuStats::default();
        let mut active_pus = 0usize;
        let mut lane_op_energy = 0.0;
        for pu in &self.pus {
            let s = pu.stats();
            if s.mem_ops > 0 {
                active_pus += 1;
            }
            lane_op_energy += self.cfg.energy.pu_op_energy_pj(8, s.lane_ops);
            pu_stats.merge(s);
        }

        let mut energy = EnergyStats::default();
        energy.dram_pj = self.cfg.energy.dram_energy_pj(&commands, 0);
        energy.pu_pj = lane_op_energy;
        energy.background_pj = self.cfg.energy.background_pj(seconds, active_pus);

        let mut pu_audit = if self.cfg.validate {
            self.audit_pus(max_rounds_seen, &commands)
        } else {
            Vec::new()
        };
        if self.cfg.validate {
            if let Some(reg) = &metrics {
                pu_audit.extend(reg.conservation_failures());
            }
        }

        Ok(RunReport {
            dram_cycles,
            seconds,
            commands,
            rounds: max_rounds_seen,
            pu: pu_stats,
            energy,
            per_channel_cycles,
            active_pus,
            trace,
            trace_dropped,
            violations: check.violations,
            violations_suppressed: check.suppressed,
            pu_audit,
            metrics,
        })
    }

    /// Cross-check the PU-level invariants of a completed run: every PU
    /// exited with a recorded `exit_round` no later than the executed
    /// round count, retired nothing after exiting, and collectively
    /// consumed no more memory ops than the channels delivered bursts.
    #[must_use]
    pub fn audit_pus(&self, rounds: u64, commands: &ChannelStats) -> Vec<String> {
        let mut failures = Vec::new();
        let mut total_mem_ops = 0u64;
        for (b, pu) in self.pus.iter().enumerate() {
            let s = pu.stats();
            total_mem_ops += s.mem_ops;
            if !pu.exited() {
                failures.push(format!("PU {b} never exited"));
                continue;
            }
            if s.exit_round == u64::MAX {
                failures.push(format!("PU {b} exited but no exit_round was recorded"));
            } else if s.exit_round > rounds {
                failures.push(format!(
                    "PU {b} exit_round {} exceeds executed rounds {rounds}",
                    s.exit_round
                ));
            }
            if s.instructions != s.instructions_at_exit {
                failures.push(format!(
                    "PU {b} retired instructions after exit: {} at exit, {} now",
                    s.instructions_at_exit, s.instructions
                ));
            }
        }
        if total_mem_ops > commands.bank_bursts {
            failures.push(format!(
                "PUs consumed {total_mem_ops} memory ops from only {} bank bursts",
                commands.bank_bursts
            ));
        }
        failures
    }
}

#[cfg(test)]
mod tests;
