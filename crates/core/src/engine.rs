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
//! channel. Per-channel replay lives in `channel` as a pure function over
//! the loaded [`Kernel`] and the channel's own bank slice; [`Engine::run`]
//! replays the channels in order and merges their outcomes. The engine
//! holds the one kernel every PU runs, so a load builds it once and resets
//! only each PU's position in it, and loading the same program with the
//! same bindings again keeps it. Predication makes a PU's actions depend
//! only on its own state and bank, never on the timing, so an all-bank
//! replay runs each PU to its exit first and then issues the commands
//! with the timing those runs imply, keeping the buffers of its per-PU
//! phase across launches. A plain all-bank run skips the replay of a
//! channel whose inputs equal, bit for bit, those of an earlier channel
//! that wrote no bank element, takes that channel's outcome instead, and
//! reads its PU states from that channel's slots until it replays or
//! [`Engine::pu_mut`] reaches it (`twins`, DESIGN.md §14); within a
//! replayed channel, a bank whose inputs equal an earlier bank's takes
//! that bank's run the same way (its *leader*). Modeling notes
//! (see DESIGN.md §8): the engine tracks open rows with its own
//! non-stalling cursor per program slot (banks that predicate off catch up
//! within later iterations of the same rows), and host completion
//! detection is modeled as one status poll per iteration — a column read
//! of the status location while a row is open, an MRS register read
//! otherwise (MRS is only legal with every bank idle).

use crate::error::CoreError;
use crate::isa::{Program, VerifiedProgram};
use crate::memory::{BankMemory, Binding};
use crate::pu::{Kernel, ProcessingUnit};
use crate::stats::PuStats;
use crate::trace::MetricsRegistry;
use psim_dram::{ChannelStats, EnergyModel, EnergyStats, HbmConfig, Violation};
use serde::{Deserialize, Serialize};

mod channel;
mod twins;

use channel::{run_channel, ChannelCtx, Units};
use twins::{PuSlots, Twins};

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
    /// Cap on recorded [`crate::trace::StallEvent`]s *per channel*;
    /// overflow is counted in the registry's `events_dropped`, never
    /// silently truncated.
    pub event_limit: usize,
}

impl EngineConfig {
    /// Whether a run may take an earlier replay's outcome for inputs equal
    /// to its inputs bit for bit: twin channels and follower banks. Plain
    /// all-bank runs only; validated and attributed runs label their
    /// findings per channel and bank, and per-bank runs give every bank a
    /// timeline of its own, so these replay everything.
    pub(crate) fn reuses(&self) -> bool {
        self.mode == ExecMode::AllBank && !self.validate && !self.attribute
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            hbm: HbmConfig::default(),
            mode: ExecMode::AllBank,
            validate: false,
            attribute: false,
            event_limit: 4096,
        }
    }
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
    /// plus the bounded stall-event stream, assembled in channel order.
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
/// seconds spent inside [`Engine::run`] since the last call, and resets it
/// to zero.
#[must_use]
pub fn take_engine_wall_s() -> f64 {
    ENGINE_WALL_NANOS.swap(0, std::sync::atomic::Ordering::Relaxed) as f64 * 1e-9
}

/// The pSyncPIM cube: processing units + bank memories + channel models.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: EngineConfig,
    mems: Vec<BankMemory>,
    /// Every bank's PU state; a channel may read its states from another
    /// channel's slots.
    pus: PuSlots,
    /// The loaded kernel, which every PU runs.
    kernel: Option<Kernel>,
    twins: Twins,
    /// The all-bank replay's per-unit phase and its buffers.
    units: Units,
}

impl Engine {
    /// Build a cube for the configuration.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let banks = cfg.hbm.total_banks();
        let row_bytes = cfg.hbm.row_bytes();
        Engine {
            mems: (0..banks).map(|_| BankMemory::new(row_bytes)).collect(),
            pus: PuSlots::new(cfg.hbm.num_pseudo_channels, cfg.hbm.banks_per_channel()),
            kernel: None,
            twins: Twins::new(cfg.hbm.num_pseudo_channels, cfg.hbm.banks_per_channel()),
            units: Units::default(),
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

    /// A bank's memory, mutably (host-side data placement). This is the
    /// only way a bank's layout changes, so the next launch compares the
    /// layouts of this bank's channel again instead of keeping the last
    /// launch's verdict (DESIGN.md §14).
    pub fn mem_mut(&mut self, bank: usize) -> &mut BankMemory {
        self.twins.mark(bank);
        &mut self.mems[bank]
    }

    /// A bank's processing unit.
    #[must_use]
    pub fn pu(&self, bank: usize) -> &ProcessingUnit {
        self.pus.get(bank)
    }

    /// A bank's processing unit, mutably. Its channel first gets its own
    /// copy of any PU states it shares with other channels.
    pub fn pu_mut(&mut self, bank: usize) -> &mut ProcessingUnit {
        self.pus.get_mut(bank)
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
    /// engine builds one [`Kernel`] from the verified program, so a load
    /// costs one binding check and one schedule walk whatever the bank
    /// count; loading the program it already runs, with bindings that fix
    /// the same slot table, keeps that kernel and only restarts the PUs.
    /// Same layout contract as [`Engine::load_kernel`].
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
        let kernel = Kernel::reload(&mut self.kernel, program, bindings)?;
        self.pus.sources_mut().for_each(|pu| pu.load(kernel));
        Ok(())
    }

    /// Seed every PU's scalar register (e.g. α for AXPY).
    pub fn set_srf_all(&mut self, v: f64) {
        self.pus.sources_mut().for_each(|pu| pu.set_srf(v));
    }

    /// Execute the loaded kernel to completion, replaying channels in
    /// order.
    ///
    /// # Errors
    ///
    /// [`CoreError::Execution`] if no kernel is loaded or the round bound
    /// is exceeded (kernel never exits).
    pub fn run(&mut self) -> Result<RunReport, CoreError> {
        let wall_start = std::time::Instant::now();
        let result = self.replay();
        ENGINE_WALL_NANOS.fetch_add(
            wall_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        result
    }

    fn replay(&mut self) -> Result<RunReport, CoreError> {
        let kernel = self
            .kernel
            .as_ref()
            .ok_or_else(|| CoreError::Execution("no kernel loaded".to_string()))?;
        let banks_per_channel = self.cfg.hbm.banks_per_channel();
        let channels = self.cfg.hbm.num_pseudo_channels;
        let ctx = ChannelCtx {
            cfg: &self.cfg,
            kernel,
        };
        self.twins
            .classify(self.cfg.reuses(), &self.pus, &self.mems);
        #[cfg(test)]
        {
            (self.units.followed, self.units.refused) = (0, 0);
        }

        let mut per_channel_cycles = Vec::with_capacity(channels);
        let mut commands = ChannelStats::default();
        let mut max_rounds_seen = 0u64;
        let mut check = psim_dram::CheckReport::default();
        let mut metrics = self
            .cfg
            .attribute
            .then(|| MetricsRegistry::new(self.cfg.event_limit));
        for ch in 0..channels {
            let outcome = match self.twins.witness_for(ch, &self.mems) {
                Some(w) => self.twins.take(w, ch, &mut self.pus),
                None => {
                    let banks = ch * banks_per_channel..(ch + 1) * banks_per_channel;
                    let mems = &mut self.mems[banks];
                    mems.iter_mut().for_each(BankMemory::clear_accesses);
                    let outcome =
                        run_channel(&ctx, ch, self.pus.channel_mut(ch), mems, &mut self.units)?;
                    self.twins.record(ch, mems, &outcome);
                    outcome
                }
            };
            per_channel_cycles.push(outcome.cycles);
            commands.merge(&outcome.stats);
            max_rounds_seen = max_rounds_seen.max(outcome.rounds);
            if let Some(c) = outcome.check {
                check.merge(&c);
            }
            if let (Some(reg), Some(m)) = (metrics.as_mut(), outcome.metrics) {
                reg.push_channel(m, outcome.stall_events, outcome.stall_events_dropped);
            }
        }
        debug_assert!(
            self.pus.settled(),
            "every channel's source owns its slots when a launch completes"
        );

        let dram_cycles = per_channel_cycles.iter().copied().max().unwrap_or(0);
        let seconds = dram_cycles as f64 * self.cfg.hbm.cycle_seconds();

        // exit_round: max-merge with u64::MAX (still running) dominating,
        // so the identity is the all-zero default, not PuStats::new().
        let mut pu_stats = PuStats::default();
        let mut active_pus = 0usize;
        let energy_model = EnergyModel::default();
        let mut lane_op_energy = 0.0;
        for pu in self.pus.iter() {
            let s = pu.stats();
            if s.mem_ops > 0 {
                active_pus += 1;
            }
            lane_op_energy += energy_model.pu_op_energy_pj(8, s.lane_ops);
            pu_stats.merge(s);
        }

        let energy = EnergyStats {
            dram_pj: energy_model.dram_energy_pj(&commands, 0),
            pu_pj: lane_op_energy,
            external_pj: 0.0,
            background_pj: energy_model.background_pj(seconds, active_pus),
        };

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
            violations: check.violations,
            violations_suppressed: check.suppressed,
            pu_audit,
            metrics,
        })
    }

    /// Channels of the last run that took a twin's outcome instead of
    /// replaying.
    #[cfg(test)]
    pub(crate) fn reused_channels(&self) -> usize {
        self.twins.reused
    }

    /// Banks of the last run that took their leader's run, and banks that
    /// had a leader but ran themselves.
    #[cfg(test)]
    pub(crate) fn followers(&self) -> (usize, usize) {
        (self.units.followed, self.units.refused)
    }

    /// Cross-check the PU-level invariants of a completed run: every PU
    /// answered each command offered to it exactly once (a memory op, a
    /// predication, or the offer it exited on), exited with a recorded
    /// `exit_round` no later than the executed round count, retired
    /// nothing after exiting, and collectively consumed no more memory ops
    /// than the channels delivered bursts.
    #[must_use]
    pub fn audit_pus(&self, rounds: u64, commands: &ChannelStats) -> Vec<String> {
        let mut failures = Vec::new();
        let mut total_mem_ops = 0u64;
        for (b, pu) in self.pus.iter().enumerate() {
            let s = pu.stats();
            total_mem_ops += s.mem_ops;
            if let Some((offers, answered)) = pu.offer_mismatch() {
                failures.push(format!(
                    "PU {b} was offered {offers} commands but answered {answered} \
                     (memory ops, predications and an exit offer)"
                ));
            }
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
