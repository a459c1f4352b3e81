//! Simulated pSyncPIM device configurations and run reporting, and the
//! host-side layout the batched sparse stream kernel shares: SpMV waves
//! and SpTRSV level batches place their triples with `place_triples` and
//! bind them with [`batched_sparse_bindings`].

use psim_dram::{HbmConfig, Mode};
use psim_sparse::Precision;
use psyncpim_core::{
    CycleBreakdown, Engine, EngineConfig, EngineTier, ExecMode, HostController, MetricsRegistry,
    RegionId, RunReport,
};
use serde::{Deserialize, Serialize};

/// Default stall-event buffer capacity when tracing is on.
pub const DEFAULT_TRACE_EVENTS: usize = 4096;

/// A pSyncPIM device: one or more cubes plus the host interface.
#[derive(Debug, Clone)]
pub struct PimDevice {
    /// Memory configuration of one cube.
    pub hbm: HbmConfig,
    /// All-bank (pSyncPIM) or per-bank (PB baseline) control.
    pub mode: ExecMode,
    /// Number of cubes ganged together (the paper's 3× configuration uses
    /// 3 cubes for 768 GB/s of external bandwidth to match an RTX 3080).
    pub cubes: usize,
    /// Run every engine phase with the independent protocol checker
    /// attached; violations surface in [`KernelRun::violations`].
    pub validate: bool,
    /// Collect psim-trace cycle attribution: per-PU stall breakdowns
    /// surface in [`KernelRun::metrics`] and the wall-clock breakdown in
    /// [`KernelRun::attr`].
    pub trace: bool,
    /// Stall-event buffer capacity per engine phase when tracing
    /// (overflow is counted, never silently truncated).
    pub trace_events: usize,
    /// The engine's replay implementation, as a provenance label (there is
    /// one; nothing selects on it).
    pub tier: EngineTier,
}

impl PimDevice {
    /// The paper's baseline 1× pSyncPIM (256 banks, 256 GB/s external).
    #[must_use]
    pub fn psync_1x() -> Self {
        PimDevice {
            hbm: HbmConfig::default(),
            mode: ExecMode::AllBank,
            cubes: 1,
            validate: false,
            trace: false,
            trace_events: DEFAULT_TRACE_EVENTS,
            tier: EngineTier::Event,
        }
    }

    /// The 3× configuration (768 GB/s aggregate external bandwidth).
    #[must_use]
    pub fn psync_3x() -> Self {
        PimDevice {
            hbm: HbmConfig::default(),
            mode: ExecMode::AllBank,
            cubes: 3,
            validate: false,
            trace: false,
            trace_events: DEFAULT_TRACE_EVENTS,
            tier: EngineTier::Event,
        }
    }

    /// The per-bank (PB) control baseline of §III-B.
    #[must_use]
    pub fn per_bank() -> Self {
        PimDevice {
            hbm: HbmConfig::default(),
            mode: ExecMode::PerBank,
            cubes: 1,
            validate: false,
            trace: false,
            trace_events: DEFAULT_TRACE_EVENTS,
            tier: EngineTier::Event,
        }
    }

    /// A shrunken device for fast tests: `channels` pseudo-channels of
    /// 2 × 2 banks.
    #[must_use]
    pub fn tiny(channels: usize) -> Self {
        let hbm = HbmConfig {
            num_bankgroups: 2,
            banks_per_group: 2,
            num_pseudo_channels: channels,
            ..HbmConfig::default()
        };
        PimDevice {
            hbm,
            mode: ExecMode::AllBank,
            cubes: 1,
            validate: false,
            trace: false,
            trace_events: DEFAULT_TRACE_EVENTS,
            tier: EngineTier::Event,
        }
    }

    /// Total banks (processing units) across all cubes.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.hbm.total_banks() * self.cubes
    }

    /// Split the device into `shards` equal slices of its pseudo-channels.
    ///
    /// Channels execute independently in the paper's design, so a slice of
    /// `num_pseudo_channels / shards` channels behaves exactly like a
    /// proportionally smaller device; external and internal bandwidth scale
    /// with the slice. This is how the `psim-sched` executor carves one
    /// cube into independent execution lanes that serve different jobs
    /// concurrently.
    ///
    /// Returns `None` when `shards` is zero, exceeds the channel count, or
    /// does not divide it evenly (unequal shards would break the
    /// equal-rows-per-bank layout assumptions).
    #[must_use]
    pub fn shard(&self, shards: usize) -> Option<PimDevice> {
        let channels = self.hbm.num_pseudo_channels;
        if shards == 0 || shards > channels || !channels.is_multiple_of(shards) {
            return None;
        }
        let mut hbm = self.hbm.clone();
        hbm.num_pseudo_channels = channels / shards;
        let frac = 1.0 / shards as f64;
        hbm.external_bw *= frac;
        hbm.internal_bw *= frac;
        Some(PimDevice {
            hbm,
            mode: self.mode,
            cubes: self.cubes,
            validate: self.validate,
            trace: self.trace,
            trace_events: self.trace_events,
            tier: EngineTier::Event,
        })
    }

    /// Aggregate external bandwidth in bytes/s.
    #[must_use]
    pub fn external_bw(&self) -> f64 {
        self.hbm.external_bw * self.cubes as f64
    }

    /// An engine simulating *one* cube of this device.
    #[must_use]
    pub fn make_engine(&self) -> Engine {
        Engine::new(EngineConfig {
            hbm: self.hbm.clone(),
            mode: self.mode,
            validate: self.validate,
            attribute: self.trace,
            event_limit: self.trace_events,
        })
    }

    /// A host controller on this device's external interface.
    #[must_use]
    pub fn make_host(&self) -> HostController {
        HostController::new(self.external_bw())
    }
}

impl Default for PimDevice {
    fn default() -> Self {
        PimDevice::psync_1x()
    }
}

/// The combined result of running a kernel on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRun {
    /// In-PIM execution seconds (sum over sequential phases; bank-parallel
    /// inside each phase).
    pub kernel_s: f64,
    /// Host/external seconds (vector broadcast, partial-output collection,
    /// mode switches, kernel programming).
    pub host_s: f64,
    /// Bytes moved over the external interface.
    pub external_bytes: u64,
    /// DRAM command cycles summed over sequential phases (max over
    /// channels inside each phase) — the integer form of `kernel_s`, which
    /// schedulers use for exact deterministic accounting.
    pub dram_cycles: u64,
    /// DRAM commands issued (all phases, all cubes).
    pub commands: u64,
    /// Commands issued with all-bank scope.
    pub all_bank_commands: u64,
    /// Commands issued with per-bank scope.
    pub per_bank_commands: u64,
    /// Kernel loop iterations (max over phases of the slowest channel).
    pub rounds: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Number of engine phases (kernel launches).
    pub phases: u64,
    /// PUs that did productive work in at least one phase.
    pub active_pus: usize,
    /// Protocol/PU-invariant violations found by the independent checker
    /// (always zero unless [`PimDevice::validate`] is set).
    pub violations: u64,
    /// Memory instructions the PUs consumed productively (all phases).
    pub mem_ops: u64,
    /// Bank-level data bursts the channels delivered (all phases); the
    /// validation layer checks `mem_ops <= bank_bursts`.
    pub bank_bursts: u64,
    /// Wall-clock cycle attribution: the slowest channel's bus breakdown,
    /// accumulated phase by phase so `attr.total() == dram_cycles` when
    /// the device traces (all-zero otherwise).
    pub attr: CycleBreakdown,
    /// Full psim-trace registry: per-PU breakdowns plus the bounded
    /// stall-event stream (`None` unless [`PimDevice::trace`] is set).
    pub metrics: Option<MetricsRegistry>,
}

impl Default for KernelRun {
    fn default() -> Self {
        KernelRun {
            kernel_s: 0.0,
            host_s: 0.0,
            external_bytes: 0,
            dram_cycles: 0,
            commands: 0,
            all_bank_commands: 0,
            per_bank_commands: 0,
            rounds: 0,
            energy_j: 0.0,
            phases: 0,
            active_pus: 0,
            violations: 0,
            mem_ops: 0,
            bank_bursts: 0,
            attr: CycleBreakdown::default(),
            metrics: None,
        }
    }
}

impl KernelRun {
    /// Total wall-clock seconds (the paper's kernel time includes mode
    /// switching and programming overheads, §VII-A).
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.kernel_s + self.host_s
    }

    /// Fold one engine launch that ran after everything already in the
    /// run: its wall-clock time, cycles and attribution (the slowest
    /// channel's bus breakdown, so `attr.total() == dram_cycles` stays an
    /// invariant under tracing) add to the run's, as do its counters.
    pub fn absorb_launch(&mut self, report: &RunReport) {
        self.kernel_s += report.seconds;
        self.dram_cycles += report.dram_cycles;
        if let Some(m) = &report.metrics {
            self.attr.add_all(&m.wall());
        }
        self.absorb_engine(report);
        self.phases += 1;
    }

    /// Fold one engine report's counters into the run — everything except
    /// the wall-clock fields (`kernel_s`, `dram_cycles`, `attr`,
    /// `phases`), whose composition is the caller's: a sequential launch
    /// adds them ([`Self::absorb_launch`]); SpMV's cubes run in parallel,
    /// so a wave takes its slowest cube's.
    pub fn absorb_engine(&mut self, report: &RunReport) {
        self.commands += report.commands.total_commands();
        self.all_bank_commands += report.commands.all_bank_commands;
        self.per_bank_commands += report.commands.per_bank_commands;
        self.rounds = self.rounds.max(report.rounds);
        self.energy_j += report.energy.total_j();
        self.active_pus = self.active_pus.max(report.active_pus);
        self.violations += report.violation_count();
        self.mem_ops += report.pu.mem_ops;
        self.bank_bursts += report.commands.bank_bursts;
        if let Some(m) = &report.metrics {
            match &mut self.metrics {
                Some(reg) => reg.absorb(m),
                None => self.metrics = Some(m.clone()),
            }
        }
    }

    /// Fold the host controller's accumulated report.
    pub fn absorb_host(&mut self, host: &HostController) {
        let r = host.report();
        self.host_s += r.external_s + r.control_s;
        self.external_bytes += r.external_bytes;
    }

    /// Merge another kernel's run (sequential composition, e.g. iterative
    /// solvers).
    pub fn merge(&mut self, other: &KernelRun) {
        self.kernel_s += other.kernel_s;
        self.host_s += other.host_s;
        self.external_bytes += other.external_bytes;
        self.dram_cycles += other.dram_cycles;
        self.commands += other.commands;
        self.all_bank_commands += other.all_bank_commands;
        self.per_bank_commands += other.per_bank_commands;
        self.rounds = self.rounds.max(other.rounds);
        self.energy_j += other.energy_j;
        self.phases += other.phases;
        self.active_pus = self.active_pus.max(other.active_pus);
        self.violations += other.violations;
        self.mem_ops += other.mem_ops;
        self.bank_bursts += other.bank_bursts;
        self.attr.add_all(&other.attr);
        if let Some(m) = &other.metrics {
            match &mut self.metrics {
                Some(reg) => reg.absorb(m),
                None => self.metrics = Some(m.clone()),
            }
        }
    }
}

/// Run a standard pre/post mode-switch cycle around a kernel phase on the
/// host (SB → AB (program) → AB-PIM (run) → SB) and account it.
pub fn mode_cycle(host: &mut HostController, program_len: usize) {
    host.switch_to(Mode::Ab);
    host.program_kernel(program_len);
    host.switch_to(Mode::AbPim);
    host.switch_to(Mode::Sb);
}

/// Lay out one launch's triples for [`crate::programs::sparse_stream_batched`]
/// in every bank of `engine`, as chunk pairs of `[rowsA|colsA|valsA|rowsB|
/// colsB|valsB]` blocks of `lanes` elements: one image sized for the
/// `longest` bank stream ([`triple_pairs`]), with the −1 sentinel in every
/// index slot, is copied into every bank, then each listed bank's entries
/// overwrite its front. Idle banks thus hold bit-identical padding (twin
/// channels, DESIGN.md §14). Returns the triples' region, the same id in
/// every bank.
pub(crate) fn place_triples<E>(
    engine: &mut Engine,
    longest: usize,
    precision: Precision,
    banks: impl IntoIterator<Item = (usize, E)>,
) -> RegionId
where
    E: IntoIterator<Item = (u32, u32, f64)>,
{
    use psyncpim_core::memory::SENTINEL;
    let lanes = precision.lanes();
    let mut padding = vec![0.0f64; triple_pairs(longest, lanes) * 6 * lanes];
    for half in padding.chunks_exact_mut(3 * lanes) {
        half[..2 * lanes].fill(SENTINEL); // rows, cols
    }
    let mut triples = None;
    for bank in 0..engine.num_banks() {
        triples = Some(engine.mem_mut(bank).alloc_copy(precision.bytes(), &padding));
    }
    let triples = triples.expect("an engine has at least one bank");
    for (bank, entries) in banks {
        let data = engine.mem_mut(bank).region_mut(triples).data_mut();
        for (k, (r, c, v)) in entries.into_iter().enumerate() {
            let chunk = k / lanes;
            let lane = k % lanes;
            let base = (chunk / 2) * 6 * lanes + (chunk % 2) * 3 * lanes;
            data[base + lane] = f64::from(r);
            data[base + lanes + lane] = f64::from(c);
            data[base + 2 * lanes + lane] = precision.quantize(v);
        }
    }
    triples
}

/// Chunk pairs needed for `n` entries (at least one, and one extra pair of
/// sentinels so every bank sees the end marker).
#[must_use]
pub fn triple_pairs(n: usize, lanes: usize) -> usize {
    n.div_ceil(2 * lanes) + 1
}

/// Bindings for [`crate::programs::sparse_stream_batched`]: slots 0-5
/// stride through the interleaved triples region, slots 6/8 gather from
/// the dense vector region, slots 10/11 accumulate into the output region.
#[must_use]
pub fn batched_sparse_bindings(
    triples: RegionId,
    vector: RegionId,
    output: RegionId,
    lanes: usize,
) -> Vec<Option<psyncpim_core::memory::Binding>> {
    use psyncpim_core::memory::Binding;
    let stride = 6 * lanes;
    vec![
        Some(Binding::strided(triples, 0, stride)),
        Some(Binding::strided(triples, lanes, stride)),
        Some(Binding::strided(triples, 2 * lanes, stride)),
        Some(Binding::strided(triples, 3 * lanes, stride)),
        Some(Binding::strided(triples, 4 * lanes, stride)),
        Some(Binding::strided(triples, 5 * lanes, stride)),
        Some(Binding::new(vector)),
        None,
        Some(Binding::new(vector)),
        None,
        Some(Binding::new(output)),
        Some(Binding::new(output)),
        None,
        None,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_configs_match_paper() {
        assert_eq!(PimDevice::psync_1x().total_banks(), 256);
        assert_eq!(PimDevice::psync_3x().total_banks(), 768);
        assert!((PimDevice::psync_3x().external_bw() - 768e9).abs() < 1.0);
        assert_eq!(PimDevice::per_bank().mode, ExecMode::PerBank);
        assert_eq!(PimDevice::tiny(2).total_banks(), 8);
    }

    #[test]
    fn shard_splits_channels_and_bandwidth() {
        let dev = PimDevice::psync_1x();
        let quarter = dev.shard(4).unwrap();
        assert_eq!(quarter.hbm.num_pseudo_channels, 4);
        assert_eq!(quarter.total_banks(), 64);
        assert!((quarter.external_bw() - dev.external_bw() / 4.0).abs() < 1.0);
        assert_eq!(quarter.mode, dev.mode);
        // Identity shard is the device itself.
        assert_eq!(dev.shard(1).unwrap().total_banks(), dev.total_banks());
        // Invalid splits are rejected.
        assert!(dev.shard(0).is_none());
        assert!(dev.shard(3).is_none());
        assert!(dev.shard(32).is_none());
    }

    #[test]
    fn kernel_run_merges() {
        let mut a = KernelRun {
            kernel_s: 1.0,
            commands: 10,
            rounds: 5,
            phases: 1,
            ..Default::default()
        };
        let b = KernelRun {
            kernel_s: 2.0,
            commands: 20,
            rounds: 3,
            phases: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total_s(), 3.0);
        assert_eq!(a.commands, 30);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.phases, 3);
    }

    #[test]
    fn mode_cycle_accounts_switches() {
        let mut host = HostController::new(256e9);
        mode_cycle(&mut host, 8);
        let r = host.report();
        assert_eq!(r.mode_switches, 4); // SB->AB->AB-PIM->AB->SB
        assert!(r.control_s > 0.0);
    }
}
