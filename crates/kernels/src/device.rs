//! Simulated pSyncPIM device configurations and run reporting, and the
//! host-side layout the batched sparse stream kernel shares: SpMV waves
//! and SpTRSV level batches lay out their triples with a `TriplesLayout`
//! and bind them with [`batched_sparse_bindings`].

use psim_dram::HbmConfig;
use psim_sparse::Precision;
use psyncpim_core::{
    CycleBreakdown, Engine, EngineConfig, EngineTier, ExecMode, HostController, MetricsRegistry,
    RegionId, RunReport,
};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

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
            cubes: 3,
            ..PimDevice::psync_1x()
        }
    }

    /// The per-bank (PB) control baseline of §III-B.
    #[must_use]
    pub fn per_bank() -> Self {
        PimDevice {
            mode: ExecMode::PerBank,
            ..PimDevice::psync_1x()
        }
    }

    /// A shrunken device for fast tests: `channels` pseudo-channels of
    /// 2 × 2 banks.
    #[must_use]
    pub fn tiny(channels: usize) -> Self {
        PimDevice {
            hbm: HbmConfig {
                num_bankgroups: 2,
                banks_per_group: 2,
                num_pseudo_channels: channels,
                ..HbmConfig::default()
            },
            ..PimDevice::psync_1x()
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
            ..self.clone()
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelRun {
    /// In-PIM execution seconds (sum over sequential phases; bank-parallel
    /// inside each phase).
    pub kernel_s: f64,
    /// Host/external seconds: the external-bus transfers (vector
    /// broadcast, partial-output collection). Mode switches and kernel
    /// programming are engine MRS commands, counted in `kernel_s`.
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

impl KernelRun {
    /// Total wall-clock seconds (the paper's kernel time includes mode
    /// switching and programming overheads, §VII-A: here they are part of
    /// `kernel_s`).
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
        self.host_s += r.external_s;
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

/// The triples of [`crate::programs::sparse_stream_batched`] in every bank
/// of one engine, as chunk pairs of `[rowsA|colsA|valsA|rowsB|colsB|valsB]`
/// blocks of `lanes` elements, the −1 sentinel in every index slot past a
/// bank's entries.
///
/// [`TriplesLayout::reserve`] gives every bank rows for the longest stream
/// the layout will hold ([`triple_pairs`]), so row numbers, and with them
/// commands and cycles, do not depend on which banks a launch lists. A
/// bank stores only what its processing unit reads: the stream program
/// loads one chunk pair per iteration and exits after the first pair
/// holding a sentinel, so a listed bank with `n` entries stores
/// `triple_pairs(n)` pairs and every other bank the *idle image*, one
/// sentinel pair. The layout builds the idle image once, and every idle
/// bank holds that one image, not a copy
/// ([`psyncpim_core::memory::BankMemory::store_shared`]): idle banks hold
/// bit-identical padding, which the engine sees without comparing it
/// (twin channels and follower banks, DESIGN.md §14). A launch writes only
/// the banks it lists and the banks the previous launch listed
/// ([`TriplesLayout::store`]).
pub(crate) struct TriplesLayout {
    /// The triples' region, the same id in every bank.
    region: RegionId,
    precision: Precision,
    /// Sentinel padding for the longest stream.
    padding: Vec<f64>,
    /// The idle image, one sentinel pair, which every idle bank holds.
    idle: Rc<[f64]>,
    /// The banks the last [`TriplesLayout::store`] listed, in listing
    /// order.
    listed: Vec<usize>,
}

impl TriplesLayout {
    /// Reserve the triples region in every bank of `engine`, after its
    /// last region, for streams of up to `longest` entries; every bank
    /// stores the idle image.
    pub(crate) fn reserve(engine: &mut Engine, longest: usize, precision: Precision) -> Self {
        use psyncpim_core::memory::SENTINEL;
        let lanes = precision.lanes();
        let mut padding = vec![0.0f64; triple_pairs(longest, lanes) * 6 * lanes];
        for half in padding.chunks_exact_mut(3 * lanes) {
            half[..2 * lanes].fill(SENTINEL); // rows, cols
        }
        let idle: Rc<[f64]> = padding[..6 * lanes].into();
        let mut region = None;
        for bank in 0..engine.num_banks() {
            let mem = engine.mem_mut(bank);
            region = Some(mem.alloc_shared(precision.bytes(), padding.len(), &idle));
        }
        TriplesLayout {
            region: region.expect("an engine has at least one bank"),
            precision,
            padding,
            idle,
            listed: Vec::new(),
        }
    }

    /// The triples' region, the same id in every bank.
    pub(crate) fn region(&self) -> RegionId {
        self.region
    }

    /// The banks the last [`TriplesLayout::store`] listed, in listing
    /// order.
    pub(crate) fn listed(&self) -> &[usize] {
        &self.listed
    }

    /// Store one launch's streams: put the banks the previous store listed
    /// back to the idle image, then store each listed bank's stream, given
    /// as the bank, its entry count `n` and its entries.
    ///
    /// # Panics
    ///
    /// Panics if a bank is listed twice (its second stream would silently
    /// replace the first) or holds more entries than the layout reserves.
    pub(crate) fn store<E>(
        &mut self,
        engine: &mut Engine,
        banks: impl IntoIterator<Item = (usize, usize, E)>,
    ) where
        E: IntoIterator<Item = (u32, u32, f64)>,
    {
        let lanes = self.precision.lanes();
        for bank in self.listed.drain(..) {
            engine.mem_mut(bank).store_shared(self.region, &self.idle);
        }
        for (bank, n, entries) in banks {
            assert!(!self.listed.contains(&bank), "bank {bank} is listed twice");
            self.listed.push(bank);
            let len = triple_pairs(n, lanes) * 6 * lanes;
            assert!(
                len <= self.padding.len(),
                "bank {bank} streams {n} entries, more than the layout reserves"
            );
            let mem = engine.mem_mut(bank);
            mem.store(self.region, &self.padding[..len]);
            let data = mem.region_mut(self.region).data_mut();
            for (k, (r, c, v)) in entries.into_iter().enumerate() {
                let chunk = k / lanes;
                let lane = k % lanes;
                let base = (chunk / 2) * 6 * lanes + (chunk % 2) * 3 * lanes;
                data[base + lane] = f64::from(r);
                data[base + lanes + lane] = f64::from(c);
                data[base + 2 * lanes + lane] = self.precision.quantize(v);
            }
        }
    }
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

    /// Store `listed` (bank, entry count) streams of ones into `layout`.
    fn store_ones(engine: &mut Engine, layout: &mut TriplesLayout, listed: &[(usize, usize)]) {
        layout.store(
            engine,
            listed
                .iter()
                .map(|&(bank, n)| (bank, n, (0..n).map(|k| (0, k as u32, 1.0)))),
        );
    }

    #[test]
    fn the_triples_layout_reserves_the_longest_stream_and_stores_each_banks_own() {
        let precision = Precision::Fp64;
        let (lanes, pair) = (precision.lanes(), 6 * precision.lanes());
        let device = PimDevice::psync_1x();
        let mut engine = device.make_engine();
        let mut layout = TriplesLayout::reserve(&mut engine, 300, precision);
        let rt = layout.region();
        let row_bytes = device.hbm.row_bytes();
        let (start, rows) = {
            let r = engine.mem(0).region(rt);
            (r.start_row(), r.rows_spanned(row_bytes))
        };
        assert_eq!(rows, 8, "39 pairs of 24 FP64 elements");
        // The second store lists other banks: the first one's go back to
        // the idle image, and bank 200 stores its new stream.
        let launches: [&[(usize, usize)]; 2] =
            [&[(3, 1), (70, 300), (200, 17)], &[(200, 40), (9, 0)]];
        for listed in launches {
            store_ones(&mut engine, &mut layout, listed);
            let banks: Vec<usize> = listed.iter().map(|&(b, _)| b).collect();
            assert_eq!(layout.listed(), banks);
            for bank in 0..engine.num_banks() {
                let r = engine.mem(bank).region(rt);
                assert_eq!((r.start_row(), r.rows_spanned(row_bytes)), (start, rows));
                assert_eq!(r.reserved(), triple_pairs(300, lanes) * pair);
                let n = listed.iter().find(|&&(b, _)| b == bank).map(|&(_, n)| n);
                assert_eq!(
                    r.len(),
                    triple_pairs(n.unwrap_or(0), lanes) * pair,
                    "bank {bank}"
                );
                let entries = r
                    .data()
                    .chunks(3 * lanes)
                    .flat_map(|c| &c[lanes..2 * lanes]);
                let cols = entries
                    .take_while(|&&c| c != psyncpim_core::memory::SENTINEL)
                    .count();
                assert_eq!(cols, n.unwrap_or(0), "bank {bank}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bank 5 is listed twice")]
    fn a_bank_listed_twice_panics() {
        let mut engine = PimDevice::tiny(2).make_engine();
        let mut layout = TriplesLayout::reserve(&mut engine, 8, Precision::Fp64);
        store_ones(&mut engine, &mut layout, &[(5, 2), (1, 8), (5, 3)]);
    }

    /// One launch of the batched stream program on a fresh engine of
    /// `device`, every reservation `slack` elements longer than the launch
    /// needs: an SpMV wave (triples, then `x` and `y` in every bank) or an
    /// SpTRSV level batch (stripes, then triples, then scales stored in the
    /// listed banks). Returns the report, every bank's output bits and the
    /// first row of the region after the triples.
    fn stream_launch(
        device: &PimDevice,
        sptrsv: bool,
        slack: usize,
    ) -> (RunReport, Vec<Vec<u64>>, u32) {
        let precision = Precision::Fp64;
        let ebytes = precision.bytes();
        let acc = if sptrsv { "RSUB" } else { "ADD" };
        let text = crate::programs::sparse_stream_batched(precision, "MUL", acc);
        let program = crate::programs::compiled(&text).unwrap();
        // Banks 1, 2 and 6 stream 3, 13 and 8 entries into 8 output rows
        // from 5 vector elements.
        let entries = |b: usize, n: usize| {
            (0..n).map(move |k| {
                let (r, c) = ((b + k) % 8, (3 * k + b) % 5);
                (r as u32, c as u32, 0.5 + (7 * b + k) as f64)
            })
        };
        let vector = [1.0, 1.25, -0.5, 2.0, 0.75];
        let mut engine = device.make_engine();
        let banks = 0..engine.num_banks();
        let alloc = |engine: &mut Engine, reserved: usize, data: &[f64]| {
            let each = banks
                .clone()
                .map(|b| engine.mem_mut(b).alloc_reserved(ebytes, reserved, data));
            each.last().unwrap()
        };
        let stripes = sptrsv.then(|| alloc(&mut engine, 8, &[0.125; 8]));
        let mut triples = TriplesLayout::reserve(&mut engine, 13 + slack, precision);
        triples.store(
            &mut engine,
            [(1, 3), (2, 13), (6, 8)].map(|(b, n)| (b, n, entries(b, n))),
        );
        let (input, output) = if let Some(stripes) = stripes {
            let scales = alloc(&mut engine, vector.len() + slack, &[]);
            for &b in triples.listed() {
                engine.mem_mut(b).store(scales, &vector);
            }
            (scales, stripes)
        } else {
            let x = alloc(&mut engine, vector.len(), &vector);
            (x, alloc(&mut engine, 8, &[0.0; 8]))
        };
        let lanes = precision.lanes();
        let bindings = batched_sparse_bindings(triples.region(), input, output, lanes);
        engine.load_verified(&program, bindings).unwrap();
        let report = engine.run().unwrap();
        let outputs = banks
            .map(|b| {
                let data = engine.mem(b).region(output).data();
                data.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        (report, outputs, engine.mem(0).region(input).start_row())
    }

    #[test]
    fn reservations_do_not_change_timing() {
        // DESIGN.md §5: a launch compares row numbers only for equality, so
        // reserving its regions rows longer changes no cycle, command or
        // value. An SpTRSV diagonal block relies on it: every batch shares
        // the block's reservation.
        for mode in [ExecMode::AllBank, ExecMode::PerBank] {
            let device = PimDevice {
                mode,
                ..PimDevice::tiny(2)
            };
            for sptrsv in [false, true] {
                let what = format!("{mode:?}, sptrsv {sptrsv}");
                let (exact, outputs, row) = stream_launch(&device, sptrsv, 0);
                let (longer, longer_outputs, longer_row) = stream_launch(&device, sptrsv, 1000);
                assert!(longer_row >= row + 8, "{what}: rows {row} and {longer_row}");
                assert!(exact.dram_cycles > 0 && exact.pu.mem_ops > 0, "{what}");
                assert_eq!(longer, exact, "{what}");
                let energy = |r: &RunReport| r.energy.total_j().to_bits();
                assert_eq!(energy(&longer), energy(&exact), "{what}");
                assert_eq!(longer_outputs, outputs, "{what}");
            }
        }
    }

    #[test]
    fn mode_switches_are_charged_once_in_kernel_time() {
        // The engine issues a launch's mode switches and kernel program as
        // MRS commands; the host ledger holds external transfers only.
        let dev = PimDevice::tiny(2);
        let x: Vec<f64> = (0..32).map(f64::from).collect();
        let blas = crate::blas1::Blas1Pim::new(dev.clone(), Precision::Fp64);
        let dcopy = blas.dcopy(&x).unwrap().run;
        assert_eq!(dcopy.host_s, 0.0, "a DCOPY moves no external bytes");

        let traced = PimDevice { trace: true, ..dev };
        let setup = crate::blas1::Blas1Pim::new(traced, Precision::Fp64)
            .dcopy(&x)
            .unwrap()
            .run
            .attr
            .get(psyncpim_core::Category::Setup);
        let program = crate::programs::compiled(&crate::programs::dcopy(Precision::Fp64, 1))
            .unwrap()
            .len() as u64;
        let switches = 4 * psim_dram::mode::SWITCH_SEQUENCE_LEN as u64;
        assert!(setup >= (switches + program) / 2, "{setup} setup cycles");

        // One collect of the 8 banks' 8 B partials: latency floor + bytes.
        let ddot = blas.ddot(&x, &x).unwrap().run;
        assert_eq!(ddot.host_s, 400e-9 + 64.0 / 256e9);
    }
}
