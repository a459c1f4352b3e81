//! psim-trace: per-PU cycle attribution and bounded stall-event streams.
//!
//! The paper's argument is a cycle-accounting one — predicated-off slots,
//! queue stalls, CEXIT rounds and row switching are what separate pSyncPIM
//! from fully synchronous PIM — so the engine can attribute **every** DRAM
//! command cycle of a channel's wall-clock to exactly one [`Category`],
//! per processing unit and for the shared command bus. Attribution is
//! conservative *by construction*: the channel replay advances a monotone
//! cursor per PU (and one for the bus) and classifies each advance as it
//! happens, so the categories of any PU sum to its channel's total cycles
//! with no residual. [`MetricsRegistry::conservation_failures`] audits the
//! invariant; the engine folds it into `RunReport::pu_audit` when both
//! `validate` and `attribute` are set.
//!
//! Alongside the counters, interesting stalls (queue-full, queue-empty)
//! are recorded as [`StallEvent`]s into a bounded buffer per channel: up
//! to `event_limit` events are kept and the overflow is *counted* in
//! `events_dropped`, never silently truncated.

use serde::{Deserialize, Serialize};

/// Number of attribution categories (length of a [`CycleBreakdown`]).
pub const NUM_CATEGORIES: usize = 10;

/// Where a DRAM command cycle went, from one PU's point of view (or the
/// shared command bus's — see each variant's note).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Category {
    /// The PU was retiring instructions / consuming a burst (bus: issuing
    /// column commands back-to-back).
    Busy,
    /// Waiting for the lockstep broadcast / shared command bus: the cycle
    /// was spent by a *slower* peer the bus had to wait for.
    LockstepWait,
    /// A command passed over the PU because its program counter was out of
    /// phase (the predicated execution of §IV-E).
    PredicatedOff,
    /// The PU's destination queue had no room, so the command's predicate
    /// failed and the burst was wasted on it.
    QueueFullStall,
    /// The PU consumed the command but its source stream/queue was empty
    /// (drained region, sentinel padding) — a no-op burst.
    QueueEmptyStall,
    /// The PU had taken CEXIT/EXIT and idled while the host kept driving
    /// the remaining units (§IV-D).
    PostExitIdle,
    /// Precharge/activate latency while switching rows.
    RowSwitchWait,
    /// All-bank refresh shadow (tRFC every tREFI).
    RefreshShadow,
    /// Mode switching and CRF programming (MRS streams at kernel entry and
    /// exit).
    Setup,
    /// Host completion-detection polls (one status read per iteration).
    HostSync,
}

impl Category {
    /// Every category, in [`CycleBreakdown`] index order.
    pub const ALL: [Category; NUM_CATEGORIES] = [
        Category::Busy,
        Category::LockstepWait,
        Category::PredicatedOff,
        Category::QueueFullStall,
        Category::QueueEmptyStall,
        Category::PostExitIdle,
        Category::RowSwitchWait,
        Category::RefreshShadow,
        Category::Setup,
        Category::HostSync,
    ];

    /// Short column label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Category::Busy => "busy",
            Category::LockstepWait => "lockstep",
            Category::PredicatedOff => "pred_off",
            Category::QueueFullStall => "q_full",
            Category::QueueEmptyStall => "q_empty",
            Category::PostExitIdle => "post_exit",
            Category::RowSwitchWait => "row_sw",
            Category::RefreshShadow => "refresh",
            Category::Setup => "setup",
            Category::HostSync => "host_sync",
        }
    }
}

/// A per-PU (or per-bus) cycle-attribution vector: DRAM command cycles by
/// [`Category`], indexed in [`Category::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Cycle count per category.
    pub cycles: [u64; NUM_CATEGORIES],
}

impl CycleBreakdown {
    /// Add `delta` cycles to a category.
    pub fn add(&mut self, cat: Category, delta: u64) {
        self.cycles[cat as usize] += delta;
    }

    /// Cycles attributed to a category.
    #[must_use]
    pub fn get(&self, cat: Category) -> u64 {
        self.cycles[cat as usize]
    }

    /// Total attributed cycles — equals the channel wall-clock when the
    /// conservation invariant holds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Element-wise accumulate another breakdown.
    pub fn add_all(&mut self, other: &CycleBreakdown) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += *b;
        }
    }

    /// Fraction of the total spent in a category (0 when empty).
    #[must_use]
    pub fn fraction(&self, cat: Category) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.get(cat) as f64 / t as f64
    }
}

/// One recorded stall: a command a PU could not make productive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallEvent {
    /// Pseudo-channel of the stalling PU.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Kernel loop iteration when the stall happened.
    pub round: u64,
    /// Program slot the command served.
    pub slot: usize,
    /// Issue cycle of the stalled command (channel-local clock).
    pub cycle: u64,
    /// What kind of stall ([`Category::QueueFullStall`] or
    /// [`Category::QueueEmptyStall`]).
    pub kind: Category,
}

/// One channel's attribution: the shared bus view plus one vector per PU.
/// Conservation invariant: `bus.total() == cycles` and every
/// `pu[i].total() == cycles`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelMetrics {
    /// Channel wall-clock in DRAM command cycles (summed over phases when
    /// registries are absorbed).
    pub cycles: u64,
    /// Bus-timeline attribution (what the shared command bus was doing).
    pub bus: CycleBreakdown,
    /// Per-PU attribution, bank order within the channel.
    pub pu: Vec<CycleBreakdown>,
}

impl ChannelMetrics {
    /// Element-wise accumulate another channel's metrics (sequential
    /// phases over the same hardware). Panics if the PU counts differ —
    /// callers check topology first via [`MetricsRegistry::absorb`].
    fn add_all(&mut self, other: &ChannelMetrics) {
        assert_eq!(self.pu.len(), other.pu.len(), "channel topology mismatch");
        self.cycles += other.cycles;
        self.bus.add_all(&other.bus);
        for (a, b) in self.pu.iter_mut().zip(other.pu.iter()) {
            a.add_all(b);
        }
    }
}

/// The run-level attribution registry: per-channel metrics plus the
/// bounded stall-event stream, serialized into `RunReport` (and from
/// there into `results/BENCH_trace.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Per-channel attribution, channel order.
    pub channels: Vec<ChannelMetrics>,
    /// Recorded stall events (bounded by `event_limit`).
    pub events: Vec<StallEvent>,
    /// Stalls not recorded because the buffer was full — counted, never
    /// silently truncated.
    pub events_dropped: u64,
    /// Capacity of the event buffer.
    pub event_limit: usize,
}

impl MetricsRegistry {
    /// An empty registry with the given event capacity.
    #[must_use]
    pub fn new(event_limit: usize) -> Self {
        MetricsRegistry {
            channels: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            event_limit,
        }
    }

    /// Append one channel's outcome (engine merge path, channel order).
    pub fn push_channel(&mut self, metrics: ChannelMetrics, events: Vec<StallEvent>, dropped: u64) {
        self.channels.push(metrics);
        self.extend_events(events, dropped);
    }

    /// The run's wall-clock attribution: the bus breakdown of the slowest
    /// channel (first one on ties) — its total equals the run's
    /// `dram_cycles`. Meaningful on a single-run registry; kernels
    /// accumulate it phase by phase.
    #[must_use]
    pub fn wall(&self) -> CycleBreakdown {
        self.channels
            .iter()
            .max_by_key(|c| c.cycles)
            .map(|c| c.bus)
            .unwrap_or_default()
    }

    /// Sum of every PU's attribution across all channels.
    #[must_use]
    pub fn aggregate_pu(&self) -> CycleBreakdown {
        let mut out = CycleBreakdown::default();
        for ch in &self.channels {
            for pu in &ch.pu {
                out.add_all(pu);
            }
        }
        out
    }

    /// Audit the conservation invariant: for every channel, the bus
    /// breakdown and each PU's breakdown must sum exactly to that
    /// channel's cycles. Returns one message per failure (empty = clean).
    #[must_use]
    pub fn conservation_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for (ch, m) in self.channels.iter().enumerate() {
            if m.bus.total() != m.cycles {
                failures.push(format!(
                    "channel {ch}: bus attribution {} != cycles {}",
                    m.bus.total(),
                    m.cycles
                ));
            }
            for (b, pu) in m.pu.iter().enumerate() {
                if pu.total() != m.cycles {
                    failures.push(format!(
                        "channel {ch} PU {b}: attribution {} != cycles {}",
                        pu.total(),
                        m.cycles
                    ));
                }
            }
        }
        failures
    }

    /// Merge another registry. Same topology (channel and PU counts match)
    /// accumulates element-wise — sequential phases over the same device,
    /// preserving per-channel conservation. Different topology appends the
    /// other registry's channels (different hardware, e.g. another cube).
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        let same_shape = self.channels.len() == other.channels.len()
            && self
                .channels
                .iter()
                .zip(other.channels.iter())
                .all(|(a, b)| a.pu.len() == b.pu.len());
        if same_shape && !self.channels.is_empty() {
            for (a, b) in self.channels.iter_mut().zip(other.channels.iter()) {
                a.add_all(b);
            }
        } else {
            self.channels.extend(other.channels.iter().cloned());
        }
        self.extend_events(other.events.clone(), other.events_dropped);
    }

    fn extend_events(&mut self, events: Vec<StallEvent>, dropped: u64) {
        self.events_dropped += dropped;
        for ev in events {
            if self.events.len() < self.event_limit {
                self.events.push(ev);
            } else {
                self.events_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = CycleBreakdown::default();
        b.add(Category::Busy, 10);
        b.add(Category::RefreshShadow, 5);
        b.add(Category::Busy, 2);
        assert_eq!(b.get(Category::Busy), 12);
        assert_eq!(b.total(), 17);
        let mut c = b;
        c.add_all(&b);
        assert_eq!(c.total(), 34);
        assert!((b.fraction(Category::RefreshShadow) - 5.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_audit_flags_residuals() {
        let mut reg = MetricsRegistry::new(16);
        let mut bus = CycleBreakdown::default();
        bus.add(Category::Busy, 100);
        let mut pu = CycleBreakdown::default();
        pu.add(Category::Busy, 60);
        pu.add(Category::PostExitIdle, 40);
        reg.push_channel(
            ChannelMetrics {
                cycles: 100,
                bus,
                pu: vec![pu, pu],
            },
            Vec::new(),
            0,
        );
        assert!(reg.conservation_failures().is_empty());
        reg.channels[0].pu[1].add(Category::Busy, 1);
        let fails = reg.conservation_failures();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("PU 1"));
    }

    #[test]
    fn absorb_same_shape_adds_and_preserves_conservation() {
        let mk = |cycles: u64| {
            let mut bus = CycleBreakdown::default();
            bus.add(Category::Busy, cycles);
            let mut pu = CycleBreakdown::default();
            pu.add(Category::LockstepWait, cycles);
            let mut reg = MetricsRegistry::new(4);
            reg.push_channel(
                ChannelMetrics {
                    cycles,
                    bus,
                    pu: vec![pu],
                },
                Vec::new(),
                0,
            );
            reg
        };
        let mut a = mk(10);
        a.absorb(&mk(7));
        assert_eq!(a.channels.len(), 1);
        assert_eq!(a.channels[0].cycles, 17);
        assert!(a.conservation_failures().is_empty());
        // Different shape appends instead.
        let mut b = mk(3);
        b.channels[0].pu.push(CycleBreakdown::default());
        a.absorb(&b);
        assert_eq!(a.channels.len(), 2);
    }

    #[test]
    fn event_buffer_counts_overflow() {
        let ev = |i: u64| StallEvent {
            channel: 0,
            bank: 0,
            round: i,
            slot: 0,
            cycle: i,
            kind: Category::QueueFullStall,
        };
        let mut reg = MetricsRegistry::new(2);
        reg.push_channel(ChannelMetrics::default(), vec![ev(0), ev(1), ev(2)], 5);
        assert_eq!(reg.events.len(), 2);
        assert_eq!(reg.events_dropped, 6);
    }

    #[test]
    fn wall_is_the_slowest_channels_bus_view() {
        let mut reg = MetricsRegistry::new(4);
        for cycles in [5u64, 9, 7] {
            let mut bus = CycleBreakdown::default();
            bus.add(Category::Busy, cycles);
            reg.push_channel(
                ChannelMetrics {
                    cycles,
                    bus,
                    pu: Vec::new(),
                },
                Vec::new(),
                0,
            );
        }
        assert_eq!(reg.wall().total(), 9);
    }
}
