//! Twin channels: a plain all-bank launch replays a channel only when no
//! earlier channel of the launch already showed what that replay does.
//!
//! A channel replay is a deterministic function of its inputs: every PU's
//! start state, the layout of every region in the channel's banks, and the
//! elements its PUs read. The kernel (program, binding table, command
//! schedule) and timing are shared by the whole launch, and the channel
//! index only labels checker and attribution output. A *witness* is a
//! replayed channel whose PUs fetched no region for a store
//! ([`BankMemory::wrote`]), so after its replay its banks still hold its
//! inputs. A later channel whose inputs equal a witness's bit for bit
//! would replay to the witness's outcome and end PU states and would write
//! nothing either, so it takes them instead of replaying.
//!
//! Taking the end states copies nothing: [`PuSlots`] keeps, per channel,
//! the *source* channel whose slots hold its PU states, and a twin's
//! source becomes its witness. It reads the witness's slots until it
//! replays or [`PuSlots::get_mut`] reaches it; then it gets its own copy,
//! and channels that read their states from its slots move to a copy
//! first. Sharing lasts across launches: loading a kernel and seeding the
//! scalar register touch only the slots channels read their states from,
//! and the next launch finds channels with one source equal in PU state
//! without comparing them.
//!
//! PU start states are gone once a channel replays, so [`Twins::classify`]
//! compares them, with the bank layouts, for the whole launch up front.
//! Read contents are compared after the witness replays, over the element
//! spans its interpreter read ([`BankMemory::read`]). No caller says which
//! channels are idle: reuse follows from the comparison alone.
//!
//! Validated and attributed runs replay every channel, because the checker
//! and attribution label their findings per channel; they are the
//! reference the tests compare against. Per-bank runs replay every channel
//! too, so in all three every channel stays its own source.

use super::channel::ChannelOutcome;
use crate::memory::BankMemory;
use crate::pu::ProcessingUnit;
use psim_dram::ChannelStats;
use std::ops::Range;

/// A replayed channel of this launch whose PUs wrote no bank element.
#[derive(Debug, Clone, Copy)]
pub(super) struct Witness {
    ch: usize,
    cycles: u64,
    stats: ChannelStats,
    rounds: u64,
}

/// Twin-channel bookkeeping for one launch; the buffers live as long as
/// the engine, so a launch allocates nothing here.
#[derive(Debug, Clone, Default)]
pub(super) struct Twins {
    /// Banks per channel.
    width: usize,
    /// Per channel: the first channel with bit-identical PU start states
    /// and bank layouts. Empty when this launch replays every channel.
    class: Vec<usize>,
    /// This launch's witnesses, in channel order.
    witnesses: Vec<Witness>,
    /// Channels of the last run that took a witness's outcome.
    #[cfg(test)]
    pub(super) reused: usize,
}

impl Twins {
    fn banks(&self, ch: usize) -> Range<usize> {
        ch * self.width..(ch + 1) * self.width
    }

    /// Start a launch over channels of `width` banks. With `enabled`,
    /// group the channels by start state; otherwise every channel replays.
    /// Channels with one source hold one PU state, so only their bank
    /// layouts are compared.
    pub(super) fn classify(
        &mut self,
        enabled: bool,
        width: usize,
        pus: &PuSlots,
        mems: &[BankMemory],
    ) {
        self.width = width;
        self.class.clear();
        self.witnesses.clear();
        #[cfg(test)]
        {
            self.reused = 0;
        }
        if !enabled {
            return;
        }
        for ch in 0..mems.len() / width {
            let (own_pus, own_mems) = (pus.channel(ch), &mems[self.banks(ch)]);
            let class = (0..ch)
                .filter(|&r| self.class[r] == r)
                .find(|&r| {
                    (pus.same_source(r, ch)
                        || pus
                            .channel(r)
                            .iter()
                            .zip(own_pus)
                            .all(|(a, b)| a.same_state(b)))
                        && mems[self.banks(r)]
                            .iter()
                            .zip(own_mems)
                            .all(|(a, b)| a.same_layout(b))
                })
                .unwrap_or(ch);
            self.class.push(class);
        }
    }

    /// A witness whose replay channel `ch` would repeat: same class, and
    /// bit-identical elements in every span the witness's PUs read.
    pub(super) fn witness_for(&self, ch: usize, mems: &[BankMemory]) -> Option<Witness> {
        let class = *self.class.get(ch)?;
        let own = &mems[self.banks(ch)];
        self.witnesses
            .iter()
            .find(|w| {
                self.class[w.ch] == class
                    && mems[self.banks(w.ch)]
                        .iter()
                        .zip(own)
                        .all(|(a, b)| a.same_reads(b))
            })
            .copied()
    }

    /// Give channel `ch` the witness's end PU states, by reading them from
    /// the witness's slots, and its outcome.
    pub(super) fn take(&mut self, w: Witness, ch: usize, pus: &mut PuSlots) -> ChannelOutcome {
        pus.share(ch, w.ch);
        #[cfg(test)]
        {
            self.reused += 1;
        }
        ChannelOutcome {
            cycles: w.cycles,
            stats: w.stats,
            rounds: w.rounds,
            check: None,
            metrics: None,
            stall_events: Vec::new(),
            stall_events_dropped: 0,
        }
    }

    /// After channel `ch` replayed over `mems`: keep it as a witness if
    /// this launch reuses and its PUs wrote no bank element.
    pub(super) fn record(&mut self, ch: usize, mems: &[BankMemory], outcome: &ChannelOutcome) {
        if !self.class.is_empty() && !mems.iter().any(BankMemory::wrote) {
            self.witnesses.push(Witness {
                ch,
                cycles: outcome.cycles,
                stats: outcome.stats,
                rounds: outcome.rounds,
            });
        }
    }
}

/// Every bank's PU state, stored channel by channel. Each channel reads its
/// states from the slots of its *source* channel: itself, unless it took a
/// witness's outcome. A source's slots hold the states of every channel
/// that reads them, and no channel's source is a later channel.
///
/// Within a launch, a channel that owns its slots and takes a witness's
/// outcome leaves its later readers reading its slots until their turn
/// comes; so when a launch completes, each channel's source owns its own
/// slots again.
///
/// Each channel's slots are their own allocation. One block for all of a
/// cube's units (about 200 KiB) raised the peak RSS of perfbench's
/// `sptrsv_suite`, which builds an engine per diagonal block: glibc maps a
/// block that size, and unmapping it raises the size below which later
/// buffers stay on the heap.
#[derive(Debug, Clone)]
pub(super) struct PuSlots {
    /// Per channel, its `width` units.
    slots: Vec<Box<[ProcessingUnit]>>,
    /// Per channel: the channel whose slots hold its PU states.
    source: Vec<usize>,
    /// Banks per channel.
    width: usize,
}

impl PuSlots {
    /// Fresh units for `channels` channels of `width` banks, each channel
    /// its own source.
    pub(super) fn new(channels: usize, width: usize) -> Self {
        PuSlots {
            slots: (0..channels)
                .map(|_| (0..width).map(|_| ProcessingUnit::new()).collect())
                .collect(),
            source: (0..channels).collect(),
            width,
        }
    }

    /// Bank `bank`'s PU state.
    pub(super) fn get(&self, bank: usize) -> &ProcessingUnit {
        &self.channel(bank / self.width)[bank % self.width]
    }

    /// Bank `bank`'s PU, mutably, once its channel owns its states.
    pub(super) fn get_mut(&mut self, bank: usize) -> &mut ProcessingUnit {
        let (ch, i) = (bank / self.width, bank % self.width);
        &mut self.channel_mut(ch)[i]
    }

    /// Channel `ch`'s PU states.
    pub(super) fn channel(&self, ch: usize) -> &[ProcessingUnit] {
        &self.slots[self.source[ch]]
    }

    /// Channel `ch`'s PUs, mutably, once it owns its states (before it
    /// replays).
    pub(super) fn channel_mut(&mut self, ch: usize) -> &mut [ProcessingUnit] {
        self.own(ch);
        &mut self.slots[ch]
    }

    /// Every bank's PU state, in bank order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &ProcessingUnit> {
        self.source.iter().flat_map(|&s| self.slots[s].iter())
    }

    /// The units in the slots some channel reads its states from, so a
    /// change made to them reaches every channel. Between launches these
    /// are the slots of the channels that own theirs.
    pub(super) fn sources_mut(&mut self) -> impl Iterator<Item = &mut ProcessingUnit> {
        let source = &self.source;
        self.slots
            .iter_mut()
            .enumerate()
            .filter(move |(ch, _)| source.contains(ch))
            .flat_map(|(_, pus)| pus.iter_mut())
    }

    /// Whether channels `a` and `b` read their states from one source.
    pub(super) fn same_source(&self, a: usize, b: usize) -> bool {
        self.source[a] == self.source[b]
    }

    /// Let channel `ch` read its states from `witness`'s slots.
    pub(super) fn share(&mut self, ch: usize, witness: usize) {
        debug_assert!(witness < ch && self.source[witness] == witness);
        self.source[ch] = witness;
    }

    /// Whether every channel's source owns its slots.
    pub(super) fn settled(&self) -> bool {
        self.source.iter().all(|&s| self.source[s] == s)
    }

    /// Make channel `ch` hold its own states in its own slots. Channels
    /// that read their states from its slots first move to a copy: the
    /// first of them gets one, and the rest read from it.
    fn own(&mut self, ch: usize) {
        if let Some(first) = (ch + 1..self.source.len()).find(|&d| self.source[d] == ch) {
            self.copy(ch, first);
            for s in &mut self.source[first..] {
                if *s == ch {
                    *s = first;
                }
            }
        }
        let from = self.source[ch];
        if from != ch {
            self.copy(from, ch);
            self.source[ch] = ch;
        }
    }

    /// Copy channel `from`'s slots into those of a later channel `to`.
    fn copy(&mut self, from: usize, to: usize) {
        let (lo, hi) = self.slots.split_at_mut(to);
        for (d, s) in hi[0].iter_mut().zip(lo[from].iter()) {
            d.copy_state_from(s);
        }
    }
}
