//! Twin channels: a plain all-bank launch replays a channel only when no
//! earlier channel of the launch already showed what that replay does.
//!
//! A channel replay is a deterministic function of its inputs: every PU's
//! start state, the layout of every region in the channel's banks, and the
//! elements its PUs read. The program, binding table, command schedule and
//! timing are shared by the whole launch, and the channel index only
//! labels checker and attribution output. A *witness* is a replayed
//! channel whose PUs fetched no region for a store
//! ([`BankMemory::wrote`]), so after its replay its banks still hold its
//! inputs. A later channel whose inputs equal a witness's bit for bit
//! would replay to the witness's outcome and end PU states and would write
//! nothing either, so it takes them instead of replaying.
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
//! too.

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
    pub(super) fn classify(
        &mut self,
        enabled: bool,
        width: usize,
        pus: &[ProcessingUnit],
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
        for ch in 0..pus.len() / width {
            let (own_pus, own_mems) = (&pus[self.banks(ch)], &mems[self.banks(ch)]);
            let class = (0..ch)
                .filter(|&r| self.class[r] == r)
                .find(|&r| {
                    let banks = self.banks(r);
                    pus[banks.clone()]
                        .iter()
                        .zip(own_pus)
                        .all(|(a, b)| a.same_state(b))
                        && mems[banks]
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

    /// Give channel `ch` the witness's end PU states and outcome.
    pub(super) fn take(
        &mut self,
        w: Witness,
        ch: usize,
        pus: &mut [ProcessingUnit],
    ) -> ChannelOutcome {
        let (done, rest) = pus.split_at_mut(ch * self.width);
        for (dst, src) in rest[..self.width].iter_mut().zip(&done[self.banks(w.ch)]) {
            dst.copy_state_from(src);
        }
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
