//! All-bank-only fast channel.
//!
//! Under pSyncPIM's lockstep execution every command a channel sees is an
//! all-bank broadcast, so all 16 banks move through *identical* state: the
//! per-bank `earliest` maximum collapses to a single representative bank,
//! and the per-bank-scope cursors (`last_col_group`, tRRD/tFAW windows)
//! are never consulted. [`AbChannel`] exploits that: one [`Bank`], the
//! channel-wide column cursor, and the 2-slot bus — a drop-in replacement
//! for [`Channel`](crate::Channel) restricted to [`Scope::AllBanks`],
//! cross-checked below against the full channel's two-pass issue.

use crate::bank::Bank;
use crate::channel::{IssueError, Issued};
use crate::command::{CmdKind, Scope};
use crate::config::HbmConfig;
use crate::stats::ChannelStats;

const NEVER: i64 = i64::MIN / 4;

/// A pseudo-channel that only ever issues all-bank broadcasts: one
/// representative bank stands in for all `nbanks` identical ones.
#[derive(Debug, Clone)]
pub struct AbChannel {
    timing: crate::config::Timing,
    nbanks: usize,
    bank: Bank,
    bus_cycle: i64,
    bus_count: u8,
    last_col_any: i64,
    stats: ChannelStats,
}

impl AbChannel {
    /// A fresh all-bank channel for the given configuration.
    #[must_use]
    pub fn new(cfg: &HbmConfig) -> Self {
        AbChannel {
            timing: cfg.timing,
            nbanks: cfg.banks_per_channel(),
            bank: Bank::new(),
            bus_cycle: NEVER,
            bus_count: 0,
            last_col_any: NEVER,
            stats: ChannelStats::default(),
        }
    }

    /// Accumulated statistics (broadcasts count banks exactly like the
    /// full channel).
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Issue `cmd` as an all-bank broadcast at the earliest legal cycle
    /// ≥ `from`.
    ///
    /// # Errors
    ///
    /// [`IssueError::IllegalState`] if the command cannot issue at all,
    /// the error the full channel returns.
    #[inline]
    pub fn issue_earliest(&mut self, cmd: CmdKind, from: u64) -> Result<Issued, IssueError> {
        let t = &self.timing;
        let mut e = from as i64;

        e = e.max(self.bank.earliest(cmd, t).ok_or(IssueError::IllegalState {
            cmd,
            scope: Scope::AllBanks,
        })?);
        if matches!(cmd, CmdKind::Rd { .. } | CmdKind::Wr { .. }) {
            // Broadcast columns pace at tCCD_L (every group's datapath is
            // occupied), exactly as the full channel's AllBanks arm.
            e = e.max(self.last_col_any + t.t_ccd_l as i64);
        }

        // 2-slot command bus, monotonic.
        loop {
            if e < self.bus_cycle {
                e = self.bus_cycle;
                continue;
            }
            if e == self.bus_cycle && self.bus_count >= 2 {
                e += 1;
                continue;
            }
            break;
        }
        let at = e.max(0);

        self.bank.apply(cmd, at, t);
        if matches!(cmd, CmdKind::Rd { .. } | CmdKind::Wr { .. }) {
            self.last_col_any = at;
        }
        if at == self.bus_cycle {
            self.bus_count += 1;
        } else {
            self.bus_cycle = at;
            self.bus_count = 1;
        }
        self.stats.record(Scope::AllBanks, cmd, self.nbanks);

        let at = at as u64;
        let data_cycle = match cmd {
            CmdKind::Rd { .. } => at + t.rl + 1,
            CmdKind::Wr { .. } => at + t.wl + 1,
            _ => at,
        };
        Ok(Issued {
            issue_cycle: at,
            data_cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    /// The reference issue: the full channel's two passes, `earliest`
    /// then `issue` at that cycle.
    fn two_pass(c: &mut Channel, scope: Scope, cmd: CmdKind, from: u64) -> Issued {
        let e = c.earliest(scope, cmd, from);
        c.issue(scope, cmd, e).unwrap()
    }

    /// Drive the same pseudo-random all-bank command stream through the
    /// full channel's two-pass issue and the representative-bank channel;
    /// every issue result and the final stats must agree exactly.
    #[test]
    fn matches_full_channel_on_random_allbank_streams() {
        let cfg = HbmConfig::default();
        for seed in 0..8u64 {
            let mut full = Channel::new(&cfg);
            let mut fast = AbChannel::new(&cfg);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut from = 0u64;
            let mut open = false;
            for _ in 0..400 {
                let r = rng();
                let cmd = if open {
                    match r % 8 {
                        0 => CmdKind::Pre,
                        1..=5 => CmdKind::Rd {
                            col: (r / 8 % 64) as u32,
                        },
                        _ => CmdKind::Wr {
                            col: (r / 8 % 64) as u32,
                        },
                    }
                } else {
                    match r % 4 {
                        0 => CmdKind::Ref,
                        1 => CmdKind::Mrs,
                        _ => CmdKind::Act {
                            row: (r / 4 % 1024) as u32,
                        },
                    }
                };
                match cmd {
                    CmdKind::Act { .. } => open = true,
                    CmdKind::Pre => open = false,
                    _ => {}
                }
                let a = two_pass(&mut full, Scope::AllBanks, cmd, from);
                let b = fast.issue_earliest(cmd, from).unwrap();
                assert_eq!(a, b, "seed {seed}: {cmd:?} from {from}");
                // Exercise both from == issue and from behind the bus.
                from = if r % 3 == 0 { a.issue_cycle } else { 0 };
            }
            assert_eq!(full.stats(), fast.stats(), "seed {seed}");
        }
    }

    #[test]
    fn illegal_state_errors_match() {
        let cfg = HbmConfig::default();
        let mut full = Channel::new(&cfg);
        let mut fast = AbChannel::new(&cfg);
        let a = full
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap_err();
        let b = fast.issue_earliest(CmdKind::Rd { col: 0 }, 0).unwrap_err();
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn single_pass_issue_earliest_matches_two_pass() {
        // The full channel's single-pass issue must pick the two-pass
        // cycles on per-bank scopes too.
        let cfg = HbmConfig::default();
        let mut two = Channel::new(&cfg);
        let mut one = Channel::new(&cfg);
        let seq = [
            (Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Act { row: 3 }),
            (Scope::OneBank { bg: 1, ba: 2 }, CmdKind::Act { row: 5 }),
            (Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Rd { col: 1 }),
            (Scope::OneBank { bg: 1, ba: 2 }, CmdKind::Wr { col: 2 }),
            (Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Pre),
            (Scope::OneBank { bg: 1, ba: 2 }, CmdKind::Pre),
            (Scope::AllBanks, CmdKind::Ref),
        ];
        let mut from = 0;
        for (scope, cmd) in seq {
            let a = two_pass(&mut two, scope, cmd, from);
            let b = one.issue_earliest(scope, cmd, from).unwrap();
            assert_eq!(a, b, "{cmd:?}");
            from = a.issue_cycle;
        }
        assert_eq!(two.stats(), one.stats());
    }
}
