//! Pseudo-channel command scheduler.
//!
//! A channel owns 16 banks (4 groups × 4). It enforces:
//!
//! * per-bank state/timing (delegated to [`Bank`]),
//! * inter-bank column spacing: tCCD_L within a bank group, tCCD_S across
//!   groups,
//! * activation pacing for per-bank commands: tRRD_L/tRRD_S and the
//!   four-activation window tFAW,
//! * the command-bus limit: at most two commands per clock per channel
//!   (the bottleneck that penalizes per-bank PIM execution, paper §III-B),
//! * all-bank scope: one command applies to every bank simultaneously.
//!   All-bank ACT is modeled as a single super-activation exempt from
//!   tRRD/tFAW (the HBM-PIM execution model; energy still scales with the
//!   number of banks opened).

use crate::bank::Bank;
use crate::command::{CmdKind, Scope};
use crate::config::HbmConfig;
use crate::stats::ChannelStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result of successfully issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Issued {
    /// The cycle the command went onto the bus.
    pub issue_cycle: u64,
    /// For column commands, the cycle the data burst completes (read data
    /// valid at the PU / write restored enough for consumers).
    pub data_cycle: u64,
}

/// Error returned when a command cannot issue as requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssueError {
    /// Issue requested before the earliest legal cycle.
    TooEarly {
        /// Requested cycle.
        requested: u64,
        /// Earliest legal cycle.
        earliest: u64,
    },
    /// The command is illegal in the current bank state (e.g. RD on an idle
    /// bank, mismatched open rows under all-bank scope).
    IllegalState(String),
}

impl fmt::Display for IssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueError::TooEarly {
                requested,
                earliest,
            } => write!(
                f,
                "issue at {requested} precedes earliest legal cycle {earliest}"
            ),
            IssueError::IllegalState(msg) => write!(f, "illegal command: {msg}"),
        }
    }
}

impl std::error::Error for IssueError {}

/// One pseudo-channel: banks plus channel-level scheduling state.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: HbmConfig,
    banks: Vec<Bank>, // indexed bg * banks_per_group + ba
    /// Bus occupancy: the latest cycle that carried a command and how many
    /// commands it carried. Issue is monotonic (nothing may issue before
    /// `bus_cycle`), so one `(cycle, count)` pair models the 2-slot bus
    /// exactly — the old two-slot array forgot older cycles and let 3+
    /// commands share a slot under out-of-order probing.
    bus_cycle: i64,
    bus_count: u8,
    /// Last column-command issue per bank group (for tCCD_L) and channel
    /// wide (for tCCD_S).
    last_col_group: Vec<i64>,
    last_col_any: i64,
    /// Last per-bank ACT per group / channel (tRRD) and the last four ACT
    /// times (tFAW).
    last_act_group: Vec<i64>,
    last_act_any: i64,
    act_window: [i64; 4],
    stats: ChannelStats,
}

const NEVER: i64 = i64::MIN / 4;

impl Channel {
    /// A fresh channel for the given configuration.
    #[must_use]
    pub fn new(cfg: &HbmConfig) -> Self {
        Channel {
            cfg: cfg.clone(),
            banks: (0..cfg.banks_per_channel()).map(|_| Bank::new()).collect(),
            bus_cycle: NEVER,
            bus_count: 0,
            last_col_group: vec![NEVER; cfg.num_bankgroups],
            last_col_any: NEVER,
            last_act_group: vec![NEVER; cfg.num_bankgroups],
            last_act_any: NEVER,
            act_window: [NEVER; 4],
            stats: ChannelStats::default(),
        }
    }

    /// The configuration this channel was built with.
    #[must_use]
    pub fn config(&self) -> &HbmConfig {
        &self.cfg
    }

    /// Borrow a bank.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    #[must_use]
    pub fn bank(&self, bg: usize, ba: usize) -> &Bank {
        &self.banks[bg * self.cfg.banks_per_group + ba]
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Earliest cycle (≥ `from`) at which `cmd` with `scope` may issue.
    ///
    /// Illegal state (e.g. reading an idle bank) saturates to `u64::MAX`;
    /// callers that may be in an illegal state should use [`Channel::issue`]
    /// and handle the error.
    #[must_use]
    pub fn earliest(&self, scope: Scope, cmd: CmdKind, from: u64) -> u64 {
        self.earliest_inner(scope, cmd, from as i64)
            .map_or(u64::MAX, |e| e.max(0) as u64)
    }

    fn earliest_inner(&self, scope: Scope, cmd: CmdKind, from: i64) -> Option<i64> {
        let t = &self.cfg.timing;
        let mut e = from;

        // Bus: at most 2 commands on the same cycle. The bus is monotonic —
        // a candidate cycle behind `bus_cycle` is clamped forward, and after
        // bumping off a full cycle the new cycle is re-checked (the pre-fix
        // code bumped once without re-checking, so a stale candidate could
        // become the 3rd command on an already-full slot).
        let bus_free = |mut cyc: i64| -> i64 {
            loop {
                if cyc < self.bus_cycle {
                    cyc = self.bus_cycle;
                    continue;
                }
                if cyc == self.bus_cycle && self.bus_count >= 2 {
                    cyc += 1;
                    continue;
                }
                return cyc;
            }
        };

        // Bank-level earliest.
        for bi in self.bank_range(scope) {
            e = e.max(self.banks[bi].earliest(cmd, t)?);
        }

        // Channel-level constraints.
        match cmd {
            CmdKind::Act { .. } => {
                if let Scope::OneBank { bg, .. } = scope {
                    e = e.max(self.last_act_group[bg] + t.t_rrd_l as i64);
                    e = e.max(self.last_act_any + t.t_rrd_s as i64);
                    // tFAW: at most 4 activations in any tFAW window.
                    let oldest = self.act_window.iter().copied().min().unwrap_or(NEVER);
                    e = e.max(oldest + t.t_faw as i64);
                }
                // All-bank ACT: single broadcast, exempt from tRRD/tFAW.
            }
            CmdKind::Rd { .. } | CmdKind::Wr { .. } => match scope {
                Scope::OneBank { bg, .. } => {
                    e = e.max(self.last_col_group[bg] + t.t_ccd_l as i64);
                    e = e.max(self.last_col_any + t.t_ccd_s as i64);
                }
                Scope::AllBanks => {
                    // Broadcast columns pace at tCCD_L: every bank group's
                    // internal datapath is occupied.
                    e = e.max(self.last_col_any + t.t_ccd_l as i64);
                }
            },
            CmdKind::Pre | CmdKind::Ref | CmdKind::Mrs => {}
        }

        e = bus_free(e);
        Some(e)
    }

    /// The bank indices a scope addresses, as a range (all-bank scopes are
    /// contiguous, so no per-call index vector is needed).
    fn bank_range(&self, scope: Scope) -> std::ops::Range<usize> {
        match scope {
            Scope::OneBank { bg, ba } => {
                let i = bg * self.cfg.banks_per_group + ba;
                i..i + 1
            }
            Scope::AllBanks => 0..self.banks.len(),
        }
    }

    /// Apply `cmd` at `at` unconditionally: bank state, channel cursors,
    /// bus slots, stats. Callers must have established legality via
    /// [`Channel::earliest_inner`] first.
    fn apply_at(&mut self, scope: Scope, cmd: CmdKind, at: u64) -> Issued {
        let t = self.cfg.timing;
        let at_i = at as i64;
        let range = self.bank_range(scope);
        let nbanks = range.len();
        for bi in range {
            self.banks[bi].apply(cmd, at_i, &t);
        }

        match cmd {
            CmdKind::Act { .. } => {
                if let Scope::OneBank { bg, .. } = scope {
                    self.last_act_group[bg] = at_i;
                    self.last_act_any = at_i;
                    // Slide the tFAW window.
                    let oldest = self
                        .act_window
                        .iter_mut()
                        .min_by_key(|v| **v)
                        .expect("window non-empty");
                    *oldest = at_i;
                }
            }
            CmdKind::Rd { .. } | CmdKind::Wr { .. } => {
                if let Scope::OneBank { bg, .. } = scope {
                    self.last_col_group[bg] = at_i;
                }
                self.last_col_any = at_i;
            }
            _ => {}
        }

        // Bus slot bookkeeping: `earliest_inner` guarantees at_i is either
        // on the current (non-full) bus cycle or strictly after it.
        if at_i == self.bus_cycle {
            self.bus_count += 1;
        } else {
            debug_assert!(at_i > self.bus_cycle, "bus issue went backwards");
            self.bus_cycle = at_i;
            self.bus_count = 1;
        }

        self.stats.record(scope, cmd, nbanks);

        let data_cycle = match cmd {
            CmdKind::Rd { .. } => at + t.rl + 1,
            CmdKind::Wr { .. } => at + t.wl + 1,
            _ => at,
        };
        Issued {
            issue_cycle: at,
            data_cycle,
        }
    }

    /// Issue `cmd` at cycle `at`.
    ///
    /// # Errors
    ///
    /// [`IssueError::TooEarly`] if `at` precedes the earliest legal cycle,
    /// [`IssueError::IllegalState`] if the command cannot issue in the
    /// current bank state.
    pub fn issue(&mut self, scope: Scope, cmd: CmdKind, at: u64) -> Result<Issued, IssueError> {
        let earliest = self
            .earliest_inner(scope, cmd, 0)
            .ok_or_else(|| IssueError::IllegalState(format!("{cmd} with {scope}")))?
            .max(0) as u64;
        if at < earliest {
            return Err(IssueError::TooEarly {
                requested: at,
                earliest,
            });
        }
        Ok(self.apply_at(scope, cmd, at))
    }

    /// Issue `cmd` at the earliest legal cycle ≥ `from`: one constraint
    /// evaluation, then commit. Same cycle as [`Channel::earliest`]
    /// followed by [`Channel::issue`] (`earliest(from) ≥ earliest(0)`, so
    /// the second pass's re-check could never fire).
    ///
    /// # Errors
    ///
    /// [`IssueError::IllegalState`] if the command cannot issue at all.
    pub fn issue_earliest(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        from: u64,
    ) -> Result<Issued, IssueError> {
        let e = self
            .earliest_inner(scope, cmd, from as i64)
            .ok_or_else(|| IssueError::IllegalState(format!("{cmd} with {scope}")))?
            .max(0) as u64;
        Ok(self.apply_at(scope, cmd, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> Channel {
        Channel::new(&HbmConfig::default())
    }

    #[test]
    fn allbank_act_then_columns() {
        let mut c = ch();
        let a = c
            .issue_earliest(Scope::AllBanks, CmdKind::Act { row: 9 }, 0)
            .unwrap();
        assert_eq!(a.issue_cycle, 0);
        let r = c
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap();
        assert_eq!(r.issue_cycle, c.config().timing.t_rcd);
        // All banks now have row 9 open.
        for bg in 0..4 {
            for ba in 0..4 {
                assert_eq!(c.bank(bg, ba).open_row(), Some(9));
            }
        }
    }

    #[test]
    fn allbank_columns_pace_at_tccd_l() {
        let mut c = ch();
        c.issue_earliest(Scope::AllBanks, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        let r1 = c
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap();
        let r2 = c
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 1 }, 0)
            .unwrap();
        assert_eq!(r2.issue_cycle - r1.issue_cycle, c.config().timing.t_ccd_l);
    }

    #[test]
    fn perbank_acts_respect_trrd_and_tfaw() {
        let mut c = ch();
        let t = c.config().timing;
        let mut cycles = Vec::new();
        // Activate 5 different bank groups' banks back to back.
        for i in 0..5 {
            let scope = Scope::OneBank {
                bg: i % 4,
                ba: i / 4,
            };
            let got = c.issue_earliest(scope, CmdKind::Act { row: 0 }, 0).unwrap();
            cycles.push(got.issue_cycle);
        }
        // Different groups: spaced at least tRRD_S.
        assert!(cycles[1] - cycles[0] >= t.t_rrd_s);
        // Fifth activation within the tFAW window of the first.
        assert!(cycles[4] >= cycles[0] + t.t_faw);
    }

    #[test]
    fn same_group_columns_pace_tccd_l_cross_group_tccd_s() {
        let mut c = ch();
        let t = c.config().timing;
        c.issue_earliest(Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        c.issue_earliest(Scope::OneBank { bg: 0, ba: 1 }, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        c.issue_earliest(Scope::OneBank { bg: 1, ba: 0 }, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        // Start well past every tRCD so only the CCD constraints bind.
        let r1 = c
            .issue_earliest(Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Rd { col: 0 }, 50)
            .unwrap();
        let r2 = c
            .issue_earliest(Scope::OneBank { bg: 1, ba: 0 }, CmdKind::Rd { col: 0 }, 0)
            .unwrap();
        assert_eq!(r2.issue_cycle - r1.issue_cycle, t.t_ccd_s);
        let r3 = c
            .issue_earliest(Scope::OneBank { bg: 0, ba: 1 }, CmdKind::Rd { col: 0 }, 0)
            .unwrap();
        assert!(r3.issue_cycle - r1.issue_cycle >= t.t_ccd_l);
    }

    #[test]
    fn too_early_is_rejected() {
        let mut c = ch();
        c.issue_earliest(Scope::AllBanks, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        let err = c
            .issue(Scope::AllBanks, CmdKind::Rd { col: 0 }, 1)
            .unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { .. }));
    }

    #[test]
    fn illegal_state_is_reported() {
        let mut c = ch();
        let err = c
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap_err();
        assert!(matches!(err, IssueError::IllegalState(_)));
    }

    #[test]
    fn read_data_arrives_after_rl() {
        let mut c = ch();
        c.issue_earliest(Scope::AllBanks, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        let r = c
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap();
        assert_eq!(r.data_cycle, r.issue_cycle + c.config().timing.rl + 1);
    }

    #[test]
    fn stats_count_scope_and_kind() {
        let mut c = ch();
        c.issue_earliest(Scope::AllBanks, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        c.issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap();
        c.issue_earliest(Scope::AllBanks, CmdKind::Pre, 0).unwrap();
        let s = c.stats();
        assert_eq!(s.total_commands(), 3);
        assert_eq!(s.acts, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.pres, 1);
        assert_eq!(s.bank_activations, 16); // one AB ACT opens 16 banks
    }

    #[test]
    fn bus_admits_at_most_two_commands_per_cycle_under_saturation() {
        // MRS has no timing constraints, so a burst of them saturates the
        // command bus: 6 commands must spread over >= 3 distinct cycles
        // with never more than 2 sharing one.
        let mut c = ch();
        let mut cycles = Vec::new();
        for _ in 0..6 {
            cycles.push(
                c.issue_earliest(Scope::AllBanks, CmdKind::Mrs, 0)
                    .unwrap()
                    .issue_cycle,
            );
        }
        assert_eq!(cycles, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn bus_rejects_third_command_on_a_past_slot() {
        // Regression: with the old two-slot array, issuing at cycle 0, then
        // cycle 2, evicted the record of cycle 0 — two further commands at
        // cycle 0 then issued, putting 3 commands on one bus slot.
        let mut c = ch();
        c.issue(Scope::AllBanks, CmdKind::Mrs, 0).unwrap();
        c.issue(Scope::AllBanks, CmdKind::Mrs, 2).unwrap();
        let err = c.issue(Scope::AllBanks, CmdKind::Mrs, 0).unwrap_err();
        assert!(
            matches!(err, IssueError::TooEarly { earliest: 2, .. }),
            "bus must stay monotonic: {err:?}"
        );
        // Cycle 2 still has a free slot; cycle 3 is fresh.
        c.issue(Scope::AllBanks, CmdKind::Mrs, 2).unwrap();
        let err = c.issue(Scope::AllBanks, CmdKind::Mrs, 2).unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { earliest: 3, .. }));
    }

    #[test]
    fn full_row_cycle_all_banks() {
        // ACT -> 32 reads -> PRE -> ACT again must take >= tRC.
        let mut c = ch();
        let t = c.config().timing;
        c.issue_earliest(Scope::AllBanks, CmdKind::Act { row: 0 }, 0)
            .unwrap();
        let mut cur = 0;
        for col in 0..4 {
            cur = c
                .issue_earliest(Scope::AllBanks, CmdKind::Rd { col }, cur)
                .unwrap()
                .issue_cycle;
        }
        let p = c
            .issue_earliest(Scope::AllBanks, CmdKind::Pre, cur)
            .unwrap();
        let a = c
            .issue_earliest(Scope::AllBanks, CmdKind::Act { row: 1 }, p.issue_cycle)
            .unwrap();
        assert!(a.issue_cycle >= t.t_rc());
    }
}
