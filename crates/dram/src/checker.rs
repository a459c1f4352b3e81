//! Independent trace-level JEDEC protocol validation (`psim-check`).
//!
//! The [`Channel`](crate::Channel) enforces timing at issue time, but a bug
//! in its bookkeeping silently invalidates every result built on top of it.
//! Production memory-controller stacks therefore ship a *validator* that
//! replays the emitted command trace and re-derives legality from scratch —
//! this module is that validator. It shares no state with the channel: it
//! keeps its own per-bank timestamps, its own activation window, its own bus
//! counter, and re-checks
//!
//! * per-bank state legality (ACT needs an idle bank, RD/WR/PRE an open
//!   row, REF/MRS idle banks),
//! * intra-bank timing: tRCD, tRAS, tRP, tWR, tRTP, tWTR, read-to-write
//!   turnaround, tRFC,
//! * inter-bank timing: tRRD_S/tRRD_L, the four-activation window tFAW,
//!   tCCD_S/tCCD_L (broadcast columns pace at tCCD_L),
//! * the 2-command-per-cycle command-bus limit,
//!
//! plus two whole-trace invariants nothing else checks:
//!
//! * **lockstep** — in all-bank execution every bank must observe the same
//!   ACT/PRE row sequence (the pSyncPIM premise: one legal command stream,
//!   divergence only inside the PUs),
//! * **refresh** — the trace must contain at least one REF per refresh
//!   audit window. JEDEC permits postponing up to 8 REF commands, so the
//!   audit bound is `9 × tREFI` between consecutive REFs.
//!
//! All-bank ACT is treated as a single super-activation exempt from
//! tRRD/tFAW, mirroring the documented channel model.

use crate::command::{CmdKind, Scope};
use crate::config::{HbmConfig, Timing};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Sentinel for "never happened".
const NEVER: i64 = i64::MIN / 4;

/// JEDEC allows a device to postpone up to 8 refreshes, so a legal trace
/// never goes more than 9 average-refresh-intervals without a REF.
pub const REFRESH_POSTPONE_LIMIT: u64 = 9;

/// The protocol rule a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // names are the JEDEC parameter names
pub enum Rule {
    /// Command illegal in the bank's current state.
    BankState,
    Trcd,
    Tras,
    Trp,
    Trtp,
    Twr,
    Twtr,
    /// Write issued before the preceding read's data left the bank (RL).
    ReadToWrite,
    Trfc,
    TrrdS,
    TrrdL,
    Tfaw,
    TccdS,
    TccdL,
    /// More than two commands on one bus cycle.
    BusOverflow,
    /// Trace cycles went backwards within one channel.
    NonMonotonic,
    /// Banks diverged in their ACT/PRE row sequence under all-bank mode.
    Lockstep,
    /// A refresh audit window elapsed without a REF.
    RefreshGap,
}

impl Rule {
    /// Short human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::BankState => "bank-state",
            Rule::Trcd => "tRCD",
            Rule::Tras => "tRAS",
            Rule::Trp => "tRP",
            Rule::Trtp => "tRTP",
            Rule::Twr => "tWR",
            Rule::Twtr => "tWTR",
            Rule::ReadToWrite => "read-to-write",
            Rule::Trfc => "tRFC",
            Rule::TrrdS => "tRRD_S",
            Rule::TrrdL => "tRRD_L",
            Rule::Tfaw => "tFAW",
            Rule::TccdS => "tCCD_S",
            Rule::TccdL => "tCCD_L",
            Rule::BusOverflow => "bus-overflow",
            Rule::NonMonotonic => "non-monotonic",
            Rule::Lockstep => "lockstep",
            Rule::RefreshGap => "refresh-gap",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol violation, with enough context to locate it in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Channel the offending command was issued on.
    pub channel: usize,
    /// Issue cycle of the offending command (or trace end for whole-trace
    /// invariants).
    pub cycle: u64,
    /// The rule broken.
    pub rule: Rule,
    /// The offending command, if the violation is tied to one.
    pub cmd: Option<CmdKind>,
    /// The offending command's scope.
    pub scope: Option<Scope>,
    /// Bank `(bg, ba)` the violation was detected on, if bank-specific.
    pub bank: Option<(usize, usize)>,
    /// Human-readable explanation with the violated bound.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[ch{} cyc{}] {}: {}",
            self.channel, self.cycle, self.rule, self.detail
        )?;
        if let (Some(cmd), Some(scope)) = (self.cmd, self.scope) {
            write!(f, " ({cmd} {scope})")?;
        }
        if let Some((bg, ba)) = self.bank {
            write!(f, " @bank({bg},{ba})")?;
        }
        Ok(())
    }
}

/// What the checker should enforce beyond raw JEDEC timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckPolicy {
    /// Enforce the all-bank lockstep invariant (every bank sees the same
    /// ACT/PRE row sequence). Disable for per-bank execution traces.
    pub lockstep: bool,
    /// Enforce the refresh contract (≥ 1 REF per audit window).
    pub expect_refresh: bool,
    /// Keep at most this many violations; the rest are only counted.
    pub max_violations: usize,
}

impl Default for CheckPolicy {
    fn default() -> Self {
        CheckPolicy {
            lockstep: true,
            expect_refresh: false,
            max_violations: 64,
        }
    }
}

/// Result of replaying one channel's trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Commands replayed.
    pub commands: u64,
    /// Violations found (capped at the policy's `max_violations`).
    pub violations: Vec<Violation>,
    /// Violations found beyond the cap (count only).
    pub suppressed: u64,
}

impl CheckReport {
    /// True when the trace was fully protocol-legal.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Total violation count including suppressed ones.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    /// Fold another channel's report into this one (keeps at most the
    /// default cap of detailed violations; the rest are counted).
    pub fn merge(&mut self, other: &CheckReport) {
        self.commands += other.commands;
        for v in &other.violations {
            if self.violations.len() < 64 {
                self.violations.push(v.clone());
            } else {
                self.suppressed += 1;
            }
        }
        self.suppressed += other.suppressed;
    }
}

/// Independent per-bank replay state (deliberately *not* [`crate::Bank`] —
/// sharing the implementation under test would defeat the audit).
#[derive(Debug, Clone)]
struct BankCheck {
    open_row: Option<u32>,
    last_act: i64,
    last_pre: i64,
    last_rd: i64,
    last_wr: i64,
    last_ref: i64,
    /// Rolling FNV-1a hash + length of the bank's ACT/PRE row sequence,
    /// compared across banks at [`ProtocolChecker::finish`] for lockstep.
    seq_hash: u64,
    seq_len: u64,
}

impl BankCheck {
    fn new() -> Self {
        BankCheck {
            open_row: None,
            last_act: NEVER,
            last_pre: NEVER,
            last_rd: NEVER,
            last_wr: NEVER,
            last_ref: NEVER,
            seq_hash: 0xcbf2_9ce4_8422_2325,
            seq_len: 0,
        }
    }

    fn hash_event(&mut self, tag: u8, row: u32) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.seq_hash;
        h = (h ^ u64::from(tag)).wrapping_mul(PRIME);
        for b in row.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self.seq_hash = h;
        self.seq_len += 1;
    }
}

/// Replays a command trace and re-verifies every protocol constraint from
/// scratch. Feed commands in trace order with [`ProtocolChecker::observe`],
/// then call [`ProtocolChecker::finish`] for the whole-trace invariants.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    timing: Timing,
    banks_per_group: usize,
    policy: CheckPolicy,
    channel: usize,
    banks: Vec<BankCheck>,
    bus_cycle: i64,
    bus_count: u32,
    last_col_group: Vec<i64>,
    last_col_any: i64,
    last_act_group: Vec<i64>,
    last_act_any: i64,
    act_window: [i64; 4],
    first_cycle: Option<u64>,
    last_cycle: i64,
    last_ref_cycle: Option<u64>,
    commands: u64,
    violations: Vec<Violation>,
    suppressed: u64,
}

impl ProtocolChecker {
    /// A checker for one channel of the given configuration.
    #[must_use]
    pub fn new(cfg: &HbmConfig) -> Self {
        Self::with_policy(cfg, CheckPolicy::default())
    }

    /// A checker with an explicit policy.
    #[must_use]
    pub fn with_policy(cfg: &HbmConfig, policy: CheckPolicy) -> Self {
        ProtocolChecker {
            timing: cfg.timing,
            banks_per_group: cfg.banks_per_group,
            policy,
            channel: 0,
            banks: (0..cfg.banks_per_channel())
                .map(|_| BankCheck::new())
                .collect(),
            bus_cycle: NEVER,
            bus_count: 0,
            last_col_group: vec![NEVER; cfg.num_bankgroups],
            last_col_any: NEVER,
            last_act_group: vec![NEVER; cfg.num_bankgroups],
            last_act_any: NEVER,
            act_window: [NEVER; 4],
            first_cycle: None,
            last_cycle: NEVER,
            last_ref_cycle: None,
            commands: 0,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Tag subsequent violations with a channel index.
    #[must_use]
    pub fn for_channel(mut self, channel: usize) -> Self {
        self.channel = channel;
        self
    }

    /// Violations recorded so far (whole-trace invariants land in
    /// [`ProtocolChecker::finish`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn violate(
        &mut self,
        cycle: u64,
        rule: Rule,
        cmd: Option<CmdKind>,
        scope: Option<Scope>,
        bank: Option<(usize, usize)>,
        detail: String,
    ) {
        if self.violations.len() >= self.policy.max_violations {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            channel: self.channel,
            cycle,
            rule,
            cmd,
            scope,
            bank,
            detail,
        });
    }

    /// Replay one command. Commands must arrive in trace (issue) order.
    pub fn observe(&mut self, cycle: u64, scope: Scope, cmd: CmdKind) {
        let t = self.timing;
        let at = cycle as i64;
        self.commands += 1;
        if self.first_cycle.is_none() {
            self.first_cycle = Some(cycle);
        }

        // Trace order and the 2-slot command bus.
        if at < self.last_cycle {
            self.violate(
                cycle,
                Rule::NonMonotonic,
                Some(cmd),
                Some(scope),
                None,
                format!("cycle {cycle} after cycle {} in trace", self.last_cycle),
            );
        }
        self.last_cycle = self.last_cycle.max(at);
        if at == self.bus_cycle {
            self.bus_count += 1;
            if self.bus_count > 2 {
                self.violate(
                    cycle,
                    Rule::BusOverflow,
                    Some(cmd),
                    Some(scope),
                    None,
                    format!("{} commands on bus cycle {cycle} (limit 2)", self.bus_count),
                );
            }
        } else if at > self.bus_cycle {
            self.bus_cycle = at;
            self.bus_count = 1;
        }

        // Per-bank state + intra-bank timing.
        let banks = match scope {
            Scope::OneBank { bg, ba } => {
                let bi = bg * self.banks_per_group + ba;
                bi..bi + 1
            }
            Scope::AllBanks => 0..self.banks.len(),
        };
        for bi in banks {
            self.check_bank(bi, cycle, scope, cmd);
        }

        // Channel-level (inter-bank) constraints.
        match cmd {
            CmdKind::Act { .. } => {
                if let Scope::OneBank { bg, .. } = scope {
                    self.check_gap(
                        cycle,
                        self.last_act_group[bg],
                        t.t_rrd_l,
                        Rule::TrrdL,
                        cmd,
                        scope,
                    );
                    self.check_gap(cycle, self.last_act_any, t.t_rrd_s, Rule::TrrdS, cmd, scope);
                    let oldest = self.act_window.iter().copied().min().unwrap_or(NEVER);
                    self.check_gap(cycle, oldest, t.t_faw, Rule::Tfaw, cmd, scope);
                    self.last_act_group[bg] = at;
                    self.last_act_any = at;
                    let slot = self
                        .act_window
                        .iter_mut()
                        .min_by_key(|v| **v)
                        .expect("window non-empty");
                    *slot = at;
                }
                // All-bank ACT: single broadcast, exempt from tRRD/tFAW
                // (the documented channel model).
            }
            CmdKind::Rd { .. } | CmdKind::Wr { .. } => match scope {
                Scope::OneBank { bg, .. } => {
                    self.check_gap(
                        cycle,
                        self.last_col_group[bg],
                        t.t_ccd_l,
                        Rule::TccdL,
                        cmd,
                        scope,
                    );
                    self.check_gap(cycle, self.last_col_any, t.t_ccd_s, Rule::TccdS, cmd, scope);
                    self.last_col_group[bg] = at;
                    self.last_col_any = at;
                }
                Scope::AllBanks => {
                    // Broadcast columns occupy every bank group's datapath:
                    // pace at tCCD_L.
                    self.check_gap(cycle, self.last_col_any, t.t_ccd_l, Rule::TccdL, cmd, scope);
                    self.last_col_any = at;
                }
            },
            CmdKind::Ref => {
                // Refresh contract: track the gap between consecutive REFs.
                if self.policy.expect_refresh {
                    let since = self.last_ref_cycle.or(self.first_cycle).unwrap_or(cycle);
                    let bound = REFRESH_POSTPONE_LIMIT * t.t_refi;
                    if cycle.saturating_sub(since) > bound {
                        self.violate(
                            cycle,
                            Rule::RefreshGap,
                            Some(cmd),
                            Some(scope),
                            None,
                            format!(
                                "{} cycles since previous REF exceeds audit bound {bound}",
                                cycle - since
                            ),
                        );
                    }
                }
                self.last_ref_cycle = Some(cycle);
            }
            CmdKind::Pre | CmdKind::Mrs => {}
        }
    }

    fn check_gap(
        &mut self,
        cycle: u64,
        last: i64,
        bound: u64,
        rule: Rule,
        cmd: CmdKind,
        scope: Scope,
    ) {
        if (cycle as i64) < last + bound as i64 {
            self.violate(
                cycle,
                rule,
                Some(cmd),
                Some(scope),
                None,
                format!(
                    "issued {} cycles after predecessor at {last}, need {bound}",
                    cycle as i64 - last
                ),
            );
        }
    }

    fn check_bank(&mut self, bi: usize, cycle: u64, scope: Scope, cmd: CmdKind) {
        let t = self.timing;
        let at = cycle as i64;
        let bank = (bi / self.banks_per_group, bi % self.banks_per_group);
        let b = &self.banks[bi];
        // The command's (rule, earliest legal cycle) bounds, at most three,
        // checked in this order; a state error short-circuits without
        // mutating.
        let bounds: Result<[Option<(Rule, i64)>; 3], String> = match (cmd, b.open_row) {
            (CmdKind::Act { .. } | CmdKind::Ref | CmdKind::Mrs, None) => Ok([
                Some((Rule::Trp, b.last_pre + t.t_rp as i64)),
                Some((Rule::Trfc, b.last_ref + t.t_rfc as i64)),
                None,
            ]),
            (CmdKind::Rd { .. }, Some(_)) => Ok([
                Some((Rule::Trcd, b.last_act + t.t_rcd as i64)),
                Some((Rule::Twtr, b.last_wr + (t.wl + t.t_wtr) as i64)),
                None,
            ]),
            (CmdKind::Wr { .. }, Some(_)) => Ok([
                Some((Rule::Trcd, b.last_act + t.t_rcd as i64)),
                Some((Rule::ReadToWrite, b.last_rd + t.rl as i64)),
                None,
            ]),
            (CmdKind::Pre, Some(_)) => Ok([
                Some((Rule::Tras, b.last_act + t.t_ras as i64)),
                Some((Rule::Trtp, b.last_rd + t.t_rtp as i64)),
                Some((Rule::Twr, b.last_wr + (t.wl + t.t_wr) as i64)),
            ]),
            (CmdKind::Act { .. } | CmdKind::Ref | CmdKind::Mrs, Some(row)) => {
                Err(format!("{} while row {row} is open", cmd.mnemonic()))
            }
            (CmdKind::Rd { .. } | CmdKind::Wr { .. } | CmdKind::Pre, None) => {
                Err(format!("{} with no open row", cmd.mnemonic()))
            }
        };
        let bounds = match bounds {
            Ok(bounds) => bounds,
            Err(msg) => {
                self.violate(
                    cycle,
                    Rule::BankState,
                    Some(cmd),
                    Some(scope),
                    Some(bank),
                    msg,
                );
                return;
            }
        };
        for (rule, earliest) in bounds.into_iter().flatten() {
            if at < earliest {
                self.violate(
                    cycle,
                    rule,
                    Some(cmd),
                    Some(scope),
                    Some(bank),
                    format!("issued at {cycle}, earliest legal {earliest}"),
                );
            }
        }
        // Apply the command to the replay state.
        let b = &mut self.banks[bi];
        match cmd {
            CmdKind::Act { row } => {
                b.open_row = Some(row);
                b.last_act = at;
                b.hash_event(1, row);
            }
            CmdKind::Rd { .. } => b.last_rd = at,
            CmdKind::Wr { .. } => b.last_wr = at,
            CmdKind::Pre => {
                b.open_row = None;
                b.last_pre = at;
                b.hash_event(2, 0);
            }
            CmdKind::Ref => b.last_ref = at,
            CmdKind::Mrs => {}
        }
    }

    /// Close the trace at `end_cycle` and evaluate the whole-trace
    /// invariants (lockstep, trailing refresh window).
    #[must_use]
    pub fn finish(mut self, end_cycle: u64) -> CheckReport {
        if self.policy.lockstep && self.commands > 0 {
            let reference = (self.banks[0].seq_hash, self.banks[0].seq_len);
            for (bi, b) in self.banks.iter().enumerate() {
                if (b.seq_hash, b.seq_len) != reference {
                    let bank = (bi / self.banks_per_group, bi % self.banks_per_group);
                    let detail = format!(
                        "bank({},{}) saw {} ACT/PRE events, bank(0,0) saw {} — \
                         banks diverged from the lockstep row sequence",
                        bank.0, bank.1, b.seq_len, self.banks[0].seq_len
                    );
                    self.violations.push(Violation {
                        channel: self.channel,
                        cycle: end_cycle,
                        rule: Rule::Lockstep,
                        cmd: None,
                        scope: None,
                        bank: Some(bank),
                        detail,
                    });
                    break; // one divergence report per channel is enough
                }
            }
        }
        if self.policy.expect_refresh {
            let bound = REFRESH_POSTPONE_LIMIT * self.timing.t_refi;
            let since = self.last_ref_cycle.or(self.first_cycle);
            if let Some(since) = since {
                if end_cycle.saturating_sub(since) > bound {
                    let detail = match self.last_ref_cycle {
                        Some(r) => format!(
                            "no REF in the {} trailing cycles after cycle {r} (bound {bound})",
                            end_cycle - r
                        ),
                        None => format!(
                            "trace spans {} cycles with no REF at all (bound {bound})",
                            end_cycle.saturating_sub(since)
                        ),
                    };
                    self.violations.push(Violation {
                        channel: self.channel,
                        cycle: end_cycle,
                        rule: Rule::RefreshGap,
                        cmd: None,
                        scope: None,
                        bank: None,
                        detail,
                    });
                }
            }
        }
        CheckReport {
            commands: self.commands,
            violations: self.violations,
            suppressed: self.suppressed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    fn cfg() -> HbmConfig {
        HbmConfig::default()
    }

    fn policy() -> CheckPolicy {
        CheckPolicy {
            lockstep: true,
            expect_refresh: false,
            max_violations: 64,
        }
    }

    /// Drive the checker from a real channel: everything the channel admits
    /// must replay clean.
    #[test]
    fn channel_issued_allbank_trace_is_clean() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let mut checker = ProtocolChecker::with_policy(&c, policy());
        let mut now = 0;
        for row in 0..3u32 {
            let a = ch
                .issue_earliest(Scope::AllBanks, CmdKind::Act { row }, now)
                .unwrap();
            checker.observe(a.issue_cycle, Scope::AllBanks, CmdKind::Act { row });
            now = a.issue_cycle;
            for col in 0..4u32 {
                let r = ch
                    .issue_earliest(Scope::AllBanks, CmdKind::Rd { col }, now)
                    .unwrap();
                checker.observe(r.issue_cycle, Scope::AllBanks, CmdKind::Rd { col });
                now = r.issue_cycle;
            }
            let p = ch
                .issue_earliest(Scope::AllBanks, CmdKind::Pre, now)
                .unwrap();
            checker.observe(p.issue_cycle, Scope::AllBanks, CmdKind::Pre);
            now = p.issue_cycle;
        }
        let report = checker.finish(now);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.commands, 3 * 6);
    }

    #[test]
    fn trcd_violation_is_caught() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(0, Scope::AllBanks, CmdKind::Act { row: 0 });
        k.observe(t.t_rcd - 1, Scope::AllBanks, CmdKind::Rd { col: 0 });
        let report = k.finish(t.t_rcd);
        assert!(report.violations.iter().any(|v| v.rule == Rule::Trcd));
    }

    #[test]
    fn tras_and_trp_violations_are_caught() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(0, Scope::AllBanks, CmdKind::Act { row: 0 });
        k.observe(t.t_ras - 1, Scope::AllBanks, CmdKind::Pre); // tRAS short
        k.observe(t.t_ras + 5, Scope::AllBanks, CmdKind::Act { row: 1 }); // tRP short
        let report = k.finish(100);
        assert!(report.violations.iter().any(|v| v.rule == Rule::Tras));
        assert!(report.violations.iter().any(|v| v.rule == Rule::Trp));
    }

    #[test]
    fn state_errors_are_caught() {
        let c = cfg();
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(0, Scope::AllBanks, CmdKind::Rd { col: 0 }); // no open row
        k.observe(1, Scope::AllBanks, CmdKind::Act { row: 0 });
        k.observe(2, Scope::AllBanks, CmdKind::Act { row: 1 }); // row open
        k.observe(3, Scope::AllBanks, CmdKind::Mrs); // MRS while active
        let report = k.finish(10);
        let states = report
            .violations
            .iter()
            .filter(|v| v.rule == Rule::BankState)
            .count();
        // Each of the three illegal commands fires on all 16 banks but the
        // cap keeps one violation per (cycle, bank) pair up to the limit.
        assert!(states >= 3, "{:?}", report.violations);
    }

    #[test]
    fn bus_overflow_is_caught() {
        let c = cfg();
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(5, Scope::AllBanks, CmdKind::Mrs);
        k.observe(5, Scope::AllBanks, CmdKind::Mrs);
        k.observe(5, Scope::AllBanks, CmdKind::Mrs);
        let report = k.finish(5);
        assert_eq!(
            report
                .violations
                .iter()
                .filter(|v| v.rule == Rule::BusOverflow)
                .count(),
            1
        );
    }

    #[test]
    fn perbank_act_pacing_violations_are_caught() {
        let c = cfg();
        let mut k = ProtocolChecker::with_policy(
            &c,
            CheckPolicy {
                lockstep: false,
                ..policy()
            },
        );
        k.observe(0, Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Act { row: 0 });
        // Same group too soon: tRRD_L (6); different group too soon: tRRD_S (4).
        k.observe(2, Scope::OneBank { bg: 0, ba: 1 }, CmdKind::Act { row: 0 });
        k.observe(3, Scope::OneBank { bg: 1, ba: 0 }, CmdKind::Act { row: 0 });
        let report = k.finish(50);
        assert!(report.violations.iter().any(|v| v.rule == Rule::TrrdL));
        assert!(report.violations.iter().any(|v| v.rule == Rule::TrrdS));
    }

    #[test]
    fn tfaw_violation_is_caught() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(
            &c,
            CheckPolicy {
                lockstep: false,
                ..policy()
            },
        );
        // Four activations legally spread, then a fifth inside the tFAW
        // window of the first.
        let mut at = 0;
        for i in 0..4 {
            k.observe(
                at,
                Scope::OneBank {
                    bg: i % 4,
                    ba: i / 4,
                },
                CmdKind::Act { row: 0 },
            );
            at += t.t_rrd_s;
        }
        assert!(at < t.t_faw, "test assumes 4*tRRD_S < tFAW");
        k.observe(at, Scope::OneBank { bg: 0, ba: 1 }, CmdKind::Act { row: 0 });
        let report = k.finish(at);
        assert!(report.violations.iter().any(|v| v.rule == Rule::Tfaw));
    }

    #[test]
    fn allbank_columns_must_pace_at_tccd_l() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(0, Scope::AllBanks, CmdKind::Act { row: 0 });
        k.observe(t.t_rcd, Scope::AllBanks, CmdKind::Rd { col: 0 });
        // tCCD_S spacing is fine for one-bank but too tight for broadcast.
        k.observe(t.t_rcd + t.t_ccd_s, Scope::AllBanks, CmdKind::Rd { col: 1 });
        let report = k.finish(100);
        assert!(report.violations.iter().any(|v| v.rule == Rule::TccdL));
    }

    #[test]
    fn lockstep_divergence_is_caught() {
        let c = cfg();
        let mut k = ProtocolChecker::with_policy(&c, policy());
        // One bank takes a private row cycle: the lockstep premise breaks
        // even though every timing constraint is satisfied.
        k.observe(0, Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Act { row: 7 });
        k.observe(40, Scope::OneBank { bg: 0, ba: 0 }, CmdKind::Pre);
        let report = k.finish(100);
        assert!(report.violations.iter().any(|v| v.rule == Rule::Lockstep));
    }

    #[test]
    fn lockstep_same_sequence_everywhere_is_clean() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(0, Scope::AllBanks, CmdKind::Act { row: 7 });
        k.observe(t.t_ras, Scope::AllBanks, CmdKind::Pre);
        let report = k.finish(100);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn missing_refresh_is_caught_and_scheduled_refresh_passes() {
        let c = cfg();
        let t = c.timing;
        let p = CheckPolicy {
            expect_refresh: true,
            ..policy()
        };
        let bound = REFRESH_POSTPONE_LIMIT * t.t_refi;

        // A long refresh-free trace violates the audit bound.
        let mut k = ProtocolChecker::with_policy(&c, p);
        k.observe(0, Scope::AllBanks, CmdKind::Mrs);
        let report = k.finish(bound + 10);
        assert!(report.violations.iter().any(|v| v.rule == Rule::RefreshGap));

        // REF every tREFI passes with plenty of margin.
        let mut k = ProtocolChecker::with_policy(&c, p);
        k.observe(0, Scope::AllBanks, CmdKind::Mrs);
        let mut at = t.t_refi;
        while at < 3 * bound {
            k.observe(at, Scope::AllBanks, CmdKind::Ref);
            at += t.t_refi;
        }
        let report = k.finish(at);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn refresh_too_soon_violates_trfc() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(&c, policy());
        k.observe(0, Scope::AllBanks, CmdKind::Ref);
        k.observe(t.t_rfc - 1, Scope::AllBanks, CmdKind::Ref);
        let report = k.finish(t.t_rfc);
        assert!(report.violations.iter().any(|v| v.rule == Rule::Trfc));
    }

    #[test]
    fn violation_cap_suppresses_overflow() {
        let c = cfg();
        let mut k = ProtocolChecker::with_policy(
            &c,
            CheckPolicy {
                max_violations: 4,
                ..policy()
            },
        );
        for _ in 0..10 {
            // RD with no open row: one state violation per bank per call.
            k.observe(0, Scope::AllBanks, CmdKind::Rd { col: 0 });
        }
        let report = k.finish(0);
        assert_eq!(report.violations.len(), 4);
        assert!(report.suppressed > 0);
        assert!(!report.is_clean());
        assert_eq!(report.total_violations(), 4 + report.suppressed);
    }

    #[test]
    fn violations_display_with_context() {
        let c = cfg();
        let mut k = ProtocolChecker::with_policy(&c, policy()).for_channel(2);
        k.observe(0, Scope::AllBanks, CmdKind::Act { row: 0 });
        k.observe(1, Scope::AllBanks, CmdKind::Rd { col: 0 });
        let report = k.finish(10);
        let text = format!("{}", report.violations[0]);
        assert!(text.contains("ch2"), "{text}");
        assert!(text.contains("tRCD"), "{text}");
    }
}
