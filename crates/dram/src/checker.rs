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
//!
//! **Representative bank.** An all-bank command moves every bank of the
//! channel through the same state, so while every command seen so far is
//! all-bank the banks are identical and bank 0 stands for all of them, as
//! it does in [`AbChannel`](crate::AbChannel)'s timing: a clean all-bank
//! command is checked and applied on bank 0 alone. The first single-bank
//! command, or the first all-bank command bank 0 would find fault with,
//! copies bank 0's state into every bank, and from then on each command is
//! checked bank by bank. Reports are the same either way: the copy happens
//! before the first per-bank finding, and identical banks cannot diverge
//! in their lockstep hashes.

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
#[derive(Debug, Clone, Copy)]
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

    /// The (rule, earliest legal cycle) bounds `cmd` must meet on this
    /// bank, at most three, in check order; `None` when the bank's state
    /// forbids the command.
    #[inline]
    fn bounds(&self, t: &Timing, cmd: CmdKind) -> Option<[Option<(Rule, i64)>; 3]> {
        match (cmd, self.open_row) {
            (CmdKind::Act { .. } | CmdKind::Ref | CmdKind::Mrs, None) => Some([
                Some((Rule::Trp, self.last_pre + t.t_rp as i64)),
                Some((Rule::Trfc, self.last_ref + t.t_rfc as i64)),
                None,
            ]),
            (CmdKind::Rd { .. }, Some(_)) => Some([
                Some((Rule::Trcd, self.last_act + t.t_rcd as i64)),
                Some((Rule::Twtr, self.last_wr + (t.wl + t.t_wtr) as i64)),
                None,
            ]),
            (CmdKind::Wr { .. }, Some(_)) => Some([
                Some((Rule::Trcd, self.last_act + t.t_rcd as i64)),
                Some((Rule::ReadToWrite, self.last_rd + t.rl as i64)),
                None,
            ]),
            (CmdKind::Pre, Some(_)) => Some([
                Some((Rule::Tras, self.last_act + t.t_ras as i64)),
                Some((Rule::Trtp, self.last_rd + t.t_rtp as i64)),
                Some((Rule::Twr, self.last_wr + (t.wl + t.t_wr) as i64)),
            ]),
            (CmdKind::Act { .. } | CmdKind::Ref | CmdKind::Mrs, Some(_))
            | (CmdKind::Rd { .. } | CmdKind::Wr { .. } | CmdKind::Pre, None) => None,
        }
    }

    /// Whether `cmd` at cycle `at` is legal on this bank: its state allows
    /// it and it meets every bound.
    #[inline]
    fn admits(&self, t: &Timing, cmd: CmdKind, at: i64) -> bool {
        self.bounds(t, cmd)
            .is_some_and(|bounds| bounds.iter().flatten().all(|&(_, earliest)| at >= earliest))
    }

    /// Apply `cmd`, issued at cycle `at`, to the replay state.
    #[inline]
    fn apply(&mut self, cmd: CmdKind, at: i64) {
        match cmd {
            CmdKind::Act { row } => {
                self.open_row = Some(row);
                self.last_act = at;
                self.hash_event(1, row);
            }
            CmdKind::Rd { .. } => self.last_rd = at,
            CmdKind::Wr { .. } => self.last_wr = at,
            CmdKind::Pre => {
                self.open_row = None;
                self.last_pre = at;
                self.hash_event(2, 0);
            }
            CmdKind::Ref => self.last_ref = at,
            CmdKind::Mrs => {}
        }
    }
}

/// Why the bank's state forbids `cmd`.
#[cold]
fn state_error(cmd: CmdKind, open_row: Option<u32>) -> String {
    match open_row {
        Some(row) => format!("{} while row {row} is open", cmd.mnemonic()),
        None => format!("{} with no open row", cmd.mnemonic()),
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
    /// Every bank's replay state; while `uniform`, only bank 0's is kept.
    banks: Vec<BankCheck>,
    /// Every command so far was all-bank and clean on bank 0, so every
    /// bank's state is bank 0's.
    uniform: bool,
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
            uniform: true,
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

        // Per-bank state + intra-bank timing: on bank 0 alone while it
        // stands for every bank, else bank by bank.
        if self.uniform {
            if scope == Scope::AllBanks && self.banks[0].admits(&t, cmd, at) {
                self.banks[0].apply(cmd, at);
            } else {
                self.spread();
            }
        }
        if !self.uniform {
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

    /// Bank `bi`'s `(bg, ba)`.
    fn bank_coords(&self, bi: usize) -> (usize, usize) {
        (bi / self.banks_per_group, bi % self.banks_per_group)
    }

    /// Copy bank 0's state into every bank: from here on each command is
    /// checked on the banks it addresses.
    #[cold]
    fn spread(&mut self) {
        let first = self.banks[0];
        self.banks.fill(first);
        self.uniform = false;
    }

    fn check_bank(&mut self, bi: usize, cycle: u64, scope: Scope, cmd: CmdKind) {
        let at = cycle as i64;
        // A state error short-circuits without mutating.
        let Some(bounds) = self.banks[bi].bounds(&self.timing, cmd) else {
            let detail = state_error(cmd, self.banks[bi].open_row);
            let bank = self.bank_coords(bi);
            self.violate(
                cycle,
                Rule::BankState,
                Some(cmd),
                Some(scope),
                Some(bank),
                detail,
            );
            return;
        };
        for (rule, earliest) in bounds.into_iter().flatten() {
            if at < earliest {
                let bank = self.bank_coords(bi);
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
        self.banks[bi].apply(cmd, at);
    }

    /// Close the trace at `end_cycle` and evaluate the whole-trace
    /// invariants (lockstep, trailing refresh window).
    #[must_use]
    pub fn finish(mut self, end_cycle: u64) -> CheckReport {
        // Uniform banks saw one row sequence: nothing to compare.
        if self.policy.lockstep && self.commands > 0 && !self.uniform {
            let reference = (self.banks[0].seq_hash, self.banks[0].seq_len);
            for (bi, b) in self.banks.iter().enumerate() {
                if (b.seq_hash, b.seq_len) != reference {
                    let bank = self.bank_coords(bi);
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

    /// A checker that checks every bank from its first command on, with
    /// no representative bank.
    impl ProtocolChecker {
        fn per_bank(cfg: &HbmConfig, policy: CheckPolicy) -> Self {
            let mut k = Self::with_policy(cfg, policy);
            k.spread();
            k
        }
    }

    /// splitmix64, the seeded source of the random traces.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    type Cmd = (u64, Scope, CmdKind);

    /// `len` random commands issued through a real channel: all-bank but
    /// for about `single` per mille single-bank ones, and legal but for
    /// about `bad` per mille that issue early or in a state that forbids
    /// them.
    fn random_trace(cfg: &HbmConfig, rng: &mut Rng, len: usize, single: u64, bad: u64) -> Vec<Cmd> {
        let mut ch = Channel::new(cfg);
        let (mut trace, mut now) = (Vec::with_capacity(len), 0);
        while trace.len() < len {
            let scope = if rng.below(1000) < single {
                Scope::OneBank {
                    bg: rng.below(cfg.num_bankgroups as u64) as usize,
                    ba: rng.below(cfg.banks_per_group as u64) as usize,
                }
            } else {
                Scope::AllBanks
            };
            let cmd = match rng.below(6) {
                0 => CmdKind::Act {
                    row: rng.below(4) as u32,
                },
                1 => CmdKind::Rd { col: 0 },
                2 => CmdKind::Wr { col: 1 },
                3 => CmdKind::Pre,
                4 => CmdKind::Ref,
                _ => CmdKind::Mrs,
            };
            let faulty = rng.below(1000) < bad;
            let at = match ch.issue_earliest(scope, cmd, now) {
                Ok(issued) if faulty => {
                    issued.issue_cycle.saturating_sub(1 + rng.below(8)).max(now)
                }
                Ok(issued) => issued.issue_cycle,
                Err(_) if faulty => now + rng.below(3),
                Err(_) => continue,
            };
            trace.push((at, scope, cmd));
            now = at;
        }
        trace
    }

    /// Replay `trace`; also says whether bank 0 still stood for every
    /// bank at the end.
    fn replay(mut k: ProtocolChecker, trace: &[Cmd]) -> (CheckReport, bool) {
        for &(cycle, scope, cmd) in trace {
            k.observe(cycle, scope, cmd);
        }
        let uniform = k.uniform;
        let end = trace.last().map_or(0, |c| c.0) + 100;
        (k.finish(end), uniform)
    }

    /// Catches any representative-bank mutant that changes a report on a
    /// mixed trace: a missing copy before a single-bank command, a refused
    /// all-bank command applied to bank 0 only, a finding recorded on
    /// bank 0 alone, a lockstep comparison of stale banks.
    #[test]
    fn representative_bank_reports_equal_per_bank_reports() {
        let tiny = HbmConfig {
            num_bankgroups: 2,
            banks_per_group: 2,
            ..HbmConfig::default()
        };
        let (mut stayed, mut spread_by_finding, mut spread_by_single) = (0, 0, 0);
        for cfg in [HbmConfig::default(), tiny] {
            for seed in 0..27u64 {
                let mut rng = Rng(seed);
                let single = [0, 3, 30][seed as usize % 3];
                let bad = [0, 4, 40][seed as usize / 3 % 3];
                let trace = random_trace(&cfg, &mut rng, 500, single, bad);
                let has_single = trace.iter().any(|c| c.1 != Scope::AllBanks);
                for lockstep in [true, false] {
                    for (expect_refresh, max_violations) in [(false, 64), (true, 5)] {
                        let policy = CheckPolicy {
                            lockstep,
                            expect_refresh,
                            max_violations,
                        };
                        let (fast, uniform) =
                            replay(ProtocolChecker::with_policy(&cfg, policy), &trace);
                        let (slow, _) = replay(ProtocolChecker::per_bank(&cfg, policy), &trace);
                        assert_eq!(fast, slow, "seed {seed}, {policy:?}");
                        let found = fast.violations.iter().any(|v| v.bank.is_some());
                        stayed += usize::from(uniform);
                        spread_by_finding += usize::from(!has_single && found);
                        spread_by_single += usize::from(has_single && found);
                    }
                }
            }
        }
        assert!(stayed > 0 && spread_by_finding > 0 && spread_by_single > 0);
    }

    /// Catches a finding recorded on bank 0 alone (or a refused command
    /// applied to bank 0 only) and bank coordinates computed once per
    /// command instead of per bank.
    #[test]
    fn uniform_read_before_trcd_reports_every_bank_in_order() {
        let c = cfg();
        let t = c.timing;
        let p = CheckPolicy {
            max_violations: 10,
            ..policy()
        };
        let mut k = ProtocolChecker::with_policy(&c, p).for_channel(3);
        let early = t.t_rcd - 2;
        k.observe(0, Scope::AllBanks, CmdKind::Act { row: 5 });
        k.observe(early, Scope::AllBanks, CmdKind::Rd { col: 0 });
        k.observe(early + t.t_ccd_l, Scope::AllBanks, CmdKind::Rd { col: 1 });
        let report = k.finish(100);
        let expected: Vec<Violation> = (0..10)
            .map(|bi| Violation {
                channel: 3,
                cycle: early,
                rule: Rule::Trcd,
                cmd: Some(CmdKind::Rd { col: 0 }),
                scope: Some(Scope::AllBanks),
                bank: Some((bi / 4, bi % 4)),
                detail: format!("issued at {early}, earliest legal {}", t.t_rcd),
            })
            .collect();
        assert_eq!(report.violations, expected);
        assert_eq!(report.suppressed, 6);
        assert_eq!(report.commands, 3);
    }

    /// Catches skipping the copy of bank 0's state before the first
    /// single-bank command: the other banks would keep their initial
    /// state, and bank (0,1) would be reported as the divergent one.
    #[test]
    fn single_bank_act_inside_an_allbank_stream_breaks_lockstep() {
        let c = cfg();
        let t = c.timing;
        let mut k = ProtocolChecker::with_policy(&c, policy());
        let mut at = 0;
        let mut row_cycle = |k: &mut ProtocolChecker, scope, row| {
            k.observe(at, scope, CmdKind::Act { row });
            at += t.t_ras;
            k.observe(at, scope, CmdKind::Pre);
            at += t.t_rp;
        };
        row_cycle(&mut k, Scope::AllBanks, 0);
        row_cycle(&mut k, Scope::AllBanks, 1);
        row_cycle(&mut k, Scope::OneBank { bg: 2, ba: 1 }, 9);
        row_cycle(&mut k, Scope::AllBanks, 2);
        let report = k.finish(1000);
        assert_eq!(
            report.violations,
            vec![Violation {
                channel: 0,
                cycle: 1000,
                rule: Rule::Lockstep,
                cmd: None,
                scope: None,
                bank: Some((2, 1)),
                detail: "bank(2,1) saw 8 ACT/PRE events, bank(0,0) saw 6 — \
                         banks diverged from the lockstep row sequence"
                    .to_string(),
            }]
        );
        assert_eq!(report.suppressed, 0);
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
