//! Pure per-channel kernel execution.
//!
//! The paper's channels execute independently — the cube's wall-clock is
//! the slowest channel — so per-channel replay is written as a pure
//! function over `(&Kernel, channel state)`: shared read-only inputs in
//! [`ChannelCtx`] plus this channel's disjoint `&mut` slices of processing
//! units and bank memories. [`Engine::run`](super::Engine::run) replays
//! the channels in order and merges their [`ChannelOutcome`]s. Because a
//! replay depends on nothing else, a plain all-bank run hands a channel
//! whose inputs equal an earlier, non-writing channel's that channel's
//! outcome instead of replaying it ([`super::twins`]). The processing
//! units reach bank data only through the logging
//! [`BankMemory`] accessors; the replay itself reads bank 0's region
//! layout for row decode. Host parallelism lives a level up: the
//! `psim-sched` executor runs whole lanes (device shards) on separate
//! threads, each with its own engine.

use super::{EngineConfig, ExecMode};
use crate::error::CoreError;
use crate::isa::program::MAX_PROGRAM_LEN;
use crate::memory::BankMemory;
use crate::pu::{Kernel, ProcessingUnit, StepOutcome, StepReport, DRAM_CYCLES_PER_PU_CYCLE};
use crate::trace::{Category, ChannelMetrics, CycleBreakdown, StallEvent};
use psim_dram::{
    AbChannel, Channel, ChannelStats, CheckPolicy, CheckReport, CmdKind, IssueError, Issued,
    ProtocolChecker, Scope,
};

/// Safety bound on kernel loop iterations per channel (per bank in
/// per-bank mode): a kernel that has not exited by then fails with
/// [`CoreError::Execution`] instead of spinning forever.
const MAX_ROUNDS: u64 = 50_000_000;

/// Read-only inputs shared by every channel of one kernel execution.
pub(super) struct ChannelCtx<'a> {
    /// Engine configuration (timing, mode, trace policy).
    pub cfg: &'a EngineConfig,
    /// The loaded kernel: program, bindings and command schedule.
    pub kernel: &'a Kernel,
}

/// Everything one channel's replay produces, merged by the engine in
/// channel order.
pub(super) struct ChannelOutcome {
    /// Channel-local wall-clock in DRAM command cycles.
    pub cycles: u64,
    /// Command counters.
    pub stats: ChannelStats,
    /// Kernel loop iterations.
    pub rounds: u64,
    /// Independent protocol-checker verdict (`Some` only when
    /// [`EngineConfig::validate`] is set).
    pub check: Option<CheckReport>,
    /// psim-trace cycle attribution (`Some` only when
    /// [`EngineConfig::attribute`] is set).
    pub metrics: Option<ChannelMetrics>,
    /// Recorded stall events (empty unless attribution is on).
    pub stall_events: Vec<StallEvent>,
    /// Stalls beyond [`EngineConfig::event_limit`], counted not stored.
    pub stall_events_dropped: u64,
}

/// Per-channel cycle-attribution accumulator. The replay's timeline is
/// monotone (all-bank: `now`; per-bank: each bank's `ready` plus the bus
/// `floor`), so attribution keeps one cursor per PU and one for the bus
/// and classifies every cursor advance as it happens — the categories sum
/// to the channel wall-clock by construction.
struct Attr {
    channel: usize,
    bus: CycleBreakdown,
    pu: Vec<CycleBreakdown>,
    bus_last: u64,
    pu_last: Vec<u64>,
    events: Vec<StallEvent>,
    event_limit: usize,
    events_dropped: u64,
}

impl Attr {
    fn new(channel: usize, nbanks: usize, event_limit: usize) -> Self {
        Attr {
            channel,
            bus: CycleBreakdown::default(),
            pu: vec![CycleBreakdown::default(); nbanks],
            bus_last: 0,
            pu_last: vec![0; nbanks],
            events: Vec::new(),
            event_limit,
            events_dropped: 0,
        }
    }

    /// Advance the bus cursor to `to`, attributing the span to `cat`.
    fn bus_span(&mut self, to: u64, cat: Category) {
        self.bus.add(cat, to - self.bus_last);
        self.bus_last = to;
    }

    /// Advance one PU's cursor to `to`, attributing the span to `cat`.
    fn pu_span(&mut self, i: usize, to: u64, cat: Category) {
        self.pu[i].add(cat, to - self.pu_last[i]);
        self.pu_last[i] = to;
    }

    /// Advance every cursor to `to` (all-bank lockstep spans): the bus
    /// gets `cat`; a PU that has already exited idles post-CEXIT instead.
    fn span_all(&mut self, to: u64, cat: Category, pus: &[ProcessingUnit]) {
        self.bus_span(to, cat);
        for (i, pu) in pus.iter().enumerate() {
            let c = if pu.exited() {
                Category::PostExitIdle
            } else {
                cat
            };
            self.pu_span(i, to, c);
        }
    }

    /// Attribute one data command's span for one PU: up to the PU's own
    /// work is Busy; the remainder goes to the outcome's stall category.
    #[allow(clippy::too_many_arguments)]
    fn pu_data(
        &mut self,
        i: usize,
        issue: u64,
        end: u64,
        rep: &StepReport,
        round: u64,
        slot: usize,
    ) {
        let delta = end - self.pu_last[i];
        if rep.outcome == StepOutcome::Exited {
            self.pu[i].add(Category::PostExitIdle, delta);
        } else {
            let busy = delta.min(rep.pu_cycles * DRAM_CYCLES_PER_PU_CYCLE);
            self.pu[i].add(Category::Busy, busy);
            let rest = delta - busy;
            let cat = match rep.outcome {
                StepOutcome::Executed => Category::LockstepWait,
                StepOutcome::ExecutedEmpty => Category::QueueEmptyStall,
                StepOutcome::OutOfPhase => Category::PredicatedOff,
                StepOutcome::QueueFull => Category::QueueFullStall,
                StepOutcome::Exited => unreachable!("handled above"),
            };
            self.pu[i].add(cat, rest);
            if matches!(
                rep.outcome,
                StepOutcome::ExecutedEmpty | StepOutcome::QueueFull
            ) {
                let kind = if rep.outcome == StepOutcome::QueueFull {
                    Category::QueueFullStall
                } else {
                    Category::QueueEmptyStall
                };
                self.event(StallEvent {
                    channel: self.channel,
                    bank: i,
                    round,
                    slot,
                    cycle: issue,
                    kind,
                });
            }
        }
        self.pu_last[i] = end;
    }

    /// Attribute one all-bank data command: the bus is Busy up to the
    /// issue cycle; any back-pressure drag past it is LockstepWait. Each
    /// PU splits its span via [`Attr::pu_data`].
    fn data_all(&mut self, issue: u64, end: u64, steps: &[StepReport], round: u64, slot: usize) {
        self.bus.add(Category::Busy, issue - self.bus_last);
        self.bus.add(Category::LockstepWait, end - issue);
        self.bus_last = end;
        for (i, rep) in steps.iter().enumerate() {
            self.pu_data(i, issue, end, rep, round, slot);
        }
    }

    fn event(&mut self, ev: StallEvent) {
        if self.events.len() < self.event_limit {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Close the books at the channel wall-clock: residual PU time is
    /// post-CEXIT idle (per-bank lanes drain at different times), residual
    /// bus time is back-pressure drag.
    fn finish(mut self, cycles: u64) -> (ChannelMetrics, Vec<StallEvent>, u64) {
        self.bus.add(Category::LockstepWait, cycles - self.bus_last);
        for i in 0..self.pu.len() {
            self.pu[i].add(Category::PostExitIdle, cycles - self.pu_last[i]);
        }
        (
            ChannelMetrics {
                cycles,
                bus: self.bus,
                pu: self.pu,
            },
            self.events,
            self.events_dropped,
        )
    }
}

/// The DRAM channel model behind a replay: the representative-bank
/// [`AbChannel`] for all-bank lockstep, the full [`Channel`] for per-bank
/// scopes. Both pick the cycles the full channel's two-pass `earliest` +
/// `issue` would (cross-checked in `psim_dram::fastab`).
trait ChannelModel {
    fn issue_earliest(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        from: u64,
    ) -> Result<Issued, IssueError>;
    fn stats(&self) -> &ChannelStats;
}

impl ChannelModel for Channel {
    fn issue_earliest(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        from: u64,
    ) -> Result<Issued, IssueError> {
        Channel::issue_earliest(self, scope, cmd, from)
    }

    fn stats(&self) -> &ChannelStats {
        Channel::stats(self)
    }
}

impl ChannelModel for AbChannel {
    fn issue_earliest(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        from: u64,
    ) -> Result<Issued, IssueError> {
        debug_assert!(matches!(scope, Scope::AllBanks));
        AbChannel::issue_earliest(self, cmd, from)
    }

    fn stats(&self) -> &ChannelStats {
        AbChannel::stats(self)
    }
}

/// One channel's command port: every command issues through the channel
/// model, then goes to the independent checker.
struct Port<M> {
    channel: M,
    checker: Option<ProtocolChecker>,
}

impl<M: ChannelModel> Port<M> {
    fn new(channel: M, cfg: &EngineConfig, ch: usize) -> Self {
        Port {
            channel,
            checker: make_checker(cfg, ch),
        }
    }

    /// Issue `cmd` at the earliest legal cycle at or after `from`.
    fn issue(&mut self, scope: Scope, cmd: CmdKind, from: u64) -> Result<Issued, CoreError> {
        let issued = self
            .channel
            .issue_earliest(scope, cmd, from)
            .map_err(|e| CoreError::Execution(e.to_string()))?;
        if let Some(c) = self.checker.as_mut() {
            c.observe(issued.issue_cycle, scope, cmd);
        }
        Ok(issued)
    }

    /// Close the channel's books at its wall-clock `cycles`.
    fn finish(self, cycles: u64, rounds: u64, attr: Option<Attr>) -> ChannelOutcome {
        let (metrics, stall_events, stall_events_dropped) = match attr {
            Some(a) => {
                let (m, e, d) = a.finish(cycles);
                (Some(m), e, d)
            }
            None => (None, Vec::new(), 0),
        };
        ChannelOutcome {
            cycles,
            stats: *self.channel.stats(),
            rounds,
            check: self.checker.map(|c| c.finish(cycles)),
            metrics,
            stall_events,
            stall_events_dropped,
        }
    }
}

/// An independent checker for this channel when self-auditing is on. The
/// lockstep invariant only applies to all-bank execution; refresh is
/// always audited, as the engine always refreshes.
fn make_checker(cfg: &EngineConfig, ch: usize) -> Option<ProtocolChecker> {
    cfg.validate.then(|| {
        ProtocolChecker::with_policy(
            &cfg.hbm,
            CheckPolicy {
                lockstep: matches!(cfg.mode, ExecMode::AllBank),
                expect_refresh: true,
                ..CheckPolicy::default()
            },
        )
        .for_channel(ch)
    })
}

/// Element width/advance for the engine's open-row cursor at a slot.
fn slot_advance(ins: &crate::isa::Instruction) -> (usize, usize) {
    use crate::isa::{Instruction as I, Operand};
    match *ins {
        I::Dmov {
            dst: Operand::Srf, ..
        }
        | I::Dmov {
            src: Operand::Srf, ..
        } => (8, 1),
        I::Dmov { precision, .. } | I::SpMov { precision, .. } => {
            (precision.bytes(), precision.lanes())
        }
        I::GthSct {
            dst: Operand::Bank, ..
        } => (8, 0), // scatter is random within the open row
        I::GthSct { precision, .. } => (precision.bytes(), precision.lanes()),
        I::SpFw { precision, .. } => (precision.bytes(), 3 * precision.lanes()),
        // Gathers/accumulates address randomly within their (single-row)
        // region; the cursor stays at the region head.
        I::IndMov { .. } | I::SpVdv { .. } => (8, 0),
        _ => (8, 0),
    }
}

/// Resolve a slot's cursor to the DRAM row to open and the column within
/// it. Shared by both replay paths so their decode cannot drift apart,
/// and checked: a cursor that has run past the `u32` row space aborts the
/// run instead of silently truncating into a bogus row.
fn decode_slot_addr(
    start_row: u32,
    cursor: usize,
    elem_bytes: usize,
    row_bytes: usize,
    col_bytes: usize,
) -> Result<(u32, u32), CoreError> {
    let overflow = |byte_off: usize| {
        CoreError::Execution(format!(
            "slot byte offset {byte_off} (cursor {cursor} x {elem_bytes} B from row \
             {start_row}) overflows the DRAM row address space"
        ))
    };
    let byte_off = cursor
        .checked_mul(elem_bytes)
        .ok_or_else(|| overflow(usize::MAX))?;
    let want_row = u32::try_from(byte_off / row_bytes)
        .ok()
        .and_then(|r| start_row.checked_add(r))
        .ok_or_else(|| overflow(byte_off))?;
    let col = u32::try_from((byte_off % row_bytes) / col_bytes)
        .expect("column index is bounded by columns per row");
    Ok((want_row, col))
}

/// A parked-slot cache entry meaning "not parked": the next offer must go
/// through the interpreter.
const NOT_PARKED: usize = usize::MAX;

/// PU stepping front-end with parked-slot predication.
///
/// Under partially synchronous execution the timing loop decides *when*
/// commands issue, never *which* PU steps next: every offer a bank sees is
/// fixed by the cyclic command schedule. Most offers are predications, the
/// point of the execution model (§IV-E): a live unit parked at memory slot
/// `m` ([`ProcessingUnit::parked_memory_slot`]) offered any `slot != m`
/// only bumps `predicated_off` and reports `OutOfPhase`. The driver caches
/// each unit's parked slot and synthesizes that report; an offer that
/// reaches the parked slot, or goes to a unit that is not parked, steps
/// the interpreter, which then refreshes the cache.
struct PuDriver<'a> {
    kernel: &'a Kernel,
    pus: &'a mut [ProcessingUnit],
    mems: &'a mut [BankMemory],
    /// Units that have not exited.
    live: usize,
    /// Per-bank parked memory slot, [`NOT_PARKED`] when the next offer
    /// must step the interpreter.
    parked: Vec<usize>,
}

impl<'a> PuDriver<'a> {
    fn new(kernel: &'a Kernel, pus: &'a mut [ProcessingUnit], mems: &'a mut [BankMemory]) -> Self {
        let n = pus.len();
        PuDriver {
            kernel,
            pus,
            mems,
            live: n,
            parked: vec![NOT_PARKED; n],
        }
    }

    /// Run every unit's free prelude (control/compute instructions before
    /// the first memory slot) and count prelude exits.
    fn prelude(&mut self) {
        for b in 0..self.pus.len() {
            self.pus[b].run_free(self.kernel);
            if self.pus[b].exited() {
                self.live -= 1;
            } else {
                self.parked[b] = self.pus[b]
                    .parked_memory_slot(self.kernel)
                    .unwrap_or(NOT_PARKED);
            }
        }
    }

    /// Offer the command at `slot` to bank `b` and return its report.
    /// Exit-*round* bookkeeping stays with the caller (the two exec modes
    /// time-stamp it differently).
    fn step(&mut self, b: usize, slot: usize) -> StepReport {
        let m = self.parked[b];
        if m != NOT_PARKED && m != slot {
            self.pus[b].note_predicated_off();
            return StepReport {
                executed: false,
                pu_cycles: 0,
                outcome: StepOutcome::OutOfPhase,
            };
        }
        let was_live = !self.pus[b].exited();
        let rep = self.pus[b].on_command(self.kernel, slot, &mut self.mems[b]);
        if was_live && self.pus[b].exited() {
            self.live -= 1;
        }
        self.parked[b] = self.pus[b]
            .parked_memory_slot(self.kernel)
            .unwrap_or(NOT_PARKED);
        rep
    }
}

/// Replay channel `ch` of the kernel to completion over this channel's
/// banks. `pus`/`mems` are the channel's slice of the cube (bank `i` of
/// the channel at index `i`); no state outside the slices is touched, so
/// disjoint channels may run concurrently.
pub(super) fn run_channel(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
) -> Result<ChannelOutcome, CoreError> {
    match ctx.cfg.mode {
        ExecMode::AllBank => run_channel_allbank(ctx, ch, pus, mems),
        ExecMode::PerBank => run_channel_perbank(ctx, ch, pus, mems),
    }
}

fn run_channel_allbank(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
) -> Result<ChannelOutcome, CoreError> {
    const AB: Scope = Scope::AllBanks;
    let cfg = ctx.cfg;
    let kernel = ctx.kernel;
    let program = kernel.program();
    let mut port = Port::new(AbChannel::new(&cfg.hbm), cfg, ch);
    let row_bytes = cfg.hbm.row_bytes();
    let col_bytes = cfg.hbm.col_bytes;
    let nbanks = pus.len();
    let mut driver = PuDriver::new(kernel, pus, mems);
    let mut attr = cfg
        .attribute
        .then(|| Attr::new(ch, nbanks, cfg.event_limit));
    let mut step_buf: Vec<StepReport> = Vec::with_capacity(if attr.is_some() { nbanks } else { 0 });
    let mut now: u64 = 0;

    // Mode switching (SB→AB→AB-PIM) + CRF programming as MRS commands.
    // This is the launch's only charge for them: they count in kernel
    // time (attributed as `Setup`), never in the host ledger.
    let setup_cmds = 2 * psim_dram::mode::SWITCH_SEQUENCE_LEN + program.len();
    for _ in 0..setup_cmds {
        now = port.issue(AB, CmdKind::Mrs, now)?.issue_cycle;
    }
    if let Some(a) = attr.as_mut() {
        a.span_all(now, Category::Setup, driver.pus);
    }

    driver.prelude();

    let t_refi = cfg.hbm.timing.t_refi;
    let mut next_refresh = now + t_refi;
    let mut cursors = kernel.start_cursors();
    let mut open_row: Option<u32> = None;
    let mut rounds = 0u64;
    // Read-latency depth the command pipeline hides: PU consumption of
    // burst k overlaps issue of burst k+1.
    let pipeline = cfg.hbm.timing.rl + 1;
    let mut pu_free: u64 = 0;

    'outer: loop {
        if driver.live == 0 {
            break;
        }
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(CoreError::Execution(format!(
                "kernel exceeded {MAX_ROUNDS} rounds without exiting"
            )));
        }
        for &slot in kernel.schedule() {
            if now >= next_refresh {
                if open_row.is_some() {
                    now = port.issue(AB, CmdKind::Pre, now)?.issue_cycle;
                    open_row = None;
                }
                now = port.issue(AB, CmdKind::Ref, now)?.issue_cycle;
                next_refresh = now + t_refi;
                if let Some(a) = attr.as_mut() {
                    a.span_all(now, Category::RefreshShadow, driver.pus);
                }
            }
            let ins = &program[slot];
            let binding = kernel.binding(slot);
            let region_id = binding.region;
            let (elem_bytes, natural) = slot_advance(ins);
            let advance = binding.stride.unwrap_or(natural);
            // Engine-side open-row bookkeeping uses the first bank's
            // layout; all banks allocate regions identically (equal
            // rows/bank).
            let start_row = driver.mems[0].region(region_id).start_row();
            let (want_row, col) =
                decode_slot_addr(start_row, cursors[slot], elem_bytes, row_bytes, col_bytes)?;
            if open_row != Some(want_row) {
                if open_row.is_some() {
                    now = port.issue(AB, CmdKind::Pre, now)?.issue_cycle;
                }
                now = port
                    .issue(AB, CmdKind::Act { row: want_row }, now)?
                    .issue_cycle;
                open_row = Some(want_row);
                if let Some(a) = attr.as_mut() {
                    a.span_all(now, Category::RowSwitchWait, driver.pus);
                }
            }
            let kind = if ins.writes_bank() {
                CmdKind::Wr { col }
            } else {
                CmdKind::Rd { col }
            };
            let issued = port.issue(AB, kind, now)?;
            now = issued.issue_cycle;

            let mut max_busy = 0u64;
            if attr.is_some() {
                step_buf.clear();
            }
            for b in 0..nbanks {
                let was_exited = driver.pus[b].exited();
                let rep = driver.step(b, slot);
                max_busy = max_busy.max(rep.pu_cycles);
                if !was_exited && driver.pus[b].exited() {
                    driver.pus[b].mark_exit_round(rounds);
                }
                if attr.is_some() {
                    step_buf.push(rep);
                }
            }
            // Lockstep back-pressure with pipelining: the slowest PU
            // consumes burst k while burst k+1 is in flight; only a PU
            // that falls behind the read latency stalls the bus.
            pu_free = pu_free.max(issued.data_cycle) + max_busy * DRAM_CYCLES_PER_PU_CYCLE;
            now = now.max(pu_free.saturating_sub(pipeline));
            cursors[slot] += advance;
            if let Some(a) = attr.as_mut() {
                a.data_all(issued.issue_cycle, now, &step_buf, rounds, slot);
            }

            if driver.live == 0 {
                break 'outer;
            }
        }
        // Host completion poll once per iteration: a column read of the
        // status location while a row is open (HBM-PIM style polling), an
        // MRS register read otherwise — MRS is illegal with an open row.
        let poll = if open_row.is_some() {
            CmdKind::Rd { col: 0 }
        } else {
            CmdKind::Mrs
        };
        now = port.issue(AB, poll, now)?.issue_cycle;
        if let Some(a) = attr.as_mut() {
            a.span_all(now, Category::HostSync, driver.pus);
        }
    }
    // PUs that exited during the free prelude never went through the
    // in-round exit bookkeeping; mark_exit_round is idempotent.
    for pu in driver.pus.iter_mut() {
        if pu.exited() {
            pu.mark_exit_round(rounds);
        }
    }
    if open_row.is_some() {
        now = port.issue(AB, CmdKind::Pre, now)?.issue_cycle;
    }
    // Switch back to SB mode.
    for _ in 0..2 * psim_dram::mode::SWITCH_SEQUENCE_LEN {
        now = port.issue(AB, CmdKind::Mrs, now)?.issue_cycle;
    }
    if let Some(a) = attr.as_mut() {
        // Teardown precharge + SB switch: bus does setup work, every PU
        // (all exited by now) idles post-CEXIT via span_all.
        a.span_all(now, Category::Setup, driver.pus);
    }
    Ok(port.finish(now, rounds, attr))
}

/// Per-bank round-robin issue state (one per bank of the channel).
struct BankCtl {
    sched_idx: usize,
    rounds: u64,
    cursors: [usize; MAX_PROGRAM_LEN],
    open_row: Option<u32>,
    ready: u64,
    pu_free: u64,
}

fn run_channel_perbank(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
) -> Result<ChannelOutcome, CoreError> {
    let cfg = ctx.cfg;
    let kernel = ctx.kernel;
    let program = kernel.program();
    let schedule = kernel.schedule();
    let mut port = Port::new(Channel::new(&cfg.hbm), cfg, ch);
    let row_bytes = cfg.hbm.row_bytes();
    let col_bytes = cfg.hbm.col_bytes;
    let nbanks = pus.len();
    let banks_per_group = cfg.hbm.banks_per_group;
    let bank_scope = |b: usize| Scope::OneBank {
        bg: b / banks_per_group,
        ba: b % banks_per_group,
    };
    let mut driver = PuDriver::new(kernel, pus, mems);
    let mut attr = cfg
        .attribute
        .then(|| Attr::new(ch, nbanks, cfg.event_limit));

    // Per-bank setup: each bank's CRF is programmed individually.
    let mut now: u64 = 0;
    let setup_cmds = (2 * psim_dram::mode::SWITCH_SEQUENCE_LEN + program.len()) * nbanks;
    for i in 0..setup_cmds {
        now = port
            .issue(bank_scope(i % nbanks), CmdKind::Mrs, now)?
            .issue_cycle;
    }
    if let Some(a) = attr.as_mut() {
        a.span_all(now, Category::Setup, driver.pus);
    }

    let pipeline = cfg.hbm.timing.rl + 1;
    let mut ctls: Vec<BankCtl> = (0..nbanks)
        .map(|_| BankCtl {
            sched_idx: 0,
            rounds: 0,
            cursors: kernel.start_cursors(),
            open_row: None,
            ready: now,
            pu_free: 0,
        })
        .collect();
    driver.prelude();

    let t_refi = cfg.hbm.timing.t_refi;
    let mut next_refresh = now + t_refi;
    let mut floor = now;
    let mut max_rounds = 0u64;
    loop {
        // Refresh is a channel-global event even in per-bank mode: close
        // every open row, then issue one all-bank REF that stalls all
        // per-bank streams for tRFC.
        if floor >= next_refresh {
            for (i, ctl) in ctls.iter_mut().enumerate() {
                if ctl.open_row.is_some() {
                    let p = port
                        .issue(bank_scope(i), CmdKind::Pre, ctl.ready.max(floor))?
                        .issue_cycle;
                    floor = floor.max(p);
                    ctl.open_row = None;
                    ctl.ready = ctl.ready.max(p);
                }
            }
            let r = port
                .issue(Scope::AllBanks, CmdKind::Ref, floor)?
                .issue_cycle;
            for ctl in &mut ctls {
                ctl.ready = ctl.ready.max(r);
            }
            floor = floor.max(r);
            next_refresh = r + t_refi;
            if let Some(a) = attr.as_mut() {
                a.bus_span(floor, Category::RefreshShadow);
                for (i, ctl) in ctls.iter().enumerate() {
                    let c = if driver.pus[i].exited() {
                        Category::PostExitIdle
                    } else {
                        Category::RefreshShadow
                    };
                    a.pu_span(i, ctl.ready, c);
                }
            }
        }
        let mut any_active = false;
        for (i, ctl) in ctls.iter_mut().enumerate() {
            if driver.pus[i].exited() {
                continue;
            }
            any_active = true;
            if ctl.rounds > MAX_ROUNDS {
                return Err(CoreError::Execution(format!(
                    "per-bank kernel exceeded {MAX_ROUNDS} rounds"
                )));
            }
            let slot = schedule[ctl.sched_idx];
            let ins = &program[slot];
            let binding = kernel.binding(slot);
            let region_id = binding.region;
            let (elem_bytes, natural) = slot_advance(ins);
            let advance = binding.stride.unwrap_or(natural);
            let start_row = driver.mems[i].region(region_id).start_row();
            let (want_row, col) = decode_slot_addr(
                start_row,
                ctl.cursors[slot],
                elem_bytes,
                row_bytes,
                col_bytes,
            )?;
            let scope = bank_scope(i);
            let mut t = ctl.ready.max(floor);
            if let Some(a) = attr.as_mut() {
                // The bank waited for the shared command bus to reach it.
                a.pu_span(i, t, Category::LockstepWait);
            }
            let mut switched_at: Option<u64> = None;
            if ctl.open_row != Some(want_row) {
                if ctl.open_row.is_some() {
                    t = port.issue(scope, CmdKind::Pre, t)?.issue_cycle;
                }
                t = port
                    .issue(scope, CmdKind::Act { row: want_row }, t)?
                    .issue_cycle;
                ctl.open_row = Some(want_row);
                switched_at = Some(t);
            }
            let kind = if ins.writes_bank() {
                CmdKind::Wr { col }
            } else {
                CmdKind::Rd { col }
            };
            let issued = port.issue(scope, kind, t)?;
            floor = floor.max(issued.issue_cycle);

            let rep = driver.step(i, slot);
            ctl.pu_free =
                ctl.pu_free.max(issued.data_cycle) + rep.pu_cycles * DRAM_CYCLES_PER_PU_CYCLE;
            ctl.ready = issued.issue_cycle.max(ctl.pu_free.saturating_sub(pipeline));
            ctl.cursors[slot] += advance;
            if let Some(a) = attr.as_mut() {
                if let Some(ts) = switched_at {
                    a.pu_span(i, ts, Category::RowSwitchWait);
                }
                // Bus-view split of this bank's floor advance: the part up
                // to the row activation is row switching, the rest is
                // issue work.
                let bus_delta = floor - a.bus_last;
                let row_part =
                    switched_at.map_or(0, |ts| ts.saturating_sub(a.bus_last).min(bus_delta));
                a.bus.add(Category::RowSwitchWait, row_part);
                a.bus.add(Category::Busy, bus_delta - row_part);
                a.bus_last = floor;
                a.pu_data(i, issued.issue_cycle, ctl.ready, &rep, ctl.rounds, slot);
            }
            ctl.sched_idx += 1;
            if ctl.sched_idx == schedule.len() {
                ctl.sched_idx = 0;
                ctl.rounds += 1;
                max_rounds = max_rounds.max(ctl.rounds);
            }
            if driver.pus[i].exited() {
                driver.pus[i].mark_exit_round(ctl.rounds);
            }
        }
        if !any_active {
            break;
        }
    }
    // PUs that exited during the free prelude were skipped by the issue
    // loop and never recorded an exit round; mark_exit_round is
    // idempotent.
    for (pu, ctl) in driver.pus.iter_mut().zip(ctls.iter()) {
        if pu.exited() {
            pu.mark_exit_round(ctl.rounds);
        }
    }
    let end = ctls
        .iter()
        .map(|c| c.ready)
        .max()
        .unwrap_or(floor)
        .max(floor);
    Ok(port.finish(end, max_rounds, attr))
}
