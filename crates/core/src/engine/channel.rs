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
//! outcome instead of replaying it ([`super::twins`]).
//!
//! An all-bank replay runs units first, then timing. The cyclic command
//! schedule fixes which offer each unit sees and the timing only when it
//! issues, so phase 1 ([`Units`]) runs every unit to its exit on its own,
//! and a bank whose start state, layout and read elements equal an
//! earlier bank's of the channel takes that bank's run. Phase 2 issues
//! the commands, reading from phase 1 each offer's slowest unit and the
//! offer the last unit exits on. A per-bank replay gives every bank its
//! own command stream and steps its units in its issue loop. Both offer
//! commands through [`ProcessingUnit::offer`]. The processing units
//! reach bank data only through the logging [`BankMemory`] accessors; the
//! all-bank replay itself reads bank 0's region layout for row decode.
//! Host parallelism lives a level up: the `psim-sched` executor runs
//! whole lanes (device shards) on separate threads, each with its own
//! engine.

use super::{EngineConfig, ExecMode};
use crate::error::CoreError;
use crate::isa::program::MAX_PROGRAM_LEN;
use crate::memory::BankMemory;
use crate::pu::{Kernel, ProcessingUnit, StepOutcome, StepReport, DRAM_CYCLES_PER_PU_CYCLE};
use crate::trace::{Category, ChannelMetrics, CycleBreakdown, StallEvent};
use psim_dram::{
    AbChannel, Channel, ChannelStats, CheckPolicy, CheckReport, CmdKind, HbmConfig, IssueError,
    Issued, ProtocolChecker, Scope,
};
use std::ops::Range;

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
    /// gets `cat`; a PU that has already exited (`exited(i)`) idles
    /// post-CEXIT instead.
    fn span_all(&mut self, to: u64, cat: Category, exited: impl Fn(usize) -> bool) {
        self.bus_span(to, cat);
        for i in 0..self.pu.len() {
            let c = if exited(i) {
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
    #[inline]
    fn issue_earliest(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        from: u64,
    ) -> Result<Issued, IssueError> {
        Channel::issue_earliest(self, scope, cmd, from)
    }

    #[inline]
    fn stats(&self) -> &ChannelStats {
        Channel::stats(self)
    }
}

impl ChannelModel for AbChannel {
    #[inline]
    fn issue_earliest(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        from: u64,
    ) -> Result<Issued, IssueError> {
        debug_assert!(matches!(scope, Scope::AllBanks));
        AbChannel::issue_earliest(self, cmd, from)
    }

    #[inline]
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
    #[inline]
    fn issue(&mut self, scope: Scope, cmd: CmdKind, from: u64) -> Result<Issued, CoreError> {
        let issued = self
            .channel
            .issue_earliest(scope, cmd, from)
            .map_err(refused)?;
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

/// The run error for a command the channel model refused; rendered only
/// when a replay fails.
#[cold]
fn refused(e: IssueError) -> CoreError {
    CoreError::Execution(e.to_string())
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

/// The row geometry the engine's open-row cursors count in: a byte offset
/// into a region is the mixed-radix number (row, column, byte within the
/// column), with `num_cols` columns of `col_bytes` bytes per row.
struct RowGeometry {
    row_bytes: usize,
    col_bytes: u32,
    num_cols: u32,
}

/// A memory slot's open-row cursor, kept decoded into its mixed-radix
/// digits so a command reads its row and column without dividing. A step
/// (the bytes one command advances the cursor) is held in the same form,
/// with `row` counting rows instead of naming one.
#[derive(Debug, Clone, Copy, Default)]
struct RowCursor {
    /// The DRAM row; wider than the `u32` row address so a cursor that
    /// runs past it is caught when its slot next issues.
    row: u64,
    /// Column within the row, below `num_cols`.
    col: u32,
    /// Byte within the column, below `col_bytes`.
    byte: u32,
}

impl RowGeometry {
    fn new(hbm: &HbmConfig) -> Self {
        RowGeometry {
            row_bytes: hbm.row_bytes(),
            col_bytes: u32::try_from(hbm.col_bytes).expect("column bytes fit in u32"),
            num_cols: u32::try_from(hbm.num_cols).expect("columns per row fit in u32"),
        }
    }

    /// Decode the byte offset `elems × elem_bytes` from the start of row
    /// `start_row`: the only division a cursor takes, once per slot and
    /// replay. An offset past `usize` saturates, and so lands past the row
    /// address space too.
    fn decode(&self, start_row: u32, elems: usize, elem_bytes: usize) -> RowCursor {
        let byte_off = elems.saturating_mul(elem_bytes);
        let in_row = byte_off % self.row_bytes;
        let col_bytes = self.col_bytes as usize;
        RowCursor {
            row: u64::from(start_row).saturating_add((byte_off / self.row_bytes) as u64),
            col: (in_row / col_bytes) as u32,
            byte: (in_row % col_bytes) as u32,
        }
    }

    /// Every memory slot's open-row cursor at load, decoded against the
    /// region layout of `mem`.
    fn slot_cursors(&self, kernel: &Kernel, mem: &BankMemory) -> [RowCursor; MAX_PROGRAM_LEN] {
        let mut cursors = [RowCursor::default(); MAX_PROGRAM_LEN];
        let start = kernel.start_cursors();
        for slot in kernel.memory_slots() {
            let shape = kernel.shape(slot);
            let start_row = mem.region(shape.region).start_row();
            cursors[slot] = self.decode(start_row, start[slot], shape.elem_bytes);
        }
        cursors
    }

    /// The step each memory slot's command advances its cursor by.
    fn slot_steps(&self, kernel: &Kernel) -> [RowCursor; MAX_PROGRAM_LEN] {
        let mut steps = [RowCursor::default(); MAX_PROGRAM_LEN];
        for slot in kernel.memory_slots() {
            let shape = kernel.shape(slot);
            steps[slot] = self.decode(0, shape.advance, shape.elem_bytes);
        }
        steps
    }

    /// Advance `cur` by `step`, digit by digit with carries. Each digit
    /// of both is below its radix, so one carry per digit suffices.
    #[inline]
    fn advance(&self, cur: &mut RowCursor, step: &RowCursor) {
        cur.byte += step.byte;
        cur.col += step.col;
        if cur.byte >= self.col_bytes {
            cur.byte -= self.col_bytes;
            cur.col += 1;
        }
        cur.row = cur.row.saturating_add(step.row);
        if cur.col >= self.num_cols {
            cur.col -= self.num_cols;
            cur.row = cur.row.saturating_add(1);
        }
    }
}

/// Resolve a slot's cursor to the DRAM row to open and the column within
/// it. Shared by both replay paths so their decode cannot drift apart,
/// and checked: a cursor that has run past the `u32` row space aborts the
/// run instead of silently truncating into a bogus row.
#[inline]
fn decode_slot_addr(slot: usize, cur: &RowCursor) -> Result<(u32, u32), CoreError> {
    let row = u32::try_from(cur.row).map_err(|_| {
        CoreError::Execution(format!(
            "slot {slot}'s cursor reached row {}, past the DRAM row address space",
            cur.row
        ))
    })?;
    Ok((row, cur.col))
}

/// The error for a kernel some unit of which never exits.
#[cold]
fn unbounded() -> CoreError {
    CoreError::Execution(format!(
        "kernel exceeded {MAX_ROUNDS} rounds without exiting"
    ))
}

/// One offer the interpreter answered, as attribution and the follower
/// check read it back.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    /// The offer's index in the channel's command stream, from 0.
    offer: u64,
    report: StepReport,
}

/// Phase 1's record of one unit of the channel in replay.
#[derive(Debug, Clone, Default)]
struct UnitRun {
    /// The earlier bank of the channel this unit may follow; itself when
    /// it leads.
    leader: usize,
    /// Offers the unit saw up to and including the one it exited on; 0
    /// when it exited in its prelude.
    exit_at: u64,
    /// Its interpreted answers in [`Units::answers`], when recorded.
    answers: Range<usize>,
}

/// Run `pu` over `mem` through `kernel`'s cyclic command schedule, from
/// its start state until it exits. A parked unit passes the offers before
/// the next one serving its slot in one [`ProcessingUnit::pass`]; every
/// other offer goes to the interpreter ([`ProcessingUnit::offer`]), and
/// `answer(offer, report)` sees its report.
/// Returns the offers the unit saw up to and including the one it exited
/// on, 0 when it exits in its prelude.
fn run_unit(
    kernel: &Kernel,
    pu: &mut ProcessingUnit,
    mem: &mut BankMemory,
    mut answer: impl FnMut(u64, StepReport),
) -> Result<u64, CoreError> {
    pu.run_free(kernel);
    let schedule = kernel.schedule();
    let len = schedule.len();
    let limit = MAX_ROUNDS.saturating_mul(len as u64);
    let (mut offer, mut pos) = (0u64, 0usize);
    while !pu.exited() {
        if let Some(m) = pu.parked_memory_slot(kernel) {
            let skip = kernel.offers_until(m, pos).ok_or_else(unbounded)?;
            pu.pass(skip);
            offer += skip;
            pos += skip as usize;
            if pos >= len {
                pos -= len;
            }
        }
        if offer >= limit {
            return Err(unbounded());
        }
        let report = pu.offer(kernel, schedule[pos], mem);
        answer(offer, report);
        offer += 1;
        pos += 1;
        if pos == len {
            pos = 0;
        }
    }
    if offer > 0 {
        pu.mark_exit_round((offer - 1) / len as u64 + 1);
    }
    Ok(offer)
}

/// Phase 1 of the all-bank replay, and the buffers it keeps across
/// channels and launches, so a warm launch allocates nothing here.
///
/// Under partially synchronous execution the timing loop decides *when*
/// commands issue, never *which* unit sees which offer: offer `k` of a
/// channel serves the schedule's slot `k mod len` whatever the timing. A
/// unit's run is therefore a function of the kernel, its start state, its
/// bank's layout and the elements it reads, and the channel's timing
/// depends on its units only through each offer's slowest unit and the
/// offer its last unit exits on. [`Units::run`] runs each unit on its
/// own to its exit and keeps exactly that: per offer, the most PU cycles
/// a unit spent on it, and per unit, the offer it exited on.
///
/// A plain all-bank run lets a bank *follow* an earlier bank of its
/// channel with the same PU start state and bank layout, its *leader*:
/// when the leader stored nothing and the follower's bank holds the same
/// bits in every span the leader read, the follower would run exactly as
/// the leader did, so it takes the leader's end state, exit offer and
/// access log instead of running.
#[derive(Debug, Clone, Default)]
pub(super) struct Units {
    /// Per offer of the channel in replay: the most PU cycles any of its
    /// units spent on it. A unit spends at most 160 on one offer (128 free
    /// instructions and a 32-lane gather), so `u16` holds it. At `u64` a
    /// long SpMV channel's 16,384 offers took 128 KiB, glibc's mmap
    /// threshold, and freeing that buffer with its engine raised the
    /// threshold and `spmv_suite`'s peak RSS by 1.15 MiB.
    busy: Vec<u16>,
    /// Per unit of the channel in replay.
    runs: Vec<UnitRun>,
    /// Interpreted answers, unit after unit: recorded for attribution and,
    /// in debug builds, for the follower check.
    answers: Vec<Answer>,
    /// Per unit: attribution's read position in its answers.
    cursor: Vec<usize>,
    /// A copy of a follower and its bank, run to check it.
    #[cfg(debug_assertions)]
    check: (ProcessingUnit, BankMemory, Vec<Answer>),
    /// Banks of the last run that took their leader's run.
    #[cfg(test)]
    pub(super) followed: usize,
    /// Banks of the last run that had a leader but ran themselves.
    #[cfg(test)]
    pub(super) refused: usize,
}

impl Units {
    /// Run every unit of a channel through the cyclic schedule to its
    /// exit, letting banks follow their leaders when `follow` is set and
    /// recording every interpreted answer for attribution when `record`
    /// is. Each unit also counts the offers the channel issues after it
    /// exits, so it is offered every command of the channel. Returns the
    /// offers the channel issues: up to and including the one its last
    /// unit exits on.
    fn run(
        &mut self,
        kernel: &Kernel,
        follow: bool,
        record: bool,
        pus: &mut [ProcessingUnit],
        mems: &mut [BankMemory],
    ) -> Result<u64, CoreError> {
        let record = record || cfg!(debug_assertions);
        self.busy.clear();
        self.answers.clear();
        self.runs.clear();
        for b in 0..pus.len() {
            let leads = |a: &usize| {
                self.runs[*a].leader == *a
                    && mems[*a].same_layout(&mems[b])
                    && pus[*a].same_state(&pus[b])
            };
            let leader = if follow { (0..b).find(leads) } else { None };
            self.runs.push(UnitRun {
                leader: leader.unwrap_or(b),
                ..UnitRun::default()
            });
        }
        for b in 0..pus.len() {
            let a = self.runs[b].leader;
            let from = self.answers.len();
            if a != b && !mems[a].wrote() && mems[a].same_reads(&mems[b]) {
                #[cfg(debug_assertions)]
                self.check_follower(kernel, a, (&pus[b], &mems[b]), (&pus[a], &mems[a]));
                let (leaders, rest) = pus.split_at_mut(b);
                rest[0].copy_state_from(&leaders[a]);
                let (leaders, rest) = mems.split_at_mut(b);
                rest[0].copy_accesses_from(&leaders[a]);
                self.runs[b].exit_at = self.runs[a].exit_at;
                self.runs[b].answers = from..from;
                #[cfg(test)]
                {
                    self.followed += 1;
                }
                continue;
            }
            #[cfg(test)]
            {
                self.refused += usize::from(a != b);
            }
            let (busy, answers) = (&mut self.busy, &mut self.answers);
            self.runs[b].exit_at = run_unit(kernel, &mut pus[b], &mut mems[b], |offer, report| {
                let k = offer as usize;
                if busy.len() <= k {
                    busy.resize(k + 1, 0);
                }
                let cycles =
                    u16::try_from(report.pu_cycles).expect("an offer takes under 2^16 PU cycles");
                busy[k] = busy[k].max(cycles);
                if record {
                    answers.push(Answer { offer, report });
                }
            })?;
            self.runs[b].answers = from..self.answers.len();
        }
        // A unit exits on an offer the interpreter answers, so the last
        // exit offer has a slot in `busy`.
        let offers = self.runs.iter().map(|r| r.exit_at).max().unwrap_or(0);
        debug_assert_eq!(self.busy.len() as u64, offers);
        let rounds = match offers {
            0 => 0,
            n => (n - 1) / kernel.schedule().len() as u64 + 1,
        };
        for (pu, run) in pus.iter_mut().zip(&self.runs) {
            pu.pass(offers - run.exit_at);
            pu.mark_exit_round(rounds);
        }
        self.cursor.clear();
        if record {
            self.cursor
                .extend(self.runs.iter().map(|r| r.answers.start));
        }
        Ok(offers)
    }

    /// Whether unit `b` had exited before offer `offer`.
    fn exited_before(&self, b: usize, offer: u64) -> bool {
        self.runs[b].exit_at <= offer
    }

    /// Unit `b`'s answer to offer `offer`, read back from its recorded
    /// run: its interpreted answer, a predication while it was parked, or
    /// `Exited` once it has exited. Each unit's offers are asked in order.
    fn answer(&mut self, b: usize, offer: u64) -> StepReport {
        let passed = |outcome| StepReport {
            executed: false,
            pu_cycles: 0,
            outcome,
        };
        if self.exited_before(b, offer) {
            return passed(StepOutcome::Exited);
        }
        let i = &mut self.cursor[b];
        match self.answers[*i..self.runs[b].answers.end].first() {
            Some(a) if a.offer == offer => {
                *i += 1;
                a.report
            }
            _ => passed(StepOutcome::OutOfPhase),
        }
    }

    /// Run follower `start` on a copy of its start state and bank, and
    /// check that it ends where it takes its leader's run to end: the
    /// leader's end state (`led`), exit offer and answers, its own bank
    /// unchanged, and the leader's access log.
    #[cfg(debug_assertions)]
    fn check_follower(
        &mut self,
        kernel: &Kernel,
        leader: usize,
        start: (&ProcessingUnit, &BankMemory),
        led: (&ProcessingUnit, &BankMemory),
    ) {
        let (pu, mem, answers) = &mut self.check;
        pu.copy_state_from(start.0);
        mem.copy_from(start.1);
        answers.clear();
        let exit_at = run_unit(kernel, pu, mem, |offer, report| {
            answers.push(Answer { offer, report });
        });
        let run = &self.runs[leader];
        debug_assert_eq!(exit_at.ok(), Some(run.exit_at), "a follower's exit offer");
        debug_assert!(pu.same_state(led.0), "a follower's end state");
        debug_assert!(
            answers[..] == self.answers[run.answers.clone()],
            "a follower's answers"
        );
        debug_assert!(
            *mem == *start.1 && mem.same_accesses(led.1),
            "a follower's bank and access log"
        );
    }
}

/// Replay channel `ch` of the kernel to completion over this channel's
/// banks. `pus`/`mems` are the channel's slice of the cube (bank `i` of
/// the channel at index `i`); no state outside the slices and the phase-1
/// buffers `units` is touched, so disjoint channels may run concurrently
/// with buffers of their own.
pub(super) fn run_channel(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
    units: &mut Units,
) -> Result<ChannelOutcome, CoreError> {
    match ctx.cfg.mode {
        ExecMode::AllBank => run_channel_allbank(ctx, ch, pus, mems, units),
        ExecMode::PerBank => run_channel_perbank(ctx, ch, pus, mems),
    }
}

/// The all-bank replay, in two phases. Phase 1 ([`Units::run`]) runs every
/// unit to its exit on its own. Phase 2 issues the channel's commands
/// (setup, REF, ACT, PRE, the RD or WR of each offer, a status poll per
/// round) with the timing of the lockstep model: an offer holds the bus
/// until its slowest unit has drained, read from phase 1, and the stream
/// ends with the offer the last unit exits on.
fn run_channel_allbank(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
    units: &mut Units,
) -> Result<ChannelOutcome, CoreError> {
    const AB: Scope = Scope::AllBanks;
    let cfg = ctx.cfg;
    let kernel = ctx.kernel;
    let program = kernel.program();
    let mut port = Port::new(AbChannel::new(&cfg.hbm), cfg, ch);
    // Engine-side open-row bookkeeping uses the first bank's layout; all
    // banks allocate regions identically (equal rows/bank).
    let geometry = RowGeometry::new(&cfg.hbm);
    let mut cursors = geometry.slot_cursors(kernel, &mems[0]);
    let steps = geometry.slot_steps(kernel);
    let nbanks = pus.len();
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
        a.span_all(now, Category::Setup, |i| pus[i].exited());
    }

    let offers = units.run(kernel, cfg.reuses(), cfg.attribute, pus, mems)?;

    let t_refi = cfg.hbm.timing.t_refi;
    let mut next_refresh = now + t_refi;
    let mut open_row: Option<u32> = None;
    let mut rounds = 0u64;
    // Read-latency depth the command pipeline hides: PU consumption of
    // burst k overlaps issue of burst k+1.
    let pipeline = cfg.hbm.timing.rl + 1;
    let mut pu_free: u64 = 0;
    let mut offer = 0u64;

    'outer: while offer < offers {
        rounds += 1;
        for &slot in kernel.schedule() {
            if now >= next_refresh {
                if open_row.is_some() {
                    now = port.issue(AB, CmdKind::Pre, now)?.issue_cycle;
                    open_row = None;
                }
                now = port.issue(AB, CmdKind::Ref, now)?.issue_cycle;
                next_refresh = now + t_refi;
                if let Some(a) = attr.as_mut() {
                    a.span_all(now, Category::RefreshShadow, |i| {
                        units.exited_before(i, offer)
                    });
                }
            }
            let (want_row, col) = decode_slot_addr(slot, &cursors[slot])?;
            if open_row != Some(want_row) {
                if open_row.is_some() {
                    now = port.issue(AB, CmdKind::Pre, now)?.issue_cycle;
                }
                now = port
                    .issue(AB, CmdKind::Act { row: want_row }, now)?
                    .issue_cycle;
                open_row = Some(want_row);
                if let Some(a) = attr.as_mut() {
                    a.span_all(now, Category::RowSwitchWait, |i| {
                        units.exited_before(i, offer)
                    });
                }
            }
            let kind = if kernel.shape(slot).writes {
                CmdKind::Wr { col }
            } else {
                CmdKind::Rd { col }
            };
            let issued = port.issue(AB, kind, now)?;
            now = issued.issue_cycle;

            // Lockstep back-pressure with pipelining: the slowest PU
            // consumes burst k while burst k+1 is in flight; only a PU
            // that falls behind the read latency stalls the bus.
            pu_free = pu_free.max(issued.data_cycle)
                + u64::from(units.busy[offer as usize]) * DRAM_CYCLES_PER_PU_CYCLE;
            now = now.max(pu_free.saturating_sub(pipeline));
            geometry.advance(&mut cursors[slot], &steps[slot]);
            if let Some(a) = attr.as_mut() {
                step_buf.clear();
                step_buf.extend((0..nbanks).map(|i| units.answer(i, offer)));
                a.data_all(issued.issue_cycle, now, &step_buf, rounds, slot);
            }

            offer += 1;
            if offer == offers {
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
            a.span_all(now, Category::HostSync, |i| units.exited_before(i, offer));
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
        // (all exited by now) idles post-CEXIT.
        a.span_all(now, Category::Setup, |_| true);
    }
    Ok(port.finish(now, rounds, attr))
}

/// Per-bank round-robin issue state (one per bank of the channel).
struct BankCtl {
    /// The bank's command scope, computed once per replay.
    scope: Scope,
    sched_idx: usize,
    rounds: u64,
    /// Each memory slot's open-row cursor in this bank's region layout.
    cursors: [RowCursor; MAX_PROGRAM_LEN],
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
    let geometry = RowGeometry::new(&cfg.hbm);
    let steps = geometry.slot_steps(kernel);
    let nbanks = pus.len();
    let banks_per_group = cfg.hbm.banks_per_group;
    let mut ctls: Vec<BankCtl> = mems
        .iter()
        .enumerate()
        .map(|(b, mem)| BankCtl {
            scope: Scope::OneBank {
                bg: b / banks_per_group,
                ba: b % banks_per_group,
            },
            sched_idx: 0,
            rounds: 0,
            cursors: geometry.slot_cursors(kernel, mem),
            open_row: None,
            ready: 0,
            pu_free: 0,
        })
        .collect();
    let mut attr = cfg
        .attribute
        .then(|| Attr::new(ch, nbanks, cfg.event_limit));

    // Per-bank setup: each bank's CRF is programmed individually, the
    // banks taking turns command by command.
    let mut now: u64 = 0;
    for _ in 0..2 * psim_dram::mode::SWITCH_SEQUENCE_LEN + program.len() {
        for ctl in &ctls {
            now = port.issue(ctl.scope, CmdKind::Mrs, now)?.issue_cycle;
        }
    }
    if let Some(a) = attr.as_mut() {
        a.span_all(now, Category::Setup, |i| pus[i].exited());
    }

    let pipeline = cfg.hbm.timing.rl + 1;
    for ctl in &mut ctls {
        ctl.ready = now;
    }
    for pu in pus.iter_mut() {
        pu.run_free(kernel);
    }

    let t_refi = cfg.hbm.timing.t_refi;
    let mut next_refresh = now + t_refi;
    let mut floor = now;
    let mut max_rounds = 0u64;
    loop {
        // Refresh is a channel-global event even in per-bank mode: close
        // every open row, then issue one all-bank REF that stalls all
        // per-bank streams for tRFC.
        if floor >= next_refresh {
            for ctl in &mut ctls {
                if ctl.open_row.is_some() {
                    let p = port
                        .issue(ctl.scope, CmdKind::Pre, ctl.ready.max(floor))?
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
                    let c = if pus[i].exited() {
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
            if pus[i].exited() {
                continue;
            }
            any_active = true;
            if ctl.rounds > MAX_ROUNDS {
                return Err(CoreError::Execution(format!(
                    "per-bank kernel exceeded {MAX_ROUNDS} rounds"
                )));
            }
            let slot = schedule[ctl.sched_idx];
            let (want_row, col) = decode_slot_addr(slot, &ctl.cursors[slot])?;
            let scope = ctl.scope;
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
            let kind = if kernel.shape(slot).writes {
                CmdKind::Wr { col }
            } else {
                CmdKind::Rd { col }
            };
            let issued = port.issue(scope, kind, t)?;
            floor = floor.max(issued.issue_cycle);

            let rep = pus[i].offer(kernel, slot, &mut mems[i]);
            ctl.pu_free =
                ctl.pu_free.max(issued.data_cycle) + rep.pu_cycles * DRAM_CYCLES_PER_PU_CYCLE;
            ctl.ready = issued.issue_cycle.max(ctl.pu_free.saturating_sub(pipeline));
            geometry.advance(&mut ctl.cursors[slot], &steps[slot]);
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
            if pus[i].exited() {
                pus[i].mark_exit_round(ctl.rounds);
            }
        }
        if !any_active {
            break;
        }
    }
    // PUs that exited during the free prelude were skipped by the issue
    // loop and never recorded an exit round; mark_exit_round is
    // idempotent.
    for (pu, ctl) in pus.iter_mut().zip(ctls.iter()) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Advancing a decoded cursor step by step lands where decoding the
    /// advanced element offset does, on power-of-two and other row
    /// geometries, for strides below a column, across columns and across
    /// whole rows, and a cursor that runs past the `u32` row space is
    /// refused when it next issues.
    #[test]
    fn stepped_cursor_matches_a_fresh_decode() {
        for (num_cols, col_bytes) in [(64, 16), (48, 16), (64, 24), (7, 3)] {
            let hbm = HbmConfig {
                num_cols,
                col_bytes,
                ..HbmConfig::default()
            };
            let g = RowGeometry::new(&hbm);
            for (start_row, offset, advance, elem_bytes) in [
                (0, 0, 4, 8),
                (3, 5, 1, 8),
                (9, 2, 32, 1),
                (1, 7, 96, 8),
                (0, 11, 1000, 8),
                (5, 0, 0, 8),
            ] {
                let step = g.decode(0, advance, elem_bytes);
                let mut cur = g.decode(start_row, offset, elem_bytes);
                for k in 1..200 {
                    g.advance(&mut cur, &step);
                    let want = g.decode(start_row, offset + k * advance, elem_bytes);
                    assert_eq!(
                        (cur.row, cur.col, cur.byte),
                        (want.row, want.col, want.byte),
                        "{num_cols} x {col_bytes} B columns, start row {start_row}, \
                         offset {offset}, advance {advance} x {elem_bytes} B, step {k}"
                    );
                }
            }
        }
        let g = RowGeometry::new(&HbmConfig::default());
        let mut cur = g.decode(u32::MAX, 0, 8);
        assert_eq!(decode_slot_addr(0, &cur).unwrap(), (u32::MAX, 0));
        let row = g.decode(0, g.row_bytes / 8, 8);
        g.advance(&mut cur, &row);
        assert!(decode_slot_addr(0, &cur).is_err());
    }
}
