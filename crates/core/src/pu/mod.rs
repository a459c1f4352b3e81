//! The per-bank processing unit (paper §IV-B, Figure 4, Table VIII).
//!
//! Each unit has a 128 B control register (32 instructions), a 16 B scalar
//! register, three 32 B dense vector registers, three 192 B sparse vector
//! queues (row/col/val sub-queues of 64 B each), a 256-bit multi-precision
//! VALU with an index calculator, and 32 loop counters for ORDER'd jumps.
//!
//! Execution is *partially synchronous*: the host's all-bank column
//! commands arrive tagged with the program slot they serve; a unit executes
//! its pending control/compute instructions for free, then consumes the
//! command if (a) its program counter has reached that slot and (b) the
//! instruction's predicate holds (queue room/data available). Otherwise the
//! command passes over the unit without effect — the predicated execution
//! of §IV-E. A unit that has taken `CEXIT` ignores all further commands
//! while the host keeps driving the remaining units (§IV-D).
//!
//! Every unit of an engine runs the one [`Kernel`] the engine loaded: the
//! program, its slot table (which slots access memory, and how) and its
//! command schedule live there, and a unit holds only its own position in
//! them (program counter, slot cursors, loop counters) next to its
//! registers and queues. So loading a unit resets a few fixed-size fields
//! and shares nothing by reference, and the interpreter tells a memory
//! slot from a free instruction by one bit of the kernel's mask.
//!
//! A unit parked at another memory slot, or one that has exited, lets a
//! command pass and only counts it. Since that depends on the unit alone,
//! a run of offers known to pass is counted at once
//! (`ProcessingUnit::pass`), so the all-bank replay runs each unit
//! through the command schedule on its own and interprets only the
//! offers that reach it (`ProcessingUnit::offer`).
//!
//! The interpreter allocates nothing per step: every DRF holds at most one
//! datapath pass (`MAX_LANES` elements), so gather buffers, dense
//! operands and merge windows live on the stack or update registers in
//! place. It is the simulator's innermost loop.

mod queue;

pub use queue::SpQueue;

use crate::error::CoreError;
use crate::isa::program::MAX_PROGRAM_LEN;
use crate::isa::{BinaryOp, Identity, Instruction, Operand, Program, SetMode, SubQueue};
use crate::memory::{same_bits, BankMemory, Binding, RegionId, SENTINEL};
use crate::stats::PuStats;
use psim_sparse::Precision;
use serde::{Deserialize, Serialize};

/// DRAM command-clock cycles per PU cycle (1 GHz DRAM / 250 MHz PU).
pub const DRAM_CYCLES_PER_PU_CYCLE: u64 = 4;

/// Stack-buffer width in elements: the widest precision's lane count
/// (INT8, 32 lanes). Every DRF write is at most one pass of some
/// precision, so no register, gather or merge window is ever longer.
const MAX_LANES: usize = Precision::Int8.lanes();

/// Loop counters for ORDER'd jumps (Table VIII).
const LOOP_COUNTERS: usize = 32;

/// The DRF an operand names; non-DRF operands alias register 0.
fn drf_idx(op: Operand) -> usize {
    match op {
        Operand::Drf(i) => i as usize,
        _ => 0,
    }
}

/// How a unit disposed of one column command — the discriminator the
/// attribution layer (psim-trace) classifies stall cycles with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepOutcome {
    /// Consumed the command and moved real data.
    Executed,
    /// Consumed the command but the source stream/queue was empty (drained
    /// region, sentinel padding): a no-op burst.
    ExecutedEmpty,
    /// Passed: the unit's program counter was at a different memory slot.
    OutOfPhase,
    /// Passed: the destination queue had no room (predicate failed).
    QueueFull,
    /// The unit had exited (or exited while handling this command without
    /// consuming it).
    Exited,
}

/// Outcome of offering one column command to a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepReport {
    /// Whether the unit consumed the command (performed its bank access).
    pub executed: bool,
    /// PU cycles of work performed while handling this command (compute
    /// instructions retired plus the access itself).
    pub pu_cycles: u64,
    /// Disposition of the command.
    pub outcome: StepOutcome,
}

/// A loaded kernel: the program, what each memory slot's command does to
/// its bank, and the host's per-iteration command schedule. An engine
/// builds one per load and every unit runs it.
///
/// Everything a load fixes is derived here once: which slots are memory
/// slots (a bit mask) and each memory slot's access shape (its region and
/// stride, the element width and advance of the engine's open-row cursor,
/// and whether its command reads or writes the bank). The replays and the
/// interpreter look these up per command instead of re-deriving them from
/// the instruction and its binding.
#[derive(Debug, Clone)]
pub struct Kernel {
    program: Program,
    slots: SlotTable,
    schedule: Vec<usize>,
    /// The schedule's positions grouped by the slot they serve: slot `s`
    /// is served at `positions[first[s]..first[s + 1]]`, in ascending
    /// order.
    positions: Vec<usize>,
    first: [usize; MAX_PROGRAM_LEN + 1],
}

/// What a load's bindings fix per program slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotTable {
    /// Bit `s` is set when slot `s` holds a memory instruction.
    memory: u64,
    /// Each memory slot's access shape; other slots hold
    /// [`SlotShape::NONE`].
    shapes: [SlotShape; MAX_PROGRAM_LEN],
    /// Each slot's element cursor at load: its binding's offset.
    start: [usize; MAX_PROGRAM_LEN],
}

impl SlotTable {
    /// Check `bindings` against `program` and derive every slot's entry.
    fn new<B: Into<Binding>>(
        program: &Program,
        bindings: Vec<Option<B>>,
    ) -> Result<Self, CoreError> {
        let mut bindings = bindings.into_iter().map(|o| o.map(Into::into));
        let mut table = SlotTable {
            memory: 0,
            shapes: [SlotShape::NONE; MAX_PROGRAM_LEN],
            start: [0; MAX_PROGRAM_LEN],
        };
        for (slot, ins) in program.instructions().iter().enumerate() {
            let binding: Option<Binding> = bindings.next().flatten();
            table.start[slot] = binding.map_or(0, |b| b.offset);
            if ins.is_memory() {
                let binding = binding.ok_or_else(|| {
                    CoreError::Binding(format!(
                        "memory instruction at slot {slot} has no bound region"
                    ))
                })?;
                table.memory |= 1 << slot;
                table.shapes[slot] = SlotShape::new(ins, binding);
            }
        }
        Ok(table)
    }
}

/// How one memory slot's command touches its bank, fixed when the kernel
/// loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotShape {
    /// The region the slot's binding names.
    pub region: RegionId,
    /// The binding's stride; `None` advances the unit's own cursor by the
    /// instruction's natural width.
    pub stride: Option<usize>,
    /// Element width of the engine's open-row cursor, in bytes.
    pub elem_bytes: usize,
    /// Elements the engine's open-row cursor advances per command.
    pub advance: usize,
    /// Whether the command writes the bank (a WR) rather than reads it.
    pub writes: bool,
}

impl SlotShape {
    /// The shape of a slot without a bank access.
    const NONE: SlotShape = SlotShape {
        region: RegionId(0),
        stride: None,
        elem_bytes: 0,
        advance: 0,
        writes: false,
    };

    /// The shape of memory instruction `ins` bound to `binding`.
    fn new(ins: &Instruction, binding: Binding) -> Self {
        let (elem_bytes, natural) = row_cursor_step(ins);
        SlotShape {
            region: binding.region,
            stride: binding.stride,
            elem_bytes,
            advance: binding.stride.unwrap_or(natural),
            writes: ins.writes_bank(),
        }
    }
}

/// Element width and natural advance of the engine's open-row cursor at
/// a memory instruction's slot.
fn row_cursor_step(ins: &Instruction) -> (usize, usize) {
    use Instruction as I;
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
        _ => (8, 0),
    }
}

impl Kernel {
    /// Check `bindings` against `program`, derive every memory slot's
    /// access shape and the command schedule.
    ///
    /// # Errors
    ///
    /// [`CoreError::Binding`] if a memory slot is unbound;
    /// [`CoreError::Execution`] if the schedule walk exceeds its bound.
    pub fn new<B: Into<Binding>>(
        program: Program,
        bindings: Vec<Option<B>>,
    ) -> Result<Self, CoreError> {
        let slots = SlotTable::new(&program, bindings)?;
        Kernel::with_slots(program, slots)
    }

    fn with_slots(program: Program, slots: SlotTable) -> Result<Self, CoreError> {
        let schedule = program.command_schedule()?;
        let mut first = [0; MAX_PROGRAM_LEN + 1];
        for &slot in &schedule {
            first[slot + 1] += 1;
        }
        for s in 0..MAX_PROGRAM_LEN {
            first[s + 1] += first[s];
        }
        let mut positions = vec![0; schedule.len()];
        let mut next = first;
        for (pos, &slot) in schedule.iter().enumerate() {
            positions[next[slot]] = pos;
            next[slot] += 1;
        }
        Ok(Kernel {
            program,
            slots,
            schedule,
            positions,
            first,
        })
    }

    /// Load `program` with `bindings` into `loaded`, the slot holding an
    /// engine's kernel: a kernel that runs the same program with the same
    /// slot table stays, so loading it again costs one binding check and
    /// no schedule walk; anything else is built anew. On an error the slot
    /// keeps what it held.
    ///
    /// # Errors
    ///
    /// As [`Kernel::new`].
    pub(crate) fn reload<B: Into<Binding>>(
        loaded: &mut Option<Kernel>,
        program: Program,
        bindings: Vec<Option<B>>,
    ) -> Result<&Kernel, CoreError> {
        let slots = SlotTable::new(&program, bindings)?;
        let same = loaded
            .as_ref()
            .is_some_and(|k| k.slots == slots && k.program == program);
        if !same {
            *loaded = Some(Kernel::with_slots(program, slots)?);
        }
        Ok(loaded.as_ref().expect("a kernel is loaded"))
    }

    /// The program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The per-iteration command schedule: memory slots in the order the
    /// host issues them ([`Program::command_schedule`]).
    #[must_use]
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// Whether `slot` (at most the program length) holds a memory
    /// instruction.
    #[inline]
    pub(crate) fn is_memory(&self, slot: usize) -> bool {
        self.slots.memory >> slot & 1 != 0
    }

    /// The memory slots, in program order.
    pub(crate) fn memory_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.program.len()).filter(|&slot| self.is_memory(slot))
    }

    /// The access shape of memory slot `slot`.
    #[inline]
    pub(crate) fn shape(&self, slot: usize) -> &SlotShape {
        &self.slots.shapes[slot]
    }

    /// Every slot's element cursor at load.
    pub(crate) fn start_cursors(&self) -> [usize; MAX_PROGRAM_LEN] {
        self.slots.start
    }

    /// How many offers pass from schedule position `pos` until one serves
    /// `slot` (0 when the offer at `pos` does), wrapping around the cyclic
    /// schedule; `None` when no offer ever serves it.
    #[inline]
    pub(crate) fn offers_until(&self, slot: usize, pos: usize) -> Option<u64> {
        let at = &self.positions[self.first[slot]..self.first[slot + 1]];
        let i = at.partition_point(|&p| p < pos);
        let next = match at.get(i) {
            Some(&p) => p,
            None => *at.first()? + self.schedule.len(),
        };
        Some((next - pos) as u64)
    }
}

/// One pSyncPIM processing unit: its position in the loaded [`Kernel`],
/// its registers, queues and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingUnit {
    /// Per-slot element cursor into the bound region.
    cursors: [usize; MAX_PROGRAM_LEN],
    pc: usize,
    loop_counters: [u32; LOOP_COUNTERS],
    srf: f64,
    drf: [Vec<f64>; 3],
    queues: [SpQueue; 3],
    exited: bool,
    exit_armed: bool,
    stats: PuStats,
    /// Column commands offered since load ([`ProcessingUnit::offer`],
    /// [`ProcessingUnit::pass`]).
    offers: u64,
    /// Whether the unit exited while handling an offer rather than in
    /// its free prelude: that offer is the one answered by neither a
    /// memory op nor a predication.
    exited_on_offer: bool,
}

impl Default for ProcessingUnit {
    fn default() -> Self {
        ProcessingUnit::new()
    }
}

impl ProcessingUnit {
    /// A fresh unit; [`ProcessingUnit::load`] starts it on a kernel.
    #[must_use]
    pub fn new() -> Self {
        ProcessingUnit {
            cursors: [0; MAX_PROGRAM_LEN],
            pc: 0,
            loop_counters: [0; LOOP_COUNTERS],
            srf: 0.0,
            drf: [Vec::new(), Vec::new(), Vec::new()],
            queues: [SpQueue::new(), SpQueue::new(), SpQueue::new()],
            exited: false,
            exit_armed: false,
            stats: PuStats::new(),
            offers: 0,
            exited_on_offer: false,
        }
    }

    /// Start the unit on `kernel`: reset its program counter, slot
    /// cursors, loop counters, exit flags, statistics and offer count.
    /// Registers and queues keep their contents.
    pub fn load(&mut self, kernel: &Kernel) {
        self.cursors = kernel.start_cursors();
        self.pc = 0;
        self.loop_counters = [0; LOOP_COUNTERS];
        self.exited = false;
        self.exit_armed = false;
        self.stats = PuStats::new();
        self.offers = 0;
        self.exited_on_offer = false;
    }

    /// A dense register, mutably (tests set up register states).
    #[cfg(test)]
    pub(crate) fn drf_mut(&mut self, i: usize) -> &mut Vec<f64> {
        &mut self.drf[i]
    }

    /// Set the scalar register (the host may seed α for AXPY-style kernels).
    pub fn set_srf(&mut self, v: f64) {
        self.srf = v;
    }

    /// Current scalar register value (reductions land here).
    #[must_use]
    pub fn srf(&self) -> f64 {
        self.srf
    }

    /// Whether the unit has terminated (EXIT or satisfied CEXIT).
    #[must_use]
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> &PuStats {
        &self.stats
    }

    /// Record the round in which the unit exited (called by the engine).
    /// Also freezes the instruction count so the validation layer can
    /// verify nothing retires after exit.
    pub fn mark_exit_round(&mut self, round: u64) {
        if self.stats.exit_round == u64::MAX {
            self.stats.exit_round = round;
            self.stats.instructions_at_exit = self.stats.instructions;
        }
    }

    /// Offer one column command serving `kernel`'s program `slot`
    /// (direction implied by the instruction). Runs pending free
    /// instructions first.
    pub fn on_command(&mut self, kernel: &Kernel, slot: usize, mem: &mut BankMemory) -> StepReport {
        if self.exited {
            self.stats.predicated_off += 1;
            return StepReport {
                executed: false,
                pu_cycles: 0,
                outcome: StepOutcome::Exited,
            };
        }
        let prog = kernel.program.instructions();
        let mut cycles = 0u64;
        // Safety bound: a unit can't retire more than the control register
        // size of free instructions per command.
        for _ in 0..4 * crate::isa::Program::len_limit() {
            if self.pc >= prog.len() {
                self.exited = true;
                break;
            }
            let ins = prog[self.pc];
            if kernel.is_memory(self.pc) {
                if self.pc != slot {
                    // Out of phase: let the command pass.
                    self.stats.predicated_off += 1;
                    return StepReport {
                        executed: false,
                        pu_cycles: cycles,
                        outcome: StepOutcome::OutOfPhase,
                    };
                }
                return match self.exec_memory(&ins, kernel.shape(slot), mem) {
                    outcome @ (ExecOutcome::Done(_) | ExecOutcome::DoneEmpty(_)) => {
                        let (c, step) = match outcome {
                            ExecOutcome::Done(c) => (c, StepOutcome::Executed),
                            ExecOutcome::DoneEmpty(c) => (c, StepOutcome::ExecutedEmpty),
                            ExecOutcome::Stall => unreachable!("matched above"),
                        };
                        self.pc += 1;
                        self.stats.instructions += 1;
                        self.stats.mem_ops += 1;
                        let total = cycles + c;
                        self.stats.busy_cycles += total;
                        StepReport {
                            executed: true,
                            pu_cycles: total,
                            outcome: step,
                        }
                    }
                    ExecOutcome::Stall => {
                        self.stats.predicated_off += 1;
                        self.stats.busy_cycles += cycles;
                        StepReport {
                            executed: false,
                            pu_cycles: cycles,
                            outcome: StepOutcome::QueueFull,
                        }
                    }
                };
            }
            // Control / compute — free of commands.
            match self.exec_free(&ins) {
                ExecOutcome::Done(c) | ExecOutcome::DoneEmpty(c) => {
                    cycles += c;
                    self.stats.instructions += 1;
                    if self.exited {
                        break;
                    }
                }
                ExecOutcome::Stall => {
                    self.stats.predicated_off += 1;
                    self.stats.busy_cycles += cycles;
                    return StepReport {
                        executed: false,
                        pu_cycles: cycles,
                        outcome: StepOutcome::QueueFull,
                    };
                }
            }
        }
        self.stats.busy_cycles += cycles;
        self.exited_on_offer |= self.exited;
        StepReport {
            executed: false,
            pu_cycles: cycles,
            outcome: if self.exited {
                StepOutcome::Exited
            } else {
                StepOutcome::OutOfPhase
            },
        }
    }

    /// Run `kernel`'s control/compute instructions until the unit reaches
    /// a memory instruction, stalls, or exits. Used by the engine before
    /// the first command and for programs with no memory instructions.
    pub fn run_free(&mut self, kernel: &Kernel) -> u64 {
        let prog = kernel.program.instructions();
        let mut cycles = 0u64;
        for _ in 0..4 * crate::isa::Program::len_limit() {
            if self.exited || self.pc >= prog.len() {
                self.exited = true;
                break;
            }
            if kernel.is_memory(self.pc) {
                break;
            }
            let ins = prog[self.pc];
            match self.exec_free(&ins) {
                ExecOutcome::Done(c) | ExecOutcome::DoneEmpty(c) => {
                    cycles += c;
                    self.stats.instructions += 1;
                }
                ExecOutcome::Stall => break,
            }
        }
        self.stats.busy_cycles += cycles;
        cycles
    }

    /// The slot of `kernel`'s memory instruction the unit is currently
    /// waiting at, if any (diagnostic).
    #[must_use]
    pub fn pending_slot(&self, kernel: &Kernel) -> Option<usize> {
        (self.pc < kernel.program.len() && kernel.is_memory(self.pc)).then_some(self.pc)
    }

    /// The memory slot this live unit is parked at, if any.
    ///
    /// After [`ProcessingUnit::run_free`] or any [`ProcessingUnit::on_command`]
    /// return, a live unit's `pc` rests on a memory instruction unless a
    /// compute instruction stalled (free instructions run to quiescence
    /// inside those calls). Offering any *other* slot to a parked unit is
    /// a pure predication: [`ProcessingUnit::on_command`] would only bump
    /// `predicated_off` and report `{executed: false, pu_cycles: 0,
    /// OutOfPhase}`. `None` for an exited or stalled unit.
    pub(crate) fn parked_memory_slot(&self, kernel: &Kernel) -> Option<usize> {
        if self.exited {
            return None;
        }
        self.pending_slot(kernel)
    }

    /// Answer one column command offered at `kernel`'s `slot`: count the
    /// offer and run the interpreter, which lets the command pass with one
    /// `predicated_off` when the unit is parked at another memory slot or
    /// has exited. Both replays offer commands through here;
    /// [`ProcessingUnit::pass`] counts a run of offers known to pass
    /// without running the interpreter on each.
    #[inline]
    pub(crate) fn offer(
        &mut self,
        kernel: &Kernel,
        slot: usize,
        mem: &mut BankMemory,
    ) -> StepReport {
        self.offers += 1;
        self.on_command(kernel, slot, mem)
    }

    /// Count `n` offers that pass over the unit, as
    /// [`ProcessingUnit::offer`] would answer each: the unit is parked at
    /// a memory slot none of them serves, or has exited.
    #[inline]
    pub(crate) fn pass(&mut self, n: u64) {
        self.offers += n;
        self.stats.predicated_off += n;
    }

    /// Whether every offer since load was answered exactly once: by a
    /// memory op, by a predication, or by the unit exiting while handling
    /// it (`None`), or else the offer count and the answers it expected.
    pub(crate) fn offer_mismatch(&self) -> Option<(u64, u64)> {
        let s = &self.stats;
        let answered = s.mem_ops + s.predicated_off + u64::from(self.exited_on_offer);
        (answered != self.offers).then_some((self.offers, answered))
    }

    /// Whether both units hold the same state bit for bit: every register,
    /// queue, cursor and counter. Units of one engine run one kernel, so
    /// the state is all a replay of them depends on besides bank memory.
    pub(crate) fn same_state(&self, other: &ProcessingUnit) -> bool {
        self.pc == other.pc
            && self.exited == other.exited
            && self.exit_armed == other.exit_armed
            && self.srf.to_bits() == other.srf.to_bits()
            && self.stats == other.stats
            && self.offers == other.offers
            && self.exited_on_offer == other.exited_on_offer
            && self.cursors == other.cursors
            && self.loop_counters == other.loop_counters
            && self
                .drf
                .iter()
                .zip(&other.drf)
                .all(|(a, b)| same_bits(a, b))
            && self
                .queues
                .iter()
                .zip(&other.queues)
                .all(|(a, b)| a.same_bits(b))
    }

    /// Make this unit's state equal to `src`'s, reusing its own buffers
    /// (no allocation once they have grown to `src`'s sizes).
    pub(crate) fn copy_state_from(&mut self, src: &ProcessingUnit) {
        self.cursors = src.cursors;
        self.pc = src.pc;
        self.loop_counters = src.loop_counters;
        self.srf = src.srf;
        for (d, s) in self.drf.iter_mut().zip(&src.drf) {
            d.clone_from(s);
        }
        for (d, s) in self.queues.iter_mut().zip(&src.queues) {
            d.copy_from(s);
        }
        self.exited = src.exited;
        self.exit_armed = src.exit_armed;
        self.stats = src.stats;
        self.offers = src.offers;
        self.exited_on_offer = src.exited_on_offer;
    }

    // ---- internals -----------------------------------------------------

    fn exec_free(&mut self, ins: &Instruction) -> ExecOutcome {
        match *ins {
            Instruction::Nop => {
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::Exit => {
                self.exited = true;
                ExecOutcome::Done(1)
            }
            Instruction::CExit { queue } => {
                if self.exit_armed && self.queues[queue as usize].is_empty() {
                    self.exited = true;
                } else {
                    self.pc += 1;
                }
                ExecOutcome::Done(1)
            }
            Instruction::Jump {
                target,
                order,
                count,
            } => {
                if count == 0 {
                    self.pc = target as usize;
                } else {
                    let ctr = &mut self.loop_counters[order as usize];
                    *ctr += 1;
                    if *ctr <= u32::from(count) {
                        self.pc = target as usize;
                    } else {
                        *ctr = 0;
                        self.pc += 1;
                    }
                }
                ExecOutcome::Done(1)
            }
            Instruction::Dmov {
                dst,
                src,
                precision,
            } => self.exec_dmov_regs(dst, src, precision),
            Instruction::Sdv {
                dst,
                src,
                op,
                precision,
            } => {
                let (d, s) = (drf_idx(dst), drf_idx(src));
                let srf = self.srf;
                let k = self.drf[s].len();
                if d != s {
                    self.drf[d].truncate(k);
                    self.drf[d].resize(k, 0.0);
                }
                for i in 0..k {
                    self.drf[d][i] = precision.quantize(op.apply(self.drf[s][i], srf));
                }
                self.stats.lane_ops += k as u64;
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::SSpv {
                dst,
                src,
                op,
                precision,
            } => self.exec_sspv(dst, src, op, precision),
            Instruction::Reduce { src, op, precision } => {
                let s = &self.drf[drf_idx(src)];
                let folded = s.iter().fold(op.identity(), |acc, &v| op.apply(acc, v));
                self.stats.lane_ops += s.len() as u64;
                self.srf = precision.quantize(op.apply(self.srf, folded));
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::Dvdv {
                dst,
                src0,
                src1,
                op,
                precision,
            } => {
                let (d, s0, s1) = (drf_idx(dst), drf_idx(src0), drf_idx(src1));
                let k = self.drf[s0].len().max(self.drf[s1].len());
                let mut buf = [0.0f64; MAX_LANES];
                for (i, out) in buf.iter_mut().enumerate().take(k) {
                    let a = self.drf[s0].get(i).copied().unwrap_or(0.0);
                    let b = self.drf[s1].get(i).copied().unwrap_or(0.0);
                    *out = precision.quantize(op.apply(a, b));
                }
                let dv = &mut self.drf[d];
                dv.clear();
                dv.extend_from_slice(&buf[..k]);
                self.stats.lane_ops += k as u64;
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::SpVdv {
                dst,
                src0,
                src1,
                op,
                set,
                precision,
            } => self.exec_spvdv_regs(dst, src0, src1, op, set, precision),
            Instruction::SpVSpv {
                dst,
                src0,
                src1,
                op,
                set,
                precision,
            } => self.exec_spvspv(dst, src0, src1, op, set, precision),
            _ => unreachable!("memory instruction routed to exec_free"),
        }
    }

    /// DMOV among registers (non-bank): DRF↔DRF copy, SRF broadcast to a
    /// DRF, or DRF lane 0 into SRF.
    fn exec_dmov_regs(&mut self, dst: Operand, src: Operand, precision: Precision) -> ExecOutcome {
        match (dst, src) {
            (Operand::Drf(d), Operand::Drf(s)) => {
                let (d, s) = (d as usize, s as usize);
                if d != s {
                    let (lo, hi) = self.drf.split_at_mut(d.max(s));
                    let (dv, sv) = if d < s {
                        (&mut lo[d], &hi[0])
                    } else {
                        (&mut hi[0], &lo[s])
                    };
                    dv.clone_from(sv);
                }
            }
            (Operand::Drf(d), Operand::Srf) => {
                let dv = &mut self.drf[d as usize];
                dv.clear();
                dv.resize(precision.lanes(), self.srf);
            }
            (Operand::Srf, Operand::Drf(s)) => {
                self.srf = self.drf[s as usize].first().copied().unwrap_or(0.0);
            }
            _ => {}
        }
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    fn exec_sspv(
        &mut self,
        dst: Operand,
        src: Operand,
        op: BinaryOp,
        precision: Precision,
    ) -> ExecOutcome {
        let (Operand::SpVq(d), Operand::SpVq(s)) = (dst, src) else {
            self.pc += 1;
            return ExecOutcome::Done(1);
        };
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        let avail = self.queues[s as usize].len();
        let k = avail.min(lanes);
        if k > 0 && !self.queues[d as usize].can_push(k, elem_bytes) {
            return ExecOutcome::Stall;
        }
        let srf = self.srf;
        for _ in 0..k {
            let (r, c, v) = self.queues[s as usize].pop().expect("len checked");
            let nv = precision.quantize(op.apply(v, srf));
            self.queues[d as usize].push(r, c, nv);
        }
        self.stats.lane_ops += k as u64;
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    /// SpVDV between registers: pop up to `lanes` elements of `src0`, pair
    /// them positionally with the dense register `src1` (the gather buffer
    /// IndMOV filled), push results into the destination queue. The index
    /// calculator drops sentinel-padded elements (§V).
    fn exec_spvdv_regs(
        &mut self,
        dst: Operand,
        src0: Operand,
        src1: Operand,
        op: BinaryOp,
        _set: SetMode,
        precision: Precision,
    ) -> ExecOutcome {
        let (Operand::SpVq(d), Operand::SpVq(s)) = (dst, src0) else {
            self.pc += 1;
            return ExecOutcome::Done(1);
        };
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        let k = self.queues[s as usize].len().min(lanes);
        if k > 0 && !self.queues[d as usize].can_push(k, elem_bytes) {
            return ExecOutcome::Stall;
        }
        // The dense operand; lanes past a short register read as 0.0.
        let mut dense = [0.0f64; MAX_LANES];
        match src1 {
            Operand::Drf(i) => {
                let dv = &self.drf[i as usize];
                dense[..dv.len()].copy_from_slice(dv);
            }
            Operand::Srf => dense[..lanes].fill(self.srf),
            _ => {}
        }
        for &b in &dense[..k] {
            let (r, c, v) = self.queues[s as usize].pop().expect("len checked");
            if r == SENTINEL || c == SENTINEL {
                continue; // index calculator skips padding
            }
            let nv = precision.quantize(op.apply(v, b));
            self.queues[d as usize].push(r, c, nv);
        }
        self.stats.lane_ops += k as u64;
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    /// Element-wise sparse-sparse with union/intersection index matching
    /// over the frontmost `lanes` window of each queue.
    fn exec_spvspv(
        &mut self,
        dst: Operand,
        src0: Operand,
        src1: Operand,
        op: BinaryOp,
        set: SetMode,
        precision: Precision,
    ) -> ExecOutcome {
        let (Operand::SpVq(d), Operand::SpVq(a), Operand::SpVq(b)) = (dst, src0, src1) else {
            self.pc += 1;
            return ExecOutcome::Done(1);
        };
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        let ka = self.queues[a as usize].len().min(lanes);
        let kb = self.queues[b as usize].len().min(lanes);
        if (ka + kb > 0) && !self.queues[d as usize].can_push(ka + kb, elem_bytes) {
            return ExecOutcome::Stall;
        }
        // Pop both windows, dropping sentinel padding.
        let mut pop_window = |q: usize, k: usize| {
            let mut w = [(0.0f64, 0.0f64, 0.0f64); MAX_LANES];
            let mut n = 0usize;
            for _ in 0..k {
                let (r, c, v) = self.queues[q].pop().expect("len checked");
                if r != SENTINEL && c != SENTINEL {
                    w[n] = (r, c, v);
                    n += 1;
                }
            }
            (w, n)
        };
        let (wa, na) = pop_window(a as usize, ka);
        let (wb, nb) = pop_window(b as usize, kb);
        let (wa, wb) = (&wa[..na], &wb[..nb]);
        let out = &mut self.queues[d as usize];
        let union = set == SetMode::Union;
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            match (wa.get(i), wb.get(j)) {
                (Some(&(ra, ca, va)), Some(&(rb, cb, vb))) => {
                    use std::cmp::Ordering;
                    match (ra, ca).partial_cmp(&(rb, cb)).unwrap_or(Ordering::Equal) {
                        Ordering::Equal => {
                            out.push(ra, ca, precision.quantize(op.apply(va, vb)));
                            i += 1;
                            j += 1;
                        }
                        Ordering::Less => {
                            if union {
                                out.push(ra, ca, precision.quantize(op.apply(va, op.identity())));
                            }
                            i += 1;
                        }
                        Ordering::Greater => {
                            if union {
                                out.push(rb, cb, precision.quantize(op.apply(op.identity(), vb)));
                            }
                            j += 1;
                        }
                    }
                }
                (Some(&(ra, ca, va)), None) => {
                    if union {
                        out.push(ra, ca, precision.quantize(va));
                    }
                    i += 1;
                }
                (None, Some(&(rb, cb, vb))) => {
                    if union {
                        out.push(rb, cb, precision.quantize(vb));
                    }
                    j += 1;
                }
                (None, None) => break,
            }
        }
        self.stats.lane_ops += (ka + kb) as u64;
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    /// Execute `ins`, the memory instruction at the program counter,
    /// against its slot's `shape`.
    fn exec_memory(
        &mut self,
        ins: &Instruction,
        shape: &SlotShape,
        mem: &mut BankMemory,
    ) -> ExecOutcome {
        let slot = self.pc;
        let region = shape.region;
        match *ins {
            Instruction::Dmov {
                dst,
                src,
                precision,
            } => {
                let lanes = precision.lanes();
                let cur = self.cursors[slot];
                match (dst, src) {
                    (Operand::Drf(d), Operand::Bank) => {
                        let r = mem.read(region, cur..cur + lanes);
                        let dv = &mut self.drf[d as usize];
                        dv.clear();
                        dv.extend((0..lanes).map(|i| r.get(cur + i)));
                        self.cursors[slot] += shape.stride.unwrap_or(lanes);
                    }
                    (Operand::Srf, Operand::Bank) => {
                        self.srf = mem.read(region, cur..cur + 1).get(cur);
                        self.cursors[slot] += shape.stride.unwrap_or(1);
                    }
                    (Operand::Bank, Operand::Drf(d)) => {
                        let mut r = mem.write(region);
                        for (i, v) in self.drf[d as usize].iter().enumerate().take(lanes) {
                            r.set(cur + i, precision.quantize(*v));
                        }
                        self.cursors[slot] += shape.stride.unwrap_or(lanes);
                    }
                    (Operand::Bank, Operand::Srf) => {
                        mem.write(region).set(cur, precision.quantize(self.srf));
                        self.cursors[slot] += shape.stride.unwrap_or(1);
                    }
                    _ => unreachable!("non-bank DMOV routed to exec_free"),
                }
                ExecOutcome::Done(1)
            }
            Instruction::SpMov {
                dst,
                src,
                sub,
                precision,
            } => self.exec_spmov(dst, src, sub, precision, shape, mem),
            Instruction::IndMov {
                dst,
                idx_queue,
                precision,
            } => {
                let mut cols = [0.0f64; MAX_LANES];
                let k =
                    self.queues[idx_queue as usize].peek_cols_into(precision.lanes(), &mut cols);
                // Sentinel lanes gather 0.0 without touching the bank, so
                // a padding-only gather reads nothing.
                let (lo, hi) = cols[..k]
                    .iter()
                    .filter(|&&c| c != SENTINEL)
                    .fold((usize::MAX, 0), |(lo, hi), &c| {
                        (lo.min(c as usize), hi.max(c as usize + 1))
                    });
                let r = (lo < hi).then(|| mem.read(region, lo..hi));
                let gather = |c: f64| match r {
                    Some(r) if c != SENTINEL => r.get(c as usize),
                    _ => 0.0,
                };
                match dst {
                    Operand::Drf(d) => {
                        let dv = &mut self.drf[d as usize];
                        dv.clear();
                        dv.extend(cols[..k].iter().map(|&c| gather(c)));
                    }
                    Operand::Srf => self.srf = cols[..k].first().map_or(0.0, |&c| gather(c)),
                    _ => {}
                }
                let k = k as u64;
                self.stats.lane_ops += k;
                if k == 0 {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(k)
                }
            }
            Instruction::SpFw { src, precision } => {
                let mut cur = self.cursors[slot];
                let start = cur;
                while let Some((r, c, v)) = self.queues[src as usize].pop() {
                    let mut reg = mem.write(region);
                    reg.set(cur, r);
                    reg.set(cur + 1, c);
                    reg.set(cur + 2, precision.quantize(v));
                    cur += 3;
                }
                self.cursors[slot] = cur;
                if cur == start {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(1)
                }
            }
            Instruction::GthSct {
                dst,
                src,
                identity,
                precision,
            } => self.exec_gthsct(dst, src, identity, precision, shape, mem),
            Instruction::SpVdv {
                dst: Operand::Bank,
                src0: Operand::SpVq(s),
                op,
                precision,
                ..
            } => {
                // Scatter-accumulate into the open output row at each
                // element's row index (the SpMV/SpTRSV write-back).
                // The output row is fetched only when the burst holds a
                // real element, so a burst of padding stores nothing.
                let lanes = precision.lanes();
                let k = self.queues[s as usize].len().min(lanes);
                let mut out = self.queues[s as usize]
                    .front_rows(k)
                    .any(|r| r != SENTINEL)
                    .then(|| mem.write(region));
                let mut touched = 0u64;
                for _ in 0..k {
                    let (r, _c, v) = self.queues[s as usize].pop().expect("len checked");
                    match out.as_mut() {
                        Some(reg) if r != SENTINEL => {
                            let idx = r as usize;
                            let old = reg.get(idx);
                            reg.set(idx, precision.quantize(op.apply(v, old)));
                            touched += 1;
                        }
                        _ => {}
                    }
                }
                self.stats.lane_ops += touched;
                if k == 0 {
                    ExecOutcome::DoneEmpty(2)
                } else {
                    ExecOutcome::Done(2)
                }
            }
            Instruction::SpVdv {
                dst: Operand::SpVq(d),
                src0: Operand::SpVq(s),
                src1: Operand::Bank,
                op,
                precision,
                ..
            } => {
                // Queue ⊙ dense bank stream -> queue (the literal
                // "SpVQ0 ⊕ Bank" form of Algorithm 2).
                let lanes = precision.lanes();
                let elem_bytes = precision.bytes();
                let k = self.queues[s as usize].len().min(lanes);
                if k > 0 && !self.queues[d as usize].can_push(k, elem_bytes) {
                    return ExecOutcome::Stall;
                }
                let cur = self.cursors[slot];
                let mut dense = [0.0f64; MAX_LANES];
                let r = mem.read(region, cur..cur + k);
                for (i, dv) in dense.iter_mut().enumerate().take(k) {
                    *dv = r.get(cur + i);
                }
                self.cursors[slot] += shape.stride.unwrap_or(lanes);
                for &b in &dense[..k] {
                    let (r, c, v) = self.queues[s as usize].pop().expect("len checked");
                    if r == SENTINEL || c == SENTINEL {
                        continue;
                    }
                    self.queues[d as usize].push(r, c, precision.quantize(op.apply(v, b)));
                }
                self.stats.lane_ops += k as u64;
                if k == 0 {
                    ExecOutcome::DoneEmpty(2)
                } else {
                    ExecOutcome::Done(2)
                }
            }
            _ => {
                debug_assert!(false, "unexpected memory instruction {ins:?}");
                ExecOutcome::Done(1)
            }
        }
    }

    fn exec_spmov(
        &mut self,
        dst: Operand,
        src: Operand,
        sub: SubQueue,
        precision: Precision,
        shape: &SlotShape,
        mem: &mut BankMemory,
    ) -> ExecOutcome {
        let slot = self.pc;
        let region = shape.region;
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        match (dst, src) {
            (Operand::SpVq(q), Operand::Bank) => {
                let cur = self.cursors[slot];
                let r = mem.read(region, cur..cur + lanes);
                if cur >= r.len() {
                    // Region drained: arm the conditional exit, consume the
                    // command as a no-op.
                    self.exit_armed = true;
                    return ExecOutcome::DoneEmpty(1);
                }
                if !self.queues[q as usize].sub_can_push(sub, lanes, elem_bytes) {
                    return ExecOutcome::Stall;
                }
                let mut saw_sentinel = false;
                for i in 0..lanes {
                    let v = r.get(cur + i);
                    if (sub == SubQueue::Row || sub == SubQueue::Col) && v == SENTINEL {
                        saw_sentinel = true;
                    }
                    self.queues[q as usize].push_sub(sub, v);
                }
                self.cursors[slot] += shape.stride.unwrap_or(lanes);
                if saw_sentinel {
                    self.exit_armed = true;
                }
                ExecOutcome::Done(1)
            }
            (Operand::Bank, Operand::SpVq(q)) => {
                let mut cur = self.cursors[slot];
                let start = cur;
                for _ in 0..lanes {
                    let Some(v) = self.queues[q as usize].pop_sub(sub) else {
                        break;
                    };
                    mem.write(region).set(cur, precision.quantize(v));
                    cur += 1;
                }
                self.cursors[slot] = cur;
                if cur == start {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(1)
                }
            }
            _ => ExecOutcome::Done(1),
        }
    }

    fn exec_gthsct(
        &mut self,
        dst: Operand,
        src: Operand,
        identity: Identity,
        precision: Precision,
        shape: &SlotShape,
        mem: &mut BankMemory,
    ) -> ExecOutcome {
        let slot = self.pc;
        let region = shape.region;
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        match (dst, src) {
            // Gather: dense region -> sparse queue.
            (Operand::SpVq(q), Operand::Bank) => {
                let cur = self.cursors[slot];
                let r = mem.read(region, cur..cur + lanes);
                if cur >= r.len() {
                    self.exit_armed = true;
                    return ExecOutcome::DoneEmpty(1);
                }
                if !self.queues[q as usize].can_push(lanes, elem_bytes) {
                    return ExecOutcome::Stall;
                }
                for i in 0..lanes {
                    if cur + i >= r.len() {
                        break;
                    }
                    let v = r.get(cur + i);
                    if v != identity.value() {
                        self.queues[q as usize].push(0.0, (cur + i) as f64, v);
                        self.stats.lane_ops += 1;
                    }
                }
                self.cursors[slot] += shape.stride.unwrap_or(lanes);
                ExecOutcome::Done(1)
            }
            // Scatter: sparse queue -> dense region at the col index.
            (Operand::Bank, Operand::SpVq(q)) => {
                let mut popped = 0usize;
                for _ in 0..lanes {
                    let Some((_r, c, v)) = self.queues[q as usize].pop() else {
                        break;
                    };
                    popped += 1;
                    if c == SENTINEL {
                        continue;
                    }
                    mem.write(region).set(c as usize, precision.quantize(v));
                    self.stats.lane_ops += 1;
                }
                if popped == 0 {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(1)
                }
            }
            _ => ExecOutcome::Done(1),
        }
    }
}

enum ExecOutcome {
    /// Executed; PU-cycle cost.
    Done(u64),
    /// Executed, but the source stream/queue was empty — the command was
    /// consumed as a no-op burst (queue-empty stall for attribution).
    DoneEmpty(u64),
    /// Predicate failed; retry on a later command.
    Stall,
}

impl Program {
    /// The control-register capacity (helper for the step bound).
    #[must_use]
    pub fn len_limit() -> usize {
        crate::isa::program::MAX_PROGRAM_LEN
    }
}

#[cfg(test)]
mod tests;
