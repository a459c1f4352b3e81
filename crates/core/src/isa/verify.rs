//! psim-lint: static verification of PIM programs.
//!
//! A hand-written pSyncPIM kernel that is wrong in a *structural* way — an
//! out-of-range JUMP, a loop ORDER shared by two live loops, a queue that
//! is read but never filled — does not fail loudly on the device: it hangs
//! in lockstep or silently produces a wrong answer, and on-PIM failures
//! are undebuggable from the host. This module rejects such programs
//! before cycle 0, the static half of the repo's two-sided validation
//! story (the dynamic half is the `psim_dram::ProtocolChecker` replay of
//! PR 2).
//!
//! Three passes over the instruction list:
//!
//! 1. **Structural / control-flow** ([`cfg`]): per-slot field range checks
//!    (jump targets, the 32-entry loop-counter file, queue ids 0–2,
//!    register indices), the control-flow graph implied by
//!    `JUMP`/`EXIT`/`CEXIT`, reachability, exit-path analysis (every
//!    reachable instruction must reach `EXIT`/`CEXIT` or the program end;
//!    the unbounded `CEXIT` loop of Algorithm 2 is the intentional
//!    exception and needs no special casing — `CEXIT` *is* an exit edge),
//!    and live loop-ORDER reuse across overlapping loops.
//! 2. **Abstract interpretation** ([`absint`]): a worklist fixpoint over
//!    the dataflow — DRF read-before-write, sparse-queue depth intervals
//!    per sub-queue (statically guaranteed underflow = a consumer that can
//!    never see data, statically guaranteed overflow = a push that must
//!    stall forever; predication makes pops *optional*, so only
//!    impossibilities are errors), and precision consistency along
//!    def-use chains.
//! 3. **Partial-synchrony** ([`psync`]): loop-level hazards of the
//!    execution model itself — unbounded loops with no memory lockstep
//!    point (`PSL014`), gather-freshness / fused-SpMM cross-read
//!    violations (`PSL015`), and `CEXIT` loops whose watched queue can
//!    never drain (`PSL016`).
//!
//! Severity policy: **Error** marks programs the processing unit cannot
//! execute meaningfully (panic, hang, or a guaranteed no-op data path);
//! **Warning** marks legal-but-suspicious shapes (unreachable code, a path
//! that falls off the end, reads of maybe-uninitialized registers, mixed
//! precisions). Every shipped kernel builder lints completely clean — the
//! `psim_lint` CI gate keeps it that way.

mod absint;
mod cfg;
mod psync;

#[cfg(test)]
mod tests;

use super::{Instruction, Operand, Program};
use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Legal but suspicious; the program still executes deterministically.
    Warning,
    /// The program cannot execute meaningfully (panic, hang, or a
    /// guaranteed-dead data path). Validate mode refuses these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable lint codes (`PSL001`–`PSL016`). The number is the contract:
/// tests, CI output and the JSON summary key on it, so codes are never
/// renumbered — only appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// `PSL001` — JUMP target outside the program.
    JumpTargetRange,
    /// `PSL002` — JUMP ORDER outside the 32-entry loop-counter file
    /// (the PU indexes `loop_counters[order]`; ≥ 32 panics).
    OrderRange,
    /// `PSL003` — JUMP count beyond the 10-bit Imm1 field.
    CountRange,
    /// `PSL004` — a sparse-queue id outside 0–2 (`CEXIT`, `SpFW`,
    /// `IndMOV`).
    QueueIdRange,
    /// `PSL005` — a register operand index outside the file
    /// (`DRF0..2`, `SPVQ0..2`).
    RegIndexRange,
    /// `PSL006` — one live loop ORDER shared by two overlapping loops:
    /// the inner loop clobbers the outer counter (paper §IV-F).
    OrderReuse,
    /// `PSL007` — a reachable instruction from which no `EXIT`/`CEXIT`/
    /// program end is reachable: the kernel can never terminate.
    NoExitPath,
    /// `PSL008` — an instruction no execution path reaches.
    Unreachable,
    /// `PSL009` — a path falls off the program end without `EXIT`/`CEXIT`
    /// (the PU treats it as an exit, but it is almost always an oversight).
    ImplicitExit,
    /// `PSL010` — a DRF read on a path where it was never written.
    ReadBeforeWrite,
    /// `PSL011` — a queue consumer that can never observe data: the
    /// instruction is a guaranteed no-op (predication makes empty pops
    /// legal at runtime, which is exactly why this is only visible
    /// statically).
    QueueUnderflow,
    /// `PSL012` — a queue push guaranteed to exceed the 64 B sub-queue:
    /// the PU stalls forever (nothing can drain the queue while the
    /// program counter is blocked on the push).
    QueueOverflow,
    /// `PSL013` — a value produced at one precision and consumed at
    /// another along a def-use chain.
    PrecisionMismatch,
    /// `PSL014` — an unbounded loop (`JUMP` count 0) containing no memory
    /// instruction: banks never re-align at the controller and
    /// partial-synchrony phase drift is unbounded.
    PhaseDivergence,
    /// `PSL015` — a gather-freshness violation: an `INDMOV` gather is
    /// clobbered unconsumed, combined against a different queue than it
    /// was indexed through (fused SpMM cross-read), or combined after the
    /// queue advanced past the gathered segment.
    FusionSafety,
    /// `PSL016` — a reachable `CEXIT` inside a loop that pushes its
    /// watched queue but never drains it: the exit condition is
    /// unsatisfiable and the bank spins forever.
    CExitTermination,
}

/// Every lint code, for sweeps and reporting.
pub const ALL_LINT_CODES: [LintCode; 16] = [
    LintCode::JumpTargetRange,
    LintCode::OrderRange,
    LintCode::CountRange,
    LintCode::QueueIdRange,
    LintCode::RegIndexRange,
    LintCode::OrderReuse,
    LintCode::NoExitPath,
    LintCode::Unreachable,
    LintCode::ImplicitExit,
    LintCode::ReadBeforeWrite,
    LintCode::QueueUnderflow,
    LintCode::QueueOverflow,
    LintCode::PrecisionMismatch,
    LintCode::PhaseDivergence,
    LintCode::FusionSafety,
    LintCode::CExitTermination,
];

impl LintCode {
    /// The stable code string.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::JumpTargetRange => "PSL001",
            LintCode::OrderRange => "PSL002",
            LintCode::CountRange => "PSL003",
            LintCode::QueueIdRange => "PSL004",
            LintCode::RegIndexRange => "PSL005",
            LintCode::OrderReuse => "PSL006",
            LintCode::NoExitPath => "PSL007",
            LintCode::Unreachable => "PSL008",
            LintCode::ImplicitExit => "PSL009",
            LintCode::ReadBeforeWrite => "PSL010",
            LintCode::QueueUnderflow => "PSL011",
            LintCode::QueueOverflow => "PSL012",
            LintCode::PrecisionMismatch => "PSL013",
            LintCode::PhaseDivergence => "PSL014",
            LintCode::FusionSafety => "PSL015",
            LintCode::CExitTermination => "PSL016",
        }
    }

    /// Severity is a property of the code, not the site.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            LintCode::JumpTargetRange
            | LintCode::OrderRange
            | LintCode::CountRange
            | LintCode::QueueIdRange
            | LintCode::RegIndexRange
            | LintCode::OrderReuse
            | LintCode::NoExitPath
            | LintCode::QueueUnderflow
            | LintCode::QueueOverflow
            | LintCode::PhaseDivergence
            | LintCode::FusionSafety
            | LintCode::CExitTermination => Severity::Error,
            LintCode::Unreachable
            | LintCode::ImplicitExit
            | LintCode::ReadBeforeWrite
            | LintCode::PrecisionMismatch => Severity::Warning,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: instruction slot, stable code, human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Instruction slot the finding anchors to.
    pub slot: usize,
    /// Stable lint code.
    pub code: LintCode,
    /// What is wrong, in terms of the program text.
    pub message: String,
}

impl Diagnostic {
    fn new(slot: usize, code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            slot,
            code,
            message: message.into(),
        }
    }

    /// Error or Warning, derived from the code.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] slot {}: {}",
            self.severity(),
            self.code,
            self.slot,
            self.message
        )
    }
}

/// Lint a raw instruction list (the pre-[`Program`] surface: corpus tests
/// and tooling lint shapes `Program::new` would already reject).
#[must_use]
pub fn lint(instrs: &[Instruction]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    range_checks(instrs, &mut diags);
    let graph = cfg::Cfg::build(instrs);
    graph.check(instrs, &mut diags);
    order_reuse(instrs, &mut diags);
    absint::check(instrs, &graph, &mut diags);
    psync::check(instrs, &graph, &mut diags);
    diags.sort_by_key(|d| (d.slot, d.code.code()));
    diags
}

impl Program {
    /// Run psim-lint over the program: control-flow checks plus the
    /// worklist abstract interpretation. Diagnostics are ordered by slot.
    #[must_use]
    pub fn verify(&self) -> Vec<Diagnostic> {
        lint(self.instructions())
    }
}

/// A program that passed verification with no Error-level diagnostics.
///
/// The newtype is the API contract between the layers: kernels fetch
/// their programs already verified (once per process, from
/// `psim_kernels::programs`), the engine loads one without linting it
/// again and refuses any raw program that cannot become one under
/// validation, and the scheduler fails jobs whose programs cannot be
/// verified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifiedProgram {
    program: Program,
    warnings: Vec<Diagnostic>,
}

impl VerifiedProgram {
    /// Verify a program, keeping Warning-level findings.
    ///
    /// # Errors
    ///
    /// [`CoreError::Verify`] carrying every Error-level diagnostic.
    pub fn new(program: Program) -> Result<Self, CoreError> {
        let mut warnings = program.verify();
        let errors: Vec<Diagnostic> = warnings
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .cloned()
            .collect();
        if !errors.is_empty() {
            return Err(CoreError::Verify {
                diagnostics: errors,
            });
        }
        warnings.retain(|d| d.severity() == Severity::Warning);
        Ok(VerifiedProgram { program, warnings })
    }

    /// The verified program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Warning-level findings that did not block verification.
    #[must_use]
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// Unwrap back into the plain program.
    #[must_use]
    pub fn into_program(self) -> Program {
        self.program
    }
}

impl std::ops::Deref for VerifiedProgram {
    type Target = Program;
    fn deref(&self) -> &Program {
        &self.program
    }
}

impl From<VerifiedProgram> for Program {
    fn from(v: VerifiedProgram) -> Program {
        v.program
    }
}

impl TryFrom<Program> for VerifiedProgram {
    type Error = CoreError;
    fn try_from(p: Program) -> Result<Self, CoreError> {
        VerifiedProgram::new(p)
    }
}

// ---- pass 1a: per-slot field ranges ------------------------------------

/// Registers and queues referenced by one instruction (for range checks).
fn operands_of(ins: &Instruction) -> Vec<Operand> {
    match *ins {
        Instruction::Nop
        | Instruction::Jump { .. }
        | Instruction::Exit
        | Instruction::CExit { .. }
        | Instruction::SpFw { .. } => Vec::new(),
        Instruction::IndMov { dst, .. } => vec![dst],
        Instruction::Dmov { dst, src, .. }
        | Instruction::SpMov { dst, src, .. }
        | Instruction::GthSct { dst, src, .. }
        | Instruction::Sdv { dst, src, .. }
        | Instruction::SSpv { dst, src, .. } => vec![dst, src],
        Instruction::Reduce { src, .. } => vec![src],
        Instruction::Dvdv {
            dst, src0, src1, ..
        }
        | Instruction::SpVdv {
            dst, src0, src1, ..
        }
        | Instruction::SpVSpv {
            dst, src0, src1, ..
        } => vec![dst, src0, src1],
    }
}

fn range_checks(instrs: &[Instruction], diags: &mut Vec<Diagnostic>) {
    for (slot, ins) in instrs.iter().enumerate() {
        match *ins {
            Instruction::Jump {
                target,
                order,
                count,
            } => {
                if target as usize >= instrs.len() {
                    diags.push(Diagnostic::new(
                        slot,
                        LintCode::JumpTargetRange,
                        format!(
                            "JUMP targets slot {target} but the program ends at slot {}",
                            instrs.len().saturating_sub(1)
                        ),
                    ));
                }
                if order >= 32 {
                    diags.push(Diagnostic::new(
                        slot,
                        LintCode::OrderRange,
                        format!("JUMP ORDER {order} outside the 32-entry loop-counter file"),
                    ));
                }
                if count >= 1024 {
                    diags.push(Diagnostic::new(
                        slot,
                        LintCode::CountRange,
                        format!("JUMP count {count} beyond the 10-bit Imm1 field"),
                    ));
                }
            }
            Instruction::CExit { queue } if queue >= 3 => {
                diags.push(Diagnostic::new(
                    slot,
                    LintCode::QueueIdRange,
                    format!("CEXIT watches queue {queue}; only SPVQ0-2 exist"),
                ));
            }
            Instruction::IndMov { idx_queue, .. } if idx_queue >= 3 => {
                diags.push(Diagnostic::new(
                    slot,
                    LintCode::QueueIdRange,
                    format!("IndMOV indexes through queue {idx_queue}; only SPVQ0-2 exist"),
                ));
            }
            Instruction::SpFw { src, .. } if src >= 3 => {
                diags.push(Diagnostic::new(
                    slot,
                    LintCode::QueueIdRange,
                    format!("SpFW drains queue {src}; only SPVQ0-2 exist"),
                ));
            }
            _ => {}
        }
        for op in operands_of(ins) {
            match op {
                Operand::Drf(i) if i >= 3 => diags.push(Diagnostic::new(
                    slot,
                    LintCode::RegIndexRange,
                    format!("operand DRF{i} outside the 3-entry dense register file"),
                )),
                Operand::SpVq(i) if i >= 3 => diags.push(Diagnostic::new(
                    slot,
                    LintCode::RegIndexRange,
                    format!("operand SPVQ{i} outside the 3 sparse vector queues"),
                )),
                _ => {}
            }
        }
    }
}

// ---- pass 1b: live loop-ORDER reuse ------------------------------------

/// Two counted jumps sharing one ORDER whose loop bodies overlap clobber
/// each other's counter: the inner loop resets the outer count and the
/// nest executes the wrong number of iterations (paper §IV-F requires
/// distinct ORDERs per nesting level). Zero-count jumps use no counter.
fn order_reuse(instrs: &[Instruction], diags: &mut Vec<Diagnostic>) {
    let mut loops: Vec<(u8, usize, usize, usize)> = Vec::new(); // (order, lo, hi, slot)
    for (slot, ins) in instrs.iter().enumerate() {
        if let Instruction::Jump {
            target,
            order,
            count,
        } = *ins
        {
            if count > 0 && order < 32 {
                let t = target as usize;
                loops.push((order, t.min(slot), t.max(slot), slot));
            }
        }
    }
    for (i, &(order, lo, hi, slot)) in loops.iter().enumerate() {
        for &(order2, lo2, hi2, slot2) in &loops[..i] {
            if order == order2 && lo <= hi2 && lo2 <= hi {
                diags.push(Diagnostic::new(
                    slot,
                    LintCode::OrderReuse,
                    format!(
                        "ORDER {order} is live in the overlapping loop closed at slot {slot2} \
                         (bodies [{lo2}, {hi2}] and [{lo}, {hi}] share a counter)"
                    ),
                ));
            }
        }
    }
}
