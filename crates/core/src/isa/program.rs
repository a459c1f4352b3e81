//! Program container and static analysis.
//!
//! A program is at most 32 instructions (the control-register size of
//! Table VIII). The host derives its per-iteration *command schedule* from
//! the program: the dynamic order of memory-instruction slots in one pass
//! of the outermost loop, with inner loops unrolled by their ORDER'd jump
//! counts. In AB-PIM mode the host replays that schedule every round until
//! all processing units report exit (paper §IV-D "Conditional Exit").

use super::Instruction;
use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Maximum instructions in the control register (Table VIII: 4 B × 32).
pub const MAX_PROGRAM_LEN: usize = 32;

/// A validated PIM kernel program.
///
/// Immutable once built, so clones share one instruction list: an engine
/// hands the same program to every processing unit without copying it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    instrs: Arc<[Instruction]>,
}

impl Program {
    /// Validate and wrap an instruction list.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ProgramTooLong`] beyond 32 instructions,
    /// * [`CoreError::Encode`] for jump targets outside the program or
    ///   programs with no terminator (no `EXIT`, `CEXIT`, or backward jump).
    pub fn new(instrs: Vec<Instruction>) -> Result<Self, CoreError> {
        if instrs.len() > MAX_PROGRAM_LEN {
            return Err(CoreError::ProgramTooLong { len: instrs.len() });
        }
        if instrs.is_empty() {
            return Err(CoreError::Encode("empty program".to_string()));
        }
        let mut has_terminator = false;
        for (i, ins) in instrs.iter().enumerate() {
            match *ins {
                Instruction::Jump { target, .. } => {
                    if target as usize >= instrs.len() {
                        return Err(CoreError::Encode(format!(
                            "jump at {i} targets {target} beyond program end"
                        )));
                    }
                    if (target as usize) <= i {
                        has_terminator = true; // backward jump = loop
                    }
                }
                Instruction::Exit | Instruction::CExit { .. } => has_terminator = true,
                _ => {}
            }
        }
        if !has_terminator && instrs.len() == MAX_PROGRAM_LEN {
            return Err(CoreError::Encode(
                "program has no EXIT/CEXIT/loop and fills the control register".to_string(),
            ));
        }
        Ok(Program {
            instrs: instrs.into(),
        })
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty (never true for a validated program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Borrow the instructions.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Instruction at a slot.
    #[must_use]
    pub fn get(&self, slot: usize) -> Option<&Instruction> {
        self.instrs.get(slot)
    }

    /// Encode the whole program to machine words (what the host writes into
    /// the control registers).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Encode`] from any instruction.
    pub fn encode(&self) -> Result<Vec<u32>, CoreError> {
        self.instrs.iter().map(Instruction::encode).collect()
    }

    /// Decode a program from machine words.
    ///
    /// # Errors
    ///
    /// Propagates decode/validation failures.
    pub fn decode(words: &[u32]) -> Result<Program, CoreError> {
        let instrs = words
            .iter()
            .map(|&w| Instruction::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Program::new(instrs)
    }

    /// Whether the program ends in an unbounded loop terminated only by
    /// CEXIT (the sparse-kernel shape of Algorithm 2).
    #[must_use]
    pub fn is_conditional_loop(&self) -> bool {
        self.instrs.iter().any(|i| matches!(i, Instruction::CExit { .. }))
            && self.instrs.iter().enumerate().any(|(i, ins)| {
                matches!(ins, Instruction::Jump { target, count: 0, .. } if (*target as usize) <= i)
            })
    }

    /// The host command schedule for one outer-loop iteration: memory
    /// instruction slots in dynamic execution order, inner loops unrolled.
    ///
    /// The walk follows jumps with their counters; it stops at `EXIT`, at
    /// the end of the program, or when a zero-count (unconditional) backward
    /// jump closes the outermost loop.
    ///
    /// # Errors
    ///
    /// [`CoreError::Execution`] if the walk exceeds a safety bound
    /// (malformed loop nest).
    pub fn command_schedule(&self) -> Result<Vec<usize>, CoreError> {
        const MAX_STEPS: usize = 1_000_000;
        let mut schedule = Vec::new();
        let mut counters = [0u32; MAX_PROGRAM_LEN];
        let mut pc = 0usize;
        let mut steps = 0usize;
        while pc < self.instrs.len() {
            steps += 1;
            if steps > MAX_STEPS {
                return Err(CoreError::Execution(
                    "command-schedule walk exceeded bound; malformed loop nest?".to_string(),
                ));
            }
            let ins = &self.instrs[pc];
            if ins.is_memory() {
                schedule.push(pc);
            }
            match *ins {
                Instruction::Exit => break,
                Instruction::Jump {
                    target,
                    order,
                    count,
                } => {
                    if count == 0 {
                        if (target as usize) <= pc {
                            // Outermost unconditional loop: one iteration done.
                            break;
                        }
                        pc = target as usize; // unconditional forward jump
                    } else {
                        // Mirror the PU's counter semantics exactly: the
                        // jump is taken `count` times, then falls through.
                        let ctr = &mut counters[order as usize];
                        *ctr += 1;
                        if *ctr <= u32::from(count) {
                            pc = target as usize;
                        } else {
                            *ctr = 0;
                            pc += 1;
                        }
                    }
                    continue;
                }
                _ => {}
            }
            pc += 1;
        }
        Ok(schedule)
    }
}

impl std::ops::Index<usize> for Program {
    type Output = Instruction;
    fn index(&self, slot: usize) -> &Instruction {
        &self.instrs[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand, SubQueue};
    use psim_sparse::Precision;

    fn load(q: u8) -> Instruction {
        Instruction::SpMov {
            dst: Operand::SpVq(q),
            src: Operand::Bank,
            sub: SubQueue::Val,
            precision: Precision::Fp64,
        }
    }

    fn store() -> Instruction {
        Instruction::Dmov {
            dst: Operand::Bank,
            src: Operand::Drf(0),
            precision: Precision::Fp64,
        }
    }

    #[test]
    fn straight_line_schedule() {
        let p = Program::new(vec![load(0), store(), Instruction::Exit]).unwrap();
        assert_eq!(p.command_schedule().unwrap(), vec![0, 1]);
        assert!(!p.is_conditional_loop());
    }

    #[test]
    fn infinite_loop_schedule_is_one_iteration() {
        // Algorithm 2 shape: loop { load; store; cexit } forever.
        let p = Program::new(vec![
            load(0),
            store(),
            Instruction::CExit { queue: 0 },
            Instruction::Jump {
                target: 0,
                order: 0,
                count: 0,
            },
        ])
        .unwrap();
        assert!(p.is_conditional_loop());
        assert_eq!(p.command_schedule().unwrap(), vec![0, 1]);
    }

    #[test]
    fn inner_loop_unrolls() {
        // load; (store ×3 via jump count 2); exit
        let p = Program::new(vec![
            load(0),
            store(),
            Instruction::Jump {
                target: 1,
                order: 1,
                count: 2,
            },
            Instruction::Exit,
        ])
        .unwrap();
        // store executes 3 times (2 jumps back).
        assert_eq!(p.command_schedule().unwrap(), vec![0, 1, 1, 1]);
    }

    #[test]
    fn nested_loops_use_separate_orders() {
        // outer ×2 { load; inner ×2 { store } }
        let p = Program::new(vec![
            load(0), // 0
            store(), // 1
            Instruction::Jump {
                target: 1,
                order: 1,
                count: 1,
            }, // 2: inner
            Instruction::Jump {
                target: 0,
                order: 2,
                count: 1,
            }, // 3: outer
            Instruction::Exit, // 4
        ])
        .unwrap();
        assert_eq!(p.command_schedule().unwrap(), vec![0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn validation_rejects_bad_programs() {
        assert!(Program::new(vec![]).is_err());
        assert!(Program::new(vec![Instruction::Nop; 33]).is_err());
        assert!(Program::new(vec![Instruction::Jump {
            target: 9,
            order: 0,
            count: 0
        }])
        .is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Program::new(vec![
            load(1),
            Instruction::CExit { queue: 1 },
            Instruction::Jump {
                target: 0,
                order: 0,
                count: 0,
            },
        ])
        .unwrap();
        let words = p.encode().unwrap();
        assert_eq!(words.len(), 3);
        assert_eq!(Program::decode(&words).unwrap(), p);
    }

    #[test]
    fn index_access() {
        let p = Program::new(vec![load(0), Instruction::Exit]).unwrap();
        assert_eq!(p[1], Instruction::Exit);
        assert_eq!(p.get(5), None);
        assert_eq!(p.len(), 2);
    }
}
