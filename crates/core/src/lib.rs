//! pSyncPIM core: the partially synchronous all-bank PIM architecture.
//!
//! This crate implements the paper's primary contribution:
//!
//! * the 15-instruction PIM [`isa`] with its two 32-bit encodings (B/C
//!   formats, paper Figure 5 and Table IV) plus a text assembler,
//! * the per-bank processing unit ([`pu`]): 32-entry control register,
//!   scalar register, 3 × 32 B dense vector registers, 3 × 192 B sparse
//!   vector queues, a multi-precision 256-bit VALU with an index calculator
//!   (union/intersection skip logic), per-JUMP loop counters, predicated
//!   execution and conditional exit (paper §IV),
//! * the bank [`memory`] model (named data regions spanning DRAM rows),
//! * the partially synchronous [`engine`]: an all-bank command loop where
//!   every column command steps every PU in lockstep while each PU may
//!   predicate off or exit early; a per-bank variant reproduces the PB
//!   baseline (paper §III-B),
//! * the [`host`] controller: the external-bus ledger for vector
//!   broadcast and partial-output accumulation (the engine itself issues
//!   the SB/AB/AB-PIM mode switches, kernel programming and completion
//!   polling as bus commands),
//! * the Table X [`area`] model.
//!
//! # Example
//!
//! ```
//! use psyncpim_core::isa::{Instruction, Program};
//!
//! let prog = Program::new(vec![
//!     Instruction::Nop,
//!     Instruction::Exit,
//! ]).unwrap();
//! assert_eq!(prog.len(), 2);
//! ```

pub mod area;
pub mod engine;
pub mod error;
pub mod host;
pub mod isa;
pub mod memory;
pub mod pu;
pub mod stats;
pub mod trace;

pub use engine::{take_engine_wall_s, Engine, EngineConfig, EngineTier, ExecMode, RunReport};
pub use error::CoreError;
pub use host::HostController;
pub use memory::{AllocMark, BankMemory, Region, RegionId};
pub use pu::{Kernel, ProcessingUnit, StepOutcome};
pub use stats::{Histogram, PuStats};
pub use trace::{Category, ChannelMetrics, CycleBreakdown, MetricsRegistry, StallEvent};
