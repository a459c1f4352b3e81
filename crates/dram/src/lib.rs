//! Cycle-level HBM2 DRAM simulator for the pSyncPIM reproduction.
//!
//! The paper modifies DRAMsim3 to support all-bank PIM; this crate rebuilds
//! the subset that pSyncPIM's results depend on:
//!
//! * the Table VII memory organization ([`HbmConfig`]): 16 pseudo-channels
//!   × 4 bank groups × 4 banks, 16,384 rows of 1 KB, 1 GHz command clock,
//! * per-bank state machines with JEDEC-style timing constraints
//!   (tRCD/tRP/tRAS/tCCD/tRRD/tFAW/tWR/tRTP, read/write latencies),
//! * *all-bank* command scope: one ACT/RD/WR/PRE drives every bank in a
//!   pseudo-channel simultaneously (the HBM-PIM/AiM execution model),
//! * per-bank scope with the channel command-bus limit (2 commands/cycle)
//!   that makes the per-bank PIM baseline slow (paper Figure 3),
//! * the length of Figure 1's SB → AB → AB-PIM mode-switch sequences
//!   ([`mode::SWITCH_SEQUENCE_LEN`]), which the engine issues as MRS commands,
//! * command/energy accounting for Figures 3 and 14.
//!
//! # Example
//!
//! ```
//! use psim_dram::{Channel, CmdKind, HbmConfig, Scope};
//!
//! let cfg = HbmConfig::default();
//! let mut ch = Channel::new(&cfg);
//! let t0 = ch.earliest(Scope::AllBanks, CmdKind::Act { row: 3 }, 0);
//! let issued = ch.issue(Scope::AllBanks, CmdKind::Act { row: 3 }, t0).unwrap();
//! assert_eq!(issued.issue_cycle, t0);
//! ```

pub mod bank;
pub mod channel;
pub mod checker;
pub mod command;
pub mod config;
pub mod fastab;
pub mod mode;
pub mod power;
pub mod stats;

pub use bank::Bank;
pub use channel::{Channel, IssueError, Issued};
pub use checker::{CheckPolicy, CheckReport, ProtocolChecker, Rule, Violation};
pub use command::{CmdClass, CmdKind, Scope};
pub use config::{HbmConfig, Timing};
pub use fastab::AbChannel;
pub use power::{EnergyModel, EnergyStats};
pub use stats::ChannelStats;
