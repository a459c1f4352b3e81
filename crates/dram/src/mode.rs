//! Execution-mode switching (paper Figure 1).
//!
//! HBM-PIM interoperates between three modes:
//!
//! * **SB** (single-bank): ordinary DRAM, host memory requests;
//! * **AB** (all-bank): one command drives all banks; the host programs PIM
//!   kernels into the control registers in this mode;
//! * **AB-PIM**: every column command additionally steps the programmed
//!   kernel in every processing unit.
//!
//! Legal transitions are `SB ↔ AB ↔ AB-PIM` (no direct SB ↔ AB-PIM edge),
//! so a launch switches SB → AB → AB-PIM before its kernel runs and
//! AB-PIM → AB → SB after it. Switches are performed with JEDEC-compatible
//! MRS-like command sequences. The exact sequences are not published; we
//! model each transition as a fixed run of [`SWITCH_SEQUENCE_LEN`] MRS
//! commands (a conservative cost). The engine issues these sequences and
//! the kernel program as MRS commands on the simulated bus, so they count
//! once, in kernel time, matching §VII-A: "the kernel execution time of
//! pSyncPIM includes mode switching and PIM kernel programming overheads".

/// Commands per mode transition (modeling assumption, see module docs).
pub const SWITCH_SEQUENCE_LEN: usize = 8;
