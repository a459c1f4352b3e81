//! pSyncPIM kernel library.
//!
//! Every kernel of the paper's Table III, implemented as real PIM assembly
//! (assembled through [`psyncpim_core::isa`]) plus the host-side data
//! layout and orchestration the paper describes:
//!
//! * [`blas1`] — dense/sparse Level-1 kernels (DSWAP, DSCAL, DCOPY, DAXPY,
//!   SpAXPY, DDOT, SpDOT, DNRM2, GATHER, SCATTER),
//! * [`gemv`] — DGEMV and DTRSV,
//! * [`spmv`] — SpMV with the §V compression/distribution policy,
//! * [`spmm`] — multi-vector SpMV (SpMM) via block-diagonal expansion, the
//!   substrate for the scheduler's same-matrix job fusion,
//! * [`sptrsv`] — SpTRSV via the recursive block algorithm, level batches
//!   and the scalar-multiplication column sweep (§VI),
//! * [`device`] — the simulated pSyncPIM device configurations (1×, 3×,
//!   per-bank) and the combined kernel+host run report.
//!
//! Each kernel both *computes the real result* (the PU interpreter executes
//! the assembled program against bank memory) and *accounts time* (DRAM
//! command timing, lockstep PU back-pressure, external-bus traffic, mode
//! switches).

pub mod blas1;
pub mod costmodel;
pub mod device;
pub mod gemv;
pub mod oracle;
pub mod programs;
pub mod selftest;
pub mod spmm;
pub mod spmv;
pub mod sptrsv;

pub use costmodel::{CostEstimate, CostModel};
pub use device::{KernelRun, PimDevice};
pub use oracle::{audit_run, run_layout_oracle, run_oracle, OracleCase, OracleReport};
pub use selftest::{all_pass, selftest, CheckResult};
pub use spmm::{SpmmResult, MAX_SPMM_WIDTH};
pub use spmv::SpmvPim;
pub use sptrsv::SptrsvPim;
