//! Real-world benchmark applications (paper Table II).
//!
//! Five graph applications — [`bfs`], [`cc`], [`pagerank`], [`sssp`],
//! [`tc`] — and two preconditioned linear solvers — [`cg`] (P-CG) and
//! [`bicgstab`] (P-BiCGStab) — written once against the [`runtime::Runtime`]
//! abstraction so the same algorithm runs on the simulated pSyncPIM device
//! or the calibrated GPU model, producing both results and the per-kernel
//! time breakdowns of Figures 2, 11 and 12.

pub mod bfs;
pub mod bicgstab;
pub mod cc;
pub mod cg;
pub mod pagerank;
pub mod runtime;
pub mod sssp;
pub mod tc;

pub use runtime::{AppRun, Breakdown, GpuRuntime, GpuStack, PimRuntime, Runtime};
