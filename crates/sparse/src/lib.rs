//! Sparse matrix substrate for the pSyncPIM reproduction.
//!
//! This crate provides everything the PIM simulator and kernel library need
//! to represent, generate and transform sparse matrices:
//!
//! * storage formats: [`Coo`], [`Csr`], [`Csc`] with lossless conversions,
//! * value [`Precision`]s from INT8 to FP64 (the PIM VALU is multi-precision),
//! * triangular-matrix utilities: extraction, [`level::LevelSchedule`]s,
//!   incomplete LDU factorization ([`ildu`]) and the recursive block
//!   decomposition the paper's SpTRSV kernel relies on ([`blockdecomp`]),
//! * the SpMV bank distribution / matrix-compression policy ([`partition`]),
//! * deterministic synthetic generators ([`gen`]) and a suite mirroring the
//!   paper's Table IX ([`suite`]),
//! * MatrixMarket I/O ([`mmio`]) so real SuiteSparse matrices can be used.
//!
//! # Example
//!
//! ```
//! use psim_sparse::{gen, Csr};
//!
//! let coo = gen::rmat(1 << 8, 4, 7);           // 256-node R-MAT graph
//! let csr = Csr::from(&coo);
//! let x = vec![1.0; csr.ncols()];
//! let y = csr.spmv(&x);
//! assert_eq!(y.len(), csr.nrows());
//! ```

pub mod adversarial;
pub mod bitmap;
pub mod blockdecomp;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod gen;
pub mod ildu;
pub mod layout;
pub mod level;
pub mod mmio;
pub mod partition;
pub mod precision;
pub mod stats;
pub mod suite;
pub mod triangular;

pub use bitmap::BitmapMatrix;
pub use blockdecomp::{BlockPlan, BlockStep};
pub use coo::{Coo, Entry};
pub use csc::Csc;
pub use csr::Csr;
pub use dense::SparseVec;
pub use error::SparseError;
pub use layout::Layout;
pub use level::LevelSchedule;
pub use partition::{BankPartition, DistPolicy, PartitionConfig, PartitionScheme, PartitionStats};
pub use precision::Precision;
pub use stats::MatrixStats;
pub use triangular::Triangle;
