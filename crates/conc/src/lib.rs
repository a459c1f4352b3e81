//! psim-conc: the concurrency verification layer under the pSyncPIM
//! host runtime.
//!
//! The simulator's *device* side is verified three ways (psim-lint
//! statically checks PIM programs, psim-check replays command streams
//! against the JEDEC rules, psim-trace audits cycle conservation) — but
//! the *host* side grew genuinely concurrent in PR 6: a blocking
//! [`Condvar`]-based job queue, a service admission loop, an LRU matrix
//! store shared across submitters. This crate closes that gap:
//!
//! * [`Mutex`] / [`Condvar`] / [`AtomicU64`] — a sync shim the
//!   scheduler builds on. By default it passes straight through to
//!   `std::sync` (recovering, not propagating, lock poisoning); with
//!   `PSIM_SYNC=instrument` it additionally feeds the lock-order graph
//!   and traps same-thread double-locks; under the model scheduler
//!   every operation becomes an explored scheduling decision.
//! * [`model`] — a bounded exhaustive interleaving explorer
//!   ([`model::Explorer`]) in the loom tradition: scenarios spawn
//!   threads with [`model::spawn`] and every schedule distinguishable
//!   through the shim is run, checking deadlock-freedom, lost wakeups
//!   (the model condvar has no spurious wakeups), double-locks, and any
//!   assertion the scenario itself makes.
//! * [`order`] — the global lock-order graph: acquire-while-holding
//!   edges recorded by the instrumented and model backends, with cycle
//!   detection ([`order::find_cycle`]) gating CI against lock-order
//!   inversions that no explored schedule happened to trip.
//!
//! The `psim_model` entry of the results runner (crates/bench) sweeps
//! the scheduler's queue / service / store scenarios plus seeded mutation
//! self-tests into `results/psim_model.json`; see DESIGN.md §16 for what
//! the layer does and does not prove.
//!
//! # Example
//!
//! ```
//! use psim_conc::{model, Condvar, Mutex};
//! use std::sync::Arc;
//!
//! // A one-slot channel with a missing-notify bug would deadlock; the
//! // correct version explores cleanly.
//! let report = model::Explorer::new(10_000).explore(|| {
//!     let slot = Arc::new((Mutex::labeled("slot", None), Condvar::labeled("slot.cv")));
//!     let tx = Arc::clone(&slot);
//!     let producer = model::spawn(move || {
//!         let (m, cv) = &*tx;
//!         *m.lock() = Some(42);
//!         cv.notify_one();
//!     });
//!     let (m, cv) = &*slot;
//!     let mut g = m.lock();
//!     while g.is_none() {
//!         g = cv.wait(g);
//!     }
//!     assert_eq!(*g, Some(42));
//!     drop(g);
//!     producer.join();
//! });
//! report.assert_ok("one-slot channel");
//! assert!(report.complete, "tiny scenario must be exhausted");
//! ```

pub mod model;
pub mod order;
mod sync;

pub use sync::{AtomicU64, Condvar, Mutex, MutexGuard};
