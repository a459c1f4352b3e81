//! Allocation guard for a warm engine launch.
//!
//! A launch's heap allocations must not grow with the work it replays:
//! the replay's per-command path (channel issue, row decode, the PU
//! interpreter and its queues) allocates nothing, so a warm second launch
//! of one kernel allocates the same number of times whether each bank
//! streams 16 entries or 2000. A counting global allocator enforces this
//! in both execution modes on a 2-channel cube of 2 × 2 banks per
//! channel, and pins the counts: an all-bank launch allocates only its
//! report's per-channel cycle list (1), since the engine keeps the buffers
//! of its per-unit phase across launches, whether or not banks follow a
//! leader; a per-bank launch adds, per channel, the banks' issue state and
//! the full channel model's bank and bank-group vectors (9).

use psim_dram::HbmConfig;
use psyncpim_core::isa::assemble;
use psyncpim_core::memory::{RegionId, SENTINEL};
use psyncpim_core::{Engine, EngineConfig, ExecMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations the current thread makes while counting is on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: thread-locals may already be gone while a thread exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract is exactly the one
// `System` needs; counting touches only const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// The SpMV stream kernel: load a (row, col, val) burst, gather x,
/// multiply, scatter-accumulate into y, until the index stream's sentinel
/// padding arms the conditional exit.
const SPMV_ASM: &str = r"
SPMOV  SPVQ0, BANK, ROW, FP64
SPMOV  SPVQ0, BANK, COL, FP64
SPMOV  SPVQ0, BANK, VAL, FP64
INDMOV DRF2, SPVQ0, FP64
SPVDV  SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64
SPVDV  BANK, SPVQ1, BANK, ADD, UNION, FP64
CEXIT  SPVQ0
JUMP   0, 0, 0
";

/// 2 channels × (2 bank groups × 2 banks).
fn engine(mode: ExecMode) -> Engine {
    Engine::new(EngineConfig {
        hbm: HbmConfig {
            num_bankgroups: 2,
            banks_per_group: 2,
            num_pseudo_channels: 2,
            ..HbmConfig::default()
        },
        mode,
        ..EngineConfig::default()
    })
}

/// Place `entries` (row, col, value) triples over an x of length `n` and
/// return the SpMV kernel's bindings. Each bank's stream is a little longer
/// than the last; with `idle`, only the first bank of each channel streams,
/// and the others store one burst of padding in rows reserved for the
/// longest stream, as an SpTRSV level batch's unlisted banks do, so banks
/// 2 and 3 of a channel follow bank 1.
fn place(engine: &mut Engine, entries: usize, n: usize, idle: bool) -> Vec<Option<RegionId>> {
    let lanes = 4; // FP64
    let nbanks = engine.num_banks();
    let padded = (entries + nbanks).div_ceil(lanes) * lanes;
    let x: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
    let mut bindings = Vec::new();
    for b in 0..nbanks {
        let streams = if idle && b % 4 != 0 { lanes } else { padded };
        let mut rows = vec![SENTINEL; streams];
        let mut cols = vec![SENTINEL; streams];
        let mut vals = vec![0.0; streams];
        if streams == padded {
            for i in 0..entries + b {
                rows[i] = ((b + i) % n) as f64;
                cols[i] = ((3 * b + 7 * i) % n) as f64;
                vals[i] = 1.0 + (b * 7 + i) as f64;
            }
        }
        let mem = engine.mem_mut(b);
        let r0 = mem.alloc_reserved(8, padded, &rows);
        let r1 = mem.alloc_reserved(8, padded, &cols);
        let r2 = mem.alloc_reserved(8, padded, &vals);
        let r3 = mem.alloc(8, x.clone());
        let r4 = mem.alloc_zeroed(8, n);
        bindings = vec![
            Some(r0),
            Some(r1),
            Some(r2),
            Some(r3),
            None,
            Some(r4),
            None,
            None,
        ];
    }
    bindings
}

/// Allocations of the second of two identical launches, after checking
/// that it replayed the whole stream.
fn warm_launch_allocations(mode: ExecMode, entries: usize, idle: bool) -> u64 {
    let mut engine = engine(mode);
    let bindings = place(&mut engine, entries, 64, idle);
    let program = assemble(SPMV_ASM).expect("kernel assembles");
    engine
        .load_kernel(program.clone(), bindings.clone())
        .expect("kernel loads");
    let first = engine.run().expect("first launch runs");
    engine
        .load_kernel(program, bindings)
        .expect("kernel reloads");
    let (second, allocations) = allocations_during(|| engine.run().expect("second launch runs"));
    assert_eq!(second.dram_cycles, first.dram_cycles, "{mode:?}");
    assert!(
        second.pu.mem_ops >= (3 * entries / 4) as u64,
        "{mode:?}: {} memory ops for {entries} entries",
        second.pu.mem_ops
    );
    allocations
}

#[test]
fn warm_launch_allocations_do_not_grow_with_the_stream() {
    for (mode, idle, want) in [
        (ExecMode::AllBank, false, 1),
        (ExecMode::AllBank, true, 1),
        (ExecMode::PerBank, false, 9),
    ] {
        let short = warm_launch_allocations(mode, 16, idle);
        let long = warm_launch_allocations(mode, 2000, idle);
        assert_eq!((short, long), (want, want), "{mode:?}, idle banks: {idle}");
    }
}
