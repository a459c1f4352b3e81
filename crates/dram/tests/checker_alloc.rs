//! Allocation guard for the protocol checker.
//!
//! Validated replay feeds every issued command through
//! [`ProtocolChecker::observe`], so the checker must cost only the
//! checking it does: on a clean all-bank or per-bank stream `observe`
//! makes no heap allocation at all. Only the violation path may allocate
//! (its messages). A counting global allocator enforces this.

use psim_dram::{Channel, CheckPolicy, CmdKind, HbmConfig, ProtocolChecker, Scope};
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
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

type Cmd = (u64, Scope, CmdKind);

/// Issue `cmd` at the earliest legal cycle and record it.
fn issue(ch: &mut Channel, trace: &mut Vec<Cmd>, now: &mut u64, scope: Scope, cmd: CmdKind) {
    let at = ch
        .issue_earliest(scope, cmd, *now)
        .expect("clean stream issues")
        .issue_cycle;
    trace.push((at, scope, cmd));
    *now = at;
}

/// A long clean all-bank stream: mode switch, row sweeps of reads and
/// writes, and a REF every tREFI.
fn clean_allbank(cfg: &HbmConfig) -> (Vec<Cmd>, u64) {
    let mut ch = Channel::new(cfg);
    let (mut trace, mut now) = (Vec::new(), 0);
    for _ in 0..8 {
        issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Mrs);
    }
    let mut next_ref = cfg.timing.t_refi;
    for row in 0..400u32 {
        issue(
            &mut ch,
            &mut trace,
            &mut now,
            Scope::AllBanks,
            CmdKind::Act { row },
        );
        for col in 0..16u32 {
            let cmd = if col % 4 == 3 {
                CmdKind::Wr { col }
            } else {
                CmdKind::Rd { col }
            };
            issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, cmd);
        }
        issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Pre);
        if now >= next_ref {
            issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Ref);
            next_ref = now + cfg.timing.t_refi;
        }
    }
    (trace, now)
}

/// A long clean per-bank stream: every bank in turn opens a row, moves a
/// few bursts and closes it over the shared bus, with an all-bank REF
/// every tREFI.
fn clean_perbank(cfg: &HbmConfig) -> (Vec<Cmd>, u64) {
    let mut ch = Channel::new(cfg);
    let (mut trace, mut now) = (Vec::new(), 0);
    let nbanks = cfg.banks_per_channel();
    let mut next_ref = cfg.timing.t_refi;
    for turn in 0..2000usize {
        let b = (turn * 5) % nbanks;
        let scope = Scope::OneBank {
            bg: b / cfg.banks_per_group,
            ba: b % cfg.banks_per_group,
        };
        let row = (turn % 97) as u32;
        issue(&mut ch, &mut trace, &mut now, scope, CmdKind::Mrs);
        issue(&mut ch, &mut trace, &mut now, scope, CmdKind::Act { row });
        issue(&mut ch, &mut trace, &mut now, scope, CmdKind::Rd { col: 0 });
        issue(&mut ch, &mut trace, &mut now, scope, CmdKind::Wr { col: 1 });
        issue(&mut ch, &mut trace, &mut now, scope, CmdKind::Pre);
        if now >= next_ref {
            issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Ref);
            next_ref = now + cfg.timing.t_refi;
        }
    }
    (trace, now)
}

fn assert_replay_allocates_nothing(trace: &[Cmd], end: u64, lockstep: bool) {
    let cfg = HbmConfig::default();
    let policy = CheckPolicy {
        lockstep,
        expect_refresh: true,
        ..CheckPolicy::default()
    };
    let mut checker = ProtocolChecker::with_policy(&cfg, policy);
    let allocations = allocations_during(|| {
        for &(cycle, scope, cmd) in trace {
            checker.observe(cycle, scope, cmd);
        }
    });
    let report = checker.finish(end);
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.commands, trace.len() as u64);
    assert_eq!(
        allocations,
        0,
        "observe allocated on a clean {} stream of {} commands",
        if lockstep { "all-bank" } else { "per-bank" },
        trace.len()
    );
}

#[test]
fn observe_allocates_nothing_on_clean_allbank_streams() {
    let (trace, end) = clean_allbank(&HbmConfig::default());
    assert!(trace.iter().any(|c| c.2 == CmdKind::Ref));
    assert_replay_allocates_nothing(&trace, end, true);
}

#[test]
fn observe_allocates_nothing_on_clean_perbank_streams() {
    let (trace, end) = clean_perbank(&HbmConfig::default());
    assert!(trace.iter().any(|c| c.2 == CmdKind::Ref));
    assert_replay_allocates_nothing(&trace, end, false);
}

#[test]
fn the_guard_sees_violation_messages() {
    // The counter is live: a violating command does allocate its message.
    let mut checker = ProtocolChecker::new(&HbmConfig::default());
    let allocations = allocations_during(|| {
        checker.observe(0, Scope::AllBanks, CmdKind::Rd { col: 0 });
    });
    assert!(allocations > 0);
    assert!(!checker.finish(0).is_clean());
}
