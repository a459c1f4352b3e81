//! Engine tests: all-bank lockstep execution, per-bank baseline, load
//! imbalance, command accounting.

use super::*;
use crate::isa::assemble;
use crate::memory::{RegionId, SENTINEL};
use crate::trace::Category;

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

/// A small test cube: 2 channels × (2 bankgroups × 2 banks) = 8 banks,
/// so tests stay fast while still exercising multi-channel paths.
fn small_cfg(mode: ExecMode) -> EngineConfig {
    let hbm = HbmConfig {
        num_bankgroups: 2,
        banks_per_group: 2,
        num_pseudo_channels: 2,
        ..HbmConfig::default()
    };
    EngineConfig {
        hbm,
        mode,
        ..Default::default()
    }
}

/// Place per-bank SpMV operands: every bank gets its own entry list over a
/// shared x of length n, with index streams padded to the same length on
/// every bank (the paper's equal-rows-per-bank layout).
fn setup_spmv(
    engine: &mut Engine,
    per_bank: &[Vec<(u32, u32, f64)>],
    x: &[f64],
    n: usize,
) -> Vec<Option<RegionId>> {
    let lanes = 4; // FP64
    let max_len = per_bank
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .div_ceil(lanes)
        .max(1)
        * lanes;
    let mut bindings = Vec::new();
    for (b, entries) in per_bank.iter().enumerate() {
        let mut rows = vec![SENTINEL; max_len];
        let mut cols = vec![SENTINEL; max_len];
        let mut vals = vec![0.0; max_len];
        for (i, &(r, c, v)) in entries.iter().enumerate() {
            rows[i] = f64::from(r);
            cols[i] = f64::from(c);
            vals[i] = v;
        }
        let mem = engine.mem_mut(b);
        let r0 = mem.alloc(8, rows);
        let r1 = mem.alloc(8, cols);
        let r2 = mem.alloc(8, vals);
        let r3 = mem.alloc(8, x.to_vec());
        let r4 = mem.alloc_zeroed(8, n);
        if b == 0 {
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
    }
    bindings
}

fn per_bank_entries(nbanks: usize, n: usize) -> Vec<Vec<(u32, u32, f64)>> {
    (0..nbanks)
        .map(|b| {
            (0..=b)
                .map(|i| {
                    (
                        ((b + i) % n) as u32,
                        ((b * 3 + i) % n) as u32,
                        1.0 + (b * 7 + i) as f64,
                    )
                })
                .collect()
        })
        .collect()
}

fn reference_y(entries: &[(u32, u32, f64)], x: &[f64], n: usize) -> Vec<f64> {
    let mut y = vec![0.0; n];
    for &(r, c, v) in entries {
        y[r as usize] += v * x[c as usize];
    }
    y
}

#[test]
fn allbank_spmv_is_functionally_correct_on_every_bank() {
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let n = 16;
    let nbanks = engine.num_banks();
    assert_eq!(nbanks, 8);
    let x: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
    let per_bank = per_bank_entries(nbanks, n);
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    let program = assemble(SPMV_ASM).unwrap();
    engine.load_kernel(program, bindings.clone()).unwrap();
    let report = engine.run().unwrap();

    for (b, entries) in per_bank.iter().enumerate() {
        let y = engine.mem(b).region(bindings[5].unwrap()).data().to_vec();
        let want = reference_y(entries, &x, n);
        for (got, want) in y.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "bank {b}: {got} vs {want}");
        }
    }
    assert!(report.dram_cycles > 0);
    assert!(report.seconds > 0.0);
    assert!(report.commands.all_bank_commands > 0);
    assert_eq!(report.commands.per_bank_commands, 0);
    assert!(report.energy.total_pj() > 0.0);
}

#[test]
fn perbank_spmv_matches_allbank_functionally() {
    let n = 16;
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();

    let mut ab = Engine::new(small_cfg(ExecMode::AllBank));
    let per_bank = per_bank_entries(ab.num_banks(), n);
    let bind_ab = setup_spmv(&mut ab, &per_bank, &x, n);
    ab.load_kernel(assemble(SPMV_ASM).unwrap(), bind_ab.clone())
        .unwrap();
    ab.run().unwrap();

    let mut pb = Engine::new(small_cfg(ExecMode::PerBank));
    let bind_pb = setup_spmv(&mut pb, &per_bank, &x, n);
    pb.load_kernel(assemble(SPMV_ASM).unwrap(), bind_pb.clone())
        .unwrap();
    pb.run().unwrap();

    for b in 0..ab.num_banks() {
        let ya = ab.mem(b).region(bind_ab[5].unwrap()).data().to_vec();
        let yb = pb.mem(b).region(bind_pb[5].unwrap()).data().to_vec();
        assert_eq!(ya, yb, "bank {b}");
    }
}

#[test]
fn perbank_issues_more_commands_and_is_slower() {
    let n = 16;
    let x = vec![1.0; n];

    let mut ab = Engine::new(small_cfg(ExecMode::AllBank));
    let per_bank = per_bank_entries(ab.num_banks(), n);
    let bind = setup_spmv(&mut ab, &per_bank, &x, n);
    ab.load_kernel(assemble(SPMV_ASM).unwrap(), bind).unwrap();
    let rep_ab = ab.run().unwrap();

    let mut pb = Engine::new(small_cfg(ExecMode::PerBank));
    let bind = setup_spmv(&mut pb, &per_bank, &x, n);
    pb.load_kernel(assemble(SPMV_ASM).unwrap(), bind).unwrap();
    let rep_pb = pb.run().unwrap();

    let cmd_ratio =
        rep_pb.commands.total_commands() as f64 / rep_ab.commands.total_commands() as f64;
    assert!(
        cmd_ratio > 1.3,
        "per-bank should need more commands (paper Fig. 3: ~2.74x), got {cmd_ratio:.2}x"
    );
    assert!(
        rep_pb.dram_cycles > rep_ab.dram_cycles,
        "per-bank {} should be slower than all-bank {}",
        rep_pb.dram_cycles,
        rep_ab.dram_cycles
    );
}

#[test]
fn imbalanced_banks_stretch_rounds_and_record_exits() {
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let n = 16;
    let nbanks = engine.num_banks();
    let x = vec![1.0; n];
    // Bank 0 gets 1 entry; the last bank gets 40.
    let mut per_bank: Vec<Vec<(u32, u32, f64)>> = vec![vec![(0, 0, 1.0)]; nbanks];
    per_bank[nbanks - 1] = (0..40)
        .map(|i| ((i % 16) as u32, (i % 16) as u32, 1.0))
        .collect();
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    // 40 entries at 4 lanes = 10 iterations minimum on the heavy bank.
    assert!(report.rounds >= 10, "rounds = {}", report.rounds);
    // The light bank exits earlier than the heavy one.
    let light_exit = engine.pu(0).stats().exit_round;
    let heavy_exit = engine.pu(nbanks - 1).stats().exit_round;
    assert!(light_exit < heavy_exit, "{light_exit} vs {heavy_exit}");
    assert_eq!(report.pu.exit_round, heavy_exit);
}

#[test]
fn run_without_kernel_errors() {
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    assert!(matches!(engine.run(), Err(CoreError::Execution(_))));
}

#[test]
fn active_pus_counts_working_banks() {
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let n = 8;
    let nbanks = engine.num_banks();
    let x = vec![1.0; n];
    // Only banks 0 and 3 have work.
    let mut per_bank: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); nbanks];
    per_bank[0] = vec![(0, 0, 2.0)];
    per_bank[3] = vec![(1, 1, 3.0), (2, 2, 4.0)];
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    // Banks without entries still execute the (no-op) loads of round 1;
    // active = performed at least one productive mem op, which includes
    // the no-op-consuming loads, so check the productive lower bound.
    assert!(report.active_pus >= 2);
}

#[test]
fn attribution_conserves_cycles_in_both_modes() {
    for mode in [ExecMode::AllBank, ExecMode::PerBank] {
        let mut cfg = small_cfg(mode);
        cfg.attribute = true;
        let mut engine = Engine::new(cfg);
        let n = 16;
        let per_bank = per_bank_entries(engine.num_banks(), n);
        let x: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
        let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
        engine
            .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
            .unwrap();
        let report = engine.run().unwrap();
        let metrics = report.metrics.as_ref().expect("attribution enabled");
        let failures = metrics.conservation_failures();
        assert!(failures.is_empty(), "{mode:?}: {failures:?}");
        assert_eq!(metrics.channels.len(), 2, "{mode:?}");
        for ch in &metrics.channels {
            assert!(ch.cycles > 0, "{mode:?}");
            assert_eq!(ch.bus.total(), ch.cycles, "{mode:?} bus");
            for (i, pu) in ch.pu.iter().enumerate() {
                assert_eq!(pu.total(), ch.cycles, "{mode:?} pu {i}");
                assert!(pu.get(Category::Busy) > 0, "{mode:?} pu {i} never busy");
            }
        }
        // The slowest channel's bus view spans the full reported runtime.
        assert_eq!(metrics.wall().total(), report.dram_cycles, "{mode:?}");
    }
}

#[test]
fn attribution_defaults_off_and_reports_no_metrics() {
    let cfg = small_cfg(ExecMode::AllBank);
    assert!(!cfg.attribute);
    let mut engine = Engine::new(cfg);
    let n = 8;
    let per_bank = per_bank_entries(engine.num_banks(), n);
    let x = vec![1.0; n];
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    assert!(engine.run().unwrap().metrics.is_none());
}

#[test]
fn attribution_event_limit_counts_drops_instead_of_truncating() {
    let run = |limit: usize| {
        let mut cfg = small_cfg(ExecMode::AllBank);
        cfg.attribute = true;
        cfg.event_limit = limit;
        let mut engine = Engine::new(cfg);
        let n = 16;
        // Imbalanced work so light banks stream empty iterations, which
        // generate queue-empty stall events every round after they drain.
        let nbanks = engine.num_banks();
        let mut per_bank: Vec<Vec<(u32, u32, f64)>> = vec![vec![(0, 0, 1.0)]; nbanks];
        per_bank[nbanks - 1] = (0..40)
            .map(|i| ((i % 16) as u32, (i % 16) as u32, 1.0))
            .collect();
        let x = vec![1.0; n];
        let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
        engine
            .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
            .unwrap();
        engine.run().unwrap().metrics.unwrap()
    };
    let full = run(1 << 20);
    assert_eq!(full.events_dropped, 0);
    assert!(!full.events.is_empty(), "expected stall events");
    let capped = run(1);
    assert_eq!(capped.events.len(), 1);
    assert!(capped.events_dropped > 0);
    assert_eq!(
        capped.events.len() as u64 + capped.events_dropped,
        full.events.len() as u64,
        "drops must account for every suppressed event"
    );
    // Stall accounting itself is unaffected by the event cap.
    assert_eq!(full.channels, capped.channels);
}

#[test]
fn dense_kernel_runs_on_all_banks() {
    // DCOPY 64 elements per bank via jump counts.
    let asm = r"
DMOV DRF0, BANK, FP64
DMOV BANK, DRF0, FP64
JUMP 0, 1, 15
EXIT
";
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let nbanks = engine.num_banks();
    let mut bindings = Vec::new();
    for b in 0..nbanks {
        let src: Vec<f64> = (0..64).map(|i| (b * 100 + i) as f64).collect();
        let mem = engine.mem_mut(b);
        let rs = mem.alloc(8, src);
        let rd = mem.alloc_zeroed(8, 64);
        if b == 0 {
            bindings = vec![Some(rs), Some(rd), None, None];
        }
    }
    engine
        .load_kernel(assemble(asm).unwrap(), bindings.clone())
        .unwrap();
    let report = engine.run().unwrap();
    for b in 0..nbanks {
        let dst = engine.mem(b).region(bindings[1].unwrap()).data().to_vec();
        let want: Vec<f64> = (0..64).map(|i| (b * 100 + i) as f64).collect();
        assert_eq!(dst, want, "bank {b}");
    }
    // 16 iterations × 2 commands + setup/teardown.
    assert!(report.commands.reads >= 16 * 2);
}

#[test]
fn refresh_taxes_bandwidth_when_enabled() {
    // Refresh is always on: every tREFI the engine closes the open row and
    // issues an all-bank REF. The independent checker enforces tRFC after
    // every REF and the ≤9×tREFI gap bound.
    let mut cfg = small_cfg(ExecMode::AllBank);
    cfg.validate = true;
    let mut engine = Engine::new(cfg);
    let n = 16;
    let nbanks = engine.num_banks();
    let x = vec![1.0; n];
    // Enough work that several tREFI windows elapse.
    let per_bank: Vec<Vec<(u32, u32, f64)>> = (0..nbanks)
        .map(|b| {
            (0..800)
                .map(|i| (((b + i) % n) as u32, ((b * 3 + i) % n) as u32, 1.0))
                .collect()
        })
        .collect();
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    assert_eq!(report.violation_count(), 0, "{:?}", report.violations);
    assert!(report.commands.refs > 0, "expected refreshes to be issued");
    // tREFI spacing: roughly one REF per channel per tREFI of runtime.
    let expected = report.dram_cycles / 3_900;
    assert!(
        report.commands.refs >= expected.saturating_sub(2) * 2,
        "refs {} vs expected ~{} per channel",
        report.commands.refs,
        expected
    );
}

#[test]
fn bandwidth_utilization_is_positive_and_bounded() {
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let n = 16;
    let nbanks = engine.num_banks();
    let x = vec![1.0; n];
    let per_bank: Vec<Vec<(u32, u32, f64)>> = (0..nbanks)
        .map(|b| {
            (0..64)
                .map(|i| (((b + i) % n) as u32, (i % n) as u32, 1.0))
                .collect()
        })
        .collect();
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    let cfg = &engine.config().hbm;
    assert!(report.data_bytes(cfg) > 0);
    let util = report.internal_utilization(cfg);
    assert!(util > 0.0 && util < 1.0, "utilization {util}");
}

#[test]
fn validated_runs_are_protocol_clean_in_both_modes() {
    for mode in [ExecMode::AllBank, ExecMode::PerBank] {
        let mut cfg = small_cfg(mode);
        cfg.validate = true;
        let mut engine = Engine::new(cfg);
        let n = 16;
        let nbanks = engine.num_banks();
        let x = vec![1.0; n];
        // Enough work that refresh windows elapse, so the checker audits
        // the refresh contract too.
        let per_bank: Vec<Vec<(u32, u32, f64)>> = (0..nbanks)
            .map(|b| {
                (0..400)
                    .map(|i| (((b + i) % n) as u32, ((b * 3 + i) % n) as u32, 1.0))
                    .collect()
            })
            .collect();
        let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
        engine
            .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
            .unwrap();
        let report = engine.run().unwrap();
        assert!(
            report.violations.is_empty(),
            "{mode:?}: {:?}",
            report.violations
        );
        assert_eq!(report.violations_suppressed, 0, "{mode:?}");
        assert!(
            report.pu_audit.is_empty(),
            "{mode:?}: {:?}",
            report.pu_audit
        );
        assert_eq!(report.violation_count(), 0, "{mode:?}");
    }
}

#[test]
fn verified_loads_share_one_program_and_match_raw_loads() {
    // A verified program loads without a second lint into the one kernel
    // every PU runs; the run is bit-identical to loading the raw program,
    // which validation lints again.
    let n = 16;
    let x: Vec<f64> = (0..n).map(|i| 0.25 * i as f64).collect();
    let verified = VerifiedProgram::new(assemble(SPMV_ASM).unwrap()).unwrap();
    let mut runs = Vec::new();
    for shared in [false, true] {
        let mut cfg = small_cfg(ExecMode::AllBank);
        cfg.validate = true;
        let mut engine = Engine::new(cfg);
        let nbanks = engine.num_banks();
        let per_bank = per_bank_entries(nbanks, n);
        let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
        if shared {
            engine.load_verified(&verified, bindings.clone()).unwrap();
        } else {
            engine
                .load_kernel(assemble(SPMV_ASM).unwrap(), bindings.clone())
                .unwrap();
        }
        let report = engine.run().unwrap();
        assert_eq!(report.violation_count(), 0);
        let ys: Vec<Vec<f64>> = (0..nbanks)
            .map(|b| engine.mem(b).region(bindings[5].unwrap()).data().to_vec())
            .collect();
        runs.push((report, ys));
    }
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn validated_raw_loads_still_refuse_unverifiable_programs() {
    // SpFW drains a queue nothing fills (PSL011): no verified form exists,
    // and under validation the raw load is refused before cycle 0.
    let bad = assemble("SPFW SPVQ0, FP64\nEXIT\n").unwrap();
    assert!(VerifiedProgram::new(bad.clone()).is_err());
    let mut cfg = small_cfg(ExecMode::AllBank);
    cfg.validate = true;
    let load = Engine::new(cfg).load_kernel(bad.clone(), vec![None::<Binding>; 2]);
    assert!(matches!(load, Err(CoreError::Verify { .. })), "{load:?}");
    // Without validation the raw program still loads.
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let mut out = RegionId(0);
    for b in 0..engine.num_banks() {
        out = engine.mem_mut(b).alloc_zeroed(8, 12);
    }
    assert!(engine.load_kernel(bad, vec![Some(out), None]).is_ok());
    // Binding checks cover both load paths.
    let verified = VerifiedProgram::new(assemble(SPMV_ASM).unwrap()).unwrap();
    let unbound = engine.load_verified(&verified, vec![None::<Binding>; 8]);
    assert!(matches!(unbound, Err(CoreError::Binding(_))), "{unbound:?}");
}

#[test]
fn validation_defaults_off_and_reports_nothing() {
    let cfg = small_cfg(ExecMode::AllBank);
    assert!(!cfg.validate);
    let mut engine = Engine::new(cfg);
    let n = 8;
    let per_bank = per_bank_entries(engine.num_banks(), n);
    let x = vec![1.0; n];
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    assert!(report.violations.is_empty());
    assert!(report.pu_audit.is_empty());
}

#[test]
fn perbank_refresh_issues_refs_on_long_runs() {
    // Refresh applies to the per-bank baseline too: rows close, one
    // all-bank REF is issued, and the run stays legal.
    let mut cfg = small_cfg(ExecMode::PerBank);
    cfg.validate = true;
    let mut engine = Engine::new(cfg);
    let n = 16;
    let nbanks = engine.num_banks();
    let x = vec![1.0; n];
    let per_bank: Vec<Vec<(u32, u32, f64)>> = (0..nbanks)
        .map(|b| {
            (0..400)
                .map(|i| (((b + i) % n) as u32, ((b * 3 + i) % n) as u32, 1.0))
                .collect()
        })
        .collect();
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    assert!(report.commands.refs > 0, "expected REFs in per-bank mode");
    assert_eq!(report.violation_count(), 0, "{:?}", report.violations);
}

#[test]
fn pu_audit_flags_inconsistent_claims() {
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let n = 8;
    let per_bank = per_bank_entries(engine.num_banks(), n);
    let x = vec![1.0; n];
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    // Auditing the real run against its own command stats is clean.
    assert!(engine.audit_pus(report.rounds, &report.commands).is_empty());
    // Auditing against an impossible claim (zero rounds, zero bursts)
    // flags both the exit rounds and the mem-op budget.
    let audit = engine.audit_pus(0, &psim_dram::ChannelStats::default());
    assert!(
        audit.iter().any(|f| f.contains("exceeds executed rounds")),
        "{audit:?}"
    );
    assert!(audit.iter().any(|f| f.contains("bank bursts")), "{audit:?}");
}

/// A three-channel cube of four banks each: big enough for a busy
/// channel, a witness and a twin, small enough to build launches by hand.
fn twin_cfg(validate: bool) -> EngineConfig {
    let mut cfg = small_cfg(ExecMode::AllBank);
    cfg.hbm.num_pseudo_channels = 3;
    cfg.validate = validate;
    cfg
}

/// First bank of channel 2, the channel that may take channel 1's outcome.
const TWIN: usize = 8;

/// The SpMV regions of [`setup_spmv`]: index columns, values, `x`, `y`.
const COLS: RegionId = RegionId(1);
const VALS: RegionId = RegionId(2);
const X: RegionId = RegionId(3);
const Y: RegionId = RegionId(4);

/// SpMV entries for a twin launch: channel 0 holds real work, so every
/// index stream is padded to its length; channels 1 and 2 hold only the
/// sentinel padding.
fn twin_entries() -> Vec<Vec<(u32, u32, f64)>> {
    let mut per_bank: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); 12];
    for (b, entries) in per_bank.iter_mut().enumerate().take(4) {
        *entries = (0..=2 * b)
            .map(|i| ((i % 8) as u32, ((b + i) % 8) as u32, 1.0 + i as f64))
            .collect();
    }
    per_bank
}

/// Place `per_bank`, load the SpMV kernel, let `tweak` edit the loaded
/// cube, and run it.
fn twin_run(
    validate: bool,
    per_bank: &[Vec<(u32, u32, f64)>],
    tweak: &dyn Fn(&mut Engine),
) -> (Engine, RunReport) {
    let mut engine = Engine::new(twin_cfg(validate));
    let x: Vec<f64> = (0..8).map(|i| 0.5 + f64::from(i)).collect();
    let bindings = setup_spmv(&mut engine, per_bank, &x, 8);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    tweak(&mut engine);
    let report = engine.run().unwrap();
    (engine, report)
}

/// Everything a run leaves behind: the report, every PU state and every
/// bank region. Printed with `{:?}`, whose `f64` form is the shortest text
/// that parses back to the same bits, so equal lines mean equal bits
/// (`-0.0` and `0.0` print differently).
fn run_bits(engine: &Engine, report: &RunReport) -> Vec<String> {
    let mut lines = vec![format!("{report:?}")];
    for b in 0..engine.num_banks() {
        lines.push(format!("PU {b}: {:?}", engine.pu(b)));
        let mem = engine.mem(b);
        lines.extend(
            (0..mem.num_regions()).map(|i| format!("bank {b}: {:?}", mem.region(RegionId(i)))),
        );
    }
    lines
}

/// Check that a plain run and the same run under validation, which
/// replays every channel, leave the same bits.
fn assert_matches_full_replay(
    (plain, plain_report): (&Engine, &RunReport),
    (full, full_report): (&Engine, &RunReport),
    what: &str,
) {
    assert_eq!(
        full.reused_channels(),
        0,
        "validated runs replay every channel"
    );
    assert_eq!(full_report.violation_count(), 0);
    let (got, want) = (run_bits(plain, plain_report), run_bits(full, full_report));
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{what}: the plain run differs from the full replay");
    }
}

/// Run a twin launch plainly and under validation, check that both leave
/// the same bits, and return how many channels the plain run took from a
/// twin.
fn reuse_matching_full_replay(
    per_bank: &[Vec<(u32, u32, f64)>],
    tweak: &dyn Fn(&mut Engine),
) -> usize {
    let (plain, plain_report) = twin_run(false, per_bank, tweak);
    let (full, full_report) = twin_run(true, per_bank, tweak);
    assert_matches_full_replay((&plain, &plain_report), (&full, &full_report), "one launch");
    plain.reused_channels()
}

/// Set DRF1, which the SpMV kernel never touches, to `v` on every PU.
fn set_drf1(engine: &mut Engine, v: f64) {
    for b in 0..engine.num_banks() {
        *engine.pu_mut(b).drf_mut(1) = vec![v];
    }
}

/// Give bank `b` a real column index (row and value stay padding): its
/// gather reads `x`, but nothing reaches the output.
fn gather_only(engine: &mut Engine, b: usize) {
    engine.mem_mut(b).region_mut(COLS).set(0, 3.0);
}

#[test]
fn exact_twin_channels_take_the_witness_outcome() {
    // (a) Channels 1 and 2 hold the same padding and start in the same PU
    // states. Channel 1 replays and writes nothing, so channel 2 takes
    // its outcome and end states; the full replay agrees bit for bit.
    let per_bank = twin_entries();
    assert_eq!(reuse_matching_full_replay(&per_bank, &|_| {}), 1);
    // A register the program never touches is part of the start state,
    // and the copied end states carry it; so is a gather that reads `x`
    // without writing.
    let drf = |e: &mut Engine| set_drf1(e, 0.5);
    assert_eq!(reuse_matching_full_replay(&per_bank, &drf), 1);
    let gathers = |e: &mut Engine| {
        gather_only(e, 6);
        gather_only(e, TWIN + 2);
    };
    assert_eq!(reuse_matching_full_replay(&per_bank, &gathers), 1);
    // Padding-only launches: the first channel is the witness.
    let idle = vec![Vec::new(); 12];
    assert_eq!(reuse_matching_full_replay(&idle, &|_| {}), 2);
}

#[test]
fn near_twin_channels_replay() {
    // (b) Channel 2 differs from the witness, channel 1, in exactly one
    // input the replay reads; it must replay, and match the full replay.
    let per_bank = twin_entries();
    let one_drf_bit = |e: &mut Engine| {
        set_drf1(e, 0.5);
        *e.pu_mut(TWIN + 1).drf_mut(1) = vec![f64::from_bits(0.5f64.to_bits() ^ 1)];
    };
    let one_element = |e: &mut Engine| gather_only(e, TWIN + 2);
    let negative_zero = |e: &mut Engine| e.mem_mut(TWIN).region_mut(VALS).set(1, -0.0);
    // Both channels gather x[3] in their third bank; channel 2's differs.
    let gathered_element = |e: &mut Engine| {
        gather_only(e, 6);
        gather_only(e, TWIN + 2);
        e.mem_mut(TWIN + 2).region_mut(X).set(3, -1.5);
    };
    let start_row = |e: &mut Engine| {
        let mem = e.mem_mut(TWIN + 3);
        let row = mem.region(Y).start_row();
        mem.set_start_row(Y, row + 1);
    };
    for tweak in [
        &one_drf_bit as &dyn Fn(&mut Engine),
        &one_element,
        &negative_zero,
        &gathered_element,
        &start_row,
    ] {
        assert_eq!(reuse_matching_full_replay(&per_bank, tweak), 0);
    }
}

#[test]
fn a_channel_that_writes_is_no_witness() {
    // (c) Channels 1 and 2 are exact twins, but one bank of each stores
    // an element, so channel 1 is no witness and channel 2 replays.
    let mut per_bank = twin_entries();
    per_bank[5] = vec![(2, 3, 4.0)];
    per_bank[TWIN + 1] = vec![(2, 3, 4.0)];
    assert_eq!(reuse_matching_full_replay(&per_bank, &|_| {}), 0);
}

#[test]
fn traced_and_per_bank_runs_replay_every_channel() {
    let per_bank = vec![Vec::new(); 12];
    let x = vec![1.0; 8];
    for (mode, attribute) in [(ExecMode::AllBank, true), (ExecMode::PerBank, false)] {
        let mut cfg = twin_cfg(false);
        cfg.mode = mode;
        cfg.attribute = attribute;
        let mut engine = Engine::new(cfg);
        let bindings = setup_spmv(&mut engine, &per_bank, &x, 8);
        engine
            .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
            .unwrap();
        engine.run().unwrap();
        assert_eq!(engine.reused_channels(), 0, "{mode:?}");
    }
}

/// The SpMV kernel with the gathered `x` also summed into the scalar
/// register. The SRF persists across launches, so an active replay leaves
/// a state behind that an idle one (its padding gathers 0.0) does not.
const SPMV_REDUCE_ASM: &str = r"
SPMOV  SPVQ0, BANK, ROW, FP64
SPMOV  SPVQ0, BANK, COL, FP64
SPMOV  SPVQ0, BANK, VAL, FP64
INDMOV DRF2, SPVQ0, FP64
REDUCE DRF2, ADD, FP64
SPVDV  SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64
SPVDV  BANK, SPVQ1, BANK, ADD, UNION, FP64
CEXIT  SPVQ0
JUMP   0, 0, 0
";

/// The stream regions of a launch sequence: rows, columns and values.
const STREAMS: [RegionId; 3] = [RegionId(2), RegionId(3), RegionId(4)];

/// What a stream region of an idle bank stores: one burst of padding.
const IDLE: [[f64; 4]; 3] = [[SENTINEL; 4], [SENTINEL; 4], [0.0; 4]];

/// Elements each stream region reserves: the sequence's longest stream,
/// 8 entries and a burst of sentinels.
const STREAM_RESERVED: usize = 12;

/// A twin cube whose banks hold `x` (region 0) and `y` (region 1), which
/// persist across launches, and the [`STREAMS`], reserved once for every
/// launch of a sequence and storing the idle image.
fn sequence_cube(validate: bool) -> Engine {
    let mut engine = Engine::new(twin_cfg(validate));
    let x: Vec<f64> = (0..8).map(|i| 0.5 + f64::from(i)).collect();
    for b in 0..engine.num_banks() {
        let mem = engine.mem_mut(b);
        mem.alloc(8, x.clone());
        mem.alloc_zeroed(8, 8);
        for idle in &IDLE {
            mem.alloc_reserved(8, STREAM_RESERVED, idle);
        }
    }
    engine
}

/// Launch `i` of a sequence: the banks of the `previous` launch's active
/// channels go back to the idle image, then the banks of the `active`
/// channels store their entries and a burst of sentinels, as SpTRSV's
/// level batches do.
fn sequence_launch(
    engine: &mut Engine,
    i: usize,
    active: &[usize],
    previous: &[usize],
) -> RunReport {
    let width = engine.config().hbm.banks_per_channel();
    let banks = |channels: &[usize]| -> Vec<usize> {
        channels
            .iter()
            .flat_map(|ch| ch * width..(ch + 1) * width)
            .collect()
    };
    for b in banks(previous) {
        for (&id, idle) in STREAMS.iter().zip(&IDLE) {
            engine.mem_mut(b).store(id, idle);
        }
    }
    for b in banks(active) {
        let n = b % 4 + i + 1;
        let len = (n / 4 + 1) * 4;
        let mut streams = [vec![SENTINEL; len], vec![SENTINEL; len], vec![0.0; len]];
        let [rows, cols, vals] = &mut streams;
        let entries = rows.iter_mut().zip(cols.iter_mut()).zip(vals.iter_mut());
        for (j, ((row, col), val)) in entries.take(n).enumerate() {
            *row = ((b + j) % 8) as f64;
            *col = ((3 * b + i + j) % 8) as f64;
            *val = 1.0 + (7 * b + j) as f64;
        }
        for (&id, stream) in STREAMS.iter().zip(&streams) {
            engine.mem_mut(b).store(id, stream);
        }
    }
    let [rows, cols, vals] = STREAMS.map(Some);
    let bindings = vec![
        rows,
        cols,
        vals,
        Some(RegionId(0)),
        None,
        None,
        Some(RegionId(1)),
        None,
        None,
    ];
    engine
        .load_kernel(assemble(SPMV_REDUCE_ASM).unwrap(), bindings)
        .unwrap();
    engine.run().unwrap()
}

/// Run launches with the channels `active` on a plain cube and under
/// validation, which replays every channel, calling `between(i, engine)`
/// on both before launch `i`. After every launch both must leave the same
/// bits. Returns how many channels each plain launch took from a witness.
fn sequence_matching_full_replay(
    active: &[&[usize]],
    between: &dyn Fn(usize, &mut Engine),
) -> Vec<usize> {
    let (mut plain, mut full) = (sequence_cube(false), sequence_cube(true));
    let mut reused = Vec::new();
    for (i, channels) in active.iter().enumerate() {
        let previous = if i == 0 { &[][..] } else { active[i - 1] };
        between(i, &mut plain);
        between(i, &mut full);
        let plain_report = sequence_launch(&mut plain, i, channels, previous);
        let full_report = sequence_launch(&mut full, i, channels, previous);
        assert_matches_full_replay(
            (&plain, &plain_report),
            (&full, &full_report),
            &format!("launch {i}"),
        );
        reused.push(plain.reused_channels());
    }
    reused
}

/// Active channels of each launch: every channel works once, then none,
/// then two.
const SEQUENCE: [&[usize]; 5] = [&[0], &[1], &[2], &[], &[0, 2]];

#[test]
fn shared_pu_states_follow_a_launch_sequence() {
    // Launch 0: channel 2 takes idle channel 1's outcome and reads its
    // states. Launch 1: channel 1 works, so channel 2 moves to a copy
    // first. Seeding every SRF before launch 3 makes channels 0 and 1
    // equal, so channel 1 reads channel 0's states until launch 4, when
    // channel 0 works.
    let seed = |i: usize, e: &mut Engine| {
        if i == 3 {
            e.set_srf_all(0.25);
        }
    };
    assert_eq!(
        sequence_matching_full_replay(&SEQUENCE, &seed),
        [1, 0, 0, 1, 0]
    );
}

#[test]
fn pu_mut_gives_a_twin_channel_its_own_states() {
    // After launch 0 channel 2 reads channel 1's states. Writing one of
    // its PUs changes that bank alone, and the later launches still match
    // the full replay.
    let bank = TWIN + 1;
    let poke = |i: usize, e: &mut Engine| {
        if i != 1 {
            return;
        }
        let pus = |e: &Engine| -> Vec<String> {
            (0..e.num_banks())
                .map(|b| format!("{:?}", e.pu(b)))
                .collect()
        };
        let before = pus(e);
        e.pu_mut(bank).set_srf(0.75);
        for (b, (now, was)) in pus(e).iter().zip(&before).enumerate() {
            assert_eq!(now != was, b == bank, "bank {b}");
        }
    };
    assert_eq!(sequence_matching_full_replay(&SEQUENCE, &poke)[0], 1);
}

/// Store the idle image, padded to `len` elements, in bank `b`'s streams:
/// its processing unit still reads one burst of padding and exits, but
/// its layout differs from an idle bank's unless `len` is 4.
fn store_idle(engine: &mut Engine, b: usize, len: usize) {
    for (&id, idle) in STREAMS.iter().zip(&IDLE) {
        engine.mem_mut(b).store(id, &vec![idle[0]; len]);
    }
}

/// Channel 0 works in the first two launches; channels 1 and 2 stay idle,
/// so channel 2 is a twin of channel 1 unless a layout parts them.
const LAYOUT_SEQUENCE: [&[usize]; 5] = [&[0], &[0], &[], &[], &[]];

/// Host stores of other lengths between the launches of
/// [`LAYOUT_SEQUENCE`]: before launch 1 into a bank of the twin, channel
/// 2 (and back before launch 2); before launch 3 into a bank of channel 0,
/// which is of another class; before launch 4 into a bank of channel 1,
/// the first channel of the twin's class.
fn store_lengths(i: usize, e: &mut Engine) {
    match i {
        1 => store_idle(e, TWIN + 1, 8),
        2 => store_idle(e, TWIN + 1, 4),
        3 => store_idle(e, 2, 8),
        4 => store_idle(e, 4 + 3, 8),
        _ => {}
    }
}

/// What each launch of [`LAYOUT_SEQUENCE`] under [`store_lengths`] takes
/// from a witness: at launch 1 the twin's stored bank parts it from
/// channel 1; at launch 2 its restored layout rejoins it; at launch 3
/// neither channel of the pair was stored into since, so the pair keeps
/// its verdict while channel 0's store parts only channel 0; at launch 4
/// the store into channel 1 parts the pair again.
const LAYOUT_REUSE: [usize; 5] = [1, 0, 1, 1, 0];

#[test]
fn host_stores_end_kept_layout_verdicts_in_a_launch_sequence() {
    // The SRF seed of `shared_pu_states_follow_a_launch_sequence`, here
    // before launch 3, changes no class: channel 0's stored bank keeps it
    // apart, and channels 1 and 2 share their states.
    let seed = |i: usize, e: &mut Engine| {
        if i == 3 {
            e.set_srf_all(0.25);
        }
        store_lengths(i, e);
    };
    assert_eq!(
        sequence_matching_full_replay(&LAYOUT_SEQUENCE, &seed),
        LAYOUT_REUSE
    );
}

#[test]
fn pu_mut_and_host_stores_in_a_launch_sequence() {
    // After launch 3 channel 2 reads channel 1's states. Writing one of its
    // PUs before launch 4 changes that bank alone, as in
    // `pu_mut_gives_a_twin_channel_its_own_states`; launch 4 parts the
    // pair in layout and in state.
    let bank = TWIN + 2;
    let poke = |i: usize, e: &mut Engine| {
        store_lengths(i, e);
        if i != 4 {
            return;
        }
        let pus = |e: &Engine| -> Vec<String> {
            (0..e.num_banks())
                .map(|b| format!("{:?}", e.pu(b)))
                .collect()
        };
        let before = pus(e);
        e.pu_mut(bank).set_srf(0.75);
        for (b, (now, was)) in pus(e).iter().zip(&before).enumerate() {
            assert_eq!(now != was, b == bank, "bank {b}");
        }
    };
    assert_eq!(
        sequence_matching_full_replay(&LAYOUT_SEQUENCE, &poke),
        LAYOUT_REUSE
    );
}

/// Move the column stream of bank `b` to `row`: the rows stream's row 2,
/// where its reads hit the open row, or back to its own row 3. On a
/// channel's first bank, whose layout the replay decodes rows from, this
/// changes the channel's commands and cycles.
fn move_cols(e: &mut Engine, b: usize, row: u32) {
    e.mem_mut(b).set_start_row(STREAMS[1], row);
}

#[test]
fn host_row_moves_end_kept_layout_verdicts_bit_for_bit() {
    // The layout changes of `store_lengths`, made as row moves on the
    // channels' first banks, so a verdict kept past one would hand a
    // channel another channel's cycles: before launch 1 into the twin,
    // channel 2 (back before launch 2); before launch 3 into channel 0,
    // of another class; before launch 4 into channel 1, the first
    // channel of the twin's class.
    let moves = |i: usize, e: &mut Engine| match i {
        1 => move_cols(e, TWIN, 2),
        2 => move_cols(e, TWIN, 3),
        3 => move_cols(e, 0, 2),
        4 => move_cols(e, 4, 2),
        _ => {}
    };
    assert_eq!(
        sequence_matching_full_replay(&LAYOUT_SEQUENCE, &moves),
        LAYOUT_REUSE
    );
}

/// Build a twin cube, let `place` store its operands and return the
/// bindings, load `asm`, and run it.
fn launch(
    validate: bool,
    asm: &str,
    place: &dyn Fn(&mut Engine) -> Vec<Option<RegionId>>,
) -> (Engine, RunReport) {
    let mut engine = Engine::new(twin_cfg(validate));
    let bindings = place(&mut engine);
    engine
        .load_kernel(assemble(asm).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    (engine, report)
}

/// Run a launch plainly and under validation, check that both leave the
/// same bits, and return the plain run's followed banks, banks that had a
/// leader but ran themselves, and channels taken from a twin.
fn follow_matching_full_replay(
    asm: &str,
    place: &dyn Fn(&mut Engine) -> Vec<Option<RegionId>>,
) -> (usize, usize, usize) {
    let (plain, plain_report) = launch(false, asm, place);
    let (full, full_report) = launch(true, asm, place);
    assert_matches_full_replay((&plain, &plain_report), (&full, &full_report), "one launch");
    assert_eq!(full.followers(), (0, 0), "validated runs run every bank");
    let (followed, refused) = plain.followers();
    (followed, refused, plain.reused_channels())
}

/// A kernel that reads triples without storing: it gathers `x` at each
/// burst's columns and sums the gathered values into the scalar register,
/// and drops every entry (their rows are padding). `CEXIT` precedes the
/// gather, so the queue is empty there only once the stream has drained.
const READ_ONLY_ASM: &str = r"
SPMOV  SPVQ0, BANK, ROW, FP64
SPMOV  SPVQ0, BANK, COL, FP64
SPMOV  SPVQ0, BANK, VAL, FP64
CEXIT  SPVQ0
INDMOV DRF2, SPVQ0, FP64
REDUCE DRF2, ADD, FP64
SPVDV  SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64
JUMP   0, 0, 0
";

/// Three bursts of triples with padding rows and real columns for the
/// read-only kernel on every bank, and `x`; returns its bindings.
fn place_read_only(engine: &mut Engine, cols: &dyn Fn(usize) -> Vec<f64>) -> Vec<Option<RegionId>> {
    let x: Vec<f64> = (0..8).map(|i| 0.5 + f64::from(i)).collect();
    let mut bindings = Vec::new();
    for b in 0..engine.num_banks() {
        let mem = engine.mem_mut(b);
        let rows = mem.alloc(8, vec![SENTINEL; 12]);
        let cols = mem.alloc(8, cols(b));
        let vals = mem.alloc(8, (0..12).map(f64::from).collect());
        let x = mem.alloc(8, x.clone());
        bindings = vec![
            Some(rows),
            Some(cols),
            Some(vals),
            None,
            Some(x),
            None,
            None,
            None,
        ];
    }
    bindings
}

#[test]
fn a_follower_whose_reads_differ_runs_itself() {
    // (a) Every bank reads three bursts of triples and stores nothing.
    // Bank 1's third burst, first read in round 3, holds one other column
    // than bank 0's; every other bank equals bank 0. Bank 1 fails its
    // leader's read check and runs itself; banks 2 and 3 follow bank 0.
    // Channel 1 is no twin of channel 0 (bank 1 differs), so it replays
    // and its banks follow bank 4; channel 2 takes channel 1's outcome.
    let cols = |b: usize| {
        let mut cols: Vec<f64> = (0..12).map(|i| f64::from(i % 8)).collect();
        if b == 1 {
            cols[9] = 5.0;
        }
        cols
    };
    let place = |e: &mut Engine| place_read_only(e, &cols);
    let (plain, report) = launch(false, READ_ONLY_ASM, &place);
    assert_eq!(report.rounds, 4, "three bursts and the drained one");
    assert_ne!(plain.pu(1).srf().to_bits(), plain.pu(0).srf().to_bits());
    assert_eq!(
        follow_matching_full_replay(READ_ONLY_ASM, &place),
        (2 + 3, 1, 1)
    );
}

#[test]
fn followers_of_a_storing_leader_run_themselves() {
    // (b) The four banks of channel 0 hold the same entries, so they
    // start alike and read alike, but bank 0's scatter stores into `y`:
    // banks 1 to 3 run themselves. Channels 1 and 2 hold only padding.
    let mut per_bank = vec![Vec::new(); 12];
    for entries in per_bank.iter_mut().take(4) {
        *entries = vec![(1, 2, 3.0), (5, 6, 7.0), (2, 3, 4.0)];
    }
    let x: Vec<f64> = (0..8).map(|i| 0.5 + f64::from(i)).collect();
    let place = |e: &mut Engine| setup_spmv(e, &per_bank, &x, 8);
    assert_eq!(follow_matching_full_replay(SPMV_ASM, &place), (3, 3, 1));
}

#[test]
fn units_that_exit_in_their_prelude_follow_too() {
    // (c) A kernel without a memory instruction: every unit exits before
    // the first offer, and the launch runs 0 rounds.
    let place = |_: &mut Engine| vec![None; 2];
    let (_, report) = launch(false, "NOP\nEXIT\n", &place);
    assert_eq!(report.rounds, 0);
    assert_eq!(report.pu.exit_round, 0);
    assert_eq!(
        follow_matching_full_replay("NOP\nEXIT\n", &place),
        (3, 0, 2)
    );
}

#[test]
fn a_twin_channel_is_compared_with_its_witness_followers_reads() {
    // (d) Every bank holds padding; the banks of channels 1 and 2 also
    // gather x[3]. Channel 1 replays: bank 4 leads and banks 5 to 7 take
    // its run and its access log. Channel 2 starts like channel 1, so it
    // takes channel 1's outcome when every bank of it holds the elements
    // channel 1's banks read, followers included.
    let per_bank = vec![Vec::new(); 12];
    let x: Vec<f64> = (0..8).map(|i| 0.5 + f64::from(i)).collect();
    let gathers = |e: &mut Engine| {
        let bindings = setup_spmv(e, &per_bank, &x, 8);
        for b in 4..12 {
            gather_only(e, b);
        }
        bindings
    };
    assert_eq!(follow_matching_full_replay(SPMV_ASM, &gathers), (6, 0, 1));
    // Bank 9 reads another x[3] than bank 5 does: channel 2 replays, and
    // bank 9 runs itself.
    let differs = |e: &mut Engine| {
        let bindings = gathers(e);
        e.mem_mut(TWIN + 1).region_mut(X).set(3, -1.5);
        bindings
    };
    assert_eq!(
        follow_matching_full_replay(SPMV_ASM, &differs),
        (3 + 3 + 2, 1, 0)
    );
}

#[test]
fn reloading_the_running_program_keeps_its_kernel() {
    // Loading the program the engine runs, with bindings that fix the
    // same slot table, keeps the kernel and only restarts the PUs; a
    // binding with another stride builds a new one. Every run reports the
    // same, as the stride equals the slot's natural advance.
    let n = 16;
    let x: Vec<f64> = (0..n).map(|i| 0.25 * i as f64).collect();
    let verified = VerifiedProgram::new(assemble(SPMV_ASM).unwrap()).unwrap();
    let mut engine = Engine::new(small_cfg(ExecMode::AllBank));
    let per_bank = per_bank_entries(engine.num_banks(), n);
    let bindings: Vec<Option<Binding>> = setup_spmv(&mut engine, &per_bank, &x, n)
        .into_iter()
        .map(|r| r.map(Binding::new))
        .collect();
    let schedule = |e: &Engine| e.kernel.as_ref().unwrap().schedule().as_ptr();
    engine.load_verified(&verified, bindings.clone()).unwrap();
    let (kernel, first) = (schedule(&engine), engine.run().unwrap());
    engine.load_verified(&verified, bindings.clone()).unwrap();
    assert_eq!(schedule(&engine), kernel, "the kernel stays");
    assert_eq!(engine.run().unwrap(), first);
    let mut strided = bindings;
    strided[0] = strided[0].map(|b| Binding::strided(b.region, 0, 4));
    engine.load_verified(&verified, strided).unwrap();
    assert_ne!(
        schedule(&engine),
        kernel,
        "another slot table builds a new kernel"
    );
    assert_eq!(engine.run().unwrap(), first);
}
