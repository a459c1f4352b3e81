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
        let r0 = mem.alloc("rows", 8, rows);
        let r1 = mem.alloc("cols", 8, cols);
        let r2 = mem.alloc("vals", 8, vals);
        let r3 = mem.alloc("x", 8, x.to_vec());
        let r4 = mem.alloc_zeroed("y", 8, n);
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
fn trace_records_ordered_commands_when_enabled() {
    let mut cfg = small_cfg(ExecMode::AllBank);
    cfg.record_trace = true;
    let mut engine = Engine::new(cfg);
    let n = 8;
    let nbanks = engine.num_banks();
    let x = vec![1.0; n];
    let per_bank = per_bank_entries(nbanks, n);
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    assert!(!report.trace.is_empty());
    assert_eq!(report.trace.len() as u64, report.commands.total_commands());
    // Per channel, cycles are non-decreasing and the stream starts with the
    // MRS setup sequence.
    for ch in 0..2 {
        let evs: Vec<_> = report.trace.iter().filter(|e| e.channel == ch).collect();
        assert!(evs.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(matches!(evs[0].cmd, psim_dram::CmdKind::Mrs));
        // An ACT precedes the first RD.
        let first_rd = evs
            .iter()
            .position(|e| matches!(e.cmd, psim_dram::CmdKind::Rd { .. }));
        let first_act = evs
            .iter()
            .position(|e| matches!(e.cmd, psim_dram::CmdKind::Act { .. }));
        assert!(first_act.unwrap() < first_rd.unwrap());
    }
    // Default config records nothing.
    let mut engine2 = Engine::new(small_cfg(ExecMode::AllBank));
    let bindings2 = setup_spmv(&mut engine2, &per_bank, &x, n);
    engine2
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings2)
        .unwrap();
    assert!(engine2.run().unwrap().trace.is_empty());
}

#[test]
fn trace_limit_caps_events_and_counts_drops() {
    let mut cfg = small_cfg(ExecMode::AllBank);
    cfg.record_trace = true;
    cfg.trace_limit = 10;
    let mut engine = Engine::new(cfg);
    let n = 8;
    let per_bank = per_bank_entries(engine.num_banks(), n);
    let x = vec![1.0; n];
    let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
    engine
        .load_kernel(assemble(SPMV_ASM).unwrap(), bindings)
        .unwrap();
    let report = engine.run().unwrap();
    // 10 per channel × 2 channels recorded; the rest counted, not stored.
    assert_eq!(report.trace.len(), 20);
    assert!(report.trace_dropped > 0);
    assert_eq!(
        report.trace.len() as u64 + report.trace_dropped,
        report.commands.total_commands()
    );
}

#[test]
fn parallel_run_is_bit_identical_to_serial() {
    // Every auditing feature on, so nothing is compared away.
    let run = |mode: ExecMode, workers: usize| {
        let mut cfg = small_cfg(mode);
        cfg.record_trace = true;
        cfg.attribute = true;
        cfg.validate = true;
        let mut engine = Engine::new(cfg);
        let n = 16;
        let per_bank = per_bank_entries(engine.num_banks(), n);
        let x: Vec<f64> = (0..n).map(|i| 0.25 + i as f64).collect();
        let bindings = setup_spmv(&mut engine, &per_bank, &x, n);
        engine
            .load_kernel(assemble(SPMV_ASM).unwrap(), bindings.clone())
            .unwrap();
        let report = if workers == 1 {
            engine.run().unwrap()
        } else {
            engine.run_parallel(workers).unwrap()
        };
        let ys: Vec<Vec<f64>> = (0..engine.num_banks())
            .map(|b| engine.mem(b).region(bindings[5].unwrap()).data().to_vec())
            .collect();
        (report, ys)
    };
    for mode in [ExecMode::AllBank, ExecMode::PerBank] {
        let (serial, ys_serial) = run(mode, 1);
        assert_eq!(serial.violation_count(), 0, "{mode:?}");
        for workers in [2, 4, 7] {
            let (parallel, ys_par) = run(mode, workers);
            assert_eq!(serial, parallel, "{mode:?}, {workers} workers");
            assert_eq!(ys_serial, ys_par, "{mode:?}, {workers} workers");
        }
    }
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
        let rs = mem.alloc("src", 8, src);
        let rd = mem.alloc_zeroed("dst", 8, 64);
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
    let build = |refresh: bool| {
        let mut cfg = small_cfg(ExecMode::AllBank);
        cfg.refresh = refresh;
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
        engine.run().unwrap()
    };
    let without = build(false);
    let with = build(true);
    assert_eq!(without.commands.refs, 0);
    assert!(with.commands.refs > 0, "expected refreshes to be issued");
    assert!(
        with.dram_cycles > without.dram_cycles,
        "refresh must cost cycles: {} vs {}",
        with.dram_cycles,
        without.dram_cycles
    );
    // tREFI spacing: roughly one REF per channel per tREFI of runtime.
    let expected = without.dram_cycles / 3_900;
    assert!(
        with.commands.refs >= expected.saturating_sub(2) * 2,
        "refs {} vs expected ~{} per channel",
        with.commands.refs,
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
        // the refresh contract too (refresh defaults to on).
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
    // A verified program loads without a second lint and every PU shares
    // it; the run is bit-identical to loading the raw program, which
    // validation lints again.
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
            for b in 0..nbanks {
                let program = engine.pu(b).program().expect("loaded");
                assert!(
                    std::ptr::eq(program.instructions(), verified.instructions()),
                    "PU {b} holds a copy of the program"
                );
            }
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
        out = engine.mem_mut(b).alloc_zeroed("out", 8, 12);
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
    // Refresh defaults to on and applies to the per-bank baseline too:
    // rows close, one all-bank REF is issued, and the run stays legal.
    let mut cfg = small_cfg(ExecMode::PerBank);
    cfg.validate = true;
    assert!(cfg.refresh, "refresh must default to on");
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
