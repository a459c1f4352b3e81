//! Processing-unit tests: the Algorithm-2 SpMV dataflow, predication,
//! conditional exit and divergence.

use super::*;
use crate::isa::assemble;
use crate::memory::{BankMemory, RegionId, SENTINEL};

const P: Precision = Precision::Fp64;

/// The paper's Algorithm 2 as assembly (see `isa::asm`).
const SPMV_ASM: &str = r"
SPMOV  SPVQ0, BANK, ROW, FP64   ; slot 0: row indices
SPMOV  SPVQ0, BANK, COL, FP64   ; slot 1: col indices
SPMOV  SPVQ0, BANK, VAL, FP64   ; slot 2: values
INDMOV DRF2, SPVQ0, FP64        ; slot 3: gather x[col]
SPVDV  SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64
SPVDV  BANK, SPVQ1, BANK, ADD, UNION, FP64  ; slot 5: y[row] += v
CEXIT  SPVQ0
JUMP   0, 0, 0
";

/// Build a bank holding `entries` of an n×n submatrix plus x and zeroed y,
/// returning (memory, bindings).
fn setup_bank(
    entries: &[(u32, u32, f64)],
    x: &[f64],
    n: usize,
) -> (BankMemory, Vec<Option<RegionId>>) {
    let lanes = P.lanes();
    let padded = entries.len().div_ceil(lanes).max(1) * lanes;
    let mut rows = vec![SENTINEL; padded];
    let mut cols = vec![SENTINEL; padded];
    let mut vals = vec![0.0; padded];
    for (i, &(r, c, v)) in entries.iter().enumerate() {
        rows[i] = f64::from(r);
        cols[i] = f64::from(c);
        vals[i] = v;
    }
    let mut mem = BankMemory::new(1024);
    let r_rows = mem.alloc(8, rows);
    let r_cols = mem.alloc(8, cols);
    let r_vals = mem.alloc(8, vals);
    let r_x = mem.alloc(8, x.to_vec());
    let r_y = mem.alloc_zeroed(8, n);
    let bindings = vec![
        Some(r_rows),
        Some(r_cols),
        Some(r_vals),
        Some(r_x),
        None,
        Some(r_y),
        None,
        None,
    ];
    (mem, bindings)
}

fn drive_to_completion(pu: &mut ProcessingUnit, mem: &mut BankMemory, schedule: &[usize]) -> u64 {
    let mut rounds = 0u64;
    while !pu.exited() {
        rounds += 1;
        assert!(rounds < 10_000, "kernel failed to exit");
        for &slot in schedule {
            pu.on_command(slot, mem);
            if pu.exited() {
                break;
            }
        }
        // End-of-round: give control instructions a chance (CEXIT/JUMP).
        pu.run_free(mem);
    }
    rounds
}

#[test]
fn spmv_kernel_computes_reference_result() {
    let n = 8;
    let entries = [
        (0u32, 1u32, 2.0),
        (1, 3, -1.0),
        (3, 0, 4.0),
        (3, 7, 0.5),
        (5, 5, 1.0),
        (7, 2, -3.0),
    ];
    let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let (mut mem, bindings) = setup_bank(&entries, &x, n);
    let program = assemble(SPMV_ASM).unwrap();
    let schedule = program.command_schedule().unwrap();
    assert_eq!(schedule, vec![0, 1, 2, 3, 5]);

    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, bindings.clone()).unwrap();
    drive_to_completion(&mut pu, &mut mem, &schedule);

    let mut want = vec![0.0; n];
    for &(r, c, v) in &entries {
        want[r as usize] += v * x[c as usize];
    }
    let y_region = bindings[5].unwrap();
    assert_eq!(mem.region(y_region).data(), want.as_slice());
}

#[test]
fn spmv_kernel_handles_many_chunks() {
    // More entries than one queue fill: 20 entries, lanes = 4.
    let n = 16;
    let entries: Vec<(u32, u32, f64)> = (0..20)
        .map(|i| ((i % 16) as u32, ((i * 3) % 16) as u32, 1.0 + i as f64))
        .collect();
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
    let (mut mem, bindings) = setup_bank(&entries, &x, n);
    let program = assemble(SPMV_ASM).unwrap();
    let schedule = program.command_schedule().unwrap();
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, bindings.clone()).unwrap();
    let rounds = drive_to_completion(&mut pu, &mut mem, &schedule);
    assert!(
        rounds >= 5,
        "20 entries at 4 lanes need >= 5 rounds, got {rounds}"
    );

    let mut want = vec![0.0; n];
    for &(r, c, v) in &entries {
        want[r as usize] += v * x[c as usize];
    }
    let y = mem.region(bindings[5].unwrap()).data().to_vec();
    for (got, want) in y.iter().zip(&want) {
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }
}

#[test]
fn empty_bank_exits_immediately() {
    let (mut mem, bindings) = setup_bank(&[], &[0.0; 4], 4);
    let program = assemble(SPMV_ASM).unwrap();
    let schedule = program.command_schedule().unwrap();
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, bindings).unwrap();
    let rounds = drive_to_completion(&mut pu, &mut mem, &schedule);
    // The all-sentinel first block arms CEXIT in round 1; exit by round 2.
    assert!(rounds <= 2, "empty bank took {rounds} rounds");
}

#[test]
fn divergent_banks_exit_in_different_rounds() {
    let n = 8;
    let x = vec![1.0; n];
    let light: Vec<(u32, u32, f64)> = vec![(0, 0, 1.0)];
    let heavy: Vec<(u32, u32, f64)> = (0..24)
        .map(|i| ((i % 8) as u32, (i % 8) as u32, 1.0))
        .collect();

    let program = assemble(SPMV_ASM).unwrap();
    let schedule = program.command_schedule().unwrap();

    let (mut mem_l, bind_l) = setup_bank(&light, &x, n);
    let mut pu_l = ProcessingUnit::new();
    pu_l.load_kernel(program.clone(), bind_l).unwrap();
    let r_light = drive_to_completion(&mut pu_l, &mut mem_l, &schedule);

    let (mut mem_h, bind_h) = setup_bank(&heavy, &x, n);
    let mut pu_h = ProcessingUnit::new();
    pu_h.load_kernel(program, bind_h).unwrap();
    let r_heavy = drive_to_completion(&mut pu_h, &mut mem_h, &schedule);

    assert!(
        r_heavy > r_light,
        "heavy bank ({r_heavy}) should outlast light bank ({r_light})"
    );
}

#[test]
fn exited_pu_ignores_commands() {
    let (mut mem, bindings) = setup_bank(&[], &[0.0; 4], 4);
    let program = assemble(SPMV_ASM).unwrap();
    let schedule = program.command_schedule().unwrap();
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, bindings).unwrap();
    drive_to_completion(&mut pu, &mut mem, &schedule);
    let off_before = pu.stats().predicated_off;
    let rep = pu.on_command(0, &mut mem);
    assert!(!rep.executed);
    assert_eq!(rep.pu_cycles, 0);
    assert_eq!(pu.stats().predicated_off, off_before + 1);
}

#[test]
fn out_of_phase_command_passes_over() {
    let entries = [(0u32, 0u32, 1.0); 1];
    let (mut mem, bindings) = setup_bank(&entries, &[1.0; 4], 4);
    let program = assemble(SPMV_ASM).unwrap();
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, bindings).unwrap();
    // PU waits at slot 0; offering slot 2 must not execute anything.
    let rep = pu.on_command(2, &mut mem);
    assert!(!rep.executed);
    assert_eq!(pu.pending_slot(), Some(0));
}

#[test]
fn dense_copy_kernel_via_jump_counts() {
    // DCOPY: load 32B from src, store to dst, ×4 chunks, EXIT.
    let asm = r"
DMOV DRF0, BANK, FP64
DMOV BANK, DRF0, FP64
JUMP 0, 1, 3
EXIT
";
    let program = assemble(asm).unwrap();
    let schedule = program.command_schedule().unwrap();
    assert_eq!(schedule.len(), 8); // 4 iterations × 2 memory ops

    let mut mem = BankMemory::new(1024);
    let src: Vec<f64> = (0..16).map(f64::from).collect();
    let r_src = mem.alloc(8, src.clone());
    let r_dst = mem.alloc_zeroed(8, 16);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(r_src), Some(r_dst), None, None])
        .unwrap();
    for &slot in &schedule {
        let rep = pu.on_command(slot, &mut mem);
        assert!(rep.executed);
    }
    pu.run_free(&mut mem);
    assert!(pu.exited());
    assert_eq!(mem.region(r_dst).data(), src.as_slice());
}

#[test]
fn reduce_accumulates_into_srf() {
    // DDOT-style: load x, load y, multiply, reduce-add; 2 chunks.
    let asm = r"
DMOV DRF0, BANK, FP64
DMOV DRF1, BANK, FP64
DVDV DRF2, DRF0, DRF1, MUL, FP64
REDUCE DRF2, ADD, FP64
JUMP 0, 1, 1
EXIT
";
    let program = assemble(asm).unwrap();
    let schedule = program.command_schedule().unwrap();
    let x: Vec<f64> = (0..8).map(|i| f64::from(i) + 1.0).collect();
    let y: Vec<f64> = (0..8).map(|i| 2.0 * f64::from(i) - 3.0).collect();
    let mut mem = BankMemory::new(1024);
    let rx = mem.alloc(8, x.clone());
    let ry = mem.alloc(8, y.clone());
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(rx), Some(ry), None, None, None, None])
        .unwrap();
    for &slot in &schedule {
        assert!(pu.on_command(slot, &mut mem).executed);
    }
    pu.run_free(&mut mem);
    let want: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    assert!((pu.srf() - want).abs() < 1e-12);
    assert!(pu.exited());
}

#[test]
fn int8_precision_quantizes_and_widens_lanes() {
    let asm = r"
DMOV DRF0, BANK, INT8
SDV  DRF0, DRF0, MUL, INT8
DMOV BANK, DRF0, INT8
EXIT
";
    let program = assemble(asm).unwrap();
    let schedule = program.command_schedule().unwrap();
    let src: Vec<f64> = (0..32).map(|i| f64::from(i) - 8.0).collect();
    let mut mem = BankMemory::new(1024);
    let rs = mem.alloc(1, src.clone());
    let rd = mem.alloc_zeroed(1, 32);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(rs), None, Some(rd), None])
        .unwrap();
    pu.set_srf(10.0);
    for &slot in &schedule {
        assert!(pu.on_command(slot, &mut mem).executed);
    }
    // 32 lanes moved in one burst; values = clamp(v * 10, i8 range).
    let got = mem.region(rd).data().to_vec();
    for (i, g) in got.iter().enumerate() {
        let want = ((f64::from(i as i32) - 8.0) * 10.0).clamp(-128.0, 127.0);
        assert_eq!(*g, want, "lane {i}");
    }
}

#[test]
fn gather_scatter_roundtrip_via_gthsct() {
    let asm = r"
GTHSCT SPVQ0, BANK, ZERO, FP64
GTHSCT BANK, SPVQ0, ZERO, FP64
JUMP 0, 1, 1
EXIT
";
    let program = assemble(asm).unwrap();
    let schedule = program.command_schedule().unwrap();
    let dense = vec![0.0, 5.0, 0.0, -2.0, 1.0, 0.0, 0.0, 9.0];
    let mut mem = BankMemory::new(1024);
    let rs = mem.alloc(8, dense.clone());
    let rd = mem.alloc_zeroed(8, 8);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(rs), Some(rd), None, None])
        .unwrap();
    for &slot in &schedule {
        pu.on_command(slot, &mut mem);
    }
    pu.run_free(&mut mem);
    assert_eq!(mem.region(rd).data(), dense.as_slice());
}

#[test]
fn load_kernel_requires_bindings() {
    let program = assemble("DMOV DRF0, BANK, FP64\nEXIT\n").unwrap();
    let mut pu = ProcessingUnit::new();
    assert!(matches!(
        pu.load_kernel::<RegionId>(program, vec![None, None]),
        Err(CoreError::Binding(_))
    ));
}

#[test]
fn nested_loops_use_distinct_order_counters() {
    // outer ×3 { load; inner ×2 { compute } ; store }
    let asm = r"
DMOV DRF0, BANK, FP64
SDV  DRF0, DRF0, MUL, FP64
JUMP 1, 1, 1
DMOV BANK, DRF0, FP64
JUMP 0, 2, 2
EXIT
";
    let program = assemble(asm).unwrap();
    let schedule = program.command_schedule().unwrap();
    // 3 outer iterations x (1 load + 1 store).
    assert_eq!(schedule, vec![0, 3, 0, 3, 0, 3]);

    let mut mem = BankMemory::new(1024);
    let src: Vec<f64> = (0..12).map(|i| f64::from(i) + 1.0).collect();
    let rs = mem.alloc(8, src.clone());
    let rd = mem.alloc_zeroed(8, 12);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(rs), None, None, Some(rd), None, None])
        .unwrap();
    pu.set_srf(2.0);
    for &slot in &schedule {
        assert!(pu.on_command(slot, &mut mem).executed);
    }
    pu.run_free(&mut mem);
    assert!(pu.exited());
    // Each chunk multiplied by 2 twice (inner loop ran the SDV twice).
    let want: Vec<f64> = src.iter().map(|v| v * 4.0).collect();
    assert_eq!(mem.region(rd).data(), want.as_slice());
}

#[test]
fn queue_full_load_stalls_and_counts_predication() {
    // Loads without a drain: the third 32B block must stall (64B cap).
    let asm = r"
SPMOV SPVQ0, BANK, VAL, FP64
SPMOV SPVQ0, BANK, VAL, FP64
SPMOV SPVQ0, BANK, VAL, FP64
EXIT
";
    let program = assemble(asm).unwrap();
    let mut mem = BankMemory::new(1024);
    let rs = mem.alloc(8, (0..16).map(f64::from).collect());
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(rs), Some(rs), Some(rs), None])
        .unwrap();
    assert!(pu.on_command(0, &mut mem).executed);
    assert!(pu.on_command(1, &mut mem).executed); // queue now 8/8 FP64
    let off_before = pu.stats().predicated_off;
    let rep = pu.on_command(2, &mut mem);
    assert!(!rep.executed, "full sub-queue must predicate the load off");
    assert_eq!(pu.stats().predicated_off, off_before + 1);
    assert_eq!(pu.pending_slot(), Some(2));
}

#[test]
fn spvspv_union_and_intersection() {
    // Load two sparse vectors, combine, and force-write the result.
    let asm = r"
SPMOV  SPVQ0, BANK, ROW, FP64
SPMOV  SPVQ0, BANK, COL, FP64
SPMOV  SPVQ0, BANK, VAL, FP64
SPMOV  SPVQ1, BANK, ROW, FP64
SPMOV  SPVQ1, BANK, COL, FP64
SPMOV  SPVQ1, BANK, VAL, FP64
SPVSPV SPVQ2, SPVQ0, SPVQ1, ADD, UNION, FP64
SPFW   SPVQ2, FP64
EXIT
";
    let program = assemble(asm).unwrap();
    let mut mem = BankMemory::new(1024);
    // Vector A: indices {0, 2}; vector B: indices {2, 3}; values chosen so
    // sums are recognizable.
    let a_rows = vec![0.0, 0.0, SENTINEL, SENTINEL];
    let a_cols = vec![0.0, 2.0, SENTINEL, SENTINEL];
    let a_vals = vec![1.0, 2.0, 0.0, 0.0];
    let b_rows = vec![0.0, 0.0, SENTINEL, SENTINEL];
    let b_cols = vec![2.0, 3.0, SENTINEL, SENTINEL];
    let b_vals = vec![10.0, 20.0, 0.0, 0.0];
    let r0 = mem.alloc(8, a_rows);
    let r1 = mem.alloc(8, a_cols);
    let r2 = mem.alloc(8, a_vals);
    let r3 = mem.alloc(8, b_rows);
    let r4 = mem.alloc(8, b_cols);
    let r5 = mem.alloc(8, b_vals);
    let out = mem.alloc_zeroed(8, 24);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(
        program.clone(),
        vec![
            Some(r0),
            Some(r1),
            Some(r2),
            Some(r3),
            Some(r4),
            Some(r5),
            None,
            Some(out),
            None,
        ],
    )
    .unwrap();
    for &slot in &program.command_schedule().unwrap() {
        assert!(pu.on_command(slot, &mut mem).executed, "slot {slot}");
    }
    // Union of {0:1, 2:2} + {2:10, 3:20} = {0:1, 2:12, 3:20}.
    let data = mem.region(out).data();
    let triples: Vec<(f64, f64)> = data
        .chunks(3)
        .take_while(|t| !(t[0] == 0.0 && t[1] == 0.0 && t[2] == 0.0))
        .map(|t| (t[1], t[2]))
        .collect();
    assert_eq!(triples, vec![(0.0, 1.0), (2.0, 12.0), (3.0, 20.0)]);
}

#[test]
fn indmov_into_srf_takes_first_gather() {
    let asm = r"
SPMOV  SPVQ0, BANK, ROW, FP64
SPMOV  SPVQ0, BANK, COL, FP64
SPMOV  SPVQ0, BANK, VAL, FP64
INDMOV SRF, SPVQ0, FP64
EXIT
";
    let program = assemble(asm).unwrap();
    let mut mem = BankMemory::new(1024);
    let rows = mem.alloc(8, vec![0.0, 1.0, SENTINEL, SENTINEL]);
    let cols = mem.alloc(8, vec![3.0, 1.0, SENTINEL, SENTINEL]);
    let vals = mem.alloc(8, vec![1.0, 1.0, 0.0, 0.0]);
    let vecr = mem.alloc(8, vec![10.0, 20.0, 30.0, 40.0]);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(
        program.clone(),
        vec![Some(rows), Some(cols), Some(vals), Some(vecr), None],
    )
    .unwrap();
    for &slot in &program.command_schedule().unwrap() {
        pu.on_command(slot, &mut mem);
    }
    // First queued column index is 3 -> x[3] = 40.
    assert_eq!(pu.srf(), 40.0);
}

#[test]
fn fp32_stores_quantize() {
    let asm = r"
DMOV DRF0, BANK, FP32
DMOV BANK, DRF0, FP32
EXIT
";
    let program = assemble(asm).unwrap();
    let mut mem = BankMemory::new(1024);
    let v = 1.0 + 1e-12; // not representable in f32
    let rs = mem.alloc(4, vec![v; 8]);
    let rd = mem.alloc_zeroed(4, 8);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, vec![Some(rs), Some(rd), None])
        .unwrap();
    pu.on_command(0, &mut mem);
    pu.on_command(1, &mut mem);
    assert_eq!(mem.region(rd).data()[0], 1.0, "FP32 store rounds");
}

#[test]
fn strided_binding_walks_interleaved_layout() {
    use crate::memory::Binding;
    // One region holding [a-block | b-block] pairs; two load slots with
    // offsets 0 and 4 and stride 8 must see disjoint streams.
    let asm = r"
DMOV DRF0, BANK, FP64
DMOV DRF1, BANK, FP64
DVDV DRF2, DRF0, DRF1, ADD, FP64
DMOV BANK, DRF2, FP64
JUMP 0, 1, 1
EXIT
";
    let program = assemble(asm).unwrap();
    let mut mem = BankMemory::new(1024);
    // Pairs: a = [1,2,3,4], b = [10,20,30,40]; then a=[5..], b=[50..].
    let data = vec![
        1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0, 5.0, 6.0, 7.0, 8.0, 50.0, 60.0, 70.0, 80.0,
    ];
    let r = mem.alloc(8, data);
    let out = mem.alloc_zeroed(8, 8);
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(
        program.clone(),
        vec![
            Some(Binding::strided(r, 0, 8)),
            Some(Binding::strided(r, 4, 8)),
            None,
            Some(Binding::new(out)),
            None,
            None,
        ],
    )
    .unwrap();
    for &slot in &program.command_schedule().unwrap() {
        assert!(pu.on_command(slot, &mut mem).executed);
    }
    assert_eq!(
        mem.region(out).data(),
        &[11.0, 22.0, 33.0, 44.0, 55.0, 66.0, 77.0, 88.0]
    );
}

// ---- frozen interpreter references ------------------------------------
//
// Three programs that together cover every instruction arm, replayed
// offer by offer along their command schedules. The expected memories,
// counters and per-offer outcomes were recorded from the original
// allocating interpreter, so the stack-buffer arms are pinned against
// that reference rather than against themselves.

/// The final state of one reference replay.
#[derive(Debug, PartialEq)]
struct Replay {
    /// Every region's contents, in allocation order.
    regions: Vec<Vec<f64>>,
    stats: PuStats,
    srf: f64,
    /// One letter per offer: `E` executed, `e` executed empty, `o` out of
    /// phase, `f` queue full, `x` exited.
    outcomes: String,
}

/// Load `asm` over regions holding `data`, seed the scalar register, run
/// the free prelude, then offer up to `offers` commands in schedule order
/// (stopping at exit), as the engine does.
fn replay(asm: &str, data: &[&[f64]], bindings: Vec<Option<Binding>>, srf: f64) -> Replay {
    let program = assemble(asm).unwrap();
    let schedule = program.command_schedule().unwrap();
    let mut mem = BankMemory::new(1024);
    for d in data {
        mem.alloc(8, d.to_vec());
    }
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(program, bindings).unwrap();
    pu.set_srf(srf);
    pu.run_free(&mut mem);
    let mut outcomes = String::new();
    for &slot in schedule.iter().cycle().take(64) {
        let rep = pu.on_command(slot, &mut mem);
        outcomes.push(match rep.outcome {
            StepOutcome::Executed => 'E',
            StepOutcome::ExecutedEmpty => 'e',
            StepOutcome::OutOfPhase => 'o',
            StepOutcome::QueueFull => 'f',
            StepOutcome::Exited => 'x',
        });
        if pu.exited() {
            break;
        }
    }
    Replay {
        regions: (0..data.len())
            .map(|i| mem.region(RegionId(i)).data().to_vec())
            .collect(),
        stats: *pu.stats(),
        srf: pu.srf(),
        outcomes,
    }
}

#[test]
fn sparse_stream_matches_frozen_reference() {
    // The SpMV inner loop: SPMOV row/col/val, INDMOV gather, SpVDV
    // against a dense register, SpVDV accumulate into the bank,
    // CEXIT + JUMP — every gather and stream arm in one program.
    let s = SENTINEL;
    let triples = [
        0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 0.0, 2.0, 3.0, 4.0, 5.0, s, s, s, s, s, s, s, s, 0.0,
        0.0, 0.0, 0.0,
    ];
    let (t, x, y) = (RegionId(0), RegionId(1), RegionId(2));
    let got = replay(
        SPMV_ASM,
        &[&triples, &[1.0, 10.0, 100.0, 1000.0], &[0.0; 8]],
        vec![
            Some(Binding::strided(t, 0, 12)),
            Some(Binding::strided(t, 4, 12)),
            Some(Binding::strided(t, 8, 12)),
            Some(Binding::new(x)),
            None,
            Some(Binding::new(y)),
            None,
            None,
        ],
        0.0,
    );
    let want = Replay {
        regions: vec![
            triples.to_vec(),
            vec![1.0, 10.0, 100.0, 1000.0],
            vec![2.0, 30.0, 400.0, 5.0, 0.0, 0.0, 0.0, 0.0],
        ],
        stats: PuStats {
            instructions: 15,
            mem_ops: 10,
            predicated_off: 0,
            lane_ops: 20,
            busy_cycles: 23,
            exit_round: u64::MAX,
            instructions_at_exit: 0,
        },
        srf: 0.0,
        outcomes: "EEEEEEEEEex".to_string(),
    };
    assert_eq!(got, want);
}

#[test]
fn blas1_register_ops_match_frozen_reference() {
    // DMOV bank<->DRF, SDV, DVDV, SRF broadcast, REDUCE and a counted
    // JUMP: the dense BLAS-1 shapes (AXPY/DOT) plus the register moves.
    let asm = "\
DMOV   DRF0, BANK, FP64
DMOV   DRF1, BANK, FP64
SDV    DRF0, DRF0, MUL, FP64
DVDV   DRF1, DRF0, DRF1, ADD, FP64
DMOV   BANK, DRF1, FP64
DMOV   DRF2, SRF, FP64
REDUCE DRF1, ADD, FP64
JUMP   0, 1, 3
EXIT
";
    let x_data = [
        1.5, -2.0, 3.25, 4.0, 0.5, 6.0, -7.5, 8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0,
    ];
    let y_data = [
        0.5, 1.0, -1.0, 2.0, 3.0, -3.0, 4.0, 0.25, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0,
    ];
    let (x, y) = (RegionId(0), RegionId(1));
    let got = replay(
        asm,
        &[&x_data, &y_data],
        vec![
            Some(Binding::new(x)),
            Some(Binding::new(y)),
            None,
            None,
            Some(Binding::new(y)),
            None,
            None,
            None,
            None,
        ],
        1.25,
    );
    let want = Replay {
        regions: vec![
            x_data.to_vec(),
            vec![
                2.375, -1.5, 3.0625, 7.0, 9.09375, 70.125, -87.40625, 97.75, 110.75, 211.5, 312.25,
                413.0, 5751.25, 6899.5, 8047.75, 9196.0,
            ],
        ],
        stats: PuStats {
            instructions: 33,
            mem_ops: 12,
            predicated_off: 0,
            lane_ops: 48,
            busy_cycles: 33,
            exit_round: u64::MAX,
            instructions_at_exit: 0,
        },
        srf: 31043.75,
        outcomes: "EEEEEEEEEEEEx".to_string(),
    };
    assert_eq!(got, want);
}

#[test]
fn gather_scatter_and_spvspv_match_frozen_reference() {
    // GTHSCT gathers of two dense regions, an SpVSpV union merge and an
    // SpFW flush, looping until the gathers drain.
    let asm = "\
GTHSCT SPVQ0, BANK, ZERO, FP64
GTHSCT SPVQ1, BANK, ZERO, FP64
SPVSPV SPVQ2, SPVQ0, SPVQ1, ADD, UNION, FP64
SPFW   SPVQ2, FP64
CEXIT  SPVQ0
JUMP   0, 0, 0
";
    let a_data = [0.0, 2.0, 0.0, 4.0, 5.0, 0.0, 0.0, 8.0];
    let b_data = [1.0, 0.0, 3.0, 4.0, 0.0, 6.0, 0.0, 0.0];
    let (a, b, out) = (RegionId(0), RegionId(1), RegionId(2));
    let got = replay(
        asm,
        &[&a_data, &b_data, &[0.0; 48]],
        vec![
            Some(Binding::new(a)),
            Some(Binding::new(b)),
            None,
            Some(Binding::new(out)),
            None,
            None,
        ],
        0.0,
    );
    // SpFW flushes (row, col, value) triples of the union.
    let mut flushed = vec![
        0.0, 0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 2.0, 3.0, 0.0, 3.0, 8.0, 0.0, 4.0, 5.0, 0.0, 5.0, 6.0,
        0.0, 7.0, 8.0,
    ];
    flushed.resize(48, 0.0);
    let want = Replay {
        regions: vec![a_data.to_vec(), b_data.to_vec(), flushed],
        stats: PuStats {
            instructions: 17,
            mem_ops: 9,
            predicated_off: 0,
            lane_ops: 16,
            busy_cycles: 17,
            exit_round: u64::MAX,
            instructions_at_exit: 0,
        },
        srf: 0.0,
        outcomes: "EEEEEEeeex".to_string(),
    };
    assert_eq!(got, want);
}

#[test]
fn every_precision_fits_the_stack_buffers() {
    for p in Precision::ALL {
        assert!(p.lanes() <= MAX_LANES, "{p:?} runs {} lanes", p.lanes());
    }
}
