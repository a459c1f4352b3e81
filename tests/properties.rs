//! Property-based tests (proptest) over the core invariants of the stack.

use proptest::prelude::*;
use psyncpim::core::isa::{
    assemble, disassemble, BinaryOp, Identity, Instruction, Operand, SetMode, SubQueue,
};
use psyncpim::dram::{Channel, CmdKind, HbmConfig, Scope};
use psyncpim::kernels::{PimDevice, SpmvPim};
use psyncpim::sparse::partition::{BankPartition, DistPolicy, PartitionConfig, PartitionScheme};
use psyncpim::sparse::triangular::{unit_triangular_from, Triangle, UnitTriangular};
use psyncpim::sparse::{mmio, BlockPlan, Coo, Csc, Csr, Entry, LevelSchedule, Precision};

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop::sample::select(Precision::ALL.to_vec())
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop::sample::select(vec![
        Operand::Bank,
        Operand::Srf,
        Operand::Drf(0),
        Operand::Drf(1),
        Operand::Drf(2),
        Operand::SpVq(0),
        Operand::SpVq(1),
        Operand::SpVq(2),
    ])
}

fn arb_binop() -> impl Strategy<Value = BinaryOp> {
    prop::sample::select(vec![
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::First,
        BinaryOp::Second,
        BinaryOp::RSub,
    ])
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        Just(Instruction::Nop),
        Just(Instruction::Exit),
        (0u8..3).prop_map(|queue| Instruction::CExit { queue }),
        (0u8..32, 0u8..32, 0u16..1024).prop_map(|(target, order, count)| Instruction::Jump {
            target,
            order,
            count
        }),
        (arb_operand(), arb_operand(), arb_precision()).prop_map(|(dst, src, precision)| {
            Instruction::Dmov {
                dst,
                src,
                precision,
            }
        }),
        (arb_operand(), 0u8..3, arb_precision()).prop_map(|(dst, idx_queue, precision)| {
            Instruction::IndMov {
                dst,
                idx_queue,
                precision,
            }
        }),
        (
            arb_operand(),
            arb_operand(),
            prop::sample::select(vec![
                SubQueue::Row,
                SubQueue::Col,
                SubQueue::Val,
                SubQueue::All
            ]),
            arb_precision()
        )
            .prop_map(|(dst, src, sub, precision)| Instruction::SpMov {
                dst,
                src,
                sub,
                precision,
            }),
        (0u8..3, arb_precision()).prop_map(|(src, precision)| Instruction::SpFw { src, precision }),
        (
            arb_operand(),
            arb_operand(),
            prop::sample::select(vec![
                Identity::Zero,
                Identity::One,
                Identity::NegInf,
                Identity::PosInf
            ]),
            arb_precision()
        )
            .prop_map(|(dst, src, identity, precision)| Instruction::GthSct {
                dst,
                src,
                identity,
                precision,
            }),
        (arb_operand(), arb_operand(), arb_binop(), arb_precision()).prop_map(
            |(dst, src, op, precision)| Instruction::Sdv {
                dst,
                src,
                op,
                precision,
            }
        ),
        (
            arb_operand(),
            arb_operand(),
            arb_operand(),
            arb_binop(),
            prop::sample::select(vec![SetMode::Intersection, SetMode::Union]),
            arb_precision()
        )
            .prop_map(|(dst, src0, src1, op, set, precision)| Instruction::SpVdv {
                dst,
                src0,
                src1,
                op,
                set,
                precision,
            }),
    ]
}

/// Random sparse matrices as entry lists.
fn arb_coo(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (2..max_dim).prop_flat_map(move |n| {
        prop::collection::vec((0..n as u32, 0..n as u32, -10.0f64..10.0), 0..max_nnz).prop_map(
            move |entries| {
                let mut m = Coo::new(n, n);
                for (r, c, v) in entries {
                    m.push(r, c, v);
                }
                m.coalesce();
                m
            },
        )
    })
}

/// Every partition scheme the layout zoo executes from.
fn arb_scheme() -> impl Strategy<Value = PartitionScheme> {
    prop::sample::select(vec![
        PartitionScheme::Row1D,
        PartitionScheme::Grid2D { col_blocks: 2 },
        PartitionScheme::Grid2D { col_blocks: 3 },
        PartitionScheme::Balanced2D { col_blocks: 2 },
        PartitionScheme::Balanced2D { col_blocks: 4 },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn isa_encode_decode_roundtrips(ins in arb_instruction()) {
        let word = ins.encode().expect("generated instructions encode");
        let back = Instruction::decode(word).expect("decode");
        prop_assert_eq!(back, ins);
    }

    #[test]
    fn format_conversions_roundtrip(a in arb_coo(64, 200)) {
        let csr = Csr::from(&a);
        let csc = Csc::from(&a);
        let mut from_csr = Coo::from(&csr);
        let mut from_csc = Coo::from(&csc);
        let mut orig = a.clone();
        orig.sort_row_major();
        from_csr.sort_row_major();
        from_csc.sort_row_major();
        prop_assert_eq!(&from_csr, &orig);
        prop_assert_eq!(&from_csc, &orig);
    }

    #[test]
    fn spmv_agrees_across_formats(a in arb_coo(48, 150), seed in 0u64..1000) {
        let x = psyncpim::sparse::gen::dense_vector(a.ncols(), seed);
        let y0 = a.spmv(&x);
        let y1 = Csr::from(&a).spmv(&x);
        let y2 = Csc::from(&a).spmv(&x);
        for i in 0..y0.len() {
            prop_assert!((y0[i] - y1[i]).abs() < 1e-9);
            prop_assert!((y0[i] - y2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn partition_conserves_nnz_and_matches_spmv(a in arb_coo(96, 300), rb in prop::sample::select(vec![128usize, 256, 1024])) {
        let part = BankPartition::build(&a, PartitionConfig {
            num_banks: 8,
            row_bytes: rb,
            precision: Precision::Fp64,
            policy: DistPolicy::RoundRobin,
            compress: true,
            scheme: PartitionScheme::Row1D,
        });
        prop_assert_eq!(part.total_nnz(), a.nnz());
        let x = vec![1.0; a.ncols()];
        let got = part.spmv(&x);
        let want = a.spmv(&x);
        for i in 0..want.len() {
            prop_assert!((got[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn every_partition_scheme_conserves_entries_and_bounds(
        a in arb_coo(96, 300),
        scheme in arb_scheme(),
        policy in prop::sample::select(vec![DistPolicy::RoundRobin, DistPolicy::LeastLoaded]),
    ) {
        let banks = 8usize;
        let part = BankPartition::build(&a, PartitionConfig {
            num_banks: banks,
            row_bytes: 256,
            precision: Precision::Fp64,
            policy,
            compress: true,
            scheme,
        });
        // No entry duplicated or dropped: the partition's entry multiset,
        // mapped back to global coordinates, is exactly the matrix's.
        prop_assert_eq!(part.total_nnz(), a.nnz());
        let mut reassembled: Vec<(u32, u32, u64)> = part
            .submatrices()
            .iter()
            .flat_map(|s| s.entries.iter().map(move |e| (
                e.row + s.row_lo as u32,
                s.cols[e.col as usize],
                e.val.to_bits(),
            )))
            .collect();
        reassembled.sort_unstable();
        let mut original: Vec<(u32, u32, u64)> = a
            .entries()
            .iter()
            .map(|e| (e.row, e.col, e.val.to_bits()))
            .collect();
        original.sort_unstable();
        prop_assert_eq!(reassembled, original);
        // Every submatrix stays inside the matrix and its own strip.
        for s in part.submatrices() {
            prop_assert!(s.bank < banks);
            prop_assert!(s.row_lo < s.row_hi && s.row_hi <= a.nrows());
            prop_assert!(s.cols.windows(2).all(|w| w[0] < w[1]), "cols sorted+unique");
            prop_assert!(s.cols.iter().all(|&c| (c as usize) < a.ncols()));
            for e in &s.entries {
                prop_assert!((e.row as usize) < s.row_hi - s.row_lo);
                prop_assert!((e.col as usize) < s.cols.len());
            }
        }
        // And the partition still computes the same product.
        let x = psyncpim::sparse::gen::dense_vector(a.ncols(), 17);
        let got = part.spmv(&x);
        let want = a.spmv(&x);
        for i in 0..want.len() {
            prop_assert!((got[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn triangular_solves_roundtrip(a in arb_coo(40, 160)) {
        for triangle in [Triangle::Lower, Triangle::Upper] {
            let t = unit_triangular_from(&a, triangle).expect("square");
            let x: Vec<f64> = (0..t.dim()).map(|i| (i % 7) as f64 - 3.0).collect();
            let b = t.matvec(&x);
            let col = t.solve_colwise(&b).expect("dims");
            let row = t.solve_rowwise(&b).expect("dims");
            for i in 0..x.len() {
                prop_assert!((col[i] - x[i]).abs() < 1e-8, "colwise {}", i);
                prop_assert!((row[i] - x[i]).abs() < 1e-8, "rowwise {}", i);
            }
        }
    }

    #[test]
    fn block_plan_solve_equals_direct(a in arb_coo(60, 200), max_block in 4usize..40) {
        let t = unit_triangular_from(&a, Triangle::Lower).expect("square");
        let b: Vec<f64> = (0..t.dim()).map(|i| 1.0 + (i % 5) as f64).collect();
        let plan = BlockPlan::build(Triangle::Lower, t.dim(), max_block);
        let got = plan.execute_reference(&t, &b).expect("plan");
        let want = t.solve_colwise(&b).expect("direct");
        for i in 0..want.len() {
            prop_assert!((got[i] - want[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn level_schedule_respects_dependencies(a in arb_coo(50, 150)) {
        for triangle in [Triangle::Lower, Triangle::Upper] {
            let t = unit_triangular_from(&a, triangle).expect("square");
            let sched = LevelSchedule::analyze(&t);
            let perm = sched.reorder_permutation();
            prop_assert!(sched.respects_dependencies(&t, &perm));
        }
    }

    #[test]
    fn mmio_roundtrips(a in arb_coo(32, 100)) {
        let text = mmio::write_str(&a);
        let back = mmio::read_str(&text).expect("parse");
        prop_assert_eq!(back, a);
    }

    #[test]
    fn dram_issue_respects_earliest(rows in prop::collection::vec(0u32..64, 1..20)) {
        let cfg = HbmConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut now = 0u64;
        for (i, &row) in rows.iter().enumerate() {
            if i > 0 {
                now = ch.issue_earliest(Scope::AllBanks, CmdKind::Pre, now)
                    .expect("pre").issue_cycle;
            }
            let act = ch.issue_earliest(Scope::AllBanks, CmdKind::Act { row }, now)
                .expect("act");
            prop_assert!(act.issue_cycle >= now);
            now = act.issue_cycle;
            let rd = ch.issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, now)
                .expect("rd");
            prop_assert!(rd.issue_cycle >= now + u64::from(cfg.timing.t_rcd > 0));
            now = rd.issue_cycle;
        }
        // Commands were all accounted.
        prop_assert_eq!(ch.stats().acts as usize, rows.len());
    }

    #[test]
    fn binaryop_apply_is_total(op in arb_binop(), a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let v = op.apply(a, b);
        prop_assert!(v.is_finite());
    }

    #[test]
    fn quantize_is_idempotent(p in arb_precision(), v in -1e4f64..1e4) {
        let q = p.quantize(v);
        prop_assert_eq!(p.quantize(q), q);
    }
}

proptest! {
    // The full device simulation is heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pim_spmv_matches_reference_on_random_matrices(a in arb_coo(80, 250), seed in 0u64..100) {
        let x = psyncpim::sparse::gen::dense_vector(a.ncols(), seed);
        let res = SpmvPim::new(PimDevice::tiny(1), Precision::Fp64)
            .run(&a, &x)
            .expect("spmv");
        let want = a.spmv(&x);
        for (i, (yi, wi)) in res.y.iter().zip(&want).enumerate() {
            prop_assert!(
                (yi - wi).abs() < 1e-9 * wi.abs().max(1.0),
                "row {}: {} vs {}", i, yi, wi
            );
        }
    }

    #[test]
    fn pim_sptrsv_matches_reference_on_random_triangles(a in arb_coo(60, 200), seed in 0u64..100) {
        let t = unit_triangular_from(&a, Triangle::Lower).expect("square");
        let want_x = psyncpim::sparse::gen::dense_vector(t.dim(), seed);
        let b = t.matvec(&want_x);
        let res = psyncpim::kernels::SptrsvPim::new(PimDevice::tiny(1))
            .run(&t, &b)
            .expect("sptrsv");
        for (i, (xi, wi)) in res.x.iter().zip(&want_x).enumerate() {
            prop_assert!((xi - wi).abs() < 1e-8, "row {}", i);
        }
    }

    /// psim-trace cycle conservation: on any random matrix, in both
    /// execution modes, every PU's attribution categories sum exactly to
    /// its channel's cycles, and the kernel-level wall attribution covers
    /// every reported DRAM cycle with no residual.
    #[test]
    fn trace_attribution_conserves_cycles_on_random_matrices(a in arb_coo(80, 250), seed in 0u64..100) {
        let x = psyncpim::sparse::gen::dense_vector(a.ncols(), seed);
        for mode in [psyncpim::core::ExecMode::AllBank, psyncpim::core::ExecMode::PerBank] {
            let mut dev = PimDevice::tiny(2);
            dev.mode = mode;
            dev.trace = true;
            let res = SpmvPim::new(dev, Precision::Fp64).run(&a, &x).expect("spmv");
            let metrics = res.run.metrics.as_ref().expect("tracing on");
            let failures = metrics.conservation_failures();
            prop_assert!(failures.is_empty(), "{:?}: {:?}", mode, failures);
            prop_assert_eq!(res.run.attr.total(), res.run.dram_cycles, "{:?}", mode);
            for ch in &metrics.channels {
                prop_assert_eq!(ch.bus.total(), ch.cycles, "{:?}", mode);
                for pu in &ch.pu {
                    prop_assert_eq!(pu.total(), ch.cycles, "{:?}", mode);
                }
            }
        }
    }
}

/// Non-proptest guard: UnitTriangular rejects malformed input regardless of
/// triangle.
#[test]
fn unit_triangular_validation() {
    let mut bad = Coo::new(3, 3);
    bad.push(1, 1, 1.0);
    assert!(UnitTriangular::from_strict(Triangle::Lower, bad.clone()).is_err());
    assert!(UnitTriangular::from_strict(Triangle::Upper, bad).is_err());
    let ok = Coo::from_entries(3, 3, vec![Entry::new(2, 0, 1.0)]).unwrap();
    assert!(UnitTriangular::from_strict(Triangle::Lower, ok).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Robustness: a random (valid) program plus a random command stream
    /// must never panic the processing unit, and its counters must stay
    /// consistent.
    #[test]
    fn pu_survives_random_command_streams(
        instrs in prop::collection::vec(
            prop::sample::select(vec![
                "DMOV DRF0, BANK, FP64",
                "DMOV BANK, DRF0, FP64",
                "SPMOV SPVQ0, BANK, VAL, FP64",
                "SPMOV SPVQ0, BANK, ROW, FP64",
                "SDV DRF0, DRF0, MUL, FP64",
                "DVDV DRF1, DRF0, DRF1, ADD, FP64",
                "REDUCE DRF0, ADD, FP64",
                "NOP",
            ]),
            1..10,
        ),
        slots in prop::collection::vec(0usize..12, 0..60),
    ) {
        use psyncpim::core::memory::BankMemory;
        use psyncpim::core::{Kernel, ProcessingUnit};
        let text = format!("{}\nEXIT\n", instrs.join("\n"));
        let program = assemble(&text).expect("valid mnemonics");
        let len = program.len();
        let mut mem = BankMemory::new(1024);
        let region = mem.alloc(8, (0..64).map(|i| i as f64).collect());
        let bindings: Vec<Option<psyncpim::core::RegionId>> =
            (0..len).map(|_| Some(region)).collect();
        let kernel = Kernel::new(program, bindings).expect("all slots bound");
        let mut pu = ProcessingUnit::new();
        pu.load(&kernel);
        for slot in slots {
            if slot < len {
                let _ = pu.on_command(&kernel, slot, &mut mem);
            }
        }
        pu.run_free(&kernel);
        let s = pu.stats();
        prop_assert!(s.mem_ops <= s.instructions);
    }

    /// Assembly text round-trips through disassemble.
    #[test]
    fn asm_disassemble_roundtrips(ins in prop::collection::vec(arb_instruction(), 1..16)) {
        // Keep jump targets in range so Program::new validates.
        let fixed: Vec<Instruction> = ins
            .iter()
            .map(|i| match *i {
                Instruction::Jump { order, count, .. } => Instruction::Jump {
                    target: 0,
                    order,
                    count,
                },
                other => other,
            })
            .collect();
        let program = psyncpim::core::isa::Program::new(fixed).expect("valid");
        let text = disassemble(&program);
        let back = assemble(&text).expect("canonical text assembles");
        prop_assert_eq!(back, program);
    }
}

proptest! {
    // Full engine runs per case; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Regression for the engine's `saturating_sub` ready/bus accounting:
    /// the command-bus cursor and the per-bank ready cursors only ever
    /// move forward, so the issued command stream of each channel is
    /// monotone non-decreasing in cycle — under randomly skewed per-bank
    /// loads, in both exec modes. The independent protocol checker sees
    /// every issued command: a cursor that stepped backwards (e.g. a
    /// PU-backpressure term underflowing past the pipeline depth) is its
    /// `NonMonotonic` violation, and an illegal bank transition its
    /// `BankState` one.
    #[test]
    fn trace_cycles_monotone_under_random_streams(
        loads in prop::collection::vec(prop::collection::vec((0u32..12, 0u32..12, -4.0f64..4.0), 0..10), 8..9),
        mode_sel in 0usize..2,
    ) {
        use psyncpim::core::engine::{Engine, EngineConfig, ExecMode};
        use psyncpim::core::isa::assemble;
        use psyncpim::core::memory::SENTINEL;
        use psyncpim::dram::HbmConfig;

        let mode = [ExecMode::AllBank, ExecMode::PerBank][mode_sel];
        let hbm = HbmConfig {
            num_bankgroups: 2,
            banks_per_group: 2,
            num_pseudo_channels: 2,
            ..HbmConfig::default()
        };
        let cfg = EngineConfig {
            hbm,
            mode,
            validate: true,
            ..Default::default()
        };
        let mut engine = Engine::new(cfg);
        let n = 12usize;
        let lanes = 4;
        let max_len = loads.iter().map(Vec::len).max().unwrap_or(0)
            .div_ceil(lanes).max(1) * lanes;
        let mut bindings = Vec::new();
        for (b, entries) in loads.iter().enumerate() {
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
            let r3 = mem.alloc(8, (0..n).map(|i| i as f64).collect());
            let r4 = mem.alloc_zeroed(8, n);
            if b == 0 {
                bindings = vec![
                    Some(r0), Some(r1), Some(r2), Some(r3),
                    None, Some(r4), None, None,
                ];
            }
        }
        let program = assemble(
            "SPMOV  SPVQ0, BANK, ROW, FP64\n\
             SPMOV  SPVQ0, BANK, COL, FP64\n\
             SPMOV  SPVQ0, BANK, VAL, FP64\n\
             INDMOV DRF2, SPVQ0, FP64\n\
             SPVDV  SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64\n\
             SPVDV  BANK, SPVQ1, BANK, ADD, UNION, FP64\n\
             CEXIT  SPVQ0\n\
             JUMP   0, 0, 0\n",
        ).expect("canonical spmv");
        engine.load_kernel(program, bindings).expect("bindings valid");
        let report = engine.run().expect("run");
        prop_assert!(
            report.violation_count() == 0,
            "{:?} {:?}", report.violations, report.pu_audit
        );
    }
}
