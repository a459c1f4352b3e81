//! The verification gates: `psim_lint` (static), `psim_check` (protocol
//! and numerics), `psim_trace` (cycle attribution) and
//! `ablation_autotune` (layout tuner). Each returns its JSON report (when
//! it has one) and every failed condition as a violation.

use crate::{geomean, Ctx, Output};
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{
    audit_run, layout_grid, programs, run_layout_oracle, run_oracle, selftest, CostModel,
    PimDevice, SpmvPim, SptrsvPim,
};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{adversarial, gen, Coo, Precision};
use psim_tune::Autotuner;
use psyncpim_core::isa::{assemble, Diagnostic, Severity, ALL_LINT_CODES};
use psyncpim_core::{CycleBreakdown, ExecMode};
use serde::Serialize;

/// Binary ops accepted by the assembler's semiring slots.
const OPS: [&str; 6] = ["ADD", "SUB", "MUL", "MIN", "MAX", "RSUB"];

/// Chunk counts exercising the degenerate (NOP) loop, a small loop, and
/// the largest count that fits the 10-bit JUMP immediate.
const CHUNKS: [u16; 3] = [1, 4, 1023];

#[derive(Serialize)]
struct LintRecord {
    builder: String,
    variant: String,
    precision: String,
    errors: usize,
    warnings: usize,
    diagnostics: Vec<Diagnostic>,
}

/// Corpus-wide tally for one lint code (zero counts included, so a
/// change to any code's count shows in the committed file).
#[derive(Serialize)]
struct CodeRow {
    code: String,
    severity: String,
    count: usize,
}

#[derive(Serialize)]
struct LintSummary {
    programs: usize,
    clean: usize,
    errors: usize,
    warnings: usize,
    /// No assemble failures, no Error-severity diagnostics in the corpus.
    pass: bool,
    per_code: Vec<CodeRow>,
    records: Vec<LintRecord>,
}

/// psim-lint: assemble every shipped program builder in
/// `psim_kernels::programs` across the full precision × semiring-op sweep
/// and run each through the `psyncpim_core::isa` analyzer (CFG checks +
/// abstract interpretation). An Error-severity diagnostic — an
/// out-of-range jump, a reused loop ORDER, a statically guaranteed queue
/// underflow/overflow — or an assemble failure is a violation.
///
/// The JSON carries totals, the verdict, per-code counts over the whole
/// corpus (zero counts included) and one record per non-clean program.
pub fn psim_lint(_: &Ctx, _: f64) -> Output {
    // (builder, variant, precision, assembly)
    let mut corpus: Vec<(&str, String, Precision, String)> = Vec::new();
    for &p in &Precision::ALL {
        let mut add = |builder, variant: String, asm| corpus.push((builder, variant, p, asm));
        // Sparse streams over the full semiring op cross.
        for mul in OPS {
            for acc in OPS {
                let v = format!("{mul}x{acc}");
                add(
                    "sparse_stream_semiring",
                    v.clone(),
                    programs::sparse_stream_semiring(p, mul, acc),
                );
                add(
                    "sparse_stream_batched",
                    v.clone(),
                    programs::sparse_stream_batched(p, mul, acc),
                );
                add("spmm_stream", v, programs::spmm_stream(p, mul, acc));
            }
        }
        for acc in OPS {
            add(
                "sparse_stream",
                acc.to_string(),
                programs::sparse_stream(p, acc),
            );
        }
        // Dense BLAS-1 across the chunk-count envelope.
        for c in CHUNKS {
            let cv = format!("chunks={c}");
            add("dcopy", cv.clone(), programs::dcopy(p, c));
            add("dswap", cv.clone(), programs::dswap(p, c));
            add("dscal", cv.clone(), programs::dscal(p, c));
            add("daxpy", cv.clone(), programs::daxpy(p, c));
            add("ddot", cv.clone(), programs::ddot(p, c));
            add("gather", cv.clone(), programs::gather(p, c));
            for op in OPS {
                add("dvdv", format!("{op},{cv}"), programs::dvdv(p, op, c));
            }
        }
        add("scatter", "-".to_string(), programs::scatter(p));
        add("spaxpy", "-".to_string(), programs::spaxpy(p));
        add("spdot", "-".to_string(), programs::spdot(p));
        // Dense Level-2 across the loop-nest envelope.
        for (rows, chunks) in [(1u16, 1u16), (4, 8), (1023, 1023)] {
            let v = format!("rows={rows},chunks={chunks}");
            add("dgemv", v, programs::dgemv(p, rows, chunks));
        }
    }

    let per_code = ALL_LINT_CODES.iter().map(|c| CodeRow {
        code: c.code().to_string(),
        severity: c.severity().to_string(),
        count: 0,
    });
    let mut sum = LintSummary {
        programs: corpus.len(),
        clean: 0,
        errors: 0,
        warnings: 0,
        pass: false,
        per_code: per_code.collect(),
        records: Vec::new(),
    };
    let mut violations = Vec::new();
    for (builder, variant, precision, asm) in corpus {
        let at = format!("lint {builder} {variant} {precision}");
        let diagnostics = match assemble(&asm) {
            Ok(program) => program.verify(),
            Err(e) => {
                violations.push(format!("{at}: assemble failed: {e}"));
                continue;
            }
        };
        let is_error = |d: &&Diagnostic| d.severity() == Severity::Error;
        violations.extend(
            diagnostics
                .iter()
                .filter(is_error)
                .map(|d| format!("{at}: {d}")),
        );
        for d in &diagnostics {
            if let Some(i) = ALL_LINT_CODES.iter().position(|c| *c == d.code) {
                sum.per_code[i].count += 1;
            }
        }
        let errors = diagnostics.iter().filter(is_error).count();
        sum.errors += errors;
        sum.warnings += diagnostics.len() - errors;
        if diagnostics.is_empty() {
            sum.clean += 1;
        } else {
            sum.records.push(LintRecord {
                builder: builder.to_string(),
                variant,
                precision: precision.to_string(),
                errors,
                warnings: diagnostics.len() - errors,
                diagnostics,
            });
        }
    }
    sum.pass = violations.is_empty();
    Output::json(&sum, violations)
}

fn device(mode: ExecMode, trace: bool) -> PimDevice {
    PimDevice {
        mode,
        trace,
        ..PimDevice::tiny(2)
    }
}

fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::AllBank => "all-bank",
        ExecMode::PerBank => "per-bank",
    }
}

/// Run the kernel self-test battery on `device`: a violation per failed
/// check.
fn battery(device: &PimDevice, violations: &mut Vec<String>) {
    let label = mode_label(device.mode);
    match selftest(device) {
        Ok(results) => violations.extend(results.iter().filter(|r| !r.pass).map(|r| {
            format!(
                "selftest {label} {}: FAIL max_err={:.3e}",
                r.kernel, r.max_err
            )
        })),
        Err(e) => violations.push(format!("selftest {label}: ERROR {e}")),
    }
}

/// psim-check: the full kernel self-test battery (every kernel family,
/// both execution modes) and a differential-oracle sweep (randomized
/// matrices diffed against CPU references) with the independent JEDEC
/// protocol checker attached to every command stream. Any numeric
/// mismatch, accounting-invariant failure or protocol violation is a
/// violation, so a timing bug in the channel model fails the build even
/// when the numerics still come out right.
pub fn psim_check(_: &Ctx, _: f64) -> Output {
    let mut violations = Vec::new();
    for (mode, cases) in [(ExecMode::AllBank, 6), (ExecMode::PerBank, 2)] {
        battery(&device(mode, false), &mut violations);
        let label = mode_label(mode);
        match run_oracle(&device(mode, false), cases, 0x0005_C111_A7E5) {
            Ok(report) => violations.extend(report.cases.iter().filter(|c| !c.pass).map(|c| {
                format!(
                    "oracle {label} {} {}: FAIL max_err={:.3e} audit={:?}",
                    c.kernel, c.matrix, c.max_err, c.audit
                )
            })),
            Err(e) => violations.push(format!("oracle {label}: ERROR {e}")),
        }
    }
    Output {
        text: None,
        violations,
    }
}

/// One traced kernel run in the report.
#[derive(Serialize)]
struct TraceRow {
    kernel: &'static str,
    mode: &'static str,
    precision: String,
    dram_cycles: u64,
    attr: CycleBreakdown,
    pu_attr: CycleBreakdown,
    events_recorded: usize,
    events_dropped: u64,
    conservation_ok: bool,
}

#[derive(Serialize)]
struct TraceReport {
    rows: Vec<TraceRow>,
    violations: usize,
}

/// psim-trace: cycle-attribution conservation. The self-test battery runs
/// with attribution on in both modes (a conservation residual surfaces
/// through the engine's audit as a failed `protocol` check), then SpMV
/// (both modes), SpTRSV and DAXPY run across the precision envelope on a
/// traced device; each run's wall attribution must cover its
/// `dram_cycles` exactly. The JSON holds every run's wall-clock and
/// per-PU breakdown per category.
pub fn psim_trace(_: &Ctx, _: f64) -> Output {
    let mut violations = Vec::new();
    for mode in [ExecMode::AllBank, ExecMode::PerBank] {
        battery(&device(mode, true), &mut violations);
    }
    let n = 96usize;
    let a = gen::rmat(n, 3, 7);
    let x = gen::dense_vector(n, 1);
    let y = gen::dense_vector(n, 2);
    let t = unit_triangular_from(&a, Triangle::Lower).expect("square matrix");
    let b = t.matvec(&x);
    let mut runs = Vec::new();
    for precision in Precision::ALL {
        for mode in [ExecMode::AllBank, ExecMode::PerBank] {
            let spmv = SpmvPim::new(device(mode, true), precision).run(&a, &x);
            runs.push(("SpMV", mode, precision, spmv.expect("spmv").run));
        }
        let mut solver = SptrsvPim::new(device(ExecMode::AllBank, true));
        solver.precision = precision;
        let sptrsv = solver.run(&t, &b).expect("sptrsv").run;
        runs.push(("SpTRSV", ExecMode::AllBank, precision, sptrsv));
        let daxpy = Blas1Pim::new(device(ExecMode::AllBank, true), precision).daxpy(1.5, &x, &y);
        runs.push((
            "DAXPY",
            ExecMode::AllBank,
            precision,
            daxpy.expect("daxpy").run,
        ));
    }
    // The battery counts per failed check, the report per failed run.
    let mut failed = violations.len();
    let mut rows = Vec::new();
    for (kernel, mode, precision, run) in runs {
        // Every cycle attributed: per-channel conservation, and the wall
        // attribution covering `dram_cycles` exactly.
        let metrics = run.metrics.as_ref().expect("device traces");
        let mut failures = metrics.conservation_failures();
        if run.attr.total() != run.dram_cycles {
            let attr = run.attr.total();
            failures.push(format!(
                "wall attribution {attr} != dram_cycles {}",
                run.dram_cycles
            ));
        }
        failed += usize::from(!failures.is_empty());
        violations.extend(
            failures
                .iter()
                .map(|f| format!("trace {kernel} {precision}: {f}")),
        );
        rows.push(TraceRow {
            kernel,
            mode: mode_label(mode),
            precision: precision.to_string(),
            dram_cycles: run.dram_cycles,
            attr: run.attr,
            pu_attr: metrics.aggregate_pu(),
            events_recorded: metrics.events.len(),
            events_dropped: metrics.events_dropped,
            conservation_ok: failures.is_empty(),
        });
    }
    let report = TraceReport {
        rows,
        violations: failed,
    };
    Output::json(&report, violations)
}

/// Pairs closer than this (relative simulated-cycle gap) are ties the
/// model is free to order either way.
const RANK_SEPARATION: f64 = 0.05;

/// Minimum pairwise rank agreement between analytical and simulated
/// cycles on separated pairs.
const RANK_AGREEMENT_FLOOR: f64 = 0.90;

/// One layout's outcome on one matrix.
#[derive(Serialize)]
struct LayoutCell {
    label: String,
    sim_cycles: u64,
    model_cycles: u64,
}

/// One corpus matrix with its sweep.
#[derive(Serialize)]
struct MatrixRow {
    name: String,
    n: usize,
    nnz: usize,
    tuned_label: String,
    tuned_cycles: u64,
    best_fixed_cycles: u64,
    fixed: Vec<LayoutCell>,
}

/// Geomean of one fixed configuration over the corpus.
#[derive(Serialize)]
struct ConfigGeomean {
    label: String,
    geomean_cycles: f64,
}

#[derive(Serialize)]
struct AutotuneReport {
    corpus: Vec<MatrixRow>,
    fixed: Vec<ConfigGeomean>,
    best_fixed_label: String,
    best_fixed_geomean: f64,
    tuned_geomean: f64,
    tuned_vs_best_fixed: f64,
    rank_pairs: usize,
    rank_agreements: usize,
    rank_agreement: f64,
    oracle_cases: usize,
    violations: usize,
}

/// The corpus: the benchmark suite's four pattern families at a bench
/// scale plus every adversarial shape.
fn corpus(n: usize) -> Vec<(String, Coo)> {
    let families = [
        ("rmat", gen::rmat(n, 4, 1)),
        ("banded_fem", gen::banded_fem(n, 8, 5, 2)),
        ("web_hubs", gen::web_hubs(n, n * 4, 3)),
        ("layered_dag", gen::layered_dag(n, 4, 6, 4)),
    ];
    (families.into_iter().chain(adversarial::suite(n, 7)))
        .map(|(name, a)| (name.to_string(), a))
        .collect()
}

/// ablation-autotune: sweep the benchmark families plus the adversarial
/// corpus across the fixed layout grid ([`layout_grid`]) and the
/// [`Autotuner`]'s per-matrix choice, with full cycle simulation and
/// validation on. Four gates:
///
/// 1. **Oracle** — [`run_layout_oracle`] (every layout × adversarial
///    shape against the CPU reference) passes.
/// 2. **Correctness per execution** — every simulated run here (fixed or
///    tuned) matches the CPU reference to 1e-9 and passes [`audit_run`].
/// 3. **Tuning wins** — the geomean of the tuned choice's simulated
///    cycles over the corpus is no worse than the best *single* fixed
///    configuration.
/// 4. **Model fidelity** — on layout pairs the simulator separates by at
///    least [`RANK_SEPARATION`], the analytical model orders them as the
///    simulator does at least [`RANK_AGREEMENT_FLOOR`] of the time.
pub fn ablation_autotune(_: &Ctx, _: f64) -> Output {
    let n = 96usize;
    let device = PimDevice::tiny(2);
    let mut violations = Vec::new();

    let oracle = run_layout_oracle(&device, 48, 0xA070).expect("layout oracle must run");
    for case in oracle.cases.iter().filter(|c| !c.pass) {
        violations.push(format!(
            "oracle {} {}: err {:.2e} (tol {:.0e}), audit: {}",
            case.kernel,
            case.matrix,
            case.max_err,
            case.tolerance,
            case.audit.join("; ")
        ));
    }

    let grid = layout_grid();
    let validated = PimDevice {
        validate: true,
        ..device.clone()
    };
    let model = CostModel::new(&device);
    let tuner = Autotuner::new(&device);
    let mut rows = Vec::new();
    let (mut rank_pairs, mut rank_agreements) = (0usize, 0usize);
    for (name, a) in corpus(n) {
        let x = gen::dense_vector(a.ncols(), 11);
        let reference = a.spmv(&x);
        // Simulate one layout with validation on; a failed audit or a
        // result off the CPU reference is a violation.
        let mut sim = |layout, tag: String| {
            let r = SpmvPim::new(validated.clone(), Precision::Fp64)
                .with_layout(layout)
                .run(&a, &x)
                .unwrap_or_else(|e| panic!("{tag}: simulation failed: {e}"));
            violations.extend(
                audit_run(&r.run)
                    .iter()
                    .map(|f| format!("audit {tag}: {f}")),
            );
            let worst = (r.y.iter().zip(&reference))
                .map(|(got, want)| (got - want).abs() / want.abs().max(1.0))
                .fold(0.0f64, f64::max);
            if worst > 1e-9 {
                violations.push(format!("oracle {tag}: diff {worst:.2e} vs CPU reference"));
            }
            r.run.dram_cycles
        };
        let fixed: Vec<LayoutCell> = grid
            .iter()
            .map(|&layout| LayoutCell {
                label: layout.label(),
                sim_cycles: sim(layout, format!("{name} {}", layout.label())),
                model_cycles: model.spmv_layout(&a, Precision::Fp64, layout).cycles,
            })
            .collect();
        let decision = tuner.decide(&a, Precision::Fp64);
        let tuned_cycles = sim(decision.choice, format!("{name} tuned:{}", decision.label));
        // Pairwise rank agreement on separated pairs.
        for (i, ci) in fixed.iter().enumerate() {
            for cj in &fixed[i + 1..] {
                let (si, sj) = (ci.sim_cycles as f64, cj.sim_cycles as f64);
                if (si - sj).abs() / si.min(sj).max(1.0) < RANK_SEPARATION {
                    continue;
                }
                rank_pairs += 1;
                rank_agreements += usize::from((si < sj) == (ci.model_cycles < cj.model_cycles));
            }
        }
        rows.push(MatrixRow {
            name,
            n: a.nrows(),
            nnz: a.nnz(),
            tuned_label: decision.label,
            tuned_cycles,
            best_fixed_cycles: fixed.iter().map(|c| c.sim_cycles).min().unwrap_or(0),
            fixed,
        });
    }

    let fixed_geo: Vec<ConfigGeomean> = grid
        .iter()
        .enumerate()
        .map(|(i, layout)| ConfigGeomean {
            label: layout.label(),
            geomean_cycles: geomean(rows.iter().map(|r| r.fixed[i].sim_cycles as f64)),
        })
        .collect();
    let tuned_geomean = geomean(rows.iter().map(|r| r.tuned_cycles as f64));
    let best = fixed_geo
        .iter()
        .min_by(|a, b| a.geomean_cycles.total_cmp(&b.geomean_cycles))
        .expect("non-empty grid");
    let (best_fixed_label, best_fixed_geomean) = (best.label.clone(), best.geomean_cycles);
    // The tuner may tie the best fixed config (up to floating-point
    // geomean noise) but must never lose to it.
    if tuned_geomean > best_fixed_geomean * (1.0 + 1e-9) {
        violations.push(format!(
            "tune: tuned geomean {tuned_geomean:.1} worse than fixed {best_fixed_label} {best_fixed_geomean:.1}"
        ));
    }
    let rank_agreement = if rank_pairs == 0 {
        1.0
    } else {
        rank_agreements as f64 / rank_pairs as f64
    };
    if rank_agreement < RANK_AGREEMENT_FLOOR {
        violations.push(format!(
            "rank: analytical/simulated rank agreement {:.1}% below {:.0}%",
            rank_agreement * 100.0,
            RANK_AGREEMENT_FLOOR * 100.0
        ));
    }

    let report = AutotuneReport {
        corpus: rows,
        fixed: fixed_geo,
        best_fixed_label,
        best_fixed_geomean,
        tuned_geomean,
        tuned_vs_best_fixed: tuned_geomean / best_fixed_geomean,
        rank_pairs,
        rank_agreements,
        rank_agreement,
        oracle_cases: oracle.cases.len(),
        violations: violations.len(),
    };
    Output::json(&report, violations)
}
