//! The verification gates: `psim_lint` (static), `psim_check` (protocol
//! and numerics), `psim_trace` (cycle attribution) and
//! `ablation_autotune` (layout tuner). Each returns its JSON report (when
//! it has one) and every failed condition as a violation.

use crate::{Ctx, Output};
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{
    programs, run_layout_oracle, run_oracle, selftest, PimDevice, SpmvPim, SptrsvPim,
};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, Precision};
use psim_tune::fidelity::{self, ConfigGeomean, MatrixRow};
use psyncpim_core::isa::{assemble, Diagnostic, Severity, ALL_LINT_CODES};
use psyncpim_core::{CycleBreakdown, ExecMode};
use serde::Serialize;

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

/// psim-lint: assemble every program of the builder sweep
/// ([`programs::builder_sweep`]: each builder across the full precision ×
/// semiring-op × loop-count envelope) and run each through the
/// `psyncpim_core::isa` analyzer (CFG checks + abstract interpretation).
/// An Error-severity diagnostic — an out-of-range jump, a reused loop
/// ORDER, a statically guaranteed queue underflow/overflow — or an
/// assemble failure is a violation.
///
/// The JSON carries totals, the verdict, per-code counts over the whole
/// corpus (zero counts included) and one record per non-clean program.
pub fn psim_lint(_: &Ctx, _: f64) -> Output {
    let corpus = programs::builder_sweep();
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
    for p in corpus {
        let at = format!("lint {} {} {}", p.builder, p.variant, p.precision);
        let diagnostics = match assemble(&p.text) {
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
                builder: p.builder.to_string(),
                variant: p.variant,
                precision: p.precision.to_string(),
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

/// ablation-autotune: the layout oracle at n = 64 plus the tuner fidelity
/// sweep at n = 96 ([`fidelity::sweep`]: the benchmark families and the
/// adversarial corpus across every candidate layout the tuner picks from,
/// simulated with validation on). Violations:
///
/// 1. **Oracle** — [`run_layout_oracle`] (every adversarial shape × each
///    of its candidate layouts against the CPU reference) fails a case.
/// 2. **The sweep's conditions** — a run off the CPU reference or failing
///    its audit, a tuned geomean worse than the best single candidate's,
///    or model/simulator rank agreement below the floor.
pub fn ablation_autotune(_: &Ctx, _: f64) -> Output {
    let device = PimDevice::tiny(2);
    let mut violations = Vec::new();

    let oracle = run_layout_oracle(&device, 64, 0xA070).expect("layout oracle must run");
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

    let sweep = fidelity::sweep(&device, 96);
    violations.extend(sweep.violations);
    let report = AutotuneReport {
        corpus: sweep.corpus,
        fixed: sweep.fixed,
        best_fixed_label: sweep.best_fixed_label,
        best_fixed_geomean: sweep.best_fixed_geomean,
        tuned_geomean: sweep.tuned_geomean,
        tuned_vs_best_fixed: sweep.tuned_geomean / sweep.best_fixed_geomean,
        rank_pairs: sweep.rank_pairs,
        rank_agreements: sweep.rank_agreements,
        rank_agreement: sweep.rank_agreement,
        oracle_cases: oracle.cases.len(),
        violations: violations.len(),
    };
    Output::json(&report, violations)
}
