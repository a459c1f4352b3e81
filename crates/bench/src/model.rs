//! psim-model: the concurrency verification gate.
//!
//! The fourth leg of the verification stack (lint → check → trace →
//! **model**): where psim-lint proves things about PIM *programs*, this
//! gate proves things about the *host scheduler* that feeds them. Three
//! sections, all mandatory:
//!
//! 1. **Scenarios** — four of [`psim_sched::scenarios`] (bounded-queue
//!    admission under backpressure, close with blocked `pop_wait_batch`
//!    waiters, `MatrixStore` LRU churn, fused-vs-unfused service
//!    equivalence), small configurations of the real scheduler code run
//!    under the bounded exhaustive interleaving explorer. Any deadlock,
//!    lost wakeup, or invariant violation in any explored schedule fails
//!    the gate with a deterministic repro trail; the crate's
//!    `model_shutdown` tests run the same functions at smaller budgets.
//! 2. **Lock-order graph** — the acquire-while-holding edges recorded by
//!    the model backend across all scenarios must be acyclic
//!    ([`psim_conc::order::find_cycle`]): a cycle is a potential
//!    inversion deadlock even if no explored schedule tripped it.
//! 3. **Mutation self-checks** — seeded bugs
//!    ([`psim_conc::model::mutants`]: double-lock, dropped notify, swapped
//!    lock order) and seeded partial-synchrony lint violations
//!    (`PSL014`–`PSL016` mutants of the shipped stream kernels, against
//!    the whole builder sweep as the clean corpus) must each be *caught*.
//!    A checker that cannot catch its own mutants proves nothing, so a
//!    missed catch fails the gate too.

use crate::{Ctx, Output};
use psim_conc::model::{self, mutants, Failure};
use psim_conc::order;
use psim_kernels::programs;
use psim_sched::scenarios;
use psyncpim_core::isa::{assemble, LintCode};
use serde::Serialize;

/// Executions explored per scenario (the service-driving scenarios get a
/// reduced share: they simulate kernels on every execution).
const BUDGET: usize = 4_000;

#[derive(Serialize)]
struct ScenarioRow {
    name: String,
    executions: usize,
    decision_points: usize,
    complete: bool,
    /// Counterexample description, empty when the scenario passed.
    failure: String,
}

#[derive(Serialize)]
struct MutationRow {
    name: String,
    caught: bool,
    detail: String,
}

#[derive(Serialize)]
struct LintRow {
    code: String,
    corpus_clean: bool,
    mutant_caught: bool,
}

#[derive(Serialize)]
struct ModelReport {
    budget: usize,
    scenarios: Vec<ScenarioRow>,
    lock_order_edges: Vec<(String, String)>,
    lock_order_acyclic: bool,
    mutations: Vec<MutationRow>,
    lints: Vec<LintRow>,
    pass: bool,
}

fn row(name: &str, report: &model::Report) -> ScenarioRow {
    let failure = report
        .failure
        .as_ref()
        .map(ToString::to_string)
        .unwrap_or_default();
    ScenarioRow {
        name: name.to_string(),
        executions: report.executions,
        decision_points: report.decision_points,
        complete: report.complete,
        failure,
    }
}

/// The seeded concurrency mutants, each with whether it was caught.
fn mutations(budget: usize) -> Vec<MutationRow> {
    let double = mutants::double_lock(100);
    let notify = mutants::dropped_notify(budget);
    let swapped = mutants::swapped_lock_order(budget);
    let deadlocked = matches!(swapped.failure, Some(Failure::Deadlock { .. }));
    let cycled = order::find_cycle().is_some();
    let mutation = |name: &str, caught, detail| MutationRow {
        name: name.to_string(),
        caught,
        detail,
    };
    vec![
        mutation(
            "double_lock",
            matches!(double.failure, Some(Failure::DoubleLock { .. })),
            format!("{:?}", double.failure),
        ),
        mutation(
            "dropped_notify",
            matches!(notify.failure, Some(Failure::Deadlock { .. })),
            format!("{:?}", notify.failure),
        ),
        mutation(
            "swapped_lock_order",
            deadlocked && cycled,
            format!("deadlock={deadlocked} cycle={cycled}"),
        ),
    ]
}

fn has_code(asm: &str, code: LintCode) -> bool {
    assemble(asm)
        .map(|p| p.verify().iter().any(|d| d.code == code))
        .unwrap_or(false)
}

/// The partial-synchrony lints: the builder sweep must stay clean under
/// PSL014-016, and a seeded violation of each pass must be flagged.
fn psync_lints() -> Vec<LintRow> {
    // Every code the sweep raises (an assemble failure raises none; the
    // psim_lint gate reports those).
    let corpus_codes: Vec<LintCode> = (programs::builder_sweep().iter())
        .filter_map(|p| assemble(&p.text).ok())
        .flat_map(|program| program.verify())
        .map(|d| d.code)
        .collect();
    let seeded = [
        (
            LintCode::PhaseDivergence,
            "SDV DRF0, DRF0, MUL, FP64\nCEXIT SPVQ0\nJUMP 0, 0, 0\n".to_string(),
        ),
        (
            LintCode::FusionSafety,
            // The first SPVDV pops SPVQ0; the second combines the now
            // stale DRF2 gather anyway.
            "SPMOV SPVQ0, BANK, ROW, FP64\nSPMOV SPVQ0, BANK, COL, FP64\n\
             SPMOV SPVQ0, BANK, VAL, FP64\nSPMOV SPVQ0, BANK, ROW, FP64\n\
             SPMOV SPVQ0, BANK, COL, FP64\nSPMOV SPVQ0, BANK, VAL, FP64\n\
             INDMOV DRF2, SPVQ0, FP64\nSPVDV SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64\n\
             SPVDV SPVQ1, SPVQ0, DRF2, MUL, INTER, FP64\nEXIT\n"
                .to_string(),
        ),
        (
            LintCode::CExitTermination,
            "SPMOV SPVQ0, BANK, ROW, FP64\nCEXIT SPVQ0\nJUMP 0, 0, 0\n".to_string(),
        ),
    ];
    let row = |(code, mutant): (LintCode, String)| LintRow {
        code: code.code().to_string(),
        corpus_clean: !corpus_codes.contains(&code),
        mutant_caught: has_code(&mutant, code),
    };
    seeded.into_iter().map(row).collect()
}

/// Run the three sections at [`BUDGET`] executions per scenario; every
/// failed scenario, cyclic lock order, missed mutant or lint miss is a
/// violation.
pub fn psim_model(_: &Ctx, _: f64) -> Output {
    let budget = BUDGET;
    order::reset();

    // Section 1: real-scheduler scenarios.
    let scenarios = vec![
        row(
            "admission_backpressure",
            &scenarios::admission_backpressure(budget),
        ),
        row(
            "close_blocked_waiters",
            &scenarios::close_blocked_waiters(budget.saturating_mul(3)),
        ),
        row(
            "store_eviction_race",
            &scenarios::store_eviction_race(budget),
        ),
        row(
            "fusion_equivalence",
            &scenarios::fusion_equivalence((budget / 8).max(200)),
        ),
    ];

    // Section 2: snapshot the production lock-order graph *before* the
    // mutation section pollutes it with its seeded inversion.
    let lock_order_edges: Vec<(String, String)> = order::edges()
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let lock_order_acyclic = order::find_cycle().is_none();

    // Section 3: the checker must catch its own seeded bugs.
    let mutations = mutations(budget);
    let lints = psync_lints();

    let failed = |what: &str, name: &str, detail: &str| format!("model {what} {name}: {detail}");
    let mut violations: Vec<String> = (scenarios.iter())
        .filter(|s| !s.failure.is_empty() || s.executions == 0)
        .map(|s| failed("scenario", &s.name, &s.failure))
        .chain(
            (mutations.iter().filter(|m| !m.caught))
                .map(|m| failed("mutant missed", &m.name, &m.detail)),
        )
        .chain(
            (lints
                .iter()
                .filter(|l| !(l.corpus_clean && l.mutant_caught)))
            .map(|l| {
                let detail = format!(
                    "corpus_clean={} mutant_caught={}",
                    l.corpus_clean, l.mutant_caught
                );
                failed("lint", &l.code, &detail)
            }),
        )
        .collect();
    if !lock_order_acyclic {
        violations.push(failed(
            "lock order",
            "cycle",
            &format!("{lock_order_edges:?}"),
        ));
    }
    let report = ModelReport {
        budget,
        scenarios,
        lock_order_edges,
        lock_order_acyclic,
        mutations,
        lints,
        pass: violations.is_empty(),
    };
    Output::json(&report, violations)
}
