//! The multi-tenant scheduler's results: jobs/sec by shard count
//! (`throughput_sched`) and the service-mode soak gate (`soak_sched`).

use crate::{Cell, Ctx, Doc, Mode, Output};
use psim_kernels::PimDevice;
use psim_sched::{
    CompletedJob, ExecutorConfig, JobClass, JobKind, JobQueue, JobSpec, MatrixStore, Service,
    ServiceConfig,
};
use psim_sparse::gen;
use serde::Serialize;
use std::sync::Arc;

/// The tenant mix: two batch tenants streaming SpMV over their own
/// matrices, a latency-sensitive tenant issuing small interactive SpMVs,
/// and best-effort background vector work.
fn build_queue(store: &MatrixStore, jobs_per_tenant: usize) -> JobQueue {
    let queue = JobQueue::bounded(16 * jobs_per_tenant.max(1));
    let matrix = |name| store.get(name).expect("registered");
    let (web, road, social) = (matrix("web"), matrix("road"), matrix("social"));
    for i in 0..jobs_per_tenant as u64 {
        let spmv = |a: &Arc<psim_sparse::Coo>, seed| {
            JobKind::spmv(Arc::clone(a), gen::dense_vector(a.ncols(), seed))
        };
        let norm2 = JobKind::Norm2 {
            x: gen::dense_vector(512, i + 300),
        };
        for spec in [
            JobSpec::batch("analytics", spmv(&web, i)),
            JobSpec::batch("routing", spmv(&road, i + 100)),
            JobSpec::batch("frontend", spmv(&social, i + 200)).with_class(JobClass::Interactive),
            JobSpec::batch("maintenance", norm2).with_class(JobClass::BestEffort),
        ] {
            queue.submit(spec).expect("queue sized for the mix");
        }
    }
    queue
}

fn us(ns: u64) -> Cell {
    Cell::num(ns as f64 / 1e3, 1)
}

/// Multi-tenant scheduler throughput: the same job mix served while the
/// device is carved into 1, 2, 4 and 8 channel shards. Small jobs pay
/// fixed per-launch overheads (mode switches, CRF programming) no matter
/// how many channels they get, so running slices concurrently raises
/// jobs/sec — the scheduling analogue of partially synchronous execution.
pub fn throughput(_: &Ctx, scale: f64) -> Output {
    // Degrees mirror a web / road / social sparsity mix.
    let dim = |base: usize| ((base as f64 * scale) as usize).max(64).next_power_of_two();
    let store = MatrixStore::new();
    store.insert("web", gen::rmat(dim(2048), 8, 1));
    store.insert("road", gen::rmat(dim(4096), 3, 2));
    store.insert("social", gen::rmat(dim(1024), 6, 3));
    let jobs_per_tenant = ((8.0 * scale.max(0.1) / 0.1) as usize).clamp(4, 64);

    let mut doc = Doc::new(
        format!("# psim-sched — multi-tenant jobs/sec by shard count (scale {scale})"),
        "sched",
        &[
            "shards",
            "jobs",
            "makespan ms",
            "jobs/s (sim)",
            "speedup",
            "wait p95 us",
            "lat p50 us",
            "lat p95 us",
            "lat p99 us",
        ],
    );
    let mut base = 0.0;
    let mut four = None;
    for shards in [1usize, 2, 4, 8] {
        // A closed batch: one admission window takes the whole mix.
        let queue = build_queue(&store, jobs_per_tenant);
        queue.close();
        let exec = ExecutorConfig::sharded(PimDevice::psync_1x(), shards);
        let sim = Service::new(ServiceConfig {
            exec,
            window: usize::MAX,
        })
        .expect("shards divide the channel count")
        .run(&queue, &mut |_| {})
        .expect("job mix executes")
        .stats
        .sim;
        if shards == 1 {
            base = sim.jobs_per_sim_s;
        }
        let speedup = sim.jobs_per_sim_s / base;
        doc.row(&[
            shards.into(),
            sim.jobs.into(),
            Cell::num(sim.makespan_s * 1e3, 3),
            Cell::num(sim.jobs_per_sim_s, 0),
            Cell::times(speedup),
            us(sim.wait_ns.p95()),
            us(sim.latency_ns.p50()),
            us(sim.latency_ns.p95()),
            us(sim.latency_ns.p99()),
        ]);
        if shards == 4 {
            four = Some((speedup, sim.per_class));
        }
    }
    let (speedup, per_class) = four.expect("the sweep includes 4 shards");
    // Class isolation: interactive jobs see lower latency than the
    // batch/best-effort traffic they share the device with.
    doc.section(
        "# per-class latency at 4 shards",
        "sched-class",
        &["class", "jobs", "lat p50 us", "lat p95 us"],
    );
    for c in &per_class {
        let (p50, p95) = (us(c.latency_ns.p50()), us(c.latency_ns.p95()));
        doc.row(&[c.class.as_str().into(), c.jobs.into(), p50, p95]);
    }
    doc.summary("jobs/s 4 shards / 1", Cell::times(speedup), ">1.5x (goal)");
    doc.done()
}

/// Fused-over-unfused sustained-throughput floor for the full soak.
const SPEEDUP_FLOOR: f64 = 1.3;

/// Fused interactive p99 must stay within this factor of unfused.
const P99_BUDGET: f64 = 1.25;

/// Jobs in the full soak, the committed `results/BENCH_soak.json`.
const FULL_RUN_JOBS: usize = 1_000_000;

/// Jobs in the gate-sized soak `--check` runs.
const GATE_JOBS: usize = 30_000;

/// Fusion window width for the fused run.
const FUSION_WIDTH: usize = 16;

/// Shards (= host threads) the soak device is carved into.
const SHARDS: usize = 8;

/// Byte budget for the shared matrix store — sized so the heavy tail of
/// the working set does not fit and the LRU eviction path is exercised.
const STORE_BUDGET: usize = 13 * 1024;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential with the given mean (Poisson interarrival).
fn expovariate(state: &mut u64, mean: f64) -> f64 {
    // Uniform in (0, 1].
    let u = ((splitmix(state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
    -mean * u.ln()
}

/// The trace's matrix pool, smallest first as (dim, degree): a Zipf-ish
/// heavy tail — most traffic hits the launch-overhead-dominated small
/// matrices, a rare tail of larger ones forces store evictions.
const SHAPES: [(usize, usize); 6] = [(32, 2), (32, 3), (48, 2), (64, 3), (96, 3), (128, 3)];

/// Heavy-tailed pick: shape 0 is hottest, each next shape a third as hot.
fn pick(rng: &mut u64) -> usize {
    let mut idx = 0usize;
    while idx + 1 < SHAPES.len() && splitmix(rng).is_multiple_of(3) {
        idx += 1;
    }
    idx
}

/// The matrix for shape `idx`, regenerating through the LRU store
/// (generation is deterministic by seed, so an evicted matrix comes back
/// with identical contents — only its `Arc` identity changes, which
/// merely splits a fusion group).
fn matrix(store: &MatrixStore, idx: usize) -> Arc<psim_sparse::Coo> {
    let name = format!("m{idx}");
    if let Some(a) = store.get(&name) {
        return a;
    }
    let (n, deg) = SHAPES[idx];
    store.insert(&name, gen::rmat(n, deg, 0x50A1 + idx as u64));
    store.get(&name).expect("just inserted")
}

/// Per-class latency quantiles, microseconds.
#[derive(Serialize)]
struct ClassRow {
    class: String,
    jobs: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

/// One soak run (fused or unfused).
#[derive(Serialize)]
struct RunRow {
    fusion: usize,
    jobs: u64,
    sustained_jobs_per_s: f64,
    makespan_s: f64,
    fused_jobs: u64,
    fused_groups: u64,
    /// Share of jobs served inside a fused group of width > 1.
    fusion_rate: f64,
    steals: u64,
    store_evictions: u64,
    host_walltime_s: f64,
    per_class: Vec<ClassRow>,
}

/// The machine-readable soak report.
#[derive(Serialize)]
struct SoakReport {
    jobs: usize,
    shards: usize,
    fusion_width: usize,
    fused: RunRow,
    unfused: RunRow,
    fused_speedup: f64,
    speedup_floor: f64,
    p99_budget: f64,
    gate_mode: bool,
    violations: usize,
}

/// Run one soak: a producer thread replays the seeded trace into a
/// bounded queue (open arrivals with backpressure) while the service
/// drains it.
fn run_soak(jobs: usize, fusion: usize) -> RunRow {
    let cfg = ExecutorConfig::sharded(PimDevice::tiny(SHARDS), SHARDS).with_fusion(fusion);
    let svc = Service::new(ServiceConfig::new(cfg)).expect("shards divide channels");
    let queue = Arc::new(JobQueue::bounded(1024));

    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let store = MatrixStore::with_budget(STORE_BUDGET);
            let mut rng = 0x5EED_0001u64;
            let mut clock_s = 0.0f64;
            let mut submitted = 0usize;
            while submitted < jobs {
                // Every ~200 jobs: a same-matrix burst from one batch
                // tenant — the fusion window's best case.
                let burst = splitmix(&mut rng).is_multiple_of(200);
                let count = if burst {
                    (4 + splitmix(&mut rng) % 13) as usize // 4..=16
                } else {
                    1
                };
                let a = matrix(&store, pick(&mut rng));
                for _ in 0..count.min(jobs - submitted) {
                    // Overloaded Poisson arrivals: ~20 ns mean gap keeps
                    // the lanes saturated so throughput is capacity-bound.
                    clock_s += expovariate(&mut rng, 20e-9);
                    let x = gen::dense_vector(a.ncols(), splitmix(&mut rng));
                    let (tenant, class) = match splitmix(&mut rng) % 10 {
                        0 | 1 => ("frontend", JobClass::Interactive),
                        2 => ("maintenance", JobClass::BestEffort),
                        r => (
                            ["analytics", "routing", "ranking"][r as usize % 3],
                            JobClass::Batch,
                        ),
                    };
                    let spec = JobSpec::batch(tenant, JobKind::spmv(Arc::clone(&a), x))
                        .with_class(class)
                        .at(clock_s);
                    queue.submit(spec).expect("queue open");
                    submitted += 1;
                }
            }
            queue.close();
            store.evictions()
        })
    };

    let mut done = 0u64;
    let report = svc
        .run(&queue, &mut |_job: CompletedJob| done += 1)
        .expect("soak jobs execute");
    let evictions = producer.join().expect("producer finishes");
    assert_eq!(done, jobs as u64, "every admitted job completes");

    let sim = &report.stats.sim;
    let us = |ns: u64| ns as f64 / 1e3;
    RunRow {
        fusion,
        jobs: sim.jobs,
        sustained_jobs_per_s: sim.jobs_per_sim_s,
        makespan_s: sim.makespan_s,
        fused_jobs: sim.fused_jobs,
        fused_groups: sim.fused_groups,
        fusion_rate: if sim.jobs > 0 {
            sim.fused_jobs as f64 / sim.jobs as f64
        } else {
            0.0
        },
        steals: sim.steals,
        store_evictions: evictions,
        host_walltime_s: report.stats.host.walltime_s,
        per_class: (sim.per_class.iter())
            .map(|c| ClassRow {
                class: c.class.clone(),
                jobs: c.jobs,
                p50_us: us(c.latency_ns.p50()),
                p99_us: us(c.latency_ns.p99()),
                p999_us: us(c.latency_ns.p999()),
            })
            .collect(),
    }
}

/// The service-mode soak: a heavy-tailed multi-tenant open-arrival trace
/// (Poisson background traffic plus same-matrix bursts) replayed through
/// the service twice, SpMV→SpMM fusion on and off. A single producer
/// thread generates the trace from a fixed seed, so both runs admit the
/// same job stream. The arrival rate deliberately overloads the device,
/// so sustained throughput is capacity-bound and fusion's amortization
/// of per-launch fixed costs shows up directly as jobs/sec.
///
/// Writing runs the full [`FULL_RUN_JOBS`] soak, whose gate is fused
/// throughput ≥ [`SPEEDUP_FLOOR`]× unfused. Otherwise it runs
/// [`GATE_JOBS`] jobs, gated on fused ≥ unfused throughput, fused
/// interactive p99 within [`P99_BUDGET`]× unfused, and fusion engaging.
/// The figures race the producer thread (admission windows depend on
/// host speed), so `--check` compares no text, only the gate conditions.
pub fn soak(ctx: &Ctx, _: f64) -> Output {
    let full = ctx.mode == Mode::Write;
    let jobs = if full { FULL_RUN_JOBS } else { GATE_JOBS };
    let fused = run_soak(jobs, FUSION_WIDTH);
    let unfused = run_soak(jobs, 1);
    let fused_speedup = if unfused.sustained_jobs_per_s > 0.0 {
        fused.sustained_jobs_per_s / unfused.sustained_jobs_per_s
    } else {
        0.0
    };

    let mut violations = Vec::new();
    if full && fused_speedup < SPEEDUP_FLOOR {
        violations.push(format!(
            "soak: fused speedup {fused_speedup:.3}x below floor {SPEEDUP_FLOOR}x"
        ));
    }
    if !full {
        if fused.sustained_jobs_per_s < unfused.sustained_jobs_per_s {
            violations.push("soak: fused throughput below unfused".to_string());
        }
        let p99 = |r: &RunRow| {
            r.per_class
                .iter()
                .find(|c| c.class == "interactive")
                .map(|c| c.p99_us)
        };
        if let (Some(f), Some(u)) = (p99(&fused), p99(&unfused)) {
            if f > u * P99_BUDGET {
                violations.push(format!(
                    "soak: fused interactive p99 {f:.1}us exceeds {P99_BUDGET}x unfused {u:.1}us"
                ));
            }
        }
        if fused.fused_jobs == 0 {
            violations.push("soak: fusion never engaged".to_string());
        }
    }

    let report = SoakReport {
        jobs,
        shards: SHARDS,
        fusion_width: FUSION_WIDTH,
        fused,
        unfused,
        fused_speedup,
        speedup_floor: SPEEDUP_FLOOR,
        p99_budget: P99_BUDGET,
        gate_mode: !full,
        violations: violations.len(),
    };
    let mut out = Output::json(&report, violations);
    if ctx.mode == Mode::Check {
        out.text = None;
    }
    out
}
