//! soak_sched: a million-job service-mode soak with and without SpMV→SpMM
//! fusion.
//!
//! Replays a heavy-tailed multi-tenant open-arrival trace (Poisson
//! background traffic plus same-matrix bursts) through the service
//! front-end twice — fusion ON and fusion OFF — and reports sustained
//! jobs/sec, per-class p50/p99/p999
//! latency, fusion rate, steal counts and matrix-store evictions. The
//! trace is generated by a single producer thread from a fixed seed, so
//! both runs admit exactly the same job stream and the comparison is
//! apples to apples.
//!
//! The arrival rate deliberately overloads the device (mean interarrival
//! far below mean service), so sustained throughput is capacity-bound and
//! fusion's amortization of per-launch fixed costs (mode switches, CRF
//! programming, result collection) shows up directly as jobs/sec.
//!
//! Writes `results/BENCH_soak.json`, or `target/BENCH_soak_gate.json` in
//! `--gate` mode so a CI run never replaces the committed full-size
//! report. Gates:
//!
//! * full runs (≥ [`FULL_RUN_JOBS`] jobs): fused throughput must be at
//!   least [`SPEEDUP_FLOOR`]× unfused;
//! * `--gate` (the scaled-down CI mode): fused ≥ unfused, and fused
//!   interactive p99 within [`P99_BUDGET`]× of unfused.
//!
//! Usage: `soak_sched [--jobs N] [--gate]`.

use psim_kernels::PimDevice;
use psim_sched::{
    CompletedJob, ExecutorConfig, JobClass, JobKind, JobQueue, JobSpec, MatrixStore, Service,
    ServiceConfig, ServiceStats,
};
use psim_sparse::gen;
use serde::Serialize;
use std::sync::Arc;

/// Fused-over-unfused sustained-throughput floor for full-size runs.
const SPEEDUP_FLOOR: f64 = 1.3;

/// Fused interactive p99 must stay within this factor of unfused.
const P99_BUDGET: f64 = 1.25;

/// Job count at or above which the [`SPEEDUP_FLOOR`] gate applies.
const FULL_RUN_JOBS: usize = 1_000_000;

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

/// Uniform in (0, 1].
#[allow(clippy::cast_precision_loss)]
fn uniform(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Exponential with the given mean (Poisson interarrival).
fn expovariate(state: &mut u64, mean: f64) -> f64 {
    -mean * uniform(state).ln()
}

/// The trace's matrix pool: a Zipf-ish heavy tail — most traffic hits the
/// small matrices, a long tail of larger ones forces store evictions.
struct Pool {
    store: MatrixStore,
    /// (name, dim, degree, seed), smallest first.
    shapes: Vec<(String, usize, usize, u64)>,
}

impl Pool {
    fn new() -> Self {
        let shapes: Vec<(String, usize, usize, u64)> = [
            (32usize, 2usize),
            (32, 3),
            (48, 2),
            (64, 3),
            (96, 3),
            (128, 3),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(n, deg))| (format!("m{i}"), n, deg, 0x50A1u64.wrapping_add(i as u64)))
        .collect();
        Pool {
            store: MatrixStore::with_budget(STORE_BUDGET),
            shapes,
        }
    }

    /// Heavy-tailed pick: index 0 is hottest, each next shape a third as
    /// hot — most traffic lands on the launch-overhead-dominated small
    /// matrices, with a rare large tail that churns the store.
    fn pick(&self, rng: &mut u64) -> usize {
        let mut idx = 0usize;
        while idx + 1 < self.shapes.len() && splitmix(rng).is_multiple_of(3) {
            idx += 1;
        }
        idx
    }

    /// The matrix for shape `idx`, regenerating through the LRU store
    /// (generation is deterministic by seed, so an evicted matrix comes
    /// back with identical contents — only its `Arc` identity changes,
    /// which merely splits a fusion group).
    fn matrix(&self, idx: usize) -> Arc<psim_sparse::Coo> {
        let (name, n, deg, seed) = &self.shapes[idx];
        if let Some(a) = self.store.get(name) {
            return a;
        }
        self.store.insert(name, gen::rmat(*n, *deg, *seed));
        self.store.get(name).expect("just inserted")
    }
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

#[allow(clippy::cast_precision_loss)]
fn class_rows(stats: &ServiceStats) -> Vec<ClassRow> {
    let us = |ns: u64| ns as f64 / 1e3;
    stats
        .sim
        .per_class
        .iter()
        .map(|c| ClassRow {
            class: c.class.clone(),
            jobs: c.jobs,
            p50_us: us(c.latency_ns.p50()),
            p99_us: us(c.latency_ns.p99()),
            p999_us: us(c.latency_ns.p999()),
        })
        .collect()
}

/// Run one soak: a producer thread replays the seeded trace into a
/// bounded queue (open arrivals with backpressure) while the service
/// drains it. Returns the service report plus store evictions.
#[allow(clippy::cast_precision_loss)]
fn run_soak(jobs: usize, fusion: usize) -> RunRow {
    let cfg = ExecutorConfig::sharded(PimDevice::tiny(SHARDS), SHARDS).with_fusion(fusion);
    let svc = Service::new(ServiceConfig::new(cfg)).expect("shards divide channels");
    let queue = Arc::new(JobQueue::bounded(1024));

    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let pool = Pool::new();
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
                let idx = pool.pick(&mut rng);
                let a = pool.matrix(idx);
                for _ in 0..count.min(jobs - submitted) {
                    // Overloaded Poisson arrivals: ~20 ns mean gap keeps
                    // the lanes saturated so throughput is capacity-bound.
                    clock_s += expovariate(&mut rng, 20e-9);
                    let n = a.ncols();
                    let x = gen::dense_vector(n, splitmix(&mut rng));
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
            pool.store.evictions()
        })
    };

    let mut done = 0u64;
    let report = svc
        .run(&queue, &mut |_job: CompletedJob| done += 1)
        .expect("soak jobs execute");
    let evictions = producer.join().expect("producer finishes");
    assert_eq!(done, jobs as u64, "every admitted job completes");

    let sim = &report.stats.sim;
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
        per_class: class_rows(&report.stats),
    }
}

fn parse_args() -> (usize, bool) {
    let mut jobs = FULL_RUN_JOBS;
    let mut gate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs takes a count");
            }
            "--gate" => gate = true,
            other => panic!("unknown argument {other:?} (usage: soak_sched [--jobs N] [--gate])"),
        }
    }
    (jobs, gate)
}

fn print_run(label: &str, r: &RunRow) {
    println!(
        "{label}\tjobs={}\tjobs/s={:.0}\tmakespan={:.4}s\tfusion_rate={:.3}\tsteals={}\tevictions={}\thost={:.1}s",
        r.jobs,
        r.sustained_jobs_per_s,
        r.makespan_s,
        r.fusion_rate,
        r.steals,
        r.store_evictions,
        r.host_walltime_s,
    );
    for c in &r.per_class {
        println!(
            "{label}\tclass={}\tjobs={}\tp50={:.1}us\tp99={:.1}us\tp999={:.1}us",
            c.class, c.jobs, c.p50_us, c.p99_us, c.p999_us
        );
    }
}

fn main() {
    let (jobs, gate) = parse_args();
    println!("# soak_sched: {jobs} jobs, {SHARDS} shards, fusion {FUSION_WIDTH} vs off");

    let fused = run_soak(jobs, FUSION_WIDTH);
    print_run("fused", &fused);
    let unfused = run_soak(jobs, 1);
    print_run("unfused", &unfused);

    let fused_speedup = if unfused.sustained_jobs_per_s > 0.0 {
        fused.sustained_jobs_per_s / unfused.sustained_jobs_per_s
    } else {
        0.0
    };
    println!("fused_speedup\t{fused_speedup:.3}x (floor {SPEEDUP_FLOOR}x on full runs)");

    let mut violations = 0usize;
    if jobs >= FULL_RUN_JOBS && fused_speedup < SPEEDUP_FLOOR {
        println!("soak\tVIOLATION\tfused speedup {fused_speedup:.3}x below floor {SPEEDUP_FLOOR}x");
        violations += 1;
    }
    if gate {
        if fused.sustained_jobs_per_s < unfused.sustained_jobs_per_s {
            println!("soak\tVIOLATION\tfused throughput below unfused");
            violations += 1;
        }
        let p99 = |r: &RunRow| {
            r.per_class
                .iter()
                .find(|c| c.class == "interactive")
                .map(|c| c.p99_us)
        };
        if let (Some(f), Some(u)) = (p99(&fused), p99(&unfused)) {
            if f > u * P99_BUDGET {
                println!(
                    "soak\tVIOLATION\tfused interactive p99 {f:.1}us exceeds {P99_BUDGET}x unfused {u:.1}us"
                );
                violations += 1;
            }
        }
        if fused.fused_jobs == 0 {
            println!("soak\tVIOLATION\tfusion never engaged");
            violations += 1;
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
        gate_mode: gate,
        violations,
    };
    let json = report.to_json();
    let (dir, path) = if gate {
        ("target", "target/BENCH_soak_gate.json")
    } else {
        ("results", "results/BENCH_soak.json")
    };
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, format!("{json}\n")))
    {
        eprintln!("soak_sched: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("soak_sched: wrote {path}");

    if violations > 0 {
        eprintln!("soak_sched: {violations} gate violation(s)");
        std::process::exit(1);
    }
    println!("soak_sched: sustained, fused and fair");
}
