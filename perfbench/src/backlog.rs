//! `service_backlog`: a seeded multi-tenant trace of small jobs drained by
//! one `psim_sched::Service`.

use std::sync::Arc;

use psim_kernels::{programs, PimDevice};
use psim_sched::{
    CompletedJob, ExecutorConfig, JobClass, JobKind, JobQueue, JobSpec, JobValue, MatrixStore,
    Service, ServiceConfig,
};
use psim_sparse::triangular::{unit_triangular_from, Triangle, UnitTriangular};
use psim_sparse::{dense, gen, Coo, Precision};

use crate::check::{self, percentile};
use crate::host::CpuClock;
use crate::inputs::{mix, splitmix};
use crate::suites::{probe_partition, SPMV_REL_TOL, SPTRSV_REL_TOL};
use crate::{probe_programs, timed_pass, Laps, Opts, Outcome, Pass, SchedSim, Spans, Workload};

/// Channel shards of the service device (`PimDevice::tiny(SHARDS)`).
const SHARDS: usize = 8;

/// SpMV→SpMM fusion window width.
const FUSION: usize = 16;

/// Matrix-store byte budget: the hot SpMV shapes fit, the tail churns.
const STORE_BUDGET: usize = 208 * 1024;

/// SpMV pool shapes `(dim, degree)`, hottest first.
const SPMV_SHAPES: [(usize, usize); 6] = [(32, 2), (32, 3), (48, 2), (64, 3), (96, 3), (128, 3)];

/// SpTRSV pool shapes `(dim, degree, layers)` of layered DAGs; each factor
/// is used as a lower and an upper triangle. A layered DAG has exactly
/// `layers` level sets whatever the seed, so the seed moves where the
/// dependencies fall but not how many launches a solve takes.
const TRSV_SHAPES: [(usize, usize, usize); 2] = [(64, 3, 6), (96, 3, 8)];

/// Completed (and, after the drain, checked) jobs per lap of the timed
/// section.
const LAP_JOBS: usize = 250;

/// Distinct seeded matrices per pool shape, picked uniformly, so the
/// trace's cost averages over several structures instead of hinging on
/// the one the seed gives the hottest shape.
const COPIES: usize = 16;

/// `service_backlog` at a given job count.
#[derive(Debug, Clone, Copy)]
pub struct Backlog {
    /// Jobs in the trace.
    pub jobs: usize,
}

impl Backlog {
    /// Benchmark size.
    pub const BENCH: Backlog = Backlog { jobs: 10_000 };
}

/// The CPU-side copy of one job, checked against its completed value.
enum Expect {
    Spmv(Arc<Coo>, Vec<f64>),
    Sptrsv(Arc<UnitTriangular>, Vec<f64>),
    Axpy(f64, Vec<f64>, Vec<f64>),
    Dot(Vec<f64>, Vec<f64>),
    Norm2(Vec<f64>),
}

impl Expect {
    fn matches(&self, value: &JobValue) -> bool {
        let close =
            |got: f64, want: f64| check::element_ok(got, want, Precision::Fp64, SPMV_REL_TOL);
        match (self, value) {
            (Expect::Spmv(a, x), JobValue::Vector(y)) => {
                check::vectors_match(y, &a.spmv(x), Precision::Fp64, SPMV_REL_TOL)
            }
            (Expect::Sptrsv(t, b), JobValue::Vector(y)) => t
                .solve_colwise(b)
                .is_ok_and(|want| check::vectors_match(y, &want, Precision::Fp64, SPTRSV_REL_TOL)),
            (Expect::Axpy(alpha, x, y0), JobValue::Vector(y)) => {
                let mut want = y0.clone();
                dense::axpy(*alpha, x, &mut want);
                check::vectors_match(y, &want, Precision::Fp64, SPMV_REL_TOL)
            }
            (Expect::Dot(x, y), JobValue::Scalar(s)) => close(*s, dense::dot(x, y)),
            (Expect::Norm2(x), JobValue::Scalar(s)) => close(*s, dense::nrm2(x)),
            _ => false,
        }
    }
}

/// The store-resident operand pool of one pass.
struct Pool {
    store: MatrixStore,
    seed: u64,
}

impl Pool {
    /// SpMV matrix `idx` (shape `idx / COPIES`), regenerated through the
    /// LRU store when evicted (same contents, new `Arc`, so it fuses with
    /// later jobs only).
    fn matrix(&self, idx: usize, spans: &mut Spans) -> Arc<Coo> {
        let name = format!("m{idx}");
        if let Some(a) = spans.time("sched.fill_s", || self.store.get(&name)) {
            return a;
        }
        let (n, deg) = SPMV_SHAPES[idx / COPIES];
        let a = spans.time("sparse.gen_s", || {
            gen::rmat_seeded(n, deg, 0x50A1 + idx as u64, gen::DEFAULT_SEED ^ self.seed)
        });
        spans.time("sched.fill_s", || self.store.insert(&name, a))
    }

    /// The lower or upper triangle of factor `idx` (shape `idx / COPIES`).
    fn triangular(&self, idx: usize, triangle: Triangle, spans: &mut Spans) -> Arc<UnitTriangular> {
        let name = format!("t{idx}{triangle:?}");
        if let Some(t) = spans.time("sched.fill_s", || self.store.get_triangular(&name)) {
            return t;
        }
        let (n, deg, layers) = TRSV_SHAPES[idx / COPIES];
        let a = spans.time("sparse.gen_s", || {
            gen::layered_dag(n, deg, layers, (0x7A1 + idx as u64) ^ self.seed)
        });
        let t = spans.time("sparse.level_s", || {
            unit_triangular_from(&a, triangle).expect("pool matrices are square")
        });
        spans.time("sched.fill_s", || self.store.insert_triangular(&name, t))
    }
}

/// Heavy-tailed pick of one of `shapes * COPIES` pool entries: shape 0
/// is hottest, each next shape a third as hot, copies equally hot.
fn pick(rng: &mut u64, shapes: usize) -> usize {
    let mut shape = 0;
    while shape + 1 < shapes && splitmix(rng).is_multiple_of(3) {
        shape += 1;
    }
    shape * COPIES + (splitmix(rng) % COPIES as u64) as usize
}

/// A dense operand of length `n` drawn from the trace's stream.
fn operand(n: usize, rng: &mut u64, spans: &mut Spans) -> Vec<f64> {
    let salt = splitmix(rng);
    spans.time("sparse.gen_s", || gen::dense_vector(n, salt))
}

/// Everything one service pass needs.
struct Trace {
    svc: Service,
    queue: JobQueue,
    window: usize,
    expect: Vec<(JobClass, Expect)>,
    evictions: u64,
}

impl Backlog {
    fn service(validate: bool, opts: Opts) -> (Service, usize) {
        let mut exec = ExecutorConfig::sharded(PimDevice::tiny(SHARDS), SHARDS).with_fusion(FUSION);
        exec.host_threads = 1;
        exec.validate = validate;
        exec.trace = opts.attribute;
        let cfg = ServiceConfig::new(exec);
        let window = cfg.window;
        (
            Service::new(cfg).expect("shards divide the channels"),
            window,
        )
    }

    /// Generate the seeded trace, fill the store and the queue (closed,
    /// every job arriving at t = 0), and build the service.
    fn setup(&self, seed: u64, validate: bool, opts: Opts, spans: &mut Spans) -> Trace {
        let (svc, window) = Self::service(validate, opts);
        let pool = Pool {
            store: MatrixStore::with_budget(STORE_BUDGET),
            seed: mix(seed),
        };
        let mut rng = mix(seed ^ 0xB4C1_0600);
        let mut specs = Vec::with_capacity(self.jobs);
        let mut expect = Vec::with_capacity(self.jobs);
        let mut draws = 0u64;
        while specs.len() < self.jobs {
            // Classes cycle through a fixed 20/70/10 pattern of draws, so
            // the split is exact rather than a seed-dependent sample.
            draws += 1;
            let (tenant, class) = match draws % 10 {
                0 | 1 => ("frontend", JobClass::Interactive),
                9 => ("maintenance", JobClass::BestEffort),
                r => (
                    ["analytics", "routing", "ranking"][r as usize % 3],
                    JobClass::Batch,
                ),
            };
            let roll = splitmix(&mut rng) % 100;
            let mut push = |kind: JobKind, exp: Expect| {
                specs.push(JobSpec::batch(tenant, kind).with_class(class));
                expect.push((class, exp));
            };
            match roll {
                0..80 => {
                    // A same-matrix burst of 4..=16 jobs from one batch
                    // tenant on every 25th draw that is an SpMV, sizes
                    // cycling so their total does not depend on the seed.
                    let burst = if draws % 25 == 12 {
                        4 + (draws / 25 % 13) as usize
                    } else {
                        1
                    };
                    let a = pool.matrix(pick(&mut rng, SPMV_SHAPES.len()), spans);
                    for _ in 0..burst {
                        let x = operand(a.ncols(), &mut rng, spans);
                        push(
                            JobKind::spmv(Arc::clone(&a), x.clone()),
                            Expect::Spmv(Arc::clone(&a), x),
                        );
                    }
                }
                80..97 => {
                    let n = 64 + (splitmix(&mut rng) % 193) as usize;
                    let x = operand(n, &mut rng, spans);
                    match roll {
                        80..87 => {
                            let y = operand(n, &mut rng, spans);
                            let alpha = 0.5 + (splitmix(&mut rng) % 8) as f64 * 0.25;
                            push(
                                JobKind::Axpy {
                                    alpha,
                                    x: x.clone(),
                                    y: y.clone(),
                                },
                                Expect::Axpy(alpha, x, y),
                            );
                        }
                        87..93 => {
                            let y = operand(n, &mut rng, spans);
                            push(
                                JobKind::Dot {
                                    x: x.clone(),
                                    y: y.clone(),
                                },
                                Expect::Dot(x, y),
                            );
                        }
                        _ => push(JobKind::Norm2 { x: x.clone() }, Expect::Norm2(x)),
                    }
                }
                _ => {
                    let triangle = if splitmix(&mut rng).is_multiple_of(2) {
                        Triangle::Lower
                    } else {
                        Triangle::Upper
                    };
                    let t = pool.triangular(pick(&mut rng, TRSV_SHAPES.len()), triangle, spans);
                    let b = operand(t.dim(), &mut rng, spans);
                    push(
                        JobKind::Sptrsv {
                            t: Arc::clone(&t),
                            b: b.clone(),
                        },
                        Expect::Sptrsv(t, b),
                    );
                }
            }
        }
        specs.truncate(self.jobs);
        expect.truncate(self.jobs);
        let queue = JobQueue::bounded(self.jobs);
        spans.time("sched.fill_s", || {
            for spec in specs {
                queue.submit(spec).expect("the queue holds the whole trace");
            }
            queue.close();
        });
        Trace {
            svc,
            queue,
            window,
            expect,
            evictions: pool.store.evictions(),
        }
    }
}

impl Workload for Backlog {
    fn pass(&self, seed: u64, opts: Opts) -> Pass {
        timed_pass(
            opts,
            |spans| self.setup(seed, true, opts, spans),
            |trace, spans, laps: &mut Laps| {
                let mut done: Vec<CompletedJob> = Vec::with_capacity(self.jobs);
                let report = spans.time("sched.run_s", || {
                    trace.svc.run(&trace.queue, &mut |job| {
                        done.push(job);
                        if done.len().is_multiple_of(LAP_JOBS) {
                            laps.lap();
                        }
                    })
                });
                laps.lap();
                let mut out = Outcome {
                    attempted: trace.expect.len() as u64,
                    failed: trace.expect.len() as u64,
                    ..Outcome::default()
                };
                let mut latency = Vec::with_capacity(done.len());
                let mut interactive = Vec::new();
                let mut wait = Vec::with_capacity(done.len());
                let mut service = Vec::with_capacity(done.len());
                for (i, job) in done.iter().enumerate() {
                    if i > 0 && i.is_multiple_of(LAP_JOBS) {
                        laps.lap();
                    }
                    let (class, exp) = &trace.expect[job.id as usize];
                    if job.fused_leader {
                        out.sim.absorb(&job.run);
                    }
                    let ok =
                        *class == job.class && job.run.violations == 0 && exp.matches(&job.value);
                    out.failed -= u64::from(ok);
                    latency.push(job.wait_s + job.service_s);
                    if job.class == JobClass::Interactive {
                        interactive.push(job.wait_s + job.service_s);
                    }
                    wait.push(job.wait_s);
                    service.push(job.service_s);
                }
                let sim = &mut out.sim;
                sim.ops = done.len() as u64;
                // Validation lints each group's program once up front and
                // again at every launch's `load_kernel`.
                let groups = done.iter().filter(|j| j.fused_leader).count() as u64;
                sim.lint_calls = sim.launches + groups;
                sim.p50 = percentile(&latency, 0.5);
                sim.p99 = percentile(&latency, 0.99);
                sim.interactive_p99 = percentile(&interactive, 0.99);
                sim.sched = SchedSim {
                    windows: trace.expect.len().div_ceil(trace.window) as u64,
                    store_evictions: trace.evictions,
                    wait_p99: percentile(&wait, 0.99),
                    service_p99: percentile(&service, 0.99),
                    ..SchedSim::default()
                };
                if let Ok(report) = report {
                    let s = report.stats.sim;
                    sim.makespan_s = s.makespan_s;
                    sim.sched.fused_jobs = s.fused_jobs;
                    sim.sched.fused_groups = s.fused_groups;
                    sim.sched.steals = s.steals;
                    sim.sched.shard_busy = s.per_shard_busy_cycles;
                } else {
                    out.failed = out.attempted;
                }
                out
            },
            |trace, spans| {
                let dev = trace.svc.executor().shard_device().clone();
                for (_, exp) in &trace.expect {
                    if let Expect::Spmv(a, _) = exp {
                        probe_partition(a, &dev, Precision::Fp64, spans);
                    }
                }
                probe_programs(
                    &[
                        programs::sparse_stream_batched(Precision::Fp64, "MUL", "ADD"),
                        programs::spmm_stream(Precision::Fp64, "MUL", "ADD"),
                        programs::sparse_stream_batched(Precision::Fp64, "MUL", "RSUB"),
                        programs::daxpy(Precision::Fp64, 16),
                        programs::ddot(Precision::Fp64, 16),
                    ],
                    spans,
                );
                // The same trace once more without validation: the
                // difference in `Service::run` time is validation's cost.
                let unchecked = self.setup(seed, false, opts, &mut Spans::new(false));
                let t0 = CpuClock::now();
                let drained = unchecked.svc.run(&unchecked.queue, &mut |_| {});
                let off_s = t0.elapsed_s();
                std::hint::black_box(drained.is_ok());
                spans.add("sched.validate_s", spans.get("sched.run_s") - off_s);
            },
        )
    }
}
