//! The kernel suites: Table IX SpMV and SpTRSV matrices on the full cube.

use psim_kernels::{programs, PimDevice, SpmvPim, SptrsvPim};
use psim_sparse::level::reorder_to_lower;
use psim_sparse::partition::{BankPartition, DistPolicy, PartitionConfig, PartitionScheme};
use psim_sparse::suite::{with_tag, Tag};
use psim_sparse::triangular::{unit_triangular_from, Triangle, UnitTriangular};
use psim_sparse::{Coo, LevelSchedule, Precision};

use crate::check::{self, percentile};
use crate::host::CpuClock;
use crate::inputs::{suite_matrix, vector};
use crate::{probe_programs, timed_pass, Laps, Opts, Outcome, Pass, Spans, Workload};

/// Relative tolerance of an SpMV output element.
pub const SPMV_REL_TOL: f64 = 1e-9;

/// Relative tolerance of an SpTRSV solution element (as `fig09_sptrsv`).
pub const SPTRSV_REL_TOL: f64 = 1e-6;

/// `dev` with psim-trace attribution switched on when the pass asks.
fn device(mut dev: PimDevice, opts: Opts) -> PimDevice {
    dev.trace = opts.attribute;
    dev
}

/// Time one `BankPartition::build` of `a` as `SpmvPim` would partition it
/// on `dev`, into `sparse.partition_s` / `sparse.partition_calls`.
pub fn probe_partition(a: &Coo, dev: &PimDevice, precision: Precision, spans: &mut Spans) {
    let config = PartitionConfig {
        num_banks: dev.total_banks(),
        row_bytes: dev.hbm.row_bytes(),
        precision,
        policy: DistPolicy::RoundRobin,
        compress: true,
        scheme: PartitionScheme::Row1D,
    };
    let t0 = CpuClock::now();
    std::hint::black_box(BankPartition::build(a, config));
    spans.add("sparse.partition_s", t0.elapsed_s());
    spans.add("sparse.partition_calls", 1.0);
}

/// Fill the latency figures of a suite whose operations run one after
/// another, each an interactive request of its own.
fn finish_sequential(out: &mut Outcome, latencies: &[f64]) {
    out.sim.ops = latencies.len() as u64;
    out.sim.makespan_s = out.sim.sim_s();
    out.sim.p50 = percentile(latencies, 0.5);
    out.sim.p99 = percentile(latencies, 0.99);
    out.sim.interactive_p99 = out.sim.p99;
}

/// `spmv_suite`: the 15 SpMV-tagged Table IX matrices (two of them INT8),
/// each multiplied once on the 1× all-bank cube and once on the per-bank
/// baseline, validation and tracing off.
#[derive(Debug, Clone, Copy)]
pub struct SpmvSuite {
    /// Matrix scale relative to Table IX.
    pub scale: f64,
}

impl SpmvSuite {
    /// Benchmark size.
    pub const BENCH: SpmvSuite = SpmvSuite { scale: 0.02 };
}

struct SpmvInput {
    a: Coo,
    x: Vec<f64>,
    precision: Precision,
}

impl Workload for SpmvSuite {
    fn pass(&self, seed: u64, opts: Opts) -> Pass {
        timed_pass(
            opts,
            |spans| {
                let devices = [
                    device(PimDevice::psync_1x(), opts),
                    device(PimDevice::per_bank(), opts),
                ];
                let inputs: Vec<SpmvInput> = with_tag(Tag::SpMv)
                    .into_iter()
                    .map(|spec| {
                        spans.time("sparse.gen_s", || {
                            let a = suite_matrix(spec, self.scale, seed);
                            let mut x = vector(a.ncols(), spec.name, seed);
                            if !spec.precision.is_float() {
                                // Non-negative operands keep saturated
                                // integer sums checkable (`check::element_ok`).
                                x.iter_mut().for_each(|v| *v = v.abs());
                            }
                            SpmvInput {
                                a,
                                x,
                                precision: spec.precision,
                            }
                        })
                    })
                    .collect();
                (devices, inputs)
            },
            |(devices, inputs), spans, laps: &mut Laps| {
                let mut out = Outcome::default();
                let mut latencies = Vec::new();
                for m in inputs {
                    let want = check::spmv_reference(&m.a, &m.x, m.precision);
                    laps.lap();
                    for dev in devices {
                        out.attempted += 1;
                        let runner = SpmvPim::new(dev.clone(), m.precision);
                        match spans.time("kernels.spmv_s", || runner.run(&m.a, &m.x)) {
                            Ok(r) => {
                                out.sim.absorb(&r.run);
                                latencies.push(r.run.total_s());
                                let ok = r.run.violations == 0
                                    && check::vectors_match(&r.y, &want, m.precision, SPMV_REL_TOL);
                                out.failed += u64::from(!ok);
                            }
                            Err(_) => out.failed += 1,
                        }
                        laps.lap();
                    }
                }
                finish_sequential(&mut out, &latencies);
                out
            },
            |(devices, inputs), spans| {
                for m in inputs {
                    for dev in devices {
                        probe_partition(&m.a, dev, m.precision, spans);
                    }
                }
                probe_programs(
                    &[
                        programs::sparse_stream_batched(Precision::Fp64, "MUL", "ADD"),
                        programs::sparse_stream_batched(Precision::Int8, "MUL", "ADD"),
                    ],
                    spans,
                );
            },
        )
    }
}

/// `sptrsv_suite`: lower and upper SpTRSV on the 5 SpTrsv-tagged Table IX
/// matrices on the 1× cube, level-reordered as in `fig09_sptrsv`.
#[derive(Debug, Clone, Copy)]
pub struct SptrsvSuite {
    /// Matrix scale relative to Table IX.
    pub scale: f64,
}

impl SptrsvSuite {
    /// Benchmark size.
    pub const BENCH: SptrsvSuite = SptrsvSuite { scale: 0.01 };
}

struct SptrsvInput {
    t: UnitTriangular,
    reordered: UnitTriangular,
    /// `perm[new] = old` row of the reordering.
    perm: Vec<usize>,
    b: Vec<f64>,
    pb: Vec<f64>,
}

impl Workload for SptrsvSuite {
    fn pass(&self, seed: u64, opts: Opts) -> Pass {
        timed_pass(
            opts,
            |spans| {
                let dev = device(PimDevice::psync_1x(), opts);
                let mut inputs = Vec::new();
                for spec in with_tag(Tag::SpTrsv) {
                    let a = spans.time("sparse.gen_s", || suite_matrix(spec, self.scale, seed));
                    for (label, triangle) in
                        [("lower", Triangle::Lower), ("upper", Triangle::Upper)]
                    {
                        let (t, reordered, perm) = spans.time("sparse.level_s", || {
                            let t = unit_triangular_from(&a, triangle)
                                .expect("suite matrices are square");
                            std::hint::black_box(LevelSchedule::analyze(&t));
                            let (reordered, perm) = reorder_to_lower(&t);
                            (t, reordered, perm)
                        });
                        let b = spans.time("sparse.gen_s", || {
                            vector(t.dim(), &format!("{}/{label}", spec.name), seed)
                        });
                        let pb = perm.iter().map(|&old| b[old]).collect();
                        inputs.push(SptrsvInput {
                            t,
                            reordered,
                            perm,
                            b,
                            pb,
                        });
                    }
                }
                (dev, inputs)
            },
            |(dev, inputs), spans, laps: &mut Laps| {
                let mut out = Outcome::default();
                let mut latencies = Vec::new();
                let solver = SptrsvPim::new(dev.clone());
                for m in inputs {
                    out.attempted += 1;
                    let want = m.t.solve_colwise(&m.b);
                    laps.lap();
                    let Ok(want) = want else {
                        out.failed += 1;
                        continue;
                    };
                    match spans.time("kernels.sptrsv_s", || solver.run(&m.reordered, &m.pb)) {
                        Ok(r) => {
                            out.sim.absorb(&r.run);
                            latencies.push(r.run.total_s());
                            let ok = r.run.violations == 0
                                && r.x.len() == m.perm.len()
                                && m.perm.iter().enumerate().all(|(new, &old)| {
                                    check::element_ok(
                                        r.x[new],
                                        want[old],
                                        Precision::Fp64,
                                        SPTRSV_REL_TOL,
                                    )
                                });
                            out.failed += u64::from(!ok);
                        }
                        Err(_) => out.failed += 1,
                    }
                    laps.lap();
                }
                finish_sequential(&mut out, &latencies);
                out
            },
            |_, spans| {
                probe_programs(
                    &[programs::sparse_stream_batched(
                        Precision::Fp64,
                        "MUL",
                        "RSUB",
                    )],
                    spans,
                );
            },
        )
    }
}
