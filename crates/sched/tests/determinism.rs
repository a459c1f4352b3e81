//! Determinism contract of the sharded executor: the host thread count is
//! a pure performance knob — an N-thread run must be *byte-identical* to a
//! serial run of the same batch (job values, shard placement, and the
//! serialized simulated statistics), for hand-built batches and for
//! proptest-generated random multi-tenant job mixes.

use proptest::prelude::*;
use psim_kernels::PimDevice;
use psim_sched::{
    CompletedJob, ExecutorConfig, JobClass, JobKind, JobQueue, JobSpec, Service, ServiceConfig,
    ServiceStats,
};
use psim_sparse::gen;
use psim_sparse::Coo;
use serde::Serialize;
use std::sync::Arc;

/// One closed batch's outcome: the service statistics and every completed
/// job, sorted by id.
struct Run {
    stats: ServiceStats,
    jobs: Vec<CompletedJob>,
}

/// Run a closed batch with a given host thread count, fusion width and
/// tracing: a service over a closed queue whose one admission window
/// takes every job.
fn run_traced(specs: &[JobSpec], shards: usize, threads: usize, fusion: usize, trace: bool) -> Run {
    let queue = JobQueue::bounded(specs.len().max(1));
    for spec in specs {
        queue.submit(spec.clone()).unwrap();
    }
    queue.close();
    let svc = Service::new(ServiceConfig {
        exec: ExecutorConfig {
            device: PimDevice::tiny(shards.max(2)),
            shards,
            host_threads: threads,
            validate: true,
            trace,
            fusion,
        },
        window: usize::MAX,
    })
    .unwrap();
    let mut jobs = Vec::new();
    let report = svc.run(&queue, &mut |job| jobs.push(job)).unwrap();
    jobs.sort_by_key(|j| j.id);
    Run {
        stats: report.stats,
        jobs,
    }
}

/// Run the same batch with a given host thread count and fusion width.
/// Tracing is part of the determinism contract too: the fingerprint below
/// covers the per-category service attribution, and the proptest compares
/// each job's full metrics registry.
fn run_with_fusion(specs: &[JobSpec], shards: usize, threads: usize, fusion: usize) -> Run {
    run_traced(specs, shards, threads, fusion, true)
}

/// Run the same batch with a given host thread count (fusion off).
fn run_with_threads(specs: &[JobSpec], shards: usize, threads: usize) -> Run {
    run_with_fusion(specs, shards, threads, 1)
}

/// Everything that must be reproducible: the deterministic half of the
/// stats plus every job's placement and numeric result.
fn fingerprint(run: &Run) -> String {
    let mut s = run.stats.sim.to_json();
    for job in &run.jobs {
        s.push_str(&format!(
            "|{}:{}:{}:{}:{}:{:x}:{:x}",
            job.id,
            job.tenant,
            job.class.label(),
            job.kind,
            job.shard,
            job.wait_s.to_bits(),
            job.service_s.to_bits(),
        ));
        push_value_bits(&mut s, &job.value);
    }
    s
}

fn push_value_bits(s: &mut String, value: &psim_sched::JobValue) {
    match value {
        psim_sched::JobValue::Scalar(v) => s.push_str(&format!("={:x}", v.to_bits())),
        psim_sched::JobValue::Vector(v) => {
            for x in v {
                s.push_str(&format!(",{:x}", x.to_bits()));
            }
        }
    }
}

fn mixed_batch() -> Vec<JobSpec> {
    let a = Arc::new(gen::rmat(48, 3, 11));
    let b = Arc::new(gen::rmat(24, 2, 12));
    let x48: Vec<f64> = (0..48).map(|i| 0.5 + i as f64).collect();
    let x24: Vec<f64> = (0..24).map(|i| 1.0 + (i % 5) as f64).collect();
    vec![
        JobSpec::batch("alice", JobKind::spmv(Arc::clone(&a), x48.clone())),
        JobSpec::batch("bob", JobKind::spmv(Arc::clone(&b), x24.clone())),
        JobSpec::batch(
            "carol",
            JobKind::Dot {
                x: x48.clone(),
                y: x48.clone(),
            },
        )
        .with_class(JobClass::Interactive),
        JobSpec::batch(
            "alice",
            JobKind::Axpy {
                alpha: 1.5,
                x: x24.clone(),
                y: x24.clone(),
            },
        ),
        JobSpec::batch("bob", JobKind::Norm2 { x: x48.clone() }).with_class(JobClass::BestEffort),
        JobSpec::batch(
            "carol",
            JobKind::Scal {
                alpha: -2.0,
                x: x24,
            },
        ),
        JobSpec::batch("dave", JobKind::spmv(a, x48)),
    ]
}

#[test]
fn threaded_run_is_byte_identical_to_serial() {
    let specs = mixed_batch();
    let serial = run_with_threads(&specs, 4, 1);
    let serial_fp = fingerprint(&serial);
    for threads in [2, 3, 4, 8] {
        let parallel = run_with_threads(&specs, 4, threads);
        assert_eq!(
            serial_fp,
            fingerprint(&parallel),
            "{threads} host threads diverged from serial"
        );
        // Host half may differ — but must report what actually ran.
        assert_eq!(parallel.stats.host.threads, threads.min(4));
    }
}

#[test]
fn shard_count_is_a_simulated_parameter_not_noise() {
    // Different shard counts ARE allowed to differ (a shard is a smaller
    // device) — but each must be self-consistent across thread counts.
    let specs = mixed_batch();
    for shards in [1, 2, 4] {
        let one = run_with_threads(&specs, shards, 1);
        let many = run_with_threads(&specs, shards, 4);
        assert_eq!(fingerprint(&one), fingerprint(&many), "shards = {shards}");
    }
}

/// FNV-1a over a run's frozen output: the simulated statistics with
/// `serial_s` and `speedup_vs_serial` zeroed (their sums depend on the
/// order jobs complete in), then each job's id, shard, kind, wait and
/// service bits, fused width, service cycles and value bits, in id order.
fn frozen_hash(run: &Run, h: u64) -> u64 {
    let mut sim = run.stats.sim.clone();
    sim.serial_s = 0.0;
    sim.speedup_vs_serial = 0.0;
    let mut s = sim.to_json();
    for job in &run.jobs {
        s.push_str(&format!(
            "|{}:{}:{}:{:x}:{:x}:{}:{}",
            job.id,
            job.shard,
            job.kind,
            job.wait_s.to_bits(),
            job.service_s.to_bits(),
            job.fused_width,
            job.service_cycles,
        ));
        push_value_bits(&mut s, &job.value);
    }
    s.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn closed_batch_output_is_pinned() {
    // The mixed batch at four (shards, fusion, trace) points, pinned when
    // closed batches had their own executor entry point: a closed queue
    // served in one admission window must keep reproducing it.
    let specs = mixed_batch();
    let hash = [(1, 1, false), (2, 4, true), (4, 4, false), (4, 1, true)]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (shards, fusion, trace)| {
            frozen_hash(&run_traced(&specs, shards, 1, fusion, trace), h)
        });
    assert_eq!(hash, 14_288_732_733_034_016_166);
}

/// Random multi-tenant job mixes for the property test.
fn arb_specs() -> impl Strategy<Value = Vec<JobSpec>> {
    let tenant = prop::sample::select(vec!["t0", "t1", "t2", "t3"]);
    let class = prop::sample::select(vec![
        JobClass::Interactive,
        JobClass::Batch,
        JobClass::BestEffort,
    ]);
    let kind = (2usize..24, 0u64..1000, 0usize..4).prop_map(|(n, seed, which)| {
        let x = gen::dense_vector(n, seed);
        let y = gen::dense_vector(n, seed.wrapping_add(7));
        match which {
            0 => {
                let degree = (n / 8).max(1);
                let a: Arc<Coo> = Arc::new(gen::rmat(n.next_power_of_two(), degree, seed));
                let x = gen::dense_vector(n.next_power_of_two(), seed);
                JobKind::spmv(a, x)
            }
            1 => JobKind::Axpy {
                alpha: 0.5 + seed as f64 / 100.0,
                x,
                y,
            },
            2 => JobKind::Dot { x, y },
            _ => JobKind::Norm2 { x },
        }
    });
    prop::collection::vec(
        (tenant, class, kind)
            .prop_map(|(tenant, class, kind)| JobSpec::batch(tenant, kind).with_class(class)),
        1..10,
    )
}

/// Random same-matrix SpMV streams (shared `Arc`, mixed tenants) that the
/// fusion window can actually coalesce, salted with non-fusible jobs.
fn arb_fusible_specs() -> impl Strategy<Value = Vec<JobSpec>> {
    (2usize..14, 0u64..1000).prop_map(|(count, seed)| {
        let n = 32usize;
        let a: Arc<Coo> = Arc::new(gen::rmat(n, 3, seed));
        (0..count)
            .map(|i| {
                let tenant = ["t0", "t1", "t2"][i % 3];
                if i % 5 == 4 {
                    JobSpec::batch(
                        tenant,
                        JobKind::Norm2 {
                            x: gen::dense_vector(n, seed + i as u64),
                        },
                    )
                } else {
                    let x = gen::dense_vector(n, seed + i as u64);
                    JobSpec::batch(tenant, JobKind::spmv(Arc::clone(&a), x))
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_job_mixes_are_deterministic_across_threads(specs in arb_specs()) {
        let serial = run_with_threads(&specs, 2, 1);
        let parallel = run_with_threads(&specs, 2, 4);
        prop_assert_eq!(fingerprint(&serial), fingerprint(&parallel));
        // The psim-trace registries must be bit-identical too, job by job,
        // and every traced job conserves its service cycles exactly.
        for (s, p) in serial.jobs.iter().zip(parallel.jobs.iter()) {
            prop_assert_eq!(&s.run.metrics, &p.run.metrics, "job {}", s.id);
            prop_assert_eq!(s.run.attr.total(), s.service_cycles, "job {}", s.id);
            let m = s.run.metrics.as_ref().expect("tracing on");
            prop_assert!(m.conservation_failures().is_empty(), "job {}", s.id);
        }
    }

    #[test]
    fn fused_runs_are_deterministic_and_never_change_values(specs in arb_fusible_specs()) {
        // The fusing, work-stealing executor keeps the determinism
        // contract: threads are noise even when groups fuse and lanes
        // steal. And fusion changes scheduling only — every job's value
        // must be bit-identical to the unfused run's.
        let fused_serial = run_with_fusion(&specs, 2, 1, 4);
        let fused_parallel = run_with_fusion(&specs, 2, 4, 4);
        prop_assert_eq!(fingerprint(&fused_serial), fingerprint(&fused_parallel));
        let unfused = run_with_threads(&specs, 2, 1);
        prop_assert_eq!(fused_serial.jobs.len(), unfused.jobs.len());
        let mut fused_cycles = 0u64;
        for (f, u) in fused_serial.jobs.iter().zip(unfused.jobs.iter()) {
            prop_assert_eq!(f.id, u.id);
            match (&f.value, &u.value) {
                (psim_sched::JobValue::Scalar(a), psim_sched::JobValue::Scalar(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "job {}", f.id);
                }
                (psim_sched::JobValue::Vector(a), psim_sched::JobValue::Vector(b)) => {
                    prop_assert_eq!(a.len(), b.len(), "job {}", f.id);
                    for (x, y) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "job {}", f.id);
                    }
                }
                _ => prop_assert!(false, "job {} changed value shape", f.id),
            }
            // Leaders carry the group's cycles once; followers zero.
            prop_assert_eq!(f.run.attr.total(), f.service_cycles, "job {}", f.id);
            if !f.fused_leader {
                prop_assert_eq!(f.service_cycles, 0, "follower {}", f.id);
            }
            fused_cycles += f.service_cycles;
        }
        prop_assert!(fused_cycles > 0);
        if specs.len() >= 4 {
            prop_assert!(
                fused_serial.stats.sim.fused_jobs > 0,
                "a same-matrix stream of {} jobs must fuse", specs.len()
            );
        }
    }
}
