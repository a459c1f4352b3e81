//! Acceptance guard for the sharding throughput claim: on a multi-job
//! small-SpMV mix, carving the device into 4 channel shards must deliver
//! more than 1.5× the simulated jobs/sec of the unsharded device (small
//! jobs pay fixed per-launch overheads, so concurrency across shards beats
//! giving every job all the channels).

use psim_kernels::PimDevice;
use psim_sched::{ExecutorConfig, JobKind, JobQueue, JobSpec, Service, ServiceConfig, SimStats};
use psim_sparse::gen;
use std::sync::Arc;

fn spmv_mix() -> JobQueue {
    let queue = JobQueue::bounded(64);
    let mats = [
        Arc::new(gen::rmat(128, 6, 1)),
        Arc::new(gen::rmat(256, 3, 2)),
        Arc::new(gen::rmat(64, 8, 3)),
    ];
    for i in 0..16 {
        let a = Arc::clone(&mats[i % mats.len()]);
        let x = gen::dense_vector(a.ncols(), i as u64);
        queue
            .submit(JobSpec::batch(&format!("t{}", i % 4), JobKind::spmv(a, x)))
            .unwrap();
    }
    queue.close();
    queue
}

/// Serve the mix as a closed batch: one admission window takes every job.
fn run(shards: usize) -> SimStats {
    Service::new(ServiceConfig {
        exec: ExecutorConfig::sharded(PimDevice::psync_1x(), shards),
        window: usize::MAX,
    })
    .unwrap()
    .run(&spmv_mix(), &mut |_| {})
    .unwrap()
    .stats
    .sim
}

#[test]
fn four_shards_exceed_1_5x_jobs_per_sec() {
    let one = run(1);
    let four = run(4);
    assert_eq!(one.jobs, 16);
    assert_eq!(four.jobs, 16);
    let ratio = four.jobs_per_sim_s / one.jobs_per_sim_s;
    assert!(
        ratio > 1.5,
        "4 shards delivered only {ratio:.2}x jobs/sec over 1 shard \
         ({:.0} vs {:.0})",
        four.jobs_per_sim_s,
        one.jobs_per_sim_s
    );
    // Sharding must not change any job's numeric result — spot-check via
    // equal total job counts and monotone makespan.
    assert!(four.makespan_s < one.makespan_s);
}
