//! Graph analytics on pSyncPIM: run BFS, PageRank, connected components
//! and SSSP on the same graph, on both the PIM device and the GPU model,
//! and print the per-kernel time breakdown (the paper's Figures 2/11/12
//! story in miniature).
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use psyncpim::apps::{bfs, cc, pagerank, sssp};
use psyncpim::apps::{GpuRuntime, GpuStack, PimRuntime};
use psyncpim::baselines::GpuModel;
use psyncpim::kernels::PimDevice;
use psyncpim::sparse::{gen, Precision};

fn main() {
    let n = 600;
    let g = gen::rmat(n, 6, 11);
    println!("graph: {n} vertices, {} edges\n", g.nnz());
    println!(
        "{:<10} {:>12} {:>12} {:>9}   breakdown (pim: spmv/vector)",
        "app", "GPU s", "PIM s", "speedup"
    );

    for app in ["BFS", "PR", "CC", "SSSP"] {
        let mut gpu = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::GraphBlast);
        let mut pim = PimRuntime::new(PimDevice::tiny(4), Precision::Fp64);
        let (gpu_run, pim_run) = match app {
            "BFS" => {
                let (l1, r1) = bfs::bfs(&mut gpu, &g, 0);
                let (l2, r2) = bfs::bfs(&mut pim, &g, 0);
                assert_eq!(l1, l2, "both devices must agree");
                (r1, r2)
            }
            "PR" => {
                let (p1, r1) = pagerank::pagerank(&mut gpu, &g, 1e-7, 30);
                let (p2, r2) = pagerank::pagerank(&mut pim, &g, 1e-7, 30);
                let drift = p1
                    .iter()
                    .zip(&p2)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(drift < 1e-6, "rank drift {drift}");
                (r1, r2)
            }
            "CC" => {
                let (c1, r1) = cc::connected_components(&mut gpu, &g);
                let (c2, r2) = cc::connected_components(&mut pim, &g);
                assert_eq!(c1, c2);
                (r1, r2)
            }
            "SSSP" => {
                let (d1, r1) = sssp::sssp(&mut gpu, &g, 0);
                let (d2, r2) = sssp::sssp(&mut pim, &g, 0);
                let both_match = d1
                    .iter()
                    .zip(&d2)
                    .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9);
                assert!(both_match);
                (r1, r2)
            }
            _ => unreachable!(),
        };
        let b = pim_run.breakdown;
        println!(
            "{:<10} {:>12.3e} {:>12.3e} {:>8.1}x   {:>4.0}% / {:>4.0}%",
            app,
            gpu_run.total_s(),
            pim_run.total_s(),
            gpu_run.total_s() / pim_run.total_s(),
            b.fractions()[0] * 100.0,
            b.fractions()[2] * 100.0,
        );
    }
    println!(
        "\n(PIM device here is a scaled-down test cube; for Figure 11's speedups run \
         `cargo run --release -p psim-bench -- --only fig11_apps`)"
    );
}
