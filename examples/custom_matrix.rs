//! Bring your own matrix: load a MatrixMarket file (SuiteSparse/SNAP
//! format) and run it through the full pSyncPIM pipeline — partitioning
//! statistics, SpMV on the simulated device, and the baseline comparison.
//!
//! ```sh
//! cargo run --release --example custom_matrix [-- path/to/matrix.mtx]
//! ```
//!
//! Without an argument the example writes a small demo `.mtx` to a
//! temporary file first, so it is self-contained.

use psyncpim::baselines::GpuModel;
use psyncpim::kernels::{PimDevice, SpmvPim};
use psyncpim::sparse::{gen, mmio, MatrixStats, Precision};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // Self-contained demo: serialize a generated matrix and reload
            // it through the same loader a real SuiteSparse file would use.
            let demo = gen::banded_fem(2000, 24, 6, 99);
            let path = std::env::temp_dir().join("psyncpim_demo.mtx");
            mmio::write_file(&demo, &path)?;
            println!("(no path given; wrote a demo matrix to {})", path.display());
            path
        }
    };

    let a = mmio::read_file(&path)?;
    println!(
        "loaded {}: {} x {}, {} non-zeros, density {:.2e}",
        path.display(),
        a.nrows(),
        a.ncols(),
        a.nnz(),
        a.density()
    );

    println!("structure: {}", MatrixStats::analyze(&a));

    let x = gen::dense_vector(a.ncols(), 1);
    let runner = SpmvPim::new(PimDevice::psync_1x(), Precision::Fp64);
    let res = runner.run(&a, &x)?;
    let stats = res.stats;
    println!("\ndistribution (paper §V):");
    println!("  submatrices          {}", stats.num_submatrices);
    println!("  banks used           {} / 256", stats.banks_used);
    println!("  load imbalance       {:.2}", stats.imbalance());
    println!(
        "  input replication    {} elements",
        stats.input_replication
    );
    println!(
        "  external traffic     {:.1} KiB",
        res.run.external_bytes as f64 / 1024.0
    );

    println!("\nexecution:");
    println!("  waves                {}", res.waves);
    println!("  DRAM commands        {}", res.run.commands);
    println!("  kernel time          {:.3} us", res.run.kernel_s * 1e6);
    println!("  host/external time   {:.3} us", res.run.host_s * 1e6);
    println!("  energy               {:.3} uJ", res.run.energy_j * 1e6);

    // Sanity: match the host reference.
    let want = a.spmv(&x);
    let max_err = res
        .y
        .iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    println!("  max |err| vs host    {max_err:.2e}");

    let gpu = GpuModel::rtx3080().spmv_seconds(a.nnz(), a.nrows(), a.ncols(), Precision::Fp64);
    println!(
        "\nGPU model would take {:.3} us -> pSyncPIM speedup {:.2}x",
        gpu * 1e6,
        gpu / res.run.total_s()
    );
    Ok(())
}
