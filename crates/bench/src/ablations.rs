//! Ablations beyond the paper's figures: the SpMV design choices
//! (`ablation_spmv`), storage-format footprints (`ablation_format`) and
//! the architecture design space (`ablation_dse`).

use crate::{Cell, Ctx, Doc, Output};
use psim_dram::HbmConfig;
use psim_kernels::{layout_grid, CostModel, PimDevice, SpmvPim};
use psim_sparse::bitmap::{bitmap_crossover_density, BitmapMatrix};
use psim_sparse::partition::DistPolicy;
use psim_sparse::suite::{by_name, with_tag, Tag};
use psim_sparse::{gen, Precision};
use psim_tune::Autotuner;

/// Ablations of the SpMV design choices the paper argues for:
///
/// 1. **Matrix compression** (§V, Figure 6): naive full-column-range
///    distribution vs compressed — external traffic and end-to-end time.
/// 2. **Distribution policy**: the paper's replication-minimizing
///    round-robin vs a load-balance-greedy placement (the §VII-B
///    `bcsstk32` trade-off).
/// 3. **Value precision**: FP64 vs INT8 on the two matrices the paper
///    runs natively at INT8.
/// 4. **Layout**: the fixed layout grid vs the autotuner's pick on the
///    paper device (the gate for this sweep is `ablation_autotune`).
pub fn ablation_spmv(ctx: &Ctx, scale: f64) -> Output {
    let spmv = |precision| SpmvPim::new(PimDevice::psync_1x(), precision);
    let mut doc = Doc::default();
    doc.line(format!("# SpMV ablations (scale {scale})"));

    doc.section(
        "[compression ablation: naive vs compressed distribution]",
        "ablation-compress",
        &[
            "matrix",
            "naive ext B",
            "comp ext B",
            "traffic cut",
            "time gain",
        ],
    );
    for spec in with_tag(Tag::SpMv).into_iter().take(6) {
        if !ctx.selects(spec.name) {
            continue;
        }
        let a = spec.generate(scale);
        let x = gen::dense_vector(a.ncols(), 3);
        let mut off = spmv(Precision::Fp64);
        off.compress = false;
        let on = spmv(Precision::Fp64).run(&a, &x).expect("compressed").run;
        let off = off.run(&a, &x).expect("naive").run;
        doc.row(&[
            spec.name.into(),
            off.external_bytes.into(),
            on.external_bytes.into(),
            Cell::times(off.external_bytes as f64 / on.external_bytes.max(1) as f64),
            Cell::times(off.total_s() / on.total_s()),
        ]);
    }

    doc.section(
        "[placement ablation: round-robin vs least-loaded]",
        "ablation-policy",
        &[
            "matrix",
            "RR imbalance",
            "LL imbalance",
            "RR time s",
            "LL time s",
        ],
    );
    for name in ["bcsstk32", "webbase-1M", "Stanford"] {
        if !ctx.selects(name) {
            continue;
        }
        let a = by_name(name).expect("known matrix").generate(scale);
        let x = gen::dense_vector(a.ncols(), 5);
        let run = |policy| {
            let mut s = spmv(Precision::Fp64);
            s.layout.policy = policy;
            s.run(&a, &x).expect("placement run")
        };
        let (rr, ll) = (run(DistPolicy::RoundRobin), run(DistPolicy::LeastLoaded));
        doc.row(&[
            name.into(),
            Cell::num(rr.stats.imbalance(), 2),
            Cell::num(ll.stats.imbalance(), 2),
            Cell::sci(rr.run.total_s()),
            Cell::sci(ll.run.total_s()),
        ]);
    }

    doc.section(
        "[precision ablation on the paper's INT8 matrices]",
        "ablation-precision",
        &[
            "matrix",
            "FP64 time s",
            "INT8 time s",
            "INT8 gain",
            "traffic cut",
        ],
    );
    for name in ["soc-sign-epinions", "Stanford"] {
        if !ctx.selects(name) {
            continue;
        }
        let a = by_name(name).expect("known matrix").generate(scale);
        let x = vec![1.0; a.ncols()];
        let f = spmv(Precision::Fp64).run(&a, &x).expect("fp64").run;
        let i = spmv(Precision::Int8).run(&a, &x).expect("int8").run;
        doc.row(&[
            name.into(),
            Cell::sci(f.total_s()),
            Cell::sci(i.total_s()),
            Cell::times(f.total_s() / i.total_s()),
            Cell::times(f.external_bytes as f64 / i.external_bytes.max(1) as f64),
        ]);
    }

    // Partition scheme × placement policy across the fixed grid, against
    // the autotuner's per-matrix pick (DESIGN.md §17).
    doc.section(
        "[layout ablation: the fixed grid vs the autotuner]",
        "ablation-layout",
        &["matrix", "layout", "cycles", "time s", "imbalance"],
    );
    let device = PimDevice::psync_1x();
    let tuner = Autotuner::new(&device);
    for name in ["bcsstk32", "Stanford", "crankseg_2"] {
        if !ctx.selects(name) {
            continue;
        }
        let a = by_name(name).expect("known matrix").generate(scale);
        let x = gen::dense_vector(a.ncols(), 9);
        let decision = tuner.decide(&a, Precision::Fp64);
        let mut layouts: Vec<_> = layout_grid().into_iter().map(|l| (l.label(), l)).collect();
        layouts.push((format!("tuned:{}", decision.label), decision.choice));
        for (label, layout) in layouts {
            let r = SpmvPim::new(device.clone(), Precision::Fp64)
                .with_layout(layout)
                .run(&a, &x)
                .expect("layout run");
            doc.row(&[
                name.into(),
                label.into(),
                r.run.dram_cycles.into(),
                Cell::sci(r.run.total_s()),
                Cell::num(r.stats.imbalance(), 2),
            ]);
        }
    }
    doc.done()
}

/// The storage footprints in KiB, and the smallest format's name.
fn footprints(sizes: &[(usize, &'static str)]) -> Vec<Cell> {
    let winner = sizes.iter().min_by_key(|&&(b, _)| b).map_or("COO", |s| s.1);
    let mut cells: Vec<Cell> = sizes
        .iter()
        .map(|&(b, _)| Cell::num(b as f64 / 1024.0, 1))
        .collect();
    cells.push(winner.into());
    cells
}

/// Format-footprint ablation (paper §IV-C / §VIII): COO vs bitmap across
/// the density spectrum, at the HPC (<1 %) and neural-network (10–50 %)
/// operating points.
pub fn ablation_format(_: &Ctx, _: f64) -> Output {
    let n = 1024usize;
    let mut doc = Doc::default();
    doc.line(format!(
        "# Format ablation — COO vs bitmap footprint ({n} x {n})"
    ));
    doc.line(format!(
        "model crossover density: {:.3}% (positions/8 = nnz * 8)",
        bitmap_crossover_density(Precision::Fp64) * 100.0
    ));
    doc.table(
        "ablation-format",
        &["density %", "precision", "COO KiB", "bitmap KiB", "winner"],
    );
    for density in [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.5] {
        let nnz = ((n * n) as f64 * density) as usize;
        let mut a = gen::erdos_renyi(n, n, nnz, density.to_bits());
        a.coalesce();
        let bm = BitmapMatrix::try_from(&a).expect("coalesced");
        for p in [Precision::Fp64, Precision::Int8] {
            let mut cells = vec![Cell::num(density * 100.0, 2), p.into()];
            cells.extend(footprints(&[
                (a.storage_bytes(p), "COO"),
                (bm.storage_bytes(p), "bitmap"),
            ]));
            doc.row(&cells);
        }
    }

    doc.line("");
    doc.line("paper: COO for <1% HPC matrices; bitmap for 10-50% NN layers (SIV-C, SVIII)");
    doc.done()
}

/// The 1× cube with `num_cols` columns per row (row size = `num_cols` ×
/// 16 B) and `channels` pseudo-channels of 16 banks.
fn device_with(num_cols: usize, channels: usize) -> PimDevice {
    let hbm = HbmConfig {
        num_cols,
        num_pseudo_channels: channels,
        ..HbmConfig::default()
    };
    PimDevice {
        hbm,
        ..PimDevice::psync_1x()
    }
}

/// Architecture design-space exploration around the paper's fixed
/// choices, with the analytical cost model's error at each point:
///
/// * **DRAM row size** (the paper's 1 KB row bounds submatrix dimensions,
///   §V) — sweep 512 B … 4 KB and watch partitions, external traffic and
///   kernel time move.
/// * **Bank count** (the paper's 256 PUs/cube; the 3× configuration is
///   the paper's only scaling point) — sweep 64 … 512 banks at constant
///   per-bank bandwidth.
///
/// Runs on `pwtk` unless `--matrix` names another matrix.
pub fn ablation_dse(ctx: &Ctx, scale: f64) -> Output {
    let spec = by_name(ctx.matrix.as_deref().unwrap_or("pwtk")).expect("a Table IX matrix");
    let a = spec.generate(scale);
    let x = gen::dense_vector(a.ncols(), 13);
    let mut doc = Doc::default();
    doc.line(format!(
        "# Design-space exploration on {} (scale {scale}: dim {}, nnz {})",
        spec.name,
        a.nrows(),
        a.nnz()
    ));
    // (estimated, simulated) cycles at every design point.
    let mut points: Vec<(u64, u64)> = Vec::new();
    let mut measure = |device: PimDevice| {
        let est = CostModel::new(&device).spmv(&a, Precision::Fp64).cycles;
        let r = SpmvPim::new(device, Precision::Fp64)
            .run(&a, &x)
            .expect("spmv");
        points.push((est, r.run.dram_cycles));
        let err = (est as f64 - r.run.dram_cycles as f64) / r.run.dram_cycles as f64 * 100.0;
        let tail = [
            Cell::num(r.run.total_s() * 1e6, 2),
            est.into(),
            Cell::num(err, 1),
        ];
        (r, tail)
    };

    doc.section(
        "[DRAM row size sweep, 256 banks]",
        "dse-rowsize",
        &[
            "row size B",
            "submatrices",
            "waves",
            "ext KiB",
            "time us",
            "est cycles",
            "est err%",
        ],
    );
    for num_cols in [32usize, 64, 128, 256] {
        let device = device_with(num_cols, 16);
        let mut cells: Vec<Cell> = vec![device.hbm.row_bytes().into()];
        let (r, tail) = measure(device);
        let ext = r.run.external_bytes as f64 / 1024.0;
        cells.extend([
            r.stats.num_submatrices.into(),
            r.waves.into(),
            Cell::num(ext, 1),
        ]);
        cells.extend(tail);
        doc.row(&cells);
    }

    doc.section(
        "[bank count sweep, 1 KB rows]",
        "dse-banks",
        &[
            "banks",
            "banks used",
            "imbalance",
            "rounds",
            "time us",
            "est cycles",
            "est err%",
        ],
    );
    for channels in [4usize, 8, 16, 32] {
        let device = device_with(64, channels);
        let mut cells: Vec<Cell> = vec![device.total_banks().into()];
        let (r, tail) = measure(device);
        let imbalance = Cell::num(r.stats.imbalance(), 2);
        cells.extend([r.stats.banks_used.into(), imbalance, r.run.rounds.into()]);
        cells.extend(tail);
        doc.row(&cells);
    }
    // A cost model is useful for DSE exactly when it *orders* design
    // points the way the cycle engine does.
    let mut pairs = 0u32;
    let mut agree = 0u32;
    for (i, &(ei, ai)) in points.iter().enumerate() {
        for &(ej, aj) in &points[i + 1..] {
            pairs += 1;
            agree += u32::from(ei.cmp(&ej) == ai.cmp(&aj));
        }
    }
    doc.line("");
    doc.line(format!(
        "analytical tier rank agreement with cycle engine: {agree}/{pairs} design-point pairs"
    ));
    doc.line(
        "paper anchor points: 1 KB rows (SV), 256 banks/cube with a 3x-cube scaling study (SVII-B)",
    );
    doc.done()
}
