//! The kernel-level figures and tables of §VII: one SpMV-suite pass
//! renders Figures 3, 8 and 14; Figures 9, 10 and 13 and Tables VII–X
//! run on their own.

use crate::{geomean, mean, Cell, Ctx, Doc, Output};
use psim_apps::tc::{triangle_count, TcBackend};
use psim_baselines::{GpuModel, SpaceAModel, SpgemmAccel};
use psim_dram::HbmConfig;
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::gemv::Gemv;
use psim_kernels::oracle::max_rel_err;
use psim_kernels::spmv::SpmvResult;
use psim_kernels::{PimDevice, SpmvPim, SptrsvPim};
use psim_sparse::level::reorder_to_lower;
use psim_sparse::partition::{BankPartition, PartitionConfig};
use psim_sparse::suite::{with_tag, MatrixSpec, Tag, TABLE_IX};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, LevelSchedule, MatrixStats, Precision};
use psyncpim_core::area::table_x;

/// Every SpMV system measured on one Table IX matrix: the GPU
/// (cuSPARSE) and SpaceA models' seconds, and simulated runs on the
/// pSyncPIM 1× and 3× cubes and the per-bank baseline.
#[derive(Debug, Clone)]
pub(crate) struct SpmvMeasurement {
    name: &'static str,
    nnz: usize,
    gpu_s: f64,
    spacea_s: f64,
    psync: SpmvResult,
    psync3: SpmvResult,
    perbank: SpmvResult,
}

impl SpmvMeasurement {
    /// Measure one Table IX matrix at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if any simulated kernel fails (a bug, not an input error).
    #[must_use]
    pub fn run(spec: &MatrixSpec, scale: f64) -> SpmvMeasurement {
        let a = spec.generate(scale);
        let x = gen::dense_vector(a.ncols(), 0xF1);
        let spmv = |device| {
            SpmvPim::new(device, spec.precision)
                .run(&a, &x)
                .expect("simulated SpMV")
        };
        SpmvMeasurement {
            name: spec.name,
            nnz: a.nnz(),
            // The paper matches external bandwidth: the GPU is compared
            // against the 3x config for the headline, 1x alongside.
            gpu_s: GpuModel::rtx3080().spmv_seconds(a.nnz(), a.nrows(), a.ncols(), Precision::Fp64),
            spacea_s: SpaceAModel::hmc_256().spmv_seconds(&a),
            psync: spmv(PimDevice::psync_1x()),
            psync3: spmv(PimDevice::psync_3x()),
            perbank: spmv(PimDevice::per_bank()),
        }
    }

    /// Speedups over the GPU in Figure 8's order: per-bank, SpaceA,
    /// pSyncPIM 1× and pSyncPIM 3×.
    #[must_use]
    pub fn speedups(&self) -> [f64; 4] {
        let pim = [&self.perbank, &self.psync, &self.psync3].map(|r| self.gpu_s / r.run.total_s());
        [pim[0], self.gpu_s / self.spacea_s, pim[1], pim[2]]
    }
}

/// The SpMV-suite pass shared by Figures 3, 8 and 14.
fn spmv_pass(ctx: &Ctx, scale: f64) -> &[SpmvMeasurement] {
    Ctx::shared::<Vec<_>>(&ctx.spmv, scale, || {
        with_tag(Tag::SpMv)
            .into_iter()
            .filter(|spec| ctx.selects(spec.name))
            .map(|spec| SpmvMeasurement::run(spec, scale))
            .collect()
    })
}

/// Figure 3: memory commands for SpMV in per-bank mode, normalized to
/// all-bank mode. Paper: 2.74× on average.
pub fn fig03(ctx: &Ctx, scale: f64) -> Output {
    let mut doc = Doc::new(
        format!("# Figure 3 — per-bank / all-bank SpMV command ratio (scale {scale})"),
        "fig03",
        &["matrix", "AB cmds", "PB cmds", "ratio"],
    );
    let mut ratios = Vec::new();
    for m in spmv_pass(ctx, scale) {
        let (ab, pb) = (m.psync.run.commands, m.perbank.run.commands);
        let r = pb as f64 / ab as f64;
        ratios.push(r);
        doc.row(&[m.name.into(), ab.into(), pb.into(), Cell::num(r, 2)]);
    }
    doc.summary("SpMV PB / AB commands", Cell::times(mean(ratios)), "2.74x");
    doc.done()
}

/// Figure 8: SpMV speedup of pSyncPIM over the RTX 3080 GPU model, with
/// the per-bank baseline, SpaceA and the 3× configuration, then where the
/// pSyncPIM time goes (kernel vs host interface, partition shape).
///
/// Paper: pSyncPIM 1× = 1.96× GPU (geomean), 3× = 4.43×; per-bank ≈
/// pSync/6.26; pSync ≈ 0.56× SpaceA.
pub fn fig08(ctx: &Ctx, scale: f64) -> Output {
    let ms = spmv_pass(ctx, scale);
    let mut doc = Doc::new(
        format!("# Figure 8 — SpMV speedup vs GPU (scale {scale})"),
        "fig08",
        &[
            "matrix", "nnz", "per-bank", "SpaceA", "pSync 1x", "pSync 3x",
        ],
    );
    for m in ms {
        let mut cells = vec![m.name.into(), m.nnz.into()];
        cells.extend(m.speedups().map(Cell::times));
        doc.row(&cells);
    }
    doc.section(
        "# pSyncPIM time split: kernel vs host interface, and the partition shape",
        "fig08-time",
        &[
            "matrix",
            "device",
            "kernel us",
            "host us",
            "waves",
            "rounds",
            "submatrices",
            "banks used",
            "imbalance",
            "replication",
        ],
    );
    for m in ms {
        for (device, r) in [("1x", &m.psync), ("3x", &m.psync3)] {
            doc.row(&[
                m.name.into(),
                device.into(),
                Cell::num(r.run.kernel_s * 1e6, 2),
                Cell::num(r.run.host_s * 1e6, 2),
                r.waves.into(),
                r.run.rounds.into(),
                r.stats.num_submatrices.into(),
                r.stats.banks_used.into(),
                Cell::num(r.stats.imbalance(), 2),
                r.stats.input_replication.into(),
            ]);
        }
    }
    let [gpb, gsa, g1, g3] = [0, 1, 2, 3].map(|i| geomean(ms.iter().map(|m| m.speedups()[i])));
    doc.summary("SpMV 1x / GPU", Cell::times(g1), "1.96x");
    doc.summary("SpMV 3x / GPU", Cell::times(g3), "4.43x");
    doc.summary("SpMV per-bank / GPU", Cell::times(gpb), "~0.31x");
    doc.summary("SpMV SpaceA / GPU", Cell::times(gsa), "~3.50x");
    doc.summary(
        "SpMV 1x / SpaceA",
        Cell::num(g1 / gsa.max(1e-30), 2),
        "0.56",
    );
    doc.summary(
        "SpMV 1x / per-bank",
        Cell::num(g1 / gpb.max(1e-30), 2),
        "6.26",
    );
    doc.done()
}

/// Figure 14: SpMV energy, per-bank PIM vs pSyncPIM. Paper: pSyncPIM is
/// 2.67× more energy-efficient on average and stays under 5 W.
pub fn fig14(ctx: &Ctx, scale: f64) -> Output {
    let mut doc = Doc::new(
        format!("# Figure 14 — SpMV energy, per-bank vs pSyncPIM (scale {scale})"),
        "fig14",
        &["matrix", "PB mJ", "pSync mJ", "ratio", "pSync W"],
    );
    let mut ratios = Vec::new();
    let mut max_w = 0.0f64;
    for m in spmv_pass(ctx, scale) {
        let ratio = m.perbank.run.energy_j / m.psync.run.energy_j;
        let w = m.psync.run.energy_j / m.psync.run.kernel_s.max(1e-30);
        ratios.push(ratio);
        max_w = max_w.max(w);
        doc.row(&[
            m.name.into(),
            Cell::num(m.perbank.run.energy_j * 1e3, 4),
            Cell::num(m.psync.run.energy_j * 1e3, 4),
            Cell::times(ratio),
            Cell::num(w, 2),
        ]);
    }
    doc.summary("SpMV energy PB / pSync", Cell::times(mean(ratios)), "2.67x");
    doc.summary("max pSync power W", Cell::num(max_w, 2), "<= 5.0");
    doc.done()
}

/// Figure 9: SpTRSV speedup of pSyncPIM over cuSPARSE (GPU model), lower
/// and upper triangles. Paper: 3.53× geomean, with `parabolic_fem` below
/// 1× (hyper-sparse near-diagonal blocks, little row dependency).
pub fn fig09(ctx: &Ctx, scale: f64) -> Output {
    let gpu = GpuModel::rtx3080();
    let mut doc = Doc::new(
        format!("# Figure 9 — SpTRSV speedup vs cuSPARSE (scale {scale})"),
        "fig09",
        &["triangle", "matrix", "nnz", "levels", "speedup"],
    );
    let mut violations = Vec::new();
    let mut all = Vec::new();
    let mut parabolic = None;
    for (label, triangle) in [("lower", Triangle::Lower), ("upper", Triangle::Upper)] {
        for spec in with_tag(Tag::SpTrsv) {
            if !ctx.selects(spec.name) {
                continue;
            }
            let a = spec.generate(scale);
            let t = unit_triangular_from(&a, triangle).expect("suite matrices are square");
            let sched = LevelSchedule::analyze(&t);
            let gpu_s = gpu.sptrsv_seconds(t.nnz(), t.dim(), &sched, Precision::Fp64);

            // Host preprocessing: level reordering (paper §VI-D).
            let (reordered, perm) = reorder_to_lower(&t);
            let b = gen::dense_vector(t.dim(), 0xB0);
            let pb: Vec<f64> = perm.iter().map(|&old| b[old]).collect();
            let res = SptrsvPim::new(PimDevice::psync_1x())
                .run(&reordered, &pb)
                .expect("simulated SpTRSV");
            let want = t.solve_colwise(&b).expect("reference solve");
            let mut x = vec![0.0; t.dim()];
            for (new, &old) in perm.iter().enumerate() {
                x[old] = res.x[new];
            }
            if max_rel_err(&x, &want) >= 1e-6 {
                let name = spec.name;
                violations.push(format!(
                    "fig09 {name} {label}: differs from the reference solve"
                ));
            }

            let speedup = gpu_s / res.run.total_s();
            all.push(speedup);
            if (spec.name, triangle) == ("parabolic_fem", Triangle::Lower) {
                parabolic = Some(speedup);
            }
            doc.row(&[
                label.into(),
                spec.name.into(),
                t.nnz().into(),
                sched.num_levels().into(),
                Cell::times(speedup),
            ]);
        }
    }
    doc.summary("SpTRSV / cuSPARSE", Cell::times(geomean(all)), "3.53x");
    if let Some(s) = parabolic {
        doc.summary("parabolic_fem lower", Cell::times(s), "< 1x");
    }
    let mut out = doc.done();
    out.violations = violations;
    out
}

/// Figure 10: dense BLAS kernel throughput, per-bank PIM vs pSyncPIM, at
/// INT8 and FP64. Paper: pSyncPIM ≈ 9.6× per-bank on average.
pub fn fig10(_: &Ctx, scale: f64) -> Output {
    // Vector length and DGEMV dimension follow the scale.
    let n = ((2_000_000.0 * scale) as usize).clamp(8_192, 4_000_000);
    let dim = ((1_024.0 * (scale * 50.0).sqrt()) as usize).clamp(64, 2048);
    let title = format!(
        "# Figure 10 — dense BLAS throughput (scale {scale}: vector n = {n}, DGEMV {dim}x{dim})"
    );
    let mut doc = Doc::new(
        title,
        "fig10",
        &[
            "kernel",
            "precision",
            "PB Gelem/s",
            "pSync Gelem/s",
            "speedup",
        ],
    );
    let x = gen::dense_vector(n, 1);
    let y = gen::dense_vector(n, 2);
    let a = gen::dense_vector(dim * dim, 3);
    let xg = gen::dense_vector(dim, 4);
    let mut ratios = Vec::new();
    for precision in [Precision::Int8, Precision::Fp64] {
        for kernel in ["DCOPY", "DSCAL", "DAXPY", "DDOT", "DGEMV"] {
            // (seconds, elements processed)
            let time_on = |device: PimDevice| -> (f64, f64) {
                let blas = Blas1Pim::new(device.clone(), precision);
                let (run, elems) = match kernel {
                    "DCOPY" => (blas.dcopy(&x).map(|r| r.run), n),
                    "DSCAL" => (blas.dscal(1.5, &x).map(|r| r.run), n),
                    "DAXPY" => (blas.daxpy(2.0, &x, &y).map(|r| r.run), 2 * n),
                    "DDOT" => (blas.ddot(&x, &y).map(|r| r.run), 2 * n),
                    _ => (
                        Gemv::new(device, precision)
                            .dgemv(&a, dim, dim, &xg)
                            .map(|r| r.run),
                        2 * dim * dim,
                    ),
                };
                (run.expect("simulated BLAS kernel").total_s(), elems as f64)
            };
            let (pb_s, ops) = time_on(PimDevice::per_bank());
            let (ab_s, _) = time_on(PimDevice::psync_1x());
            let (pb, ab) = (ops / pb_s / 1e9, ops / ab_s / 1e9);
            ratios.push(ab / pb);
            doc.row(&[
                kernel.into(),
                precision.into(),
                Cell::num(pb, 3),
                Cell::num(ab, 3),
                Cell::times(ab / pb),
            ]);
        }
    }
    doc.summary(
        "BLAS pSync / per-bank",
        Cell::times(geomean(ratios)),
        "9.6x",
    );
    doc.done()
}

/// Figure 13: Triangle Counting with the SpGEMM accelerator, alone vs
/// conjugated with pSyncPIM. Paper: offloading the SpMV kernels to PIM
/// gives a 2.0× boost over the accelerator-only configuration.
pub fn fig13(ctx: &Ctx, scale: f64) -> Output {
    let cap_dim = 20_000;
    let title = format!(
        "# Figure 13 — TC: accelerator-only vs accelerator + pSyncPIM (scale {scale}, dim cap {cap_dim})"
    );
    let columns = [
        "matrix",
        "triangles",
        "accel-only s",
        "accel+PIM s",
        "speedup",
    ];
    let mut doc = Doc::new(title, "fig13", &columns);
    let acc = SpgemmAccel::innersp();
    let device = PimDevice::psync_1x();
    let mut speedups = Vec::new();
    for spec in with_tag(Tag::Graphs) {
        if !ctx.selects(spec.name) {
            continue;
        }
        let g = spec.generate(scale.min(cap_dim as f64 / spec.dim as f64));
        let (t, only) = triangle_count(&g, &TcBackend::AccelOnly(acc));
        let (_, plus) = triangle_count(&g, &TcBackend::AccelPlusPim(acc, device.clone()));
        let speedup = only.total_s() / plus.total_s();
        speedups.push(speedup);
        doc.row(&[
            spec.name.into(),
            t.into(),
            Cell::sci(only.total_s()),
            Cell::sci(plus.total_s()),
            Cell::times(speedup),
        ]);
    }
    doc.summary(
        "TC accel+PIM / accel",
        Cell::times(geomean(speedups)),
        "2.0x",
    );
    doc.done()
}

/// Table IX characterization: every suite matrix's structure (dimension,
/// nnz, degree, skew, bandedness) next to the published degree, plus the
/// banks the partitioner uses — the structural properties the evaluation
/// depends on.
pub fn table9(ctx: &Ctx, scale: f64) -> Output {
    let mut doc = Doc::new(
        format!("# Table IX — synthetic suite characterization (scale {scale})"),
        "table9",
        &[
            "matrix",
            "dim",
            "nnz",
            "deg(want)",
            "deg(got)",
            "skew",
            "band",
            "banks used",
        ],
    );
    for spec in TABLE_IX.iter().filter(|s| ctx.selects(s.name)) {
        let a = spec.generate(scale);
        let s = MatrixStats::analyze(&a);
        let config = PartitionConfig {
            precision: spec.precision,
            ..PartitionConfig::default()
        };
        let banks = BankPartition::build(&a, config).stats().banks_used;
        doc.row(&[
            spec.name.into(),
            s.nrows.into(),
            s.nnz.into(),
            Cell::num(spec.avg_degree(), 1),
            Cell::num(s.avg_row_nnz, 1),
            Cell::num(s.row_skew, 2),
            Cell::num(s.normalized_bandwidth, 3),
            banks.into(),
        ]);
    }
    doc.line("");
    doc.line("`deg(want)` = density x dim from the published Table IX numbers; the");
    doc.line("generators preserve it under --scale. `banks used` (of 256) shows the");
    doc.line("bcsstk32-style underutilization the paper discusses in SVII-B.");
    doc.done()
}

/// Tables VII and VIII: the memory and processing-unit configuration.
pub fn table_config(_: &Ctx, _: f64) -> Output {
    let c = HbmConfig::default();
    let t = &c.timing;
    let mut doc = Doc::default();
    doc.line("# Table VII — memory configuration");
    doc.line("protocol                 HBM2");
    doc.line(format!("bank groups              {}", c.num_bankgroups));
    doc.line(format!("banks per group          {}", c.banks_per_group));
    doc.line(format!("memory rows              {}", c.num_rows));
    doc.line(format!("memory columns           {}", c.num_cols));
    doc.line(format!("row size                 {} B", c.row_bytes()));
    doc.line(format!("stacks                   {}", c.num_stacks));
    doc.line(format!(
        "pseudo-channels          {}",
        c.num_pseudo_channels
    ));
    doc.line("address mapping          rorabgbachco (rank 0 bits)");
    doc.line(format!(
        "clock                    {:.0} MHz",
        c.clock_hz / 1e6
    ));
    doc.line(format!(
        "external / internal BW   {:.0} GB/s / {:.0} TB/s",
        c.external_bw / 1e9,
        c.internal_bw / 1e12
    ));
    doc.line(format!(
        "capacity                 {} GB",
        c.capacity_bytes() / (1024 * 1024 * 1024)
    ));
    doc.line(format!(
        "timing (cycles)          tRCD {} tRP {} tRAS {} tCCD_S {} tCCD_L {} tRRD_S {} tRRD_L {} tFAW {} RL {} WL {}",
        t.t_rcd, t.t_rp, t.t_ras, t.t_ccd_s, t.t_ccd_l, t.t_rrd_s, t.t_rrd_l, t.t_faw, t.rl, t.wl
    ));
    doc.line("");
    doc.line("# Table VIII — processing unit (per bank)");
    doc.line("datapath width           32 B");
    let lanes: String = Precision::ALL
        .iter()
        .map(|p| format!(" {p}:{}", p.lanes()))
        .collect();
    doc.line(format!("ALU lanes               {lanes}"));
    doc.line("clock                    250 MHz");
    doc.line("instruction registers    4 B x 32");
    doc.line("scalar register          16 B");
    doc.line("dense vector registers   32 B x 3");
    doc.line("sparse vector queues     192 B x 3 (3 x 64 B sub-queues)");
    doc.line(format!("processing units / cube  {}", c.total_banks()));
    doc.done()
}

/// Table X: area comparison of HBM-PIM, SpaceA and pSyncPIM.
pub fn table10(_: &Ctx, _: f64) -> Output {
    let mut doc = Doc::default();
    doc.line("# Table X — area comparison");
    doc.line(format!(
        "{:<18} {:>6} {:>12} {:>16} {:>10} {:>10}",
        "design", "tech", "total mm^2", "stacks", "PE mm^2", "capacity"
    ));
    for r in table_x() {
        doc.line(format!(
            "{:<18} {:>6} {:>12.2} {:>16} {:>10.3} {:>8.0}GB",
            r.name, r.tech, r.total_mm2, r.stacks, r.pe_mm2, r.capacity_gb
        ));
    }
    doc.done()
}
