//! The application figures: Figure 2 (GPU kernel-time breakdown) and the
//! one apps pass that renders Figures 11 and 12.

use crate::{geomean, Cell, Ctx, Doc, Output};
use psim_apps::runtime::{GpuRuntime, GpuStack, PimRuntime, Runtime};
use psim_apps::tc::{triangle_count, TcBackend};
use psim_apps::{bfs, bicgstab, cc, cg, pagerank, sssp, AppRun, Breakdown};
use psim_baselines::{GpuModel, SpgemmAccel};
use psim_kernels::PimDevice;
use psim_sparse::suite::{with_tag, MatrixSpec, Tag};
use psim_sparse::{ildu, Coo, Precision};

/// The seven Table II applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
    /// PageRank.
    Pr,
    /// Single-source shortest paths.
    Sssp,
    /// Triangle counting.
    Tc,
    /// Preconditioned BiCGStab.
    PBcgs,
    /// Preconditioned conjugate gradient.
    PCg,
}

impl App {
    /// All applications in Table II order.
    pub const ALL: [App; 7] = [
        App::Bfs,
        App::Cc,
        App::Pr,
        App::Sssp,
        App::Tc,
        App::PBcgs,
        App::PCg,
    ];

    /// Display abbreviation (Table II).
    #[must_use]
    pub fn name(self) -> &'static str {
        ["BFS", "CC", "PR", "SSSP", "TC", "P-BCGS", "P-CG"][self as usize]
    }

    /// Whether this is one of the linear solvers (the rest are graph apps).
    #[must_use]
    pub fn is_solver(self) -> bool {
        matches!(self, App::PBcgs | App::PCg)
    }

    /// The Table IX matrices this application runs on.
    #[must_use]
    pub fn matrices(self) -> Vec<&'static MatrixSpec> {
        match self {
            App::PBcgs => with_tag(Tag::SpTrsv),
            App::PCg => with_tag(Tag::Pcg),
            _ => with_tag(Tag::Graphs),
        }
    }
}

/// Generate the operand for an app: graph apps use the raw adjacency,
/// solvers an SPD/ILDU-friendly system derived from it.
#[must_use]
pub fn operand(app: App, spec: &MatrixSpec, scale: f64, cap_dim: usize) -> Coo {
    let a = spec.generate(scale.min(cap_dim as f64 / spec.dim as f64));
    if app.is_solver() {
        ildu::make_spd(&a)
    } else {
        a
    }
}

/// Run one application on one matrix, on `pim` or (`None`) on the GPU
/// model with the stack the paper uses for the app family; TC pairs the
/// PIM device with the SpGEMM accelerator.
///
/// # Panics
///
/// Panics if a simulated kernel fails.
#[must_use]
pub fn run_app(app: App, a: &Coo, pim: Option<&PimDevice>) -> AppRun {
    match (app, pim) {
        (App::Tc, None) => triangle_count(a, &TcBackend::Gpu(GpuModel::rtx3080())).1,
        (App::Tc, Some(device)) => {
            triangle_count(
                a,
                &TcBackend::AccelPlusPim(SpgemmAccel::innersp(), device.clone()),
            )
            .1
        }
        (_, None) => {
            let stack = if app.is_solver() {
                GpuStack::Cuda
            } else {
                GpuStack::GraphBlast
            };
            drive(app, a, &mut GpuRuntime::new(GpuModel::rtx3080(), stack))
        }
        (_, Some(device)) => drive(
            app,
            a,
            &mut PimRuntime::new(device.clone(), Precision::Fp64),
        ),
    }
}

fn drive<R: Runtime>(app: App, a: &Coo, rt: &mut R) -> AppRun {
    // Iteration caps keep huge-diameter graphs (roadNet-style) tractable;
    // the per-iteration kernel mix — what Figures 2/11/12 report — is
    // stationary after the first rounds.
    let graph_rounds = 30;
    let solver_iters = 12;
    let b = || vec![1.0; a.nrows()];
    match app {
        App::Bfs => bfs::bfs_bounded(rt, a, 0, graph_rounds).1,
        App::Cc => cc::connected_components_bounded(rt, a, graph_rounds).1,
        App::Pr => pagerank::pagerank(rt, a, 1e-6, 20).1,
        App::Sssp => sssp::sssp_bounded(rt, a, 0, graph_rounds).1,
        App::PCg => cg::pcg(rt, a, &b(), 1e-8, solver_iters).run,
        App::PBcgs => bicgstab::pbicgstab(rt, a, &b(), 1e-8, solver_iters).run,
        App::Tc => unreachable!("TC handled by run_app"),
    }
}

fn add(sum: &mut Breakdown, run: &AppRun) {
    sum.spmv_s += run.breakdown.spmv_s;
    sum.sptrsv_s += run.breakdown.sptrsv_s;
    sum.vector_s += run.breakdown.vector_s;
    sum.spgemm_s += run.breakdown.spgemm_s;
}

/// Kernel shares in the paper's `SpGEMM / SpTRSV / SpMV / Vector` order.
fn shares(b: &Breakdown) -> [Cell; 4] {
    let f = b.fractions();
    [f[3], f[1], f[0], f[2]].map(|v| Cell::num(v * 100.0, 1))
}

/// Figure 2: GPU execution-time breakdown of the seven applications into
/// SpGEMM / SpTRSV / SpMV / Vector kernel families. GPU-model only, so it
/// runs near paper scale.
///
/// Paper: BFS and PR are >70 % SpMV; CC and SSSP are vector-dominated; TC
/// is >98 % SpGEMM; the solvers are SpTRSV-heavy.
pub fn fig02(ctx: &Ctx, scale: f64) -> Output {
    let cap_dim = 150_000;
    let mut doc = Doc::new(
        format!("# Figure 2 — GPU kernel-time breakdown (scale {scale}, dim cap {cap_dim})"),
        "fig02",
        &["app", "SpGEMM %", "SpTRSV %", "SpMV %", "Vector %"],
    );
    for app in App::ALL {
        let mut sum = Breakdown::default();
        for spec in app.matrices().into_iter().take(3) {
            if ctx.selects(spec.name) {
                add(
                    &mut sum,
                    &run_app(app, &operand(app, spec, scale, cap_dim), None),
                );
            }
        }
        let [a, b, c, d] = shares(&sum);
        doc.row(&[app.name().into(), a, b, c, d]);
    }
    doc.line("");
    doc.line("paper shape: BFS/PR SpMV-major; CC/SSSP vector-major; TC SpGEMM >98%; solvers SpTRSV-heavy");
    doc.done()
}

/// One application's kernel time on the GPU model and on the 1× cube,
/// summed over its matrices.
#[derive(Debug, Clone)]
pub(crate) struct AppTimes {
    app: App,
    gpu: Breakdown,
    pim: Breakdown,
}

/// Operand dimension caps of the apps pass.
const GRAPH_CAP: usize = 1_200;
const SOLVER_CAP: usize = 4_000;

/// The apps pass shared by Figures 11 and 12: every app on its first two
/// matrices, on the GPU model and on the 1× cube. Graph operands stay
/// small (each PIM kernel is fully simulated); the solvers run larger so
/// multi-chunk levels shape the SpTRSV cost as they do at paper scale.
fn apps_pass(ctx: &Ctx, scale: f64) -> &[AppTimes] {
    Ctx::shared::<Vec<_>>(&ctx.apps, scale, || {
        let device = PimDevice::psync_1x();
        App::ALL
            .map(|app| {
                let mut t = AppTimes {
                    app,
                    gpu: Breakdown::default(),
                    pim: Breakdown::default(),
                };
                let cap = if app.is_solver() {
                    SOLVER_CAP
                } else {
                    GRAPH_CAP
                };
                for spec in app.matrices().into_iter().take(2) {
                    if ctx.selects(spec.name) {
                        let a = operand(app, spec, scale, cap);
                        add(&mut t.gpu, &run_app(app, &a, None));
                        add(&mut t.pim, &run_app(app, &a, Some(&device)));
                    }
                }
                t
            })
            .to_vec()
    })
}

/// Figure 11: end-to-end application speedup of pSyncPIM over the GPU.
/// Paper: graphs 51.6× geomean; linear solvers 2.2× geomean.
pub fn fig11(ctx: &Ctx, scale: f64) -> Output {
    let title = format!(
        "# Figure 11 — application speedup vs GPU (scale {scale}, dim caps {GRAPH_CAP} graphs / {SOLVER_CAP} solvers)"
    );
    let mut doc = Doc::new(title, "fig11", &["app", "GPU s", "PIM s", "speedup"]);
    let (mut graphs, mut solvers) = (Vec::new(), Vec::new());
    for t in apps_pass(ctx, scale) {
        let (gpu_s, pim_s) = (t.gpu.total_s(), t.pim.total_s());
        if pim_s <= 0.0 {
            continue;
        }
        let speedup = gpu_s / pim_s;
        if t.app.is_solver() {
            solvers.push(speedup);
        } else {
            graphs.push(speedup);
        }
        doc.row(&[
            t.app.name().into(),
            Cell::sci(gpu_s),
            Cell::sci(pim_s),
            Cell::times(speedup),
        ]);
    }
    doc.summary("graph apps / GPU", Cell::times(geomean(graphs)), "51.6x");
    doc.summary(
        "linear solvers / GPU",
        Cell::times(geomean(solvers)),
        "2.2x",
    );
    doc.done()
}

/// Figure 12: kernel-time breakdown of each application on GPU vs
/// pSyncPIM — where the PIM wins come from (vector-op overheads collapse;
/// SpMV accelerates; SpTRSV stays serialized but faster).
pub fn fig12(ctx: &Ctx, scale: f64) -> Output {
    let title = format!(
        "# Figure 12 — kernel breakdown GPU vs pSyncPIM (scale {scale}, dim caps {GRAPH_CAP} graphs / {SOLVER_CAP} solvers)"
    );
    let columns = [
        "app", "device", "SpGEMM %", "SpTRSV %", "SpMV %", "Vector %", "total s",
    ];
    let mut doc = Doc::new(title, "fig12", &columns);
    for t in apps_pass(ctx, scale) {
        for (device, b) in [("GPU", &t.gpu), ("PIM", &t.pim)] {
            let [a, s, m, v] = shares(b);
            doc.row(&[
                t.app.name().into(),
                device.into(),
                a,
                s,
                m,
                v,
                Cell::sci(b.total_s()),
            ]);
        }
    }
    doc.done()
}
