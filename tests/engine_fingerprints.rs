//! Engine fingerprints: the 13-kernel battery pinned bit for bit.
//!
//! Every battery kernel runs on three devices: the full 1x cube with
//! validation, a tiny traced device with validation, and the same tiny
//! device driven per bank. Each run's fingerprint is its serialized
//! [`KernelRun`] (cycles, commands, energy, checker findings and, when
//! tracing, the full per-PU attribution registry) plus the bit pattern of
//! every numeric output. The fingerprints are compared line by line
//! against `tests/goldens/engine_fingerprints.json`, so any change to the
//! replay, the PU interpreter or the channel timing model shows up as a
//! diff, in all-bank and per-bank mode alike. The golden was blessed on
//! the original reference engine, which stepped every PU on every offer
//! and issued through every bank, before that engine was removed: the
//! replay is checked against it, not against itself.
//!
//! The same three devices also pin fused SpMM, several vectors sharing
//! one matrix traversal, at widths 2 and [`MAX_SPMM_WIDTH`] under the
//! arithmetic and the min-plus semiring, against
//! `tests/goldens/spmm_fingerprints.json`. That golden was blessed on
//! the standalone SpMM runner before its wave loop was merged into
//! [`SpmvPim`].
//!
//! Regenerating after an intentional change:
//!
//! ```text
//! PSIM_BLESS=1 cargo test --test engine_fingerprints
//! ```

use psyncpim::core::isa::BinaryOp;
use psyncpim::core::ExecMode;
use psyncpim::kernels::blas1::Blas1Pim;
use psyncpim::kernels::gemv::Gemv;
use psyncpim::kernels::{KernelRun, PimDevice, SpmvPim, SptrsvPim, MAX_SPMM_WIDTH};
use psyncpim::sparse::dense::SparseVec;
use psyncpim::sparse::triangular::{unit_triangular_from, Triangle, UnitTriangular};
use psyncpim::sparse::{gen, Coo, Precision};
use serde::Serialize;
use std::path::PathBuf;

/// Shared operand set for the kernel battery.
struct Inputs {
    a: Coo,
    x: Vec<f64>,
    y: Vec<f64>,
    zeros: Vec<f64>,
    t: UnitTriangular,
    b: Vec<f64>,
    src: Vec<f64>,
    sp: SparseVec,
    m: Vec<f64>,
    xg: Vec<f64>,
    nr: usize,
    nc: usize,
}

fn inputs(n: usize, deg: usize) -> Inputs {
    let a = gen::rmat(n, deg, 0xA11CE);
    let x = gen::dense_vector(n, 1);
    let y = gen::dense_vector(n, 2);
    let t = unit_triangular_from(&a, Triangle::Lower).expect("square matrix");
    let b = t.matvec(&x);
    let mut src = vec![0.0; n];
    for v in src.iter_mut().step_by(7) {
        *v = 0.5;
    }
    let sp = SparseVec::gather(&src);
    let (nr, nc) = (24usize, 20usize);
    let m = gen::dense_vector(nr * nc, 3);
    let xg = gen::dense_vector(nc, 4);
    Inputs {
        a,
        x,
        y,
        zeros: vec![0.0; n],
        t,
        b,
        src,
        sp,
        m,
        xg,
        nr,
        nc,
    }
}

/// Run every battery kernel on `device`: its name, run report and
/// numeric outputs.
fn battery(device: &PimDevice, inp: &Inputs) -> Vec<(&'static str, KernelRun, Vec<f64>)> {
    let blas = Blas1Pim::new(device.clone(), Precision::Fp64);
    let gemv = Gemv::new(device.clone(), Precision::Fp64);
    let spmv = SpmvPim::new(device.clone(), Precision::Fp64)
        .run(&inp.a, &inp.x)
        .unwrap();
    let sptrsv = SptrsvPim::new(device.clone()).run(&inp.t, &inp.b).unwrap();
    let dcopy = blas.dcopy(&inp.x).unwrap();
    let dscal = blas.dscal(1.5, &inp.x).unwrap();
    let daxpy = blas.daxpy(-0.5, &inp.x, &inp.y).unwrap();
    let dvdv = blas.dvdv(&inp.x, &inp.y, BinaryOp::Mul).unwrap();
    let ddot = blas.ddot(&inp.x, &inp.y).unwrap();
    let dnrm2 = blas.dnrm2(&inp.x).unwrap();
    let (_, gather) = blas.gather(&inp.src).unwrap();
    let scatter = blas.scatter(&inp.sp, &inp.zeros).unwrap();
    let spaxpy = blas.spaxpy(2.0, &inp.sp, &inp.y).unwrap();
    let spdot = blas.spdot(&inp.sp, &inp.y).unwrap();
    let dgemv = gemv.dgemv(&inp.m, inp.nr, inp.nc, &inp.xg).unwrap();
    vec![
        ("SpMV", spmv.run, spmv.y),
        ("SpTRSV", sptrsv.run, sptrsv.x),
        ("DCOPY", dcopy.run, dcopy.v),
        ("DSCAL", dscal.run, dscal.v),
        ("DAXPY", daxpy.run, daxpy.v),
        ("DVDV", dvdv.run, dvdv.v),
        ("DDOT", ddot.run, vec![ddot.s]),
        ("DNRM2", dnrm2.run, vec![dnrm2.s]),
        ("GATHER", gather, Vec::new()),
        ("SCATTER", scatter.run, scatter.v),
        ("SpAXPY", spaxpy.run, spaxpy.v),
        ("SpDOT", spdot.run, vec![spdot.s]),
        ("DGEMV", dgemv.run, dgemv.y),
    ]
}

/// One golden line: a kernel's run report and output bit patterns.
#[derive(Serialize)]
struct Fingerprint {
    device: &'static str,
    kernel: String,
    run: KernelRun,
    bits: String,
}

/// Comma-separated bit patterns of `values`.
fn bit_string(values: &[f64]) -> String {
    let bits: Vec<String> = values
        .iter()
        .map(|v| format!("{:x}", v.to_bits()))
        .collect();
    bits.join(",")
}

/// The three pinned devices: the full cube validated, and a tiny device
/// validated and traced in both execution modes.
fn devices() -> Vec<(&'static str, PimDevice)> {
    let mut full = PimDevice::psync_1x();
    full.validate = true;
    let mut traced = PimDevice::tiny(2);
    traced.validate = true;
    traced.trace = true;
    let mut per_bank = traced.clone();
    per_bank.mode = ExecMode::PerBank;
    vec![
        ("psync_1x+validate", full),
        ("tiny+validate+trace", traced),
        ("tiny+per_bank+validate+trace", per_bank),
    ]
}

fn fingerprints() -> Vec<Fingerprint> {
    let inp = inputs(96, 4);
    let mut out = Vec::new();
    for (device, dev) in devices() {
        for (kernel, run, outputs) in battery(&dev, &inp) {
            assert_eq!(
                run.violations, 0,
                "{device}/{kernel}: a validated run must be protocol-clean"
            );
            out.push(Fingerprint {
                device,
                kernel: kernel.to_string(),
                run,
                bits: bit_string(&outputs),
            });
        }
    }
    out
}

/// One fused pass of `xs` over `a` through the SpMM data path: the
/// pass's run report and every vector's product, in input order.
fn fused(
    device: &PimDevice,
    mul: BinaryOp,
    acc: BinaryOp,
    a: &Coo,
    xs: &[Vec<f64>],
) -> (KernelRun, Vec<Vec<f64>>) {
    let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    let r = SpmvPim::with_semiring(device.clone(), Precision::Fp64, mul, acc)
        .run_fused(a, &xs)
        .unwrap();
    (r.run, r.ys)
}

/// Fused SpMM at widths 2 and [`MAX_SPMM_WIDTH`], arithmetic and
/// min-plus, on every pinned device. Each line's bits list the fused
/// vectors' products one after another, separated by `;`.
fn spmm_fingerprints() -> Vec<Fingerprint> {
    let a = gen::rmat(64, 4, 0x5EED);
    let mut out = Vec::new();
    for (device, dev) in devices() {
        for (semiring, mul, acc) in [
            ("arith", BinaryOp::Mul, BinaryOp::Add),
            ("min_plus", BinaryOp::Add, BinaryOp::Min),
        ] {
            for width in [2, MAX_SPMM_WIDTH] {
                let xs: Vec<Vec<f64>> = (0..width)
                    .map(|v| gen::dense_vector(a.ncols(), 10 + v as u64))
                    .collect();
                let (run, ys) = fused(&dev, mul, acc, &a, &xs);
                let kernel = format!("SpMM/{semiring}/w{width}");
                assert_eq!(
                    run.violations, 0,
                    "{device}/{kernel}: a validated run must be protocol-clean"
                );
                assert_eq!(ys.len(), width, "{device}/{kernel}");
                let bits: Vec<String> = ys.iter().map(|y| bit_string(y)).collect();
                out.push(Fingerprint {
                    device,
                    kernel,
                    run,
                    bits: bits.join(";"),
                });
            }
        }
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name)
}

#[test]
fn battery_fingerprints_match_golden() {
    check_golden("engine_fingerprints.json", &fingerprints());
}

#[test]
fn unvalidated_1x_battery_matches_validated_golden() {
    // A plain all-bank run replays a channel only when no earlier channel
    // of the launch showed what it does (twin channels, DESIGN.md §14);
    // validation replays every channel. So the battery on the unvalidated
    // 1x cube, labelled as the validated device, must print the validated
    // golden's lines byte for byte.
    let (device, _) = devices().swap_remove(0);
    let inp = inputs(96, 4);
    let lines: Vec<String> = battery(&PimDevice::psync_1x(), &inp)
        .into_iter()
        .map(|(kernel, run, outputs)| {
            Fingerprint {
                device,
                kernel: kernel.to_string(),
                run,
                bits: bit_string(&outputs),
            }
            .to_json()
        })
        .collect();
    let golden = std::fs::read_to_string(golden_path("engine_fingerprints.json"))
        .expect("read the fingerprint golden");
    let prefix = format!("{{\"device\":\"{device}\",");
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert_eq!(want.len(), lines.len(), "{device} lines in the golden");
    for (w, got) in want.iter().zip(&lines) {
        assert_eq!(
            w, got,
            "the unvalidated 1x run differs from the validated golden"
        );
    }
}

#[test]
fn fused_spmm_fingerprints_match_golden() {
    check_golden("spmm_fingerprints.json", &spmm_fingerprints());
}

/// Compare `prints` line by line with the golden `name`, or rewrite the
/// golden under `PSIM_BLESS=1`.
fn check_golden(name: &str, prints: &[Fingerprint]) {
    let lines: Vec<String> = prints.iter().map(Serialize::to_json).collect();
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    let path = golden_path(name);
    if std::env::var_os("PSIM_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with PSIM_BLESS=1",
            path.display()
        )
    });
    if let Some((line, (w, a))) = want
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, a))| w != a)
    {
        // Line 1 is the opening bracket; fingerprints start on line 2.
        let which = prints
            .get(line.wrapping_sub(1))
            .map_or_else(String::new, |p| format!(" ({}/{})", p.device, p.kernel));
        let at = w
            .bytes()
            .zip(a.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| w.len().min(a.len()));
        let from = at.saturating_sub(80);
        panic!(
            "engine fingerprints diverged from {} at line {}{which} (rerun with PSIM_BLESS=1 \
             if intentional)\nwant: ...{}\ngot:  ...{}",
            path.display(),
            line + 1,
            w.get(from..(at + 80).min(w.len())).unwrap_or(w),
            a.get(from..(at + 80).min(a.len())).unwrap_or(a),
        );
    }
    assert_eq!(
        want,
        actual,
        "fingerprint count changed vs {}",
        path.display()
    );
}
