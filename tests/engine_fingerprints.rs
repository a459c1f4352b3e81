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
//! Regenerating after an intentional change:
//!
//! ```text
//! PSIM_BLESS=1 cargo test --test engine_fingerprints
//! ```

use psyncpim::core::isa::BinaryOp;
use psyncpim::core::ExecMode;
use psyncpim::kernels::blas1::Blas1Pim;
use psyncpim::kernels::gemv::Gemv;
use psyncpim::kernels::{KernelRun, PimDevice, SpmvPim, SptrsvPim};
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
    kernel: &'static str,
    run: KernelRun,
    bits: String,
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
            let bits: Vec<String> = outputs
                .iter()
                .map(|v| format!("{:x}", v.to_bits()))
                .collect();
            out.push(Fingerprint {
                device,
                kernel,
                run,
                bits: bits.join(","),
            });
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/engine_fingerprints.json")
}

#[test]
fn battery_fingerprints_match_golden() {
    let prints = fingerprints();
    let lines: Vec<String> = prints.iter().map(Serialize::to_json).collect();
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    let path = golden_path();
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
