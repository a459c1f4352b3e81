//! The calibration workload: a fixed piece of host work, in this package
//! and independent of the simulator, run between passes to measure how
//! fast the machine is running at the time.
//!
//! On a shared host a whole run can be 5–15% slower than another, in
//! every lap, for minutes; fastest-lap timing cannot remove that. This
//! workload does what set-up and the timed section do (seeded generation,
//! sorting, sparse products), and its fastest laps slow with theirs from
//! run to run. The end-to-end host times are scaled by [`NOMINAL_S`] ÷ the
//! run's calibration time, which expresses them at one machine speed.

use crate::host::CpuClock;
use crate::inputs::splitmix;

/// Calibration laps after each pass.
pub const LAPS: usize = 8;

/// The calibration's sum of fastest laps on the machine the host metrics
/// are expressed for: a 2-vCPU Intel Xeon (model 143) VM at quiet times.
pub const NOMINAL_S: f64 = 0.0084;

/// Rows of the calibration matrix.
const ROWS: usize = 4096;

/// Non-zeros generated per lap (before merging duplicates).
const NNZ: usize = 24_576;

/// Sparse products per lap.
const PRODUCTS: usize = 6;

/// One calibration lap: generate a seeded sparse matrix, sort and merge
/// it into CSR, and run sparse products on it. Returns a checksum that is
/// the same for every call.
#[must_use]
pub fn lap_work() -> u64 {
    let mut rng = 0xCA11_B0A7u64;
    let mut coo: Vec<(u32, u32, f64)> = (0..NNZ)
        .map(|_| {
            let r = splitmix(&mut rng);
            // Skewed rows, as in power-law matrices: the low bits pick a
            // row, the high bits how far it sits from row 0.
            let row = ((r & 0xFFF) >> (r >> 60)) as u32;
            let col = ((r >> 16) % ROWS as u64) as u32;
            (row, col, ((r >> 40) % 1000) as f64 / 1000.0 - 0.5)
        })
        .collect();
    coo.sort_unstable_by_key(|&(r, c, _)| (r, c));
    coo.dedup_by(|b, a| {
        let same = (a.0, a.1) == (b.0, b.1);
        if same {
            a.2 += b.2;
        }
        same
    });
    let mut ptr = vec![0usize; ROWS + 1];
    for &(r, _, _) in &coo {
        ptr[r as usize + 1] += 1;
    }
    for i in 0..ROWS {
        ptr[i + 1] += ptr[i];
    }
    let mut x: Vec<f64> = (0..ROWS).map(|i| 1.0 + (i % 7) as f64 / 8.0).collect();
    let mut y = vec![0.0; ROWS];
    for _ in 0..PRODUCTS {
        for (row, out) in y.iter_mut().enumerate() {
            *out = coo[ptr[row]..ptr[row + 1]]
                .iter()
                .map(|&(_, c, v)| v * x[c as usize])
                .sum();
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm + 1.0;
        }
    }
    x.iter()
        .fold(coo.len() as u64, |h, v| h.rotate_left(5) ^ v.to_bits())
}

/// Run [`LAPS`] calibration laps and return each lap's host seconds, or
/// `None` if a lap's checksum differs from `want`.
#[must_use]
pub fn laps(want: u64) -> Option<Vec<f64>> {
    (0..LAPS)
        .map(|_| {
            let t0 = CpuClock::now();
            let sum = std::hint::black_box(lap_work());
            (sum == want).then(|| t0.elapsed_s())
        })
        .collect()
}
