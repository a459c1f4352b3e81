//! Adversarial matrix shapes for the differential-test corpus.
//!
//! The [`crate::gen`] generators mirror the paper's *benchmark* suite;
//! these generators instead target the structures most likely to break a
//! layout or partitioner: extreme row skew (one bank gets everything),
//! arrow matrices (a dense border row/column crossing every column
//! block), near-dense tiles (locally dense structure at fill ≈ 1), and
//! empty-row/column extremes (the `PartitionStats::imbalance` NaN
//! regression, zero-column compression with nothing to compress).
//!
//! Each shape is deterministic given a seed salt, following the
//! [`crate::gen`] idiom, and [`suite`] names them all so test corpora and
//! bench grids iterate one list.

use crate::gen::DEFAULT_SEED;
use crate::Coo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Power-law hub *rows*: `hubs` rows carry almost all of the `nnz`
/// budget (columns uniform), the rest get one entry each. Row-balancing
/// 1D splits put entire hubs on single banks; the wave bound is then the
/// hub, stressing `LeastLoaded` placement and 2D column splitting.
#[must_use]
pub fn power_law_hubs(n: usize, nnz: usize, hubs: usize, seed_salt: u64) -> Coo {
    let mut rng =
        StdRng::seed_from_u64(DEFAULT_SEED ^ seed_salt.wrapping_mul(0x8538_ECB5_BD45_6EA3));
    let hubs = hubs.clamp(1, n);
    let mut m = Coo::new(n, n);
    // One entry per non-hub row keeps every row live (no trivial empties
    // here — empty_extremes covers those).
    for i in hubs..n {
        m.push(i as u32, rng.gen_range(0..n) as u32, 1.0 + rng.gen::<f64>());
    }
    let budget = nnz.saturating_sub(n - hubs);
    for k in 0..budget {
        // Zipf-ish hub choice: hub 0 is the heaviest.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let h = ((u.powf(2.0) * hubs as f64) as usize).min(hubs - 1);
        let _ = k;
        m.push(
            h as u32,
            rng.gen_range(0..n) as u32,
            rng.gen_range(-1.0..1.0),
        );
    }
    m.coalesce();
    m
}

/// Arrow matrix: dense first row, dense first column, dense diagonal,
/// plus a sprinkle of off-pattern noise. The border row intersects
/// *every* column block of a 2D scheme, and the border column is one
/// giant hub — the worst case for equally-wide `Grid2D` cuts.
#[must_use]
pub fn arrow(n: usize, noise: usize, seed_salt: u64) -> Coo {
    let mut rng =
        StdRng::seed_from_u64(DEFAULT_SEED ^ seed_salt.wrapping_mul(0x94D0_49BB_1331_11EB));
    let mut m = Coo::new(n, n);
    for i in 0..n {
        m.push(i as u32, i as u32, 4.0 + rng.gen::<f64>());
        if i > 0 {
            m.push(0, i as u32, -rng.gen::<f64>());
            m.push(i as u32, 0, -rng.gen::<f64>());
        }
    }
    for _ in 0..noise {
        let r = rng.gen_range(0..n) as u32;
        let c = rng.gen_range(0..n) as u32;
        m.push(r, c, rng.gen_range(-1.0..1.0));
    }
    m.coalesce();
    m
}

/// A few nearly-dense `block × block` tiles scattered on an otherwise
/// empty matrix — block fill ratio close to 1 inside the tiles: the
/// locally dense structure of FEM stencils and multibody blocks.
#[must_use]
pub fn near_dense_blocks(n: usize, block: usize, tiles: usize, seed_salt: u64) -> Coo {
    let mut rng =
        StdRng::seed_from_u64(DEFAULT_SEED ^ seed_salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let block = block.clamp(1, n);
    let grid = n / block;
    let mut m = Coo::new(n, n);
    for _ in 0..tiles.max(1) {
        let br = rng.gen_range(0..grid.max(1));
        let bc = rng.gen_range(0..grid.max(1));
        for lr in 0..block {
            for lc in 0..block {
                if rng.gen::<f64>() < 0.95 {
                    m.push(
                        (br * block + lr) as u32,
                        (bc * block + lc) as u32,
                        rng.gen_range(-1.0..1.0),
                    );
                }
            }
        }
    }
    // Keep the diagonal live so SpTRSV-style uses stay well-posed.
    for i in 0..n {
        m.push(i as u32, i as u32, 4.0);
    }
    m.coalesce();
    m
}

/// Empty-row/column extremes: entries confined to a thin occupied stripe
/// of rows *and* columns, leaving most rows and columns completely empty.
/// This is the shape that produced all-empty banks (the
/// `PartitionStats::imbalance` 0/0 → NaN regression) and exercises
/// zero-column compression where nearly every column vanishes.
#[must_use]
pub fn empty_extremes(n: usize, seed_salt: u64) -> Coo {
    let mut rng =
        StdRng::seed_from_u64(DEFAULT_SEED ^ seed_salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let stripe = (n / 8).max(1);
    let row0 = n / 2;
    let mut m = Coo::new(n, n);
    for i in row0..(row0 + stripe).min(n) {
        for _ in 0..4 {
            let c = (row0 + rng.gen_range(0..stripe)).min(n - 1) as u32;
            m.push(i as u32, c, rng.gen_range(-1.0..1.0));
        }
        m.push(i as u32, i as u32, 4.0);
    }
    m.coalesce();
    m
}

/// The named adversarial corpus at size `n`: every shape the layout ×
/// scheme oracle and the autotuner bench must survive.
#[must_use]
pub fn suite(n: usize, seed_salt: u64) -> Vec<(&'static str, Coo)> {
    vec![
        ("adv_hub_rows", power_law_hubs(n, n * 6, 3, seed_salt)),
        ("adv_arrow", arrow(n, n, seed_salt)),
        ("adv_dense_blocks", near_dense_blocks(n, 8, 4, seed_salt)),
        ("adv_empty_extremes", empty_extremes(n, seed_salt)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for (a, b) in [
            (power_law_hubs(64, 400, 2, 7), power_law_hubs(64, 400, 2, 7)),
            (arrow(64, 64, 7), arrow(64, 64, 7)),
            (
                near_dense_blocks(64, 8, 3, 7),
                near_dense_blocks(64, 8, 3, 7),
            ),
            (empty_extremes(64, 7), empty_extremes(64, 7)),
        ] {
            assert_eq!(a, b);
        }
        assert_ne!(arrow(64, 64, 7), arrow(64, 64, 8));
    }

    #[test]
    fn hub_rows_are_extremely_skewed() {
        let m = power_law_hubs(128, 1024, 2, 1);
        let counts = m.row_counts();
        let max = *counts.iter().max().unwrap();
        let avg = m.nnz() as f64 / 128.0;
        assert!(max as f64 > 8.0 * avg, "max={max} avg={avg:.1}");
    }

    #[test]
    fn arrow_has_dense_border_and_diagonal() {
        let m = arrow(60, 0, 2);
        for i in 1..60u32 {
            assert!(m.iter().any(|e| e.row == 0 && e.col == i));
            assert!(m.iter().any(|e| e.row == i && e.col == 0));
            assert!(m.iter().any(|e| e.row == i && e.col == i));
        }
    }

    #[test]
    fn near_dense_blocks_fill_their_tiles() {
        // Tile fill: distinct positions over the slots of every 8 × 8
        // tile holding an entry (the matrix is coalesced and 64 is a
        // multiple of 8, so each entry is one position of a full tile).
        let m = near_dense_blocks(64, 8, 3, 3);
        let mut tiles: Vec<(u32, u32)> = m.iter().map(|e| (e.row / 8, e.col / 8)).collect();
        tiles.sort_unstable();
        tiles.dedup();
        let fill = m.nnz() as f64 / (tiles.len() * 64) as f64;
        assert!(fill > 0.3, "dense-block shape should fill tiles: {fill:.2}");
    }

    #[test]
    fn empty_extremes_leave_most_rows_and_cols_empty() {
        let m = empty_extremes(80, 4);
        let empty_rows = m.row_counts().iter().filter(|&&c| c == 0).count();
        let empty_cols = m.col_counts().iter().filter(|&&c| c == 0).count();
        assert!(empty_rows > 40, "empty rows: {empty_rows}");
        assert!(empty_cols > 40, "empty cols: {empty_cols}");
        assert!(m.nnz() > 0);
    }

    #[test]
    fn suite_names_are_unique_and_matrices_nonempty() {
        let s = suite(64, 1);
        assert_eq!(s.len(), 4);
        let mut names: Vec<&str> = s.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        for (name, m) in &s {
            assert!(m.nnz() > 0, "{name} is empty");
            assert_eq!(m.nrows(), 64);
        }
    }
}
