//! Level-set analysis and row reordering for SpTRSV.
//!
//! A triangular solve's rows form a DAG: row `i` depends on every row `j`
//! with a non-zero at `(i, j)` (lower case). Rows at the same *level* are
//! mutually independent and can execute in parallel. The host preprocessor
//! computes the schedule and reorders rows level-by-level (paper §VI-D "Row
//! Reordering") so each all-bank PIM launch covers one level.

use crate::triangular::{Triangle, UnitTriangular};
use crate::Csc;
use serde::{Deserialize, Serialize};

/// The level schedule of a triangular matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelSchedule {
    /// `level_of[i]` = level of row `i` (0-based).
    level_of: Vec<usize>,
    /// Rows grouped by level, ascending.
    levels: Vec<Vec<usize>>,
}

impl LevelSchedule {
    /// Compute the schedule for a unit triangular matrix: the column
    /// sweep of [`LevelSchedule::from_columns`] over its strict part.
    #[must_use]
    pub fn analyze(t: &UnitTriangular) -> Self {
        Self::from_columns(&Csc::from(t.strict()), t.triangle())
    }

    /// The schedule of the unit triangle whose strict part, in `triangle`,
    /// is `strict`.
    ///
    /// For a lower triangle, `level(i) = 1 + max(level(j))` over stored
    /// entries `(i, j)`; independent rows get level 0. A sweep over the
    /// columns in order finds it: each column `j` is final when the sweep
    /// reaches it, as its row's entries lie in earlier columns, and it
    /// raises the level of every row it holds an entry in. The upper
    /// triangle is swept in reverse column order. Every entry of `strict`
    /// must lie strictly inside `triangle`, as a [`UnitTriangular`]'s
    /// strict part does.
    ///
    /// # Panics
    ///
    /// Panics if `strict` is not square.
    #[must_use]
    pub fn from_columns(strict: &Csc, triangle: Triangle) -> Self {
        let n = strict.ncols();
        assert_eq!(strict.nrows(), n, "a triangle's strict part is square");
        let mut level_of = vec![0usize; n];
        for k in 0..n {
            let j = match triangle {
                Triangle::Lower => k,
                Triangle::Upper => n - 1 - k,
            };
            let next = level_of[j] + 1;
            for (i, _) in strict.col(j) {
                level_of[i] = level_of[i].max(next);
            }
        }
        let max_level = level_of.iter().copied().max().unwrap_or(0);
        let mut levels = vec![Vec::new(); max_level + 1];
        match triangle {
            Triangle::Lower => {
                for (i, &l) in level_of.iter().enumerate() {
                    levels[l].push(i);
                }
            }
            Triangle::Upper => {
                for i in (0..n).rev() {
                    levels[level_of[i]].push(i);
                }
            }
        }
        if n == 0 {
            levels.clear();
        }
        LevelSchedule { level_of, levels }
    }

    /// Number of levels (the solve's critical-path length in launches).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level of row `i`.
    #[must_use]
    pub fn level_of(&self, i: usize) -> usize {
        self.level_of[i]
    }

    /// Rows of one level.
    #[must_use]
    pub fn level(&self, l: usize) -> &[usize] {
        &self.levels[l]
    }

    /// Iterate over levels in dependency order.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<usize>> {
        self.levels.iter()
    }

    /// Average rows per level (the parallelism the GPU baseline can exploit
    /// per kernel launch).
    #[must_use]
    pub fn avg_parallelism(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.level_of.len() as f64 / self.levels.len() as f64
    }

    /// A symmetric permutation placing rows level-by-level: `perm[new] = old`.
    ///
    /// Within a level, original order is kept (stability keeps the triangle
    /// a triangle after permutation — see the invariant test).
    #[must_use]
    pub fn reorder_permutation(&self) -> Vec<usize> {
        self.levels.iter().flatten().copied().collect()
    }

    /// Check that a schedule order respects dependencies: for every stored
    /// entry `(row, col)`, the producing row `col` is scheduled before the
    /// consuming row `row`. This holds for both triangles because the
    /// schedule lists levels in execution (dependency) order.
    #[must_use]
    pub fn respects_dependencies(&self, t: &UnitTriangular, perm: &[usize]) -> bool {
        let mut pos = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            pos[old] = new;
        }
        t.strict()
            .iter()
            .all(|e| pos[e.col as usize] < pos[e.row as usize])
    }
}

/// Apply the level-order row reordering (paper §VI-D) to a triangular
/// system: rows are renumbered level-by-level, which turns either triangle
/// into a *lower* unit triangular system whose rows within a level are
/// independent. Returns the reordered system and the permutation
/// (`perm[new] = old`) needed to map a solution back.
#[must_use]
pub fn reorder_to_lower(t: &UnitTriangular) -> (UnitTriangular, Vec<usize>) {
    let sched = LevelSchedule::analyze(t);
    let perm = sched.reorder_permutation();
    let mut pos = vec![0usize; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        pos[old] = new;
    }
    let mut strict = crate::Coo::new(t.dim(), t.dim());
    for e in t.strict().iter() {
        // Dependencies always map to earlier positions, so the result is
        // strictly lower triangular for both source triangles.
        strict.push(
            pos[e.row as usize] as u32,
            pos[e.col as usize] as u32,
            e.val,
        );
    }
    let reordered = UnitTriangular::from_strict(Triangle::Lower, strict)
        .expect("level order places dependencies below the diagonal");
    (reordered, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn chain4() -> UnitTriangular {
        // Fully serial: row i depends on i-1.
        let mut s = Coo::new(4, 4);
        s.push(1, 0, 0.1);
        s.push(2, 1, 0.1);
        s.push(3, 2, 0.1);
        UnitTriangular::from_strict(Triangle::Lower, s).unwrap()
    }

    fn diamond() -> UnitTriangular {
        // 0 -> {1, 2} -> 3
        let mut s = Coo::new(4, 4);
        s.push(1, 0, 0.1);
        s.push(2, 0, 0.1);
        s.push(3, 1, 0.1);
        s.push(3, 2, 0.1);
        UnitTriangular::from_strict(Triangle::Lower, s).unwrap()
    }

    #[test]
    fn chain_has_n_levels() {
        let sched = LevelSchedule::analyze(&chain4());
        assert_eq!(sched.num_levels(), 4);
        assert_eq!(sched.avg_parallelism(), 1.0);
    }

    #[test]
    fn diamond_has_three_levels() {
        let sched = LevelSchedule::analyze(&diamond());
        assert_eq!(sched.num_levels(), 3);
        assert_eq!(sched.level(0), &[0]);
        assert_eq!(sched.level(1), &[1, 2]);
        assert_eq!(sched.level(2), &[3]);
    }

    #[test]
    fn identity_pattern_is_one_level() {
        let s = Coo::new(5, 5);
        let t = UnitTriangular::from_strict(Triangle::Lower, s).unwrap();
        let sched = LevelSchedule::analyze(&t);
        assert_eq!(sched.num_levels(), 1);
        assert_eq!(sched.level(0).len(), 5);
    }

    #[test]
    fn permutation_respects_dependencies() {
        let t = diamond();
        let sched = LevelSchedule::analyze(&t);
        let perm = sched.reorder_permutation();
        assert!(sched.respects_dependencies(&t, &perm));
        // A reversed permutation must violate them.
        let bad: Vec<usize> = perm.iter().rev().copied().collect();
        assert!(!sched.respects_dependencies(&t, &bad));
    }

    #[test]
    fn upper_triangle_levels_run_backward() {
        let mut s = Coo::new(3, 3);
        s.push(0, 1, 0.1);
        s.push(1, 2, 0.1);
        let t = UnitTriangular::from_strict(Triangle::Upper, s).unwrap();
        let sched = LevelSchedule::analyze(&t);
        assert_eq!(sched.num_levels(), 3);
        assert_eq!(sched.level(0), &[2]);
        assert_eq!(sched.level(2), &[0]);
        let perm = sched.reorder_permutation();
        assert!(sched.respects_dependencies(&t, &perm));
    }

    #[test]
    fn reorder_to_lower_preserves_solution() {
        let mut s = Coo::new(4, 4);
        s.push(0, 1, 0.5); // upper triangle
        s.push(1, 3, 0.25);
        s.push(2, 3, 0.125);
        let t = UnitTriangular::from_strict(Triangle::Upper, s).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let want = t.solve_colwise(&b).unwrap();
        let (lower, perm) = super::reorder_to_lower(&t);
        assert_eq!(lower.triangle(), Triangle::Lower);
        let pb: Vec<f64> = perm.iter().map(|&old| b[old]).collect();
        let px = lower.solve_colwise(&pb).unwrap();
        let mut x = [0.0; 4];
        for (new, &old) in perm.iter().enumerate() {
            x[old] = px[new];
        }
        for (g, w) in x.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    /// The level of every row by a row sweep over the CSR, the route the
    /// column sweep replaced.
    fn levels_by_rows(t: &UnitTriangular) -> Vec<usize> {
        let (n, csr) = (t.dim(), crate::Csr::from(t.strict()));
        let mut level_of = vec![0usize; n];
        let rows: Vec<usize> = match t.triangle() {
            Triangle::Lower => (0..n).collect(),
            Triangle::Upper => (0..n).rev().collect(),
        };
        for i in rows {
            level_of[i] = csr.row(i).map(|(j, _)| level_of[j] + 1).max().unwrap_or(0);
        }
        level_of
    }

    /// A random strict triangle of dimension `n` from `seed`: about `n`
    /// entries in arbitrary order, some repeated at one coordinate, some
    /// explicit zeros, and (every third row) rows left empty.
    fn random_triangle(n: usize, triangle: Triangle, seed: u64) -> UnitTriangular {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let mut s = Coo::new(n, n);
        for _ in 0..2 * n {
            let (a, b) = (next(n), next(n));
            if a == b {
                continue;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            let (r, c) = match triangle {
                Triangle::Lower => (hi, lo),
                Triangle::Upper => (lo, hi),
            };
            if r % 3 == 1 {
                continue;
            }
            let v = if next(5) == 0 {
                0.0
            } else {
                0.25 + next(100) as f64
            };
            s.push(r as u32, c as u32, v);
            if next(4) == 0 {
                s.push(r as u32, c as u32, -v);
            }
        }
        UnitTriangular::from_strict(triangle, s).unwrap()
    }

    #[test]
    fn one_csc_build_and_column_sweep_match_the_transpose_and_row_routes() {
        for triangle in [Triangle::Lower, Triangle::Upper] {
            for (n, seed) in [(0, 1), (1, 2), (2, 3), (9, 4), (40, 5), (300, 6), (300, 7)] {
                let t = random_triangle(n, triangle, seed);
                let what = format!("{triangle:?} n={n} seed={seed}");
                if n == 300 {
                    let mut coords: Vec<(u32, u32)> =
                        t.strict().iter().map(|e| (e.row, e.col)).collect();
                    coords.sort_unstable();
                    assert!(
                        coords.windows(2).any(|w| w[0] == w[1]),
                        "{what}: a duplicate"
                    );
                    assert!(t.strict().iter().any(|e| e.val == 0.0), "{what}: a zero");
                    assert!(t.strict().row_counts().contains(&0), "{what}: an empty row");
                }
                // CSC arrays: the same as the CSR of the transposed COO.
                let (csc, via) = (
                    Csc::from(t.strict()),
                    crate::Csr::from(&t.strict().transpose()),
                );
                assert_eq!(csc.col_ptr(), via.row_ptr(), "{what}");
                for c in 0..n {
                    let bits = |it: &mut dyn Iterator<Item = (usize, f64)>| -> Vec<(usize, u64)> {
                        it.map(|(r, v)| (r, v.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&mut csc.col(c)),
                        bits(&mut via.row(c)),
                        "{what}, col {c}"
                    );
                }
                // The schedule: every row's level, and the levels' rows.
                let sched = LevelSchedule::analyze(&t);
                let want = levels_by_rows(&t);
                let got: Vec<usize> = (0..n).map(|i| sched.level_of(i)).collect();
                assert_eq!(got, want, "{what}");
                let levels = want.iter().copied().max().map_or(0, |l| l + 1);
                assert_eq!(sched.num_levels(), levels, "{what}");
                let perm = sched.reorder_permutation();
                let mut order: Vec<usize> = match triangle {
                    Triangle::Lower => (0..n).collect(),
                    Triangle::Upper => (0..n).rev().collect(),
                };
                order.sort_by_key(|&i| want[i]);
                assert_eq!(perm, order, "{what}");
                assert!(sched.respects_dependencies(&t, &perm), "{what}");
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let t = UnitTriangular::from_strict(Triangle::Lower, Coo::new(0, 0)).unwrap();
        let sched = LevelSchedule::analyze(&t);
        assert_eq!(sched.num_levels(), 0);
    }
}
