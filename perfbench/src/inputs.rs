//! Seeded inputs: every generator salt mixes in the run's `--seed`, so a
//! held-out seed changes matrix structure, not just vector contents.

use psim_sparse::gen;
use psim_sparse::suite::{Family, MatrixSpec};
use psim_sparse::Coo;

/// One step of the splitmix64 sequence.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed scrambled into a salt that differs in every bit position.
#[must_use]
pub fn mix(seed: u64) -> u64 {
    let mut s = seed;
    splitmix(&mut s)
}

/// FNV-1a of a name: the per-matrix salt `MatrixSpec::generate` uses.
#[must_use]
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A Table IX matrix at `scale`, generated like `MatrixSpec::generate`
/// (same family, dimension and degree) but with `seed` mixed into the salt.
#[must_use]
pub fn suite_matrix(spec: &MatrixSpec, scale: f64, seed: u64) -> Coo {
    let dim = ((spec.dim as f64 * scale) as usize).max(32);
    let deg = spec.avg_degree().round().max(1.0) as usize;
    let name_salt = fnv(spec.name.as_bytes());
    let salt = name_salt ^ mix(seed);
    match spec.family {
        Family::PowerLawGraph => {
            gen::rmat_seeded(dim, deg, name_salt, gen::DEFAULT_SEED ^ mix(seed))
        }
        Family::BandedFem { bandwidth_frac } => {
            // `MatrixSpec::generate`'s band, kept valid below its smallest
            // scale: never wider than the matrix.
            let bw = ((dim as f64 * bandwidth_frac) as usize).clamp((2 * deg + 2).min(dim), dim);
            gen::banded_fem(dim, bw, deg.saturating_sub(1).max(1), salt)
        }
        Family::Uniform => gen::erdos_renyi(dim, dim, dim * deg, salt),
        Family::BlockedFem => gen::block_diag_fem(dim, (2 * deg).clamp(4, dim), 0.5, salt),
        Family::WebHubs => gen::web_hubs(dim, dim * deg, salt),
        Family::Layered { layers } => gen::layered_dag(dim, deg, layers, salt),
    }
}

/// A dense operand of length `n` for the named input at `seed`.
#[must_use]
pub fn vector(n: usize, name: &str, seed: u64) -> Vec<f64> {
    gen::dense_vector(n, fnv(name.as_bytes()) ^ mix(seed))
}
