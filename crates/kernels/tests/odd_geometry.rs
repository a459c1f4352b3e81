//! Row decode on geometries that are not powers of two.
//!
//! The engine keeps each memory slot's cursor decoded into a DRAM row, a
//! column and a byte within the column, and advances it by mixed-radix
//! addition instead of dividing the byte offset per command. That has to
//! hold for every [`HbmConfig`](psim_dram::HbmConfig) geometry, not only
//! the default's power-of-two rows and columns. SpMV on a 2-channel 1x
//! device with 48 columns per row (768-byte rows), and again with
//! 24-byte columns (1536-byte rows), is pinned here in both execution modes: cycles, rounds and command
//! counts, taken from the engine that divided per command.

use psim_kernels::{PimDevice, SpmvPim};
use psim_sparse::{gen, Precision};

/// The 1x device cut to two pseudo-channels, with a row geometry change.
fn device(num_cols: usize, col_bytes: usize, per_bank: bool) -> PimDevice {
    let mut d = if per_bank {
        PimDevice::per_bank()
    } else {
        PimDevice::psync_1x()
    };
    d.hbm.num_pseudo_channels = 2;
    d.hbm.num_cols = num_cols;
    d.hbm.col_bytes = col_bytes;
    d
}

/// `(dram_cycles, rounds, commands, all-bank commands, per-bank commands)`
/// of one SpMV, after checking its output against the host reference.
fn spmv_figures(num_cols: usize, col_bytes: usize, per_bank: bool) -> [u64; 5] {
    let a = gen::rmat_seeded(300, 6, 3, 77);
    let x = gen::dense_vector(a.ncols(), 5);
    let r = SpmvPim::new(device(num_cols, col_bytes, per_bank), Precision::Fp64)
        .run(&a, &x)
        .expect("spmv runs");
    let want = a.spmv(&x);
    for (i, (got, want)) in r.y.iter().zip(&want).enumerate() {
        assert!((got - want).abs() <= 1e-9, "y[{i}] {got} vs {want}");
    }
    let run = &r.run;
    [
        run.dram_cycles,
        run.rounds,
        run.commands,
        run.all_bank_commands,
        run.per_bank_commands,
    ]
}

#[test]
fn spmv_pins_48_column_rows_in_both_modes() {
    assert_eq!(spmv_figures(48, 16, false), [14270, 75, 1378, 1378, 0]);
    assert_eq!(spmv_figures(48, 16, true), [26637, 74, 4451, 6, 4445]);
}

#[test]
fn spmv_pins_24_byte_columns_in_both_modes() {
    assert_eq!(spmv_figures(64, 24, false), [27939, 144, 2563, 2563, 0]);
    assert_eq!(spmv_figures(64, 24, true), [33465, 143, 4461, 8, 4453]);
}
