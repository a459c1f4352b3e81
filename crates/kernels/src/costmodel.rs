//! Analytical O(nnz) cost tier: estimate kernel DRAM cycles from the
//! structural statistics of the operands, without running the cycle
//! engine.
//!
//! The cycle engine walks every command of every round; this tier instead
//! predicts each engine launch ("phase") from four structural quantities:
//!
//! * **rounds** — schedule passes until the slowest PU exits, derived
//!   from the longest per-bank stream (nnz skew picks the maximum, the
//!   lockstep approximation: every other bank waits for it);
//! * **row switches per round** — the PRE+ACT pairs the schedule incurs
//!   when consecutive slots touch different regions (the batched layout's
//!   "three activations per eight elements");
//! * **bus pacing** — broadcast column commands pace at `tCCD_L`;
//! * **PU back-pressure** — VALU work per round in DRAM cycles; a round
//!   costs the slower of the bus and the PU.
//!
//! Everything the model reads (partition shapes, stream lengths) is
//! O(nnz) to compute, so estimating a kernel costs about as much as
//! *placing* it — orders of magnitude less than cycle-walking it. SpMV is
//! the one kernel it models: the layout tuner ranks its candidates with
//! [`CostModel::spmv_layout`], which walks the wave plan
//! [`crate::SpmvPim::run_fused`] executes, so the predicted launches are
//! the runner's. The constants below are calibrated against the cycle
//! engine; the `calibration` test (`crates/kernels/tests/calibration.rs`)
//! fails when the estimate's mean absolute percentage error drifts past
//! its bound.

use crate::device::PimDevice;
use crate::spmv::WavePlan;
use psim_sparse::{Coo, Layout, Precision};

/// Estimated cost of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostEstimate {
    /// Predicted DRAM command cycles (the engine's `dram_cycles`).
    pub cycles: u64,
    /// Predicted engine launches (the kernel's `phases`).
    pub phases: u64,
}

impl CostEstimate {
    fn add_phase(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.phases += 1;
    }
}

/// One memory command of a schedule pass: which operand region it touches
/// (same region ⇒ same open row within a pass) and its direction.
#[derive(Debug, Clone, Copy)]
struct Op {
    region: u8,
    write: bool,
}

const fn rd(region: u8) -> Op {
    Op {
        region,
        write: false,
    }
}

const fn wr(region: u8) -> Op {
    Op {
        region,
        write: true,
    }
}

/// The shape of one engine launch, as the per-round timing model sees it.
#[derive(Debug, Clone, Copy)]
struct PhaseShape {
    /// CRF entries programmed at setup (MRS commands).
    program_len: u64,
    /// The memory commands of one schedule pass, in issue order (the host
    /// completion poll — a read of whatever row is open — is implicit).
    ops: &'static [Op],
    /// PU busy cycles per schedule pass on the slowest bank (lockstep
    /// approximation), in PU cycles. The pass costs the slower of the bus
    /// micro-simulation and this VALU term.
    pu_round_cycles: u64,
}

/// Batched sparse stream (`sparse_stream_batched`): slots 0–5 stream the
/// interleaved triples row, 6/8 gather the scales row, 10/11 accumulate
/// the output row — three activations per pass. The PU term is calibrated
/// against the engine: SPMOV pops cost one PU cycle per lane, so a dense
/// pass (full 2×lanes pair plus gathers and accumulates) runs ≈46 PU
/// cycles, which back-pressures the bus on dense streams.
const BATCHED_SPARSE: PhaseShape = PhaseShape {
    program_len: 14,
    ops: &[
        rd(0),
        rd(0),
        rd(0),
        rd(0),
        rd(0),
        rd(0),
        rd(1),
        rd(1),
        wr(2),
        wr(2),
    ],
    pu_round_cycles: 46,
};

/// DRAM cycles per PU cycle (the PU runs at 250 MHz against the 1 GHz
/// command clock) — mirrors the engine's constant.
const DRAM_CYCLES_PER_PU_CYCLE: u64 = 4;

/// O(nnz) analytical cost model for a device configuration.
///
/// Build once per device and reuse across estimates.
#[derive(Debug, Clone)]
pub struct CostModel {
    device: PimDevice,
}

impl CostModel {
    /// Model for a device.
    #[must_use]
    pub fn new(device: &PimDevice) -> Self {
        CostModel {
            device: device.clone(),
        }
    }

    /// Steady-state bus cycles of one schedule pass, by micro-simulating
    /// the pass against the exact bank timing rules (tRAS/tRTP/tWR bound
    /// the precharge, tRCD/tWTR/RL the columns, tCCD_L the pacing). Three
    /// passes are simulated and the last-to-second delta taken, so the
    /// cold first activation does not leak into the per-pass figure.
    fn round_period(&self, shape: &PhaseShape) -> f64 {
        const NEVER: i64 = i64::MIN / 4;
        let t = &self.device.hbm.timing;
        let (t_rcd, t_rp, t_ras) = (t.t_rcd as i64, t.t_rp as i64, t.t_ras as i64);
        let (t_ccd, t_rtp, t_wtr, t_wr) = (
            t.t_ccd_l as i64,
            t.t_rtp as i64,
            t.t_wtr as i64,
            t.t_wr as i64,
        );
        let (rl, wl) = (t.rl as i64, t.wl as i64);

        let mut now = 0i64;
        let mut open: Option<u8> = None;
        let (mut last_act, mut last_pre) = (NEVER, NEVER);
        let (mut last_rd, mut last_wr, mut last_col) = (NEVER, NEVER, NEVER);
        let mut col =
            |now: &mut i64, last_act: i64, last_rd: &mut i64, last_wr: &mut i64, write: bool| {
                let e = if write {
                    (last_act + t_rcd).max(*last_rd + rl)
                } else {
                    (last_act + t_rcd).max(*last_wr + wl + t_wtr)
                }
                .max(last_col + t_ccd);
                *now = (*now).max(e);
                if write {
                    *last_wr = *now;
                } else {
                    *last_rd = *now;
                }
                last_col = *now;
            };
        let mut prev_end = 0i64;
        let mut period = 0i64;
        for _ in 0..3 {
            for op in shape.ops {
                if open != Some(op.region) {
                    if open.is_some() {
                        // PRE: row must satisfy tRAS and the column tails.
                        now = now
                            .max(last_act + t_ras)
                            .max(last_rd + t_rtp)
                            .max(last_wr + wl + t_wr);
                        last_pre = now;
                    }
                    now = now.max(last_pre + t_rp);
                    last_act = now;
                    open = Some(op.region);
                }
                col(&mut now, last_act, &mut last_rd, &mut last_wr, op.write);
            }
            // Host completion poll: a column read of whatever row is open.
            col(&mut now, last_act, &mut last_rd, &mut last_wr, false);
            period = now - prev_end;
            prev_end = now;
        }
        period as f64
    }

    /// Predicted cycles for one engine launch of `shape` running `rounds`
    /// schedule passes (fractional: the pass that trips CEXIT truncates).
    fn phase_cycles(&self, shape: &PhaseShape, rounds: f64) -> u64 {
        let t = &self.device.hbm.timing;
        // Mode switch in, CRF programming, mode switch out: MRS commands,
        // bus-limited to two per cycle.
        let setup =
            (2 * psim_dram::mode::SWITCH_SEQUENCE_LEN as u64 + shape.program_len).div_ceil(2);
        let teardown = (2 * psim_dram::mode::SWITCH_SEQUENCE_LEN as u64).div_ceil(2) + t.t_rp;
        let bus = self.round_period(shape);
        // Lockstep back-pressure: the slowest PU's VALU time per pass; the
        // pass costs the slower of the bus and the PU.
        let per_round = bus.max((shape.pu_round_cycles * DRAM_CYCLES_PER_PU_CYCLE) as f64);
        let body = (rounds * per_round) as u64;
        let sub = setup + body + teardown;
        // Refresh tax: one tRFC stall every tREFI of busy time.
        sub + sub / t.t_refi * t.t_rfc
    }

    /// Effective schedule passes of the batched sparse stream for the
    /// longest per-bank stream of `max_nnz` entries. A pass pops one
    /// interleaved chunk pair (2 × `lanes` slots) and the −1 sentinel
    /// takes a slot of its own, so the engine runs
    /// `ceil((max_nnz + 1) / 2·lanes) + 1` passes; the last one trips
    /// CEXIT halfway through the schedule and counts a half.
    fn batched_rounds(max_nnz: usize, lanes: usize) -> f64 {
        (max_nnz + 1).div_ceil(2 * lanes) as f64 + 0.5
    }

    /// SpMV `y = A x` from the paper's layout ([`Layout::baseline`]).
    #[must_use]
    pub fn spmv(&self, a: &Coo, precision: Precision) -> CostEstimate {
        self.spmv_layout(a, precision, Layout::baseline())
    }

    /// SpMV from an explicit [`Layout`]: the launches of the wave plan
    /// [`crate::SpmvPim::run_fused`] executes, each wave costed by its
    /// slowest cube. This is the tuner's per-candidate score; the layout
    /// enters only through the plan — the scheme's cut and the policy's
    /// placement set each launch's longest bank stream.
    #[must_use]
    pub fn spmv_layout(&self, a: &Coo, precision: Precision, layout: Layout) -> CostEstimate {
        let plan = WavePlan::new(a, &self.device, precision, layout, true);
        let lanes = precision.lanes();
        let mut est = CostEstimate::default();
        for wave in 0..plan.waves {
            // Cubes run in parallel within a wave.
            let wave_cycles = (0..self.device.cubes)
                .map(|cube| plan.longest(wave, cube))
                .filter(|&max_nnz| max_nnz > 0)
                .map(|max_nnz| {
                    self.phase_cycles(&BATCHED_SPARSE, Self::batched_rounds(max_nnz, lanes))
                })
                .max()
                .unwrap_or(0);
            if wave_cycles > 0 {
                est.add_phase(wave_cycles);
            }
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{batched_sparse_bindings, TriplesLayout};
    use crate::{programs, SpmvPim};
    use psim_sparse::gen;

    #[test]
    fn batched_rounds_match_the_engine_across_the_sentinel_boundary() {
        // One bank streams n entries, every other bank only padding. The
        // engine's passes are the model's rounds plus the half pass the
        // model takes off for the CEXIT one; n a multiple of 2·lanes is
        // where the sentinel spills into a pass of its own.
        let device = PimDevice::tiny(2);
        for precision in [Precision::Fp64, Precision::Fp32, Precision::Int8] {
            let lanes = precision.lanes();
            let text = programs::sparse_stream_batched(precision, "MUL", "ADD");
            let program = programs::compiled(&text).unwrap();
            for n in 1..=10 * lanes {
                let mut engine = device.make_engine();
                let entries = (0..n).map(|k| (0, (k % 4) as u32, 1.0));
                let mut triples = TriplesLayout::reserve(&mut engine, n, precision);
                triples.store(&mut engine, [(0, n, entries)]);
                let rt = triples.region();
                let mut regions = None;
                for b in 0..engine.num_banks() {
                    let mem = engine.mem_mut(b);
                    let bytes = precision.bytes();
                    regions = Some((
                        mem.alloc_copy(bytes, &[1.0; 4]),
                        mem.alloc_copy(bytes, &[0.0]),
                    ));
                }
                let (rx, ry) = regions.unwrap();
                engine
                    .load_verified(&program, batched_sparse_bindings(rt, rx, ry, lanes))
                    .unwrap();
                let rounds = engine.run().unwrap().rounds;
                assert_eq!(
                    rounds as f64 - 0.5,
                    CostModel::batched_rounds(n, lanes),
                    "{precision} n = {n}"
                );
            }
        }
    }

    #[test]
    fn estimates_are_monotone_in_problem_size() {
        let model = CostModel::new(&PimDevice::tiny(2));
        let small = model.spmv(&gen::rmat(64, 3, 7), Precision::Fp64);
        let large = model.spmv(&gen::rmat(512, 8, 7), Precision::Fp64);
        assert!(small.cycles > 0);
        assert!(large.cycles > small.cycles);
    }

    #[test]
    fn spmv_estimate_tracks_engine_within_factor_two() {
        // The calibration harness reports exact error; this test pins the
        // order of magnitude so a regression can't hide behind the bound.
        let device = PimDevice::tiny(2);
        let model = CostModel::new(&device);
        for (n, deg, seed) in [(96usize, 5usize, 11u64), (400, 8, 3)] {
            let a = gen::rmat(n, deg, seed);
            let x = gen::dense_vector(n, 3);
            let actual = SpmvPim::new(device.clone(), Precision::Fp64)
                .run(&a, &x)
                .unwrap()
                .run
                .dram_cycles;
            let est = model.spmv(&a, Precision::Fp64).cycles;
            let ratio = est as f64 / actual as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "rmat({n},{deg}): est {est} vs actual {actual} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn phase_count_matches_wave_structure() {
        // The model prices the runner's own wave plan, so its launch
        // count is the runner's for every candidate layout, on one cube
        // and on two.
        let a = gen::banded_fem(1400, 12, 6, 7);
        let x = gen::dense_vector(1400, 5);
        let two_cubes = PimDevice {
            cubes: 2,
            ..PimDevice::tiny(2)
        };
        for device in [PimDevice::tiny(2), two_cubes] {
            let model = CostModel::new(&device);
            for layout in Layout::candidates(a.ncols()) {
                let r = SpmvPim::new(device.clone(), Precision::Fp64)
                    .with_layout(layout)
                    .run(&a, &x)
                    .unwrap();
                let est = model.spmv_layout(&a, Precision::Fp64, layout);
                assert_eq!(
                    est.phases,
                    r.run.phases,
                    "{} on {} cube(s): waves must match the runner",
                    layout.label(),
                    device.cubes
                );
            }
        }
    }
}
