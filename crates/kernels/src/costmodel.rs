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
//! Everything the model reads (partition shapes, level schedules, stream
//! lengths) is O(nnz) to compute, so estimating a kernel costs about as
//! much as *placing* it — orders of magnitude less than cycle-walking it.
//! The constants below are calibrated against the cycle engine; the
//! `calibration` test (`crates/kernels/tests/calibration.rs`) fails when
//! any kernel's mean absolute percentage error drifts past its bound.

use crate::device::{triple_pairs, PimDevice};
use psim_sparse::partition::{BankPartition, PartitionConfig};
use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{BlockPlan, BlockStep, Coo, Csc, Layout, LevelSchedule, Precision};

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

    fn merge(&mut self, other: CostEstimate) {
        self.cycles += other.cycles;
        self.phases += other.phases;
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
    /// Row crossings per pass *within* a region (a single-region shape
    /// never precharges at pass boundaries, but streaming through a region
    /// crosses to a new row every `row_bytes / stride` passes).
    row_crossings_per_round: f64,
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
    row_crossings_per_round: 0.0,
    pu_round_cycles: 46,
};

/// Dense BLAS-1 pass shapes (see the `CostModel` wrappers for the slot
/// layouts they mirror).
const OPS_AXPY: &[Op] = &[rd(0), rd(1), wr(1)];
const OPS_SCAL: &[Op] = &[rd(0), wr(0)];
const OPS_VV: &[Op] = &[rd(0), rd(1), wr(2)];
const OPS_DOT: &[Op] = &[rd(0), rd(1)];

/// DRAM cycles per PU cycle (the PU runs at 250 MHz against the 1 GHz
/// command clock) — mirrors the engine's constant.
const DRAM_CYCLES_PER_PU_CYCLE: u64 = 4;

/// O(nnz) analytical cost model for a device configuration.
///
/// Build once per device (cheap — copies a handful of timing fields) and
/// reuse across estimates.
#[derive(Debug, Clone)]
pub struct CostModel {
    timing: psim_dram::Timing,
    row_bytes: usize,
    banks_per_cube: usize,
    cubes: usize,
}

impl CostModel {
    /// Model for a device.
    #[must_use]
    pub fn new(device: &PimDevice) -> Self {
        CostModel {
            timing: device.hbm.timing,
            row_bytes: device.hbm.row_bytes(),
            banks_per_cube: device.hbm.total_banks(),
            cubes: device.cubes,
        }
    }

    /// Steady-state bus cycles of one schedule pass, by micro-simulating
    /// the pass against the exact bank timing rules (tRAS/tRTP/tWR bound
    /// the precharge, tRCD/tWTR/RL the columns, tCCD_L the pacing). Three
    /// passes are simulated and the last-to-second delta taken, so the
    /// cold first activation does not leak into the per-pass figure.
    fn round_period(&self, shape: &PhaseShape) -> f64 {
        const NEVER: i64 = i64::MIN / 4;
        let t = &self.timing;
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
        let t = &self.timing;
        // Mode switch in, CRF programming, mode switch out: MRS commands,
        // bus-limited to two per cycle.
        let setup =
            (2 * psim_dram::mode::SWITCH_SEQUENCE_LEN as u64 + shape.program_len).div_ceil(2);
        let teardown = (2 * psim_dram::mode::SWITCH_SEQUENCE_LEN as u64).div_ceil(2) + t.t_rp;
        // Amortized in-region row crossings (single-region streams only):
        // the write tail, precharge and re-activation replace one tCCD gap.
        let crossing = (t.wl + t.t_wr + t.t_rp + t.t_rcd).saturating_sub(t.t_ccd_l) as f64;
        let bus = self.round_period(shape) + shape.row_crossings_per_round * crossing;
        // Lockstep back-pressure: the slowest PU's VALU time per pass; the
        // pass costs the slower of the bus and the PU.
        let per_round = bus.max((shape.pu_round_cycles * DRAM_CYCLES_PER_PU_CYCLE) as f64);
        let body = (rounds * per_round) as u64;
        let sub = setup + body + teardown;
        // Refresh tax: one tRFC stall every tREFI of busy time.
        sub + sub / t.t_refi * t.t_rfc
    }

    /// Effective schedule passes of the batched sparse stream for the
    /// longest per-bank stream of `max_nnz` entries: one interleaved pair
    /// per pass over `triple_pairs` pairs (sentinel included), minus the
    /// half pass the engine saves when CEXIT trips mid-schedule.
    fn batched_rounds(max_nnz: usize, lanes: usize) -> f64 {
        triple_pairs(max_nnz, lanes) as f64 - 0.5
    }

    /// SpMV `y = A x`: partition exactly as [`crate::SpmvPim`] does, then
    /// cost each wave by its slowest cube.
    #[must_use]
    pub fn spmv(&self, a: &Coo, precision: Precision) -> CostEstimate {
        self.spmv_layout(a, precision, Layout::baseline())
    }

    /// SpMV from an explicit [`Layout`]: the format's execution stream
    /// (blocked formats pay their fill as extra entries), the layout's
    /// scheme and placement. This is the tuner's per-candidate score —
    /// the per-layout terms enter exactly as they do in the kernels: the
    /// expanded stream changes `max_nnz` per bank, the scheme changes the
    /// cut, the policy changes placement.
    #[must_use]
    pub fn spmv_layout(&self, a: &Coo, precision: Precision, layout: Layout) -> CostEstimate {
        let expanded = layout.format.expand(a);
        let a = expanded.as_ref().unwrap_or(a);
        let nbanks = self.banks_per_cube * self.cubes;
        let part = BankPartition::build(
            a,
            PartitionConfig {
                num_banks: nbanks,
                row_bytes: self.row_bytes,
                precision,
                policy: layout.policy,
                compress: true,
                scheme: layout.scheme,
            },
        );
        // Per-bank nnz queues; wave w takes each bank's w-th submatrix.
        let mut per_bank: Vec<Vec<usize>> = vec![Vec::new(); nbanks];
        for s in part.submatrices() {
            per_bank[s.bank].push(s.nnz());
        }
        let waves = per_bank.iter().map(Vec::len).max().unwrap_or(0);
        let lanes = precision.lanes();

        let mut est = CostEstimate::default();
        for wave in 0..waves {
            let mut wave_cycles = 0u64;
            for cube in 0..self.cubes {
                let lo = cube * self.banks_per_cube;
                let max_nnz = (0..self.banks_per_cube)
                    .filter_map(|b| per_bank[lo + b].get(wave).copied())
                    .max()
                    .unwrap_or(0);
                if max_nnz == 0 {
                    continue;
                }
                let rounds = Self::batched_rounds(max_nnz, lanes);
                // Cubes run in parallel within a wave.
                wave_cycles = wave_cycles.max(self.phase_cycles(&BATCHED_SPARSE, rounds));
            }
            if wave_cycles > 0 {
                est.add_phase(wave_cycles);
            }
        }
        est
    }

    /// SpTRSV `T x = b`: walk the same block plan and level schedule as
    /// [`crate::SptrsvPim`], costing each level batch as one launch of the
    /// batched stream and each off-diagonal update as an SpMV.
    #[must_use]
    pub fn sptrsv(&self, t: &UnitTriangular, precision: Precision) -> CostEstimate {
        let per_bank_row = self.row_bytes / precision.bytes();
        let max_block = per_bank_row * self.banks_per_cube;
        let level_chunk = per_bank_row;
        let plan = BlockPlan::build(t.triangle(), t.dim(), max_block);
        let lanes = precision.lanes();
        let nbanks = self.banks_per_cube;

        let mut est = CostEstimate::default();
        for step in plan.steps() {
            match *step {
                BlockStep::Solve { lo, hi } => {
                    let m = hi - lo;
                    let block = t.diagonal_block(lo, hi);
                    let sched = LevelSchedule::analyze(&block);
                    let stripe = m.div_ceil(nbanks).max(1);
                    let csc = Csc::from(block.strict());
                    // Per-bank stream lengths, rebuilt per level batch
                    // exactly as the solver buckets entries by owner row.
                    let mut bank_nnz = vec![0usize; nbanks];
                    for level in sched.iter() {
                        for chunk in level.chunks(level_chunk) {
                            bank_nnz.iter_mut().for_each(|v| *v = 0);
                            for &c in chunk {
                                for (r, _) in csc.col(c) {
                                    bank_nnz[r / stripe] += 1;
                                }
                            }
                            let max_nnz = bank_nnz.iter().copied().max().unwrap_or(0);
                            if max_nnz == 0 {
                                continue;
                            }
                            let rounds = Self::batched_rounds(max_nnz, lanes);
                            est.add_phase(self.phase_cycles(&BATCHED_SPARSE, rounds));
                        }
                    }
                }
                BlockStep::Update {
                    row_lo,
                    row_hi,
                    col_lo,
                    col_hi,
                } => {
                    let m = t.strict().submatrix(row_lo, row_hi, col_lo, col_hi);
                    if m.nnz() == 0 {
                        continue;
                    }
                    est.merge(self.spmv(&m, precision));
                }
            }
        }
        est
    }

    /// Dense BLAS-1 stripe kernel of `n` elements with the given schedule
    /// shape (see the `kind`-specific wrappers below).
    fn blas1(&self, shape: PhaseShape, n: usize, precision: Precision) -> CostEstimate {
        let lanes = precision.lanes();
        let sl = n
            .div_ceil(self.banks_per_cube * self.cubes)
            .div_ceil(lanes)
            .max(1)
            * lanes;
        let rounds = (sl / lanes) as f64;
        let mut est = CostEstimate::default();
        est.add_phase(self.phase_cycles(&shape, rounds));
        est
    }

    /// DAXPY `y ← αx + y`.
    #[must_use]
    pub fn axpy(&self, n: usize, precision: Precision) -> CostEstimate {
        // Slots 0 (x read), 1 (y read), 4 (y write): the store lands in
        // the already-open y row, so two activations per pass.
        self.blas1(
            PhaseShape {
                program_len: 6,
                ops: OPS_AXPY,
                row_crossings_per_round: 0.0,
                pu_round_cycles: 8,
            },
            n,
            precision,
        )
    }

    /// DSCAL `x ← αx`.
    #[must_use]
    pub fn scal(&self, n: usize, precision: Precision) -> CostEstimate {
        // Slots 0/2 share the x region: the row stays open across passes,
        // precharging only when the stream crosses into the next row.
        let per_row = (self.row_bytes / (precision.lanes() * precision.bytes())).max(1);
        self.blas1(
            PhaseShape {
                program_len: 4,
                ops: OPS_SCAL,
                row_crossings_per_round: 1.0 / per_row as f64,
                pu_round_cycles: 6,
            },
            n,
            precision,
        )
    }

    /// Element-wise `z = x (op) y`.
    #[must_use]
    pub fn vv(&self, n: usize, precision: Precision) -> CostEstimate {
        // Slots 0 (x), 1 (y), 3 (z): three regions per pass.
        self.blas1(
            PhaseShape {
                program_len: 6,
                ops: OPS_VV,
                row_crossings_per_round: 0.0,
                pu_round_cycles: 8,
            },
            n,
            precision,
        )
    }

    /// DDOT `x · y` (SRF-accumulated; host reduces per-bank partials).
    #[must_use]
    pub fn dot(&self, n: usize, precision: Precision) -> CostEstimate {
        // Slots 0 (x), 1 (y): one hop out, one hop back per pass.
        self.blas1(
            PhaseShape {
                program_len: 6,
                ops: OPS_DOT,
                row_crossings_per_round: 0.0,
                pu_round_cycles: 8,
            },
            n,
            precision,
        )
    }

    /// DNRM2 — the DDOT program against a single operand region.
    #[must_use]
    pub fn norm2(&self, n: usize, precision: Precision) -> CostEstimate {
        self.dot(n, precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PimDevice, SpmvPim};
    use psim_sparse::gen;

    #[test]
    fn estimates_are_monotone_in_problem_size() {
        let model = CostModel::new(&PimDevice::tiny(2));
        let small = model.spmv(&gen::rmat(64, 3, 7), Precision::Fp64);
        let large = model.spmv(&gen::rmat(512, 8, 7), Precision::Fp64);
        assert!(small.cycles > 0);
        assert!(large.cycles > small.cycles);
        assert!(model.axpy(4096, Precision::Fp64).cycles > model.axpy(64, Precision::Fp64).cycles);
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
    fn sptrsv_estimate_sees_level_serialization() {
        // Two SpTRSV operands with identical nnz: a pure dependency chain
        // (n levels, one launch each) and a star (every row depends only
        // on x[0] — one level, one launch). An operand-size proxy prices
        // them identically; the model walks the level schedule and must
        // see the chain's serialization.
        use psim_sparse::triangular::Triangle;
        let n = 64usize;
        let mut chain = Coo::new(n, n);
        let mut star = Coo::new(n, n);
        for i in 1..n {
            chain.push(i as u32, i as u32 - 1, 0.5);
            star.push(i as u32, 0, 0.5);
        }
        let model = CostModel::new(&PimDevice::tiny(2));
        let cycles = |strict: Coo| {
            let t = UnitTriangular::from_strict(Triangle::Lower, strict).unwrap();
            model.sptrsv(&t, Precision::Fp64).cycles
        };
        let (c, s) = (cycles(chain), cycles(star));
        assert!(
            c > s * 10,
            "the model must punish level serialization: chain {c} vs star {s}"
        );
    }

    #[test]
    fn phase_count_matches_wave_structure() {
        let device = PimDevice::tiny(2);
        let model = CostModel::new(&device);
        let a = gen::banded_fem(1400, 12, 6, 7);
        let x = gen::dense_vector(1400, 5);
        let r = SpmvPim::new(device, Precision::Fp64).run(&a, &x).unwrap();
        let est = model.spmv(&a, Precision::Fp64);
        assert_eq!(est.phases, r.run.phases, "waves must match the runner");
    }
}
