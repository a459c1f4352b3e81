//! Host-side orchestration: mode switching, kernel programming and the
//! external-bus ledger, kept in one [`HostReport`] per launch sequence.
//!
//! pSyncPIM keeps the host DRAM controller in charge (paper §I): the host
//! replicates input-vector slices to banks and accumulates partial outputs
//! over the *external* interface (256 GB/s — an 8× gap to the 2 TB/s
//! internal bandwidth, which is why the §V compression matters), switches
//! modes around every kernel, and programs control registers. The paper's
//! reported kernel times include these overheads (§VII-A); so do ours:
//! a kernel folds its controller's report into `KernelRun::host_s`, beside
//! the engine-reported kernel time.

use psim_dram::{Mode, ModeController};
use serde::{Deserialize, Serialize};

/// Accumulated host-side accounting for one kernel's launch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostReport {
    /// Seconds spent on external transfers (vector broadcast, partial
    /// output accumulation, result collection).
    pub external_s: f64,
    /// Seconds spent switching modes and programming kernels.
    pub control_s: f64,
    /// Bytes moved over the external interface.
    pub external_bytes: u64,
    /// Mode switches performed.
    pub mode_switches: u64,
}

/// The host controller: owns the mode state machine and the ledger of
/// its external-bus traffic.
#[derive(Debug, Clone)]
pub struct HostController {
    modes: ModeController,
    /// External bandwidth in bytes/second (Table VII: 256 GB/s).
    bandwidth: f64,
    /// Per-transfer latency floor in seconds: a host round trip through
    /// the memory controller stack, including the SB-mode excursion that
    /// bank-resident reads (e.g. SpTRSV level scales) require.
    latency_s: f64,
    report: HostReport,
    /// Seconds one mode-switch command sequence takes (8 MRS at 1 GHz).
    switch_s: f64,
}

impl HostController {
    /// A host attached over a bus of the given external bandwidth.
    #[must_use]
    pub fn new(external_bw: f64) -> Self {
        HostController {
            modes: ModeController::new(),
            bandwidth: external_bw,
            latency_s: 400e-9,
            report: HostReport::default(),
            switch_s: psim_dram::mode::SWITCH_SEQUENCE_LEN as f64 * 1e-9,
        }
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.modes.mode()
    }

    /// Route to a mode, accounting switch time.
    pub fn switch_to(&mut self, to: Mode) {
        let before = self.modes.switches();
        let _cmds = self.modes.route_to(to);
        let switches = self.modes.switches() - before;
        self.report.mode_switches += switches;
        self.report.control_s += switches as f64 * self.switch_s;
    }

    /// Broadcast (host → banks) over the external bus, e.g. replicated
    /// input-vector slices.
    pub fn broadcast(&mut self, bytes: usize) {
        self.transfer(bytes);
    }

    /// Collect (banks → host), e.g. partial outputs for accumulation.
    pub fn collect(&mut self, bytes: usize) {
        self.transfer(bytes);
    }

    /// Account one external transfer: the latency floor plus the bytes at
    /// bus bandwidth. An empty transfer costs nothing.
    fn transfer(&mut self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        self.report.external_s += self.latency_s + bytes as f64 / self.bandwidth;
        self.report.external_bytes += bytes as u64;
    }

    /// Account kernel-programming time (`n` MRS commands at 1 GHz).
    pub fn program_kernel(&mut self, instructions: usize) {
        self.report.control_s += instructions as f64 * 1e-9;
    }

    /// Snapshot the accumulated report.
    #[must_use]
    pub fn report(&self) -> HostReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_accounts_bytes_and_time() {
        let mut host = HostController::new(256e9);
        host.collect(256_000_000);
        let r = host.report();
        assert!((r.external_s - (1e-3 + 400e-9)).abs() < 1e-9);
        assert_eq!(r.external_bytes, 256_000_000);
        host.broadcast(0);
        assert_eq!(host.report(), r, "an empty transfer costs nothing");
    }

    #[test]
    fn host_accumulates_phases() {
        let mut host = HostController::new(256e9);
        host.switch_to(Mode::AbPim); // two transitions
        host.broadcast(1_000_000);
        host.collect(500_000);
        host.program_kernel(8);
        host.switch_to(Mode::Sb); // two more
        let r = host.report();
        assert_eq!(r.mode_switches, 4);
        assert_eq!(r.external_bytes, 1_500_000);
        assert!(r.control_s > 0.0 && r.external_s > 0.0);
    }
}
