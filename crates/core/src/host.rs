//! Host-side orchestration: the external-bus ledger, kept in one
//! [`HostReport`] per launch sequence.
//!
//! pSyncPIM keeps the host DRAM controller in charge (paper §I): the host
//! replicates input-vector slices to banks and accumulates partial outputs
//! over the *external* interface (256 GB/s — an 8× gap to the 2 TB/s
//! internal bandwidth, which is why the §V compression matters). A kernel
//! folds its controller's report into `KernelRun::host_s`, beside the
//! engine-reported kernel time. Mode switches and kernel programming are
//! not booked here: the engine issues them as MRS commands on the
//! simulated bus, so they count once, in kernel time (§VII-A).

use serde::{Deserialize, Serialize};

/// Accumulated host-side accounting for one kernel's launch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostReport {
    /// Seconds spent on external transfers (vector broadcast, partial
    /// output accumulation, result collection).
    pub external_s: f64,
    /// Bytes moved over the external interface.
    pub external_bytes: u64,
}

/// The host controller: the ledger of its external-bus traffic.
#[derive(Debug, Clone)]
pub struct HostController {
    /// External bandwidth in bytes/second (Table VII: 256 GB/s).
    bandwidth: f64,
    /// Per-transfer latency floor in seconds: a host round trip through
    /// the memory controller stack, including the SB-mode excursion that
    /// bank-resident reads (e.g. SpTRSV level scales) require.
    latency_s: f64,
    report: HostReport,
}

impl HostController {
    /// A host attached over a bus of the given external bandwidth.
    #[must_use]
    pub fn new(external_bw: f64) -> Self {
        HostController {
            bandwidth: external_bw,
            latency_s: 400e-9,
            report: HostReport::default(),
        }
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
}
