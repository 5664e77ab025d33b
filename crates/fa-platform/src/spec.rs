//! The Table 1 hardware specification.

use serde::{Deserialize, Serialize};

/// Static description of the accelerator platform (Table 1 of the paper).
///
/// # Examples
///
/// ```
/// let spec = fa_platform::PlatformSpec::paper_prototype();
/// assert_eq!(spec.lwp_count, 8);
/// assert_eq!(spec.lwp_freq_hz, 1_000_000_000);
/// assert!(spec.worker_lwps() == 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of lightweight processors.
    pub lwp_count: usize,
    /// LWP clock frequency in Hz (1 GHz in the prototype).
    pub lwp_freq_hz: u64,
    /// Typical active power of one LWP in watts.
    pub lwp_power_w: f64,
    /// Per-LWP L1 cache size in bytes.
    pub l1_bytes: usize,
    /// Per-LWP L2 cache size in bytes.
    pub l2_bytes: usize,
    /// Scratchpad capacity in bytes (4 MB, 8 banks).
    pub scratchpad_bytes: usize,
    /// Number of scratchpad banks.
    pub scratchpad_banks: usize,
    /// Scratchpad aggregate bandwidth in bytes/second (≈16 GB/s).
    pub scratchpad_bytes_per_sec: f64,
    /// DDR3L capacity in bytes (1 GB).
    pub ddr3l_bytes: usize,
    /// DDR3L bandwidth in bytes/second (6.4 GB/s).
    pub ddr3l_bytes_per_sec: f64,
    /// DDR3L typical power in watts.
    pub ddr3l_power_w: f64,
    /// Tier-1 (streaming) crossbar bandwidth in bytes/second (16 GB/s).
    pub tier1_bytes_per_sec: f64,
    /// Tier-2 (peripheral) crossbar bandwidth in bytes/second (5.2 GB/s).
    pub tier2_bytes_per_sec: f64,
    /// PCIe bandwidth toward the host in bytes/second (v2.0 x2 ≈ 1 GB/s).
    pub pcie_bytes_per_sec: f64,
    /// PCIe interface power in watts.
    pub pcie_power_w: f64,
    /// Flash backbone (SSD) typical power in watts.
    pub flash_power_w: f64,
    /// One-way hardware message-queue latency in nanoseconds.
    pub msgq_latency_ns: u64,
    /// Number of LWPs reserved for system roles (Flashvisor + Storengine).
    pub system_lwps: usize,
}

impl PlatformSpec {
    /// The prototype configuration from Table 1.
    pub fn paper_prototype() -> Self {
        PlatformSpec {
            lwp_count: 8,
            lwp_freq_hz: 1_000_000_000,
            lwp_power_w: 0.8,
            l1_bytes: 64 * 1024,
            l2_bytes: 512 * 1024,
            scratchpad_bytes: 4 * 1024 * 1024,
            scratchpad_banks: 8,
            scratchpad_bytes_per_sec: 16.0e9,
            ddr3l_bytes: 1024 * 1024 * 1024,
            ddr3l_bytes_per_sec: 6.4e9,
            ddr3l_power_w: 0.7,
            tier1_bytes_per_sec: 16.0e9,
            tier2_bytes_per_sec: 5.2e9,
            pcie_bytes_per_sec: 1.0e9,
            pcie_power_w: 0.17,
            flash_power_w: 11.0,
            msgq_latency_ns: 200,
            system_lwps: 2,
        }
    }

    /// Number of LWPs available to execute user kernels (total minus
    /// Flashvisor and Storengine).
    pub fn worker_lwps(&self) -> usize {
        self.lwp_count.saturating_sub(self.system_lwps)
    }
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec::paper_prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_table1() {
        let s = PlatformSpec::paper_prototype();
        assert_eq!(s.lwp_count, 8);
        assert_eq!(s.l1_bytes, 64 * 1024);
        assert_eq!(s.l2_bytes, 512 * 1024);
        assert_eq!(s.scratchpad_bytes, 4 << 20);
        assert_eq!(s.ddr3l_bytes, 1 << 30);
        assert!((s.ddr3l_bytes_per_sec - 6.4e9).abs() < 1.0);
        assert!((s.lwp_power_w - 0.8).abs() < 1e-9);
        assert_eq!(s.worker_lwps(), 6);
        assert_eq!(s.lwp_freq_hz, 1_000_000_000);
    }
}
