//! Configuration of the conventional baseline system.

use fa_energy::PowerSpec;
use fa_platform::PlatformSpec;
use fa_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the discrete NVMe SSD (an Intel SSD 750-class device, as
/// used in §3.1 and §5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdSpec {
    /// Sequential read bandwidth in bytes per second.
    pub read_bytes_per_sec: f64,
    /// Sequential write bandwidth in bytes per second.
    pub write_bytes_per_sec: f64,
    /// Fixed device latency added to every command.
    pub command_latency: SimDuration,
}

impl SsdSpec {
    /// An Intel 750-class PCIe NVMe SSD.
    pub(crate) fn nvme_750() -> Self {
        SsdSpec {
            read_bytes_per_sec: 2.2e9,
            write_bytes_per_sec: 0.9e9,
            command_latency: SimDuration::from_us(20),
        }
    }
}

/// Parameters of the host side of the conventional system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Host DRAM bandwidth in bytes per second (DDR4, single channel pair).
    pub dram_bytes_per_sec: f64,
    /// CPU time the storage stack (I/O runtime, file system, block layer,
    /// NVMe driver) spends per I/O request.
    pub stack_cpu_per_request: SimDuration,
    /// CPU time the accelerator runtime and driver spend per offload chunk.
    pub runtime_cpu_per_chunk: SimDuration,
    /// Size of one storage I/O request.
    pub io_request_bytes: u64,
    /// Number of redundant copies a payload makes inside host DRAM on its
    /// way between the SSD and the accelerator (user↔kernel for the file
    /// read plus user↔driver for the accelerator runtime, §2.1).
    pub host_copies: u32,
}

impl HostSpec {
    /// A Xeon E5-2620 v3-class host with 32 GB of DDR4 (§5).
    pub(crate) fn xeon_host() -> Self {
        HostSpec {
            dram_bytes_per_sec: 20.0e9,
            // Synchronous file I/O keeps the issuing core busy for most of
            // the request: syscall entry, file-system and block layers,
            // NVMe doorbells, completion handling, and the copy-out.
            stack_cpu_per_request: SimDuration::from_us(40),
            runtime_cpu_per_chunk: SimDuration::from_us(60),
            io_request_bytes: 128 * 1024,
            host_copies: 2,
        }
    }
}

/// Full configuration of the conventional baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// The accelerator platform (same silicon as FlashAbacus, Table 1).
    pub platform: PlatformSpec,
    /// Power figures.
    pub power: PowerSpec,
    /// The discrete SSD.
    pub ssd: SsdSpec,
    /// The host.
    pub host: HostSpec,
    /// Number of LWPs the OpenMP runtime uses (all eight by default; the
    /// Figure 3 sensitivity study sweeps this).
    pub active_lwps: usize,
    /// Accelerator DRAM the runtime may fill per body-loop iteration.
    pub accel_buffer_bytes: u64,
}

impl BaselineConfig {
    /// The paper's conventional system: the Table 1 accelerator, all eight
    /// LWPs, an NVMe 750 SSD, and a Xeon host.
    pub fn paper_baseline() -> Self {
        BaselineConfig {
            platform: PlatformSpec::paper_prototype(),
            power: PowerSpec::paper_prototype(),
            ssd: SsdSpec::nvme_750(),
            host: HostSpec::xeon_host(),
            active_lwps: 8,
            accel_buffer_bytes: 512 << 20,
        }
    }

    /// A faster variant for unit tests (smaller I/O requests are not needed;
    /// only the buffer shrinks so chunking logic is exercised).
    pub fn tiny_for_tests() -> Self {
        BaselineConfig {
            accel_buffer_bytes: 1 << 20,
            ..Self::paper_baseline()
        }
    }

    /// The configuration with a different number of active LWPs (the
    /// Figure 3b/3c sweep).
    pub fn with_active_lwps(mut self, lwps: usize) -> Self {
        self.active_lwps = lwps.clamp(1, self.platform.lwp_count);
        self
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_section5() {
        let c = BaselineConfig::paper_baseline();
        assert_eq!(c.active_lwps, 8);
        assert!((c.ssd.read_bytes_per_sec - 2.2e9).abs() < 1.0);
        assert_eq!(c.host.io_request_bytes, 128 * 1024);
        assert_eq!(c.host.host_copies, 2);
    }

    #[test]
    fn lwp_sweep_is_clamped_to_the_platform() {
        let c = BaselineConfig::paper_baseline().with_active_lwps(0);
        assert_eq!(c.active_lwps, 1);
        let c = BaselineConfig::paper_baseline().with_active_lwps(99);
        assert_eq!(c.active_lwps, 8);
    }
}
