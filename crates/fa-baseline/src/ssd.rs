//! The discrete NVMe SSD of the conventional system.

use crate::config::SsdSpec;
use fa_sim::resource::{FifoServer, Reservation};
use fa_sim::time::{SimDuration, SimTime};

/// A bandwidth/latency model of a high-performance PCIe NVMe SSD.
///
/// The device serves reads and writes through a single internal data path
/// (flash channels behind the controller); each command pays a fixed device
/// latency plus the payload transfer at the direction-specific bandwidth.
#[derive(Debug, Clone)]
pub struct NvmeSsd {
    spec: SsdSpec,
    device: FifoServer,
}

impl NvmeSsd {
    /// Creates an idle SSD.
    pub(crate) fn new(spec: SsdSpec) -> Self {
        NvmeSsd {
            spec,
            device: FifoServer::new(),
        }
    }

    /// Issues a read of `bytes`, returning its service window.
    pub(crate) fn read(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let service = self.spec.command_latency
            + SimDuration::for_transfer(bytes, self.spec.read_bytes_per_sec);
        self.device.serve(now, service)
    }

    /// Issues a write of `bytes`, returning its service window.
    pub(crate) fn write(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let service = self.spec.command_latency
            + SimDuration::for_transfer(bytes, self.spec.write_bytes_per_sec);
        self.device.serve(now, service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bandwidth_dominates_large_transfers() {
        let mut ssd = NvmeSsd::new(SsdSpec::nvme_750());
        let res = ssd.read(SimTime::ZERO, 220 << 20); // 220 MiB
        let secs = res.end.saturating_since(res.start).as_secs_f64();
        // ≈ 0.105 s at 2.2 GB/s plus 20 µs of latency.
        assert!((secs - 0.1048).abs() < 0.01, "took {secs}s");
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let mut a = NvmeSsd::new(SsdSpec::nvme_750());
        let mut b = NvmeSsd::new(SsdSpec::nvme_750());
        let r = a.read(SimTime::ZERO, 64 << 20);
        let w = b.write(SimTime::ZERO, 64 << 20);
        assert!(w.end > r.end);
    }

    #[test]
    fn small_requests_pay_the_command_latency() {
        let mut ssd = NvmeSsd::new(SsdSpec::nvme_750());
        let res = ssd.read(SimTime::ZERO, 4096);
        assert!(res.end.saturating_since(res.start) >= SimDuration::from_us(20));
    }

    #[test]
    fn commands_serialize_on_the_device() {
        let mut ssd = NvmeSsd::new(SsdSpec::nvme_750());
        let a = ssd.read(SimTime::ZERO, 1 << 20);
        let b = ssd.write(SimTime::ZERO, 1 << 20);
        assert_eq!(b.start, a.end);
    }
}
