//! The host storage software stack.
//!
//! In the conventional system every byte between the SSD and the
//! accelerator crosses the discrete software stacks of the two devices
//! (§2.1): the I/O runtime and file system on the storage side, and the
//! accelerator runtime plus driver on the accelerator side. Each stack
//! charges host-CPU time per request, and because OS-kernel modules cannot
//! touch user memory directly, payloads are copied repeatedly inside host
//! DRAM on the way through.

use crate::config::HostSpec;
use fa_sim::resource::{FifoServer, SerializedResource};
use fa_sim::time::{SimDuration, SimTime};

/// Outcome of pushing a payload through the host storage stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackTransfer {
    /// When the stack started working on the payload.
    pub start: SimTime,
    /// When the payload (all requests, all copies) was ready on the other
    /// side.
    pub end: SimTime,
    /// Host-CPU busy time consumed.
    pub cpu_busy: SimDuration,
    /// Bytes moved through host DRAM (payload × copies).
    pub dram_bytes: u64,
    /// Number of I/O requests the payload was split into.
    pub requests: u64,
}

/// The host CPU + DRAM portion of the storage and accelerator stacks.
#[derive(Debug, Clone)]
pub struct HostStorageStack {
    spec: HostSpec,
    cpu: FifoServer,
    dram: SerializedResource,
}

impl HostStorageStack {
    /// Creates an idle stack model.
    pub(crate) fn new(spec: HostSpec) -> Self {
        HostStorageStack {
            spec,
            cpu: FifoServer::new(),
            dram: SerializedResource::new(spec.dram_bytes_per_sec),
        }
    }

    /// Pushes `bytes` through the storage stack at `now`: request-granular
    /// CPU overhead plus the configured number of copies through host DRAM.
    pub(crate) fn transfer(&mut self, now: SimTime, bytes: u64) -> StackTransfer {
        if bytes == 0 {
            return StackTransfer {
                start: now,
                end: now,
                cpu_busy: SimDuration::ZERO,
                dram_bytes: 0,
                requests: 0,
            };
        }
        let requests = bytes.div_ceil(self.spec.io_request_bytes.max(1));
        // Per-request stack processing on the host CPU (serialized — the
        // storage stack executes on one core per file stream).
        let cpu_time = self.spec.stack_cpu_per_request * requests;
        let cpu_res = self.cpu.serve(now, cpu_time);
        // Redundant copies through host DRAM.
        let copy_bytes = bytes * self.spec.host_copies as u64;
        let dram_res = self.dram.reserve(cpu_res.start, copy_bytes);
        StackTransfer {
            start: now,
            end: cpu_res.end.max(dram_res.end),
            cpu_busy: cpu_time,
            dram_bytes: copy_bytes,
            requests,
        }
    }

    /// Charges accelerator-runtime CPU time for one offload chunk.
    pub(crate) fn runtime_overhead(&mut self, now: SimTime) -> SimTime {
        self.cpu.serve(now, self.spec.runtime_cpu_per_chunk).end
    }

    /// Host CPU busy fraction up to `now`.
    pub(crate) fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> HostStorageStack {
        HostStorageStack::new(HostSpec::xeon_host())
    }

    #[test]
    fn transfer_splits_into_requests_and_copies() {
        let mut s = stack();
        let t = s.transfer(SimTime::ZERO, 1 << 20); // 1 MiB
        assert_eq!(t.requests, 8); // 128 KB requests
        assert_eq!(t.dram_bytes, 2 << 20); // two copies
        assert_eq!(t.cpu_busy, SimDuration::from_us(40) * 8);
        assert!(t.end > t.start);
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let mut s = stack();
        let t = s.transfer(SimTime::from_us(5), 0);
        assert_eq!(t.start, t.end);
        assert_eq!(t.requests, 0);
        assert_eq!(s.cpu_utilization(SimTime::from_us(5)), 0.0);
    }

    #[test]
    fn stack_cpu_serializes_across_transfers() {
        let mut s = stack();
        let a = s.transfer(SimTime::ZERO, 512 * 1024);
        let b = s.transfer(SimTime::ZERO, 512 * 1024);
        assert!(b.end > a.end);
        assert_eq!(a.requests + b.requests, 8);
        // The second transfer's four requests queue behind the first's.
        assert!(b.end >= SimTime::from_us(320));
    }

    #[test]
    fn runtime_overhead_occupies_the_cpu() {
        let mut s = stack();
        let end = s.runtime_overhead(SimTime::ZERO);
        assert_eq!(end, SimTime::from_us(60));
        assert!(s.cpu_utilization(end) > 0.99);
    }

    #[test]
    fn small_transfers_still_pay_one_request() {
        let mut s = stack();
        let t = s.transfer(SimTime::ZERO, 100);
        assert_eq!(t.requests, 1);
    }
}
