//! Accelerator-side memory system: DDR3L, the scratchpad, and the private
//! L1/L2 caches.
//!
//! In the prototype, DDR3L backs the flash-mapped data sections of every
//! kernel (and absorbs most flash writes as an internal cache), while the
//! 8-bank SRAM scratchpad holds Flashvisor's administrative structures —
//! above all the page-group mapping table — and the message-queue entries,
//! serving them "as fast as an L2 cache" (§2.2).

use crate::spec::PlatformSpec;
use fa_sim::resource::{Reservation, SerializedResource};
use fa_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// A private cache level description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Capacity in bytes.
    pub capacity: usize,
    /// Access latency in core cycles.
    pub latency_cycles: u32,
}

impl CacheSpec {
    /// The prototype's 64 KB L1.
    fn l1_prototype() -> Self {
        CacheSpec {
            capacity: 64 * 1024,
            latency_cycles: 2,
        }
    }

    /// The prototype's 512 KB L2.
    fn l2_prototype() -> Self {
        CacheSpec {
            capacity: 512 * 1024,
            latency_cycles: 10,
        }
    }
}

/// The DDR3L main memory of the accelerator.
///
/// Modelled as a bandwidth-serialized device with a fixed capacity; the
/// Flashvisor maps kernel data sections here, so capacity pressure is what
/// forces applications to be split into multiple kernels on conventional
/// accelerators (§3).
#[derive(Debug, Clone)]
pub struct Ddr3l {
    capacity: usize,
    allocated: usize,
    channel: SerializedResource,
}

impl Ddr3l {
    /// Creates a DDR3L device from the platform spec.
    pub(crate) fn new(spec: &PlatformSpec) -> Self {
        Ddr3l {
            capacity: spec.ddr3l_bytes,
            allocated: 0,
            channel: SerializedResource::new("ddr3l", spec.ddr3l_bytes_per_sec),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.allocated
    }

    /// Reserves `bytes` of capacity, returning the base offset or `None`
    /// when the device is full.
    pub fn allocate(&mut self, bytes: usize) -> Option<u64> {
        if bytes > self.available() {
            return None;
        }
        let base = self.allocated as u64;
        self.allocated += bytes;
        Some(base)
    }

    /// Releases `bytes` of capacity (bump-style accounting: only totals are
    /// tracked, which is sufficient for the capacity-pressure experiments).
    pub fn free(&mut self, bytes: usize) {
        self.allocated = self.allocated.saturating_sub(bytes);
    }

    /// Schedules a transfer of `bytes` through the DDR3L channel.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        self.channel.reserve(now, bytes)
    }

    /// Bytes moved through the device so far.
    pub fn bytes_moved(&self) -> u64 {
        self.channel.bytes_moved()
    }

    /// Busy fraction up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.channel.utilization(now)
    }
}

/// The 8-bank SRAM scratchpad that holds Flashvisor's mapping table.
///
/// It models no timing: mapping lookups are charged as Flashvisor CPU
/// time. The handle stays because `Flashvisor::{read_section,
/// write_section}` take one, and perfbench's churn workload builds one
/// with [`Scratchpad::new`] to pass in.
#[derive(Debug, Clone)]
pub struct Scratchpad;

impl Scratchpad {
    /// Creates the scratchpad from the platform spec.
    pub fn new(_spec: &PlatformSpec) -> Self {
        Scratchpad
    }
}

/// Convenience bundle of the accelerator memory system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// The DDR3L device.
    pub ddr3l: Ddr3l,
    /// The scratchpad.
    pub scratchpad: Scratchpad,
    /// L1 description (used by the energy model and reports).
    pub l1: CacheSpec,
    /// L2 description.
    pub l2: CacheSpec,
}

impl MemorySystem {
    /// Builds the full memory system from a platform spec.
    pub fn new(spec: &PlatformSpec) -> Self {
        MemorySystem {
            ddr3l: Ddr3l::new(spec),
            scratchpad: Scratchpad::new(spec),
            l1: CacheSpec {
                capacity: spec.l1_bytes,
                latency_cycles: CacheSpec::l1_prototype().latency_cycles,
            },
            l2: CacheSpec {
                capacity: spec.l2_bytes,
                latency_cycles: CacheSpec::l2_prototype().latency_cycles,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlatformSpec {
        PlatformSpec::paper_prototype()
    }

    #[test]
    fn ddr3l_capacity_accounting() {
        let mut d = Ddr3l::new(&spec());
        assert_eq!(d.capacity(), 1 << 30);
        let a = d.allocate(512 << 20).unwrap();
        assert_eq!(a, 0);
        let b = d.allocate(256 << 20).unwrap();
        assert_eq!(b, 512 << 20);
        assert!(d.allocate(512 << 20).is_none());
        d.free(256 << 20);
        assert!(d.allocate(400 << 20).is_some());
    }

    #[test]
    fn ddr3l_transfer_time_matches_bandwidth() {
        let mut d = Ddr3l::new(&spec());
        let res = d.transfer(SimTime::ZERO, 64 << 20);
        // 64 MiB at 6.4 GB/s ≈ 10.49 ms.
        let ms = res.end.saturating_since(res.start).as_secs_f64() * 1e3;
        assert!((ms - 10.49).abs() < 0.2, "took {ms} ms");
        assert_eq!(d.bytes_moved(), 64 << 20);
    }

    #[test]
    fn memory_system_bundles_prototype_parameters() {
        let m = MemorySystem::new(&spec());
        assert_eq!(m.l1.capacity, 64 * 1024);
        assert_eq!(m.l2.capacity, 512 * 1024);
        assert_eq!(m.ddr3l.capacity(), 1 << 30);
    }
}
