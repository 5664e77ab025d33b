//! Accelerator-side memory system: DDR3L and the scratchpad.
//!
//! In the prototype, DDR3L backs the flash-mapped data sections of every
//! kernel (and absorbs most flash writes as an internal cache), while the
//! 8-bank SRAM scratchpad holds Flashvisor's administrative structures —
//! above all the page-group mapping table — and the message-queue entries,
//! serving them "as fast as an L2 cache" (§2.2).

use crate::spec::PlatformSpec;
use fa_sim::resource::SerializedResource;

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
    /// The DDR3L main memory, modelled as one bandwidth-serialized
    /// channel: staged inputs, offloaded kernel tables and buffered
    /// outputs queue for it in turn. Its capacity is not modelled;
    /// nothing allocates DDR3L space.
    pub ddr3l: SerializedResource,
    /// The scratchpad.
    pub scratchpad: Scratchpad,
}

impl MemorySystem {
    /// Builds the full memory system from a platform spec.
    pub fn new(spec: &PlatformSpec) -> Self {
        MemorySystem {
            ddr3l: SerializedResource::new(spec.ddr3l_bytes_per_sec),
            scratchpad: Scratchpad::new(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_sim::time::SimTime;

    fn spec() -> PlatformSpec {
        PlatformSpec::paper_prototype()
    }

    #[test]
    fn ddr3l_transfer_time_matches_bandwidth() {
        let mut m = MemorySystem::new(&spec());
        let res = m.ddr3l.reserve(SimTime::ZERO, 64 << 20);
        // 64 MiB at 6.4 GB/s ≈ 10.49 ms.
        let ms = res.end.saturating_since(res.start).as_secs_f64() * 1e3;
        assert!((ms - 10.49).abs() < 0.2, "took {ms} ms");
    }

    #[test]
    fn memory_system_bundles_prototype_parameters() {
        let mut m = MemorySystem::new(&spec());
        // The bundled DDR3L runs at the prototype's 6.4 GB/s.
        let res = m.ddr3l.reserve(SimTime::ZERO, 6_400_000);
        assert_eq!(res.end.saturating_since(res.start).as_ns(), 1_000_000);
        assert_eq!(m.ddr3l.utilization(res.end), 1.0);
    }
}
