//! Flash operation and interface timing.

use fa_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Timing parameters of the flash backbone.
///
/// Values follow the paper's prototype: 8 KB page reads take ≈81 µs,
/// programs ≈2.6 ms (TLC), and the NV-DDR2 (ONFi 3.0) channels run at
/// 200 MHz (Table 1), i.e. 400 MB/s of peak transfer bandwidth per channel
/// at double data rate. The FPGA controller adds a fixed per-command
/// overhead for tag-queue handling and clock-domain crossing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashTiming {
    /// Array-read latency for one page (cell sensing, tR).
    pub read_page: SimDuration,
    /// Program latency for one page (tPROG).
    pub program_page: SimDuration,
    /// Block erase latency (tBERS).
    pub erase_block: SimDuration,
    /// Channel transfer bandwidth in bytes per second (NV-DDR2 bus).
    pub channel_bytes_per_sec: f64,
    /// Fixed per-command controller overhead (tag queue + command decode).
    pub controller_overhead: SimDuration,
}

impl FlashTiming {
    /// The paper's prototype timing.
    pub fn paper_prototype() -> Self {
        FlashTiming {
            read_page: SimDuration::from_us(81),
            program_page: SimDuration::from_us(2_600),
            erase_block: SimDuration::from_ms(5),
            // 200 MHz NV-DDR2, 8-bit bus, double data rate ⇒ 400 MB/s.
            channel_bytes_per_sec: 400.0e6,
            controller_overhead: SimDuration::from_ns(500),
        }
    }

    /// A fast timing profile for unit tests (keeps simulated times small).
    pub fn fast_for_tests() -> Self {
        FlashTiming {
            read_page: SimDuration::from_us(1),
            program_page: SimDuration::from_us(4),
            erase_block: SimDuration::from_us(16),
            channel_bytes_per_sec: 1.0e9,
            controller_overhead: SimDuration::from_ns(10),
        }
    }

    /// Time to move one page worth of data across the channel bus.
    pub(crate) fn page_transfer(&self, page_bytes: usize) -> SimDuration {
        SimDuration::for_transfer(page_bytes as u64, self.channel_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies_match_table() {
        let t = FlashTiming::paper_prototype();
        assert_eq!(t.read_page.as_us_f64(), 81.0);
        assert_eq!(t.program_page.as_us_f64(), 2600.0);
        assert!(t.erase_block > t.program_page);
    }

    #[test]
    fn page_transfer_uses_channel_bandwidth() {
        let t = FlashTiming::paper_prototype();
        let xfer = t.page_transfer(8192);
        // 8 KiB at 400 MB/s ≈ 20.48 µs.
        assert!((xfer.as_us_f64() - 20.48).abs() < 0.1);
    }
}
