//! Table 1 configuration helpers.

use crate::backbone::FlashBackbone;
use crate::geometry::{FlashGeometry, GroupLayout};
use crate::timing::FlashTiming;

/// Erase endurance assumed for the prototype's TLC parts.
pub const TLC_ENDURANCE_CYCLES: u64 = 3_000;

/// Tag-queue depth of each FPGA channel controller.
pub const CHANNEL_TAG_QUEUE_DEPTH: usize = 16;

/// Aggregate SRIO bandwidth between the AMC and FMC cards: four lanes at
/// 5 Gbps each, ≈2.5 GB/s of payload bandwidth (§2.2).
pub const SRIO_BYTES_PER_SEC: f64 = 2.5e9;

/// Builds the flash backbone exactly as specified by Table 1 of the paper:
/// 16 TLC packages (32 dies), 32 GB, four NV-DDR2 channels, 81 µs reads and
/// 2.6 ms programs, behind a 4-lane SRIO front-end, in 64 KB (8-page) groups.
///
/// # Examples
///
/// ```
/// let backbone = fa_flash::backbone_spec_table1();
/// assert_eq!(backbone.geometry().total_bytes(), 32 * (1 << 30));
/// assert_eq!(backbone.geometry().channels, 4);
/// ```
pub fn backbone_spec_table1() -> FlashBackbone {
    FlashBackbone::new(
        GroupLayout {
            geometry: FlashGeometry::paper_prototype(),
            pages_per_group: 8,
        },
        FlashTiming::paper_prototype(),
        SRIO_BYTES_PER_SEC,
        CHANNEL_TAG_QUEUE_DEPTH,
        TLC_ENDURANCE_CYCLES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_backbone_matches_paper() {
        let b = backbone_spec_table1();
        assert_eq!(b.geometry().channels, 4);
        assert_eq!(b.geometry().total_dies(), 32);
        assert_eq!(b.timing().read_page.as_us_f64(), 81.0);
        assert_eq!(b.timing().program_page.as_us_f64(), 2600.0);
    }
}
