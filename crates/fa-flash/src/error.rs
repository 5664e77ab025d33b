//! Error type for flash backbone operations.

use crate::geometry::PhysicalPageAddr;
use std::fmt;

/// Errors produced by the flash backbone model.
///
/// These model *protocol* violations (programming a page that is not
/// erased, addressing outside the geometry) and the media error the paper's
/// Flashvisor handles by remapping blocks (§4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The physical address does not exist in the configured geometry.
    OutOfRange(PhysicalPageAddr),
    /// A program was issued to a page that already holds data; NAND requires
    /// an erase first.
    ProgramWithoutErase(PhysicalPageAddr),
    /// Pages within a block must be programmed sequentially on real NAND;
    /// an out-of-order program was issued.
    NonSequentialProgram {
        /// The offending address.
        addr: PhysicalPageAddr,
        /// The next page index the block expects.
        expected_page: usize,
    },
    /// The block exceeded its erase endurance and reads back uncorrectable.
    WornOut {
        /// The offending address.
        addr: PhysicalPageAddr,
        /// Number of erase cycles the block has absorbed.
        erase_cycles: u64,
    },
    /// A read was issued to a page that has never been programmed.
    ReadUnwritten(PhysicalPageAddr),
    /// The fault plan failed this program: the page was written but reads
    /// back uncorrectable, so the data never became valid. Flashvisor
    /// handles it by re-allocating the group elsewhere (§4.3 remap).
    InjectedProgramFailure(PhysicalPageAddr),
    /// The fault plan failed this erase: the block kept its contents and
    /// its erase counter did not advance. Repeated failures promote the
    /// block into the bad-block table.
    InjectedEraseFailure(PhysicalPageAddr),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::OutOfRange(a) => write!(f, "physical address out of range: {a:?}"),
            FlashError::ProgramWithoutErase(a) => {
                write!(f, "program issued to non-erased page: {a:?}")
            }
            FlashError::NonSequentialProgram {
                addr,
                expected_page,
            } => write!(
                f,
                "non-sequential program at {addr:?}, expected page {expected_page}"
            ),
            FlashError::WornOut { addr, erase_cycles } => {
                write!(f, "block at {addr:?} worn out after {erase_cycles} erases")
            }
            FlashError::ReadUnwritten(a) => write!(f, "read of unwritten page: {a:?}"),
            FlashError::InjectedProgramFailure(a) => {
                write!(f, "injected program failure at {a:?}")
            }
            FlashError::InjectedEraseFailure(a) => write!(f, "injected erase failure at {a:?}"),
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable() {
        let addr = PhysicalPageAddr::new(1, 2, 3, 4);
        let messages = [
            FlashError::OutOfRange(addr).to_string(),
            FlashError::ProgramWithoutErase(addr).to_string(),
            FlashError::NonSequentialProgram {
                addr,
                expected_page: 7,
            }
            .to_string(),
            FlashError::WornOut {
                addr,
                erase_cycles: 3000,
            }
            .to_string(),
            FlashError::ReadUnwritten(addr).to_string(),
            FlashError::InjectedProgramFailure(addr).to_string(),
            FlashError::InjectedEraseFailure(addr).to_string(),
        ];
        for m in &messages {
            assert!(m.contains("channel: 1") || !m.is_empty());
        }
        assert!(messages[2].contains("expected page 7"));
        assert!(messages[3].contains("3000"));
        assert!(messages[5].contains("injected program failure"));
        assert!(messages[6].contains("injected erase failure"));
    }
}
