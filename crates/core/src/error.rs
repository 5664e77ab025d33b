//! Error type for the FlashAbacus device model.

use fa_flash::FlashError;
use std::fmt;

/// Errors surfaced by the FlashAbacus system.
#[derive(Debug, Clone, PartialEq)]
pub enum FaError {
    /// The flash backbone rejected an operation.
    Flash(FlashError),
    /// The flash backbone ran out of free page groups and garbage
    /// collection could not reclaim enough space.
    OutOfFlashSpace {
        /// Page groups requested.
        requested: u64,
        /// Page groups available.
        available: u64,
    },
    /// A kernel attempted to map a data-section range that conflicts with a
    /// range another kernel holds (range-lock denial, §4.3).
    RangeConflict {
        /// The requested byte range.
        range: (u64, u64),
    },
    /// A logical address outside any mapped data section was accessed.
    UnmappedAddress(u64),
    /// The workload handed to the system was empty or malformed.
    InvalidWorkload(String),
    /// The scheduler reached a state where nothing can make progress.
    SchedulerStalled(String),
}

impl fmt::Display for FaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaError::Flash(e) => write!(f, "flash backbone error: {e}"),
            FaError::OutOfFlashSpace {
                requested,
                available,
            } => write!(
                f,
                "out of flash space: requested {requested} page groups, {available} available"
            ),
            FaError::RangeConflict { range } => {
                write!(f, "range lock conflict on [{}, {})", range.0, range.1)
            }
            FaError::UnmappedAddress(a) => write!(f, "unmapped logical flash address {a:#x}"),
            FaError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            FaError::SchedulerStalled(msg) => write!(f, "scheduler stalled: {msg}"),
        }
    }
}

impl std::error::Error for FaError {}

impl From<FlashError> for FaError {
    fn from(e: FlashError) -> Self {
        FaError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_flash::PhysicalPageAddr;

    #[test]
    fn errors_display_and_convert() {
        let e: FaError = FlashError::OutOfRange(PhysicalPageAddr::new(0, 0, 0, 0)).into();
        assert!(matches!(e, FaError::Flash(_)));
        assert!(e.to_string().contains("flash backbone"));
        assert!(FaError::UnmappedAddress(0x40).to_string().contains("0x40"));
        assert!(FaError::RangeConflict { range: (0, 10) }
            .to_string()
            .contains("[0, 10)"));
    }
}
