//! Range locks over the flash-mapped address space.
//!
//! Flashvisor does not attach per-page permission bits to the mapping table
//! — that would force protection metadata through every journaling and GC
//! cycle (§4.3). Instead it takes a *range lock* when a kernel maps a data
//! section: the lock records the byte range and whether the section is
//! mapped for reading or writing, and a new mapping is refused when its
//! range overlaps an existing mapping with a conflicting mode (read vs
//! write or write vs write). The paper implements the structure as an
//! augmented red-black tree keyed by the range's start page; we use the
//! standard library's B-tree map, which offers the same ordered-map
//! operations.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Whether a data section is mapped for reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// The kernel reads this range of flash.
    Read,
    /// The kernel writes this range of flash.
    Write,
}

impl LockMode {
    /// Two mappings conflict unless both are reads.
    fn conflicts_with(self, other: LockMode) -> bool {
        !(self == LockMode::Read && other == LockMode::Read)
    }
}

/// Identifier of a granted range lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LockId(u64);

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct LockEntry {
    id: LockId,
    start: u64,
    end: u64,
    mode: LockMode,
    owner: u32,
}

/// The range-lock table.
///
/// # Examples
///
/// ```
/// use flashabacus::rangelock::{LockMode, RangeLockTable};
///
/// let mut locks = RangeLockTable::new();
/// let a = locks.try_acquire(0, 4096, LockMode::Read, 1).unwrap();
/// // A second reader of an overlapping range is fine.
/// assert!(locks.try_acquire(1024, 8192, LockMode::Read, 2).is_some());
/// // A writer over the same range is refused until readers release.
/// assert!(locks.try_acquire(0, 2048, LockMode::Write, 3).is_none());
/// locks.release(a);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RangeLockTable {
    /// Locks keyed by `(start, id)` so overlapping ranges can coexist under
    /// distinct keys while keeping ordered traversal by start address.
    locks: BTreeMap<(u64, u64), LockEntry>,
    /// Lock id → start address, so a single release is an indexed removal
    /// rather than a scan of the whole table.
    by_id: BTreeMap<u64, u64>,
    /// Owner → the `(start, id)` keys it holds, so kernel teardown
    /// (`release_owner`) removes exactly its own locks instead of
    /// re-filtering every entry in the table.
    by_owner: BTreeMap<u32, BTreeSet<(u64, u64)>>,
    next_id: u64,
    grants: u64,
    denials: u64,
}

impl RangeLockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RangeLockTable::default()
    }

    /// Number of locks currently held.
    pub fn held(&self) -> usize {
        self.locks.len()
    }

    /// Total number of granted acquisitions.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total number of denied acquisitions.
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// Returns the lock (if any) that would conflict with mapping
    /// `[start, end)` in `mode`.
    fn find_conflict(&self, start: u64, end: u64, mode: LockMode) -> Option<(u64, u64, LockMode)> {
        if start >= end {
            return None;
        }
        self.locks
            .values()
            .find(|l| l.start < end && start < l.end && mode.conflicts_with(l.mode))
            .map(|l| (l.start, l.end, l.mode))
    }

    /// Attempts to acquire a lock over `[start, end)` for `owner`. Returns
    /// `None` when the range conflicts with an existing lock (the request
    /// must be retried after the conflicting kernel unmaps, exactly as
    /// Flashvisor blocks the mapping message).
    pub fn try_acquire(
        &mut self,
        start: u64,
        end: u64,
        mode: LockMode,
        owner: u32,
    ) -> Option<LockId> {
        if start >= end {
            return None;
        }
        if self.find_conflict(start, end, mode).is_some() {
            self.denials += 1;
            return None;
        }
        let id = LockId(self.next_id);
        self.next_id += 1;
        self.grants += 1;
        self.locks.insert(
            (start, id.0),
            LockEntry {
                id,
                start,
                end,
                mode,
                owner,
            },
        );
        self.by_id.insert(id.0, start);
        self.by_owner
            .entry(owner)
            .or_default()
            .insert((start, id.0));
        Some(id)
    }

    /// Releases a previously granted lock. Releasing an unknown id is a
    /// no-op (the double release of an already unmapped section).
    pub fn release(&mut self, id: LockId) {
        let Some(start) = self.by_id.remove(&id.0) else {
            return;
        };
        if let Some(entry) = self.locks.remove(&(start, id.0)) {
            if let Some(keys) = self.by_owner.get_mut(&entry.owner) {
                keys.remove(&(start, id.0));
                if keys.is_empty() {
                    self.by_owner.remove(&entry.owner);
                }
            }
        }
    }

    /// Releases every lock held by `owner` (kernel teardown). Indexed by
    /// the per-owner key set, so teardown cost is proportional to the
    /// owner's own locks, not the table size.
    pub(crate) fn release_owner(&mut self, owner: u32) {
        let Some(keys) = self.by_owner.remove(&owner) else {
            return;
        };
        for key in keys {
            self.locks.remove(&key);
            self.by_id.remove(&key.1);
        }
    }

    /// The owner of the first held lock overlapping `[start, end)` — the
    /// cross-layer identity Flashvisor stamps on the flash commands a
    /// data-section transfer issues. `None` when nothing covers the range.
    pub(crate) fn owner_covering(&self, start: u64, end: u64) -> Option<u32> {
        if start >= end {
            return None;
        }
        self.locks
            .values()
            .find(|l| l.start < end && start < l.end)
            .map(|l| l.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn readers_share_writers_exclude() {
        let mut t = RangeLockTable::new();
        let r1 = t.try_acquire(0, 100, LockMode::Read, 1).unwrap();
        let _r2 = t.try_acquire(50, 150, LockMode::Read, 2).unwrap();
        assert!(t.try_acquire(20, 30, LockMode::Write, 3).is_none());
        assert_eq!(t.denials(), 1);
        t.release(r1);
        // Still conflicts with r2's [50,150) only if overlapping.
        assert!(t.try_acquire(0, 40, LockMode::Write, 3).is_some());
        assert!(t.try_acquire(100, 160, LockMode::Write, 3).is_none());
    }

    #[test]
    fn write_blocks_read_and_write() {
        let mut t = RangeLockTable::new();
        t.try_acquire(1000, 2000, LockMode::Write, 7).unwrap();
        assert!(t.try_acquire(1500, 1600, LockMode::Read, 8).is_none());
        assert!(t.try_acquire(1999, 3000, LockMode::Write, 8).is_none());
        assert!(t.try_acquire(2000, 3000, LockMode::Write, 8).is_some());
        assert!(t.try_acquire(0, 1000, LockMode::Read, 8).is_some());
    }

    #[test]
    fn empty_and_inverted_ranges_are_rejected() {
        let mut t = RangeLockTable::new();
        assert!(t.try_acquire(10, 10, LockMode::Read, 1).is_none());
        assert!(t.try_acquire(20, 10, LockMode::Write, 1).is_none());
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn release_owner_drops_all_of_a_kernels_locks() {
        let mut t = RangeLockTable::new();
        t.try_acquire(0, 10, LockMode::Read, 1).unwrap();
        t.try_acquire(10, 20, LockMode::Write, 1).unwrap();
        t.try_acquire(20, 30, LockMode::Read, 2).unwrap();
        assert_eq!(t.held(), 3);
        t.release_owner(1);
        assert_eq!(t.held(), 1);
        assert_eq!(t.owner_covering(0, 30), Some(2));
    }

    #[test]
    fn release_unknown_id_is_noop() {
        let mut t = RangeLockTable::new();
        let id = t.try_acquire(0, 10, LockMode::Read, 1).unwrap();
        t.release(id);
        t.release(id);
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn indexed_release_paths_stay_consistent() {
        let mut t = RangeLockTable::new();
        let a = t.try_acquire(0, 10, LockMode::Write, 1).unwrap();
        let _b = t.try_acquire(10, 20, LockMode::Write, 1).unwrap();
        let c = t.try_acquire(20, 30, LockMode::Write, 2).unwrap();
        // Single release, then owner teardown of the remaining owner-1 lock.
        t.release(a);
        t.release_owner(1);
        assert_eq!(t.held(), 1);
        assert_eq!(t.owner_covering(0, 30), Some(2));
        assert_eq!(
            t.find_conflict(0, 30, LockMode::Read),
            Some((20, 30, LockMode::Write))
        );
        // Tearing down owner 1 again (nothing held) and double-releasing c
        // are both no-ops.
        t.release_owner(1);
        t.release(c);
        t.release(c);
        assert_eq!(t.held(), 0);
        // The indices did not leak: every freed range is re-acquirable.
        assert!(t.try_acquire(0, 30, LockMode::Write, 3).is_some());
    }

    #[test]
    fn find_conflict_reports_the_blocking_range() {
        let mut t = RangeLockTable::new();
        t.try_acquire(100, 200, LockMode::Write, 1).unwrap();
        let c = t.find_conflict(150, 160, LockMode::Read).unwrap();
        assert_eq!(c, (100, 200, LockMode::Write));
        assert!(t.find_conflict(200, 300, LockMode::Read).is_none());
    }

    proptest! {
        /// After any sequence of acquisitions, no two held locks with a
        /// conflicting mode overlap — the core protection invariant.
        #[test]
        fn no_conflicting_overlaps_ever_coexist(
            ops in proptest::collection::vec(
                (0u64..1000, 1u64..200, prop::bool::ANY, 0u32..8), 0..64)
        ) {
            let mut t = RangeLockTable::new();
            // Nothing is released until the end, so every grant is held.
            let mut held = Vec::new();
            for (start, len, write, owner) in ops {
                let mode = if write { LockMode::Write } else { LockMode::Read };
                if t.try_acquire(start, start + len, mode, owner).is_some() {
                    held.push((start, start + len, mode));
                }
            }
            prop_assert_eq!(t.held(), held.len());
            for (i, a) in held.iter().enumerate() {
                for b in held.iter().skip(i + 1) {
                    let overlap = a.0 < b.1 && b.0 < a.1;
                    if overlap {
                        prop_assert!(
                            a.2 == LockMode::Read && b.2 == LockMode::Read,
                            "conflicting overlap: {a:?} vs {b:?}"
                        );
                    }
                }
            }
            // Owner teardown through the per-owner index drains the table
            // completely — the indices never leak an entry.
            for owner in 0..8 {
                t.release_owner(owner);
            }
            prop_assert_eq!(t.held(), 0);
        }
    }
}
