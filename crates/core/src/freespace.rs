//! Incremental free-space management for physical page groups.
//!
//! Flashvisor allocates every data-section write (and every GC migration)
//! a physical page group. This module owns that bookkeeping as a proper
//! subsystem: an O(1)-pop free structure, one [`GroupState`] per group
//! with O(1) free, reserved and retired counts, and a pluggable
//! [`PlacementPolicy`] deciding *which* free group a write lands on.
//! Keeping the metadata next to the allocator — instead of deriving it by
//! scanning the mapping table — is what keeps the hot write path
//! allocator-bound on the hardware model, not on the simulator.
//!
//! The manager asks the flash layout ([`fa_flash::GroupLayout`]) where a
//! group sits: its *stripe class* is the lane (channel, die) its leading
//! page lands on, and its *block row* is the within-die erase-block index
//! its leading page falls in (block `r` of every channel and die — the
//! unit GC erases).
//!
//! Three placement policies share the structure:
//!
//! * [`PlacementPolicy::FirstFree`] reproduces the log-structured cursor +
//!   recycled-FIFO allocator byte for byte; it is the default and keeps all
//!   recorded figure output identical.
//! * [`PlacementPolicy::ChannelStriped`] round-robins allocations across
//!   the stripe classes, spreading consecutive groups over the channel/die
//!   fan-out when groups are narrower than the full die array.
//! * [`PlacementPolicy::LeastWorn`] allocates from the block row with the
//!   fewest accumulated erase cycles. The wear ledger is maintained
//!   *incrementally*: every block erase the backbone reports bumps one row
//!   counter ([`FreeSpaceManager::note_block_erase`]) and re-keys that row
//!   in a `BTreeSet<(wear, row)>` index, so the min-wear pop is O(log rows)
//!   and never recounts erase cycles from the dies.
//!
//! The manager can also *reserve* a group range outright
//! ([`FreeSpaceManager::reserve_range`]): reserved groups never leave the
//! manager, which is how the journal's metadata row is fenced off from the
//! data allocator.
//!
//! # Examples
//!
//! ```
//! use fa_flash::{FlashGeometry, GroupLayout};
//! use flashabacus::freespace::{FreeSpaceManager, GroupState, PlacementPolicy};
//!
//! // 8 groups of 2 pages on a 2-channel, 1-die, 2-row device with
//! // 4-page blocks: each block row holds 4 groups (rows are groups 0..4
//! // and 4..8).
//! let geometry = FlashGeometry {
//!     channels: 2,
//!     packages_per_channel: 1,
//!     dies_per_package: 1,
//!     planes_per_die: 1,
//!     blocks_per_plane: 2,
//!     pages_per_block: 4,
//!     page_bytes: 4096,
//! };
//! let layout = GroupLayout { geometry, pages_per_group: 2 };
//! let mut m = FreeSpaceManager::new(layout, PlacementPolicy::LeastWorn);
//!
//! // Row 0 absorbs two block erases; the min-wear policy now starts
//! // allocating from row 1.
//! m.note_block_erase(0);
//! m.note_block_erase(0);
//! assert_eq!(m.row_wear(), &[2, 0]);
//! assert_eq!(m.allocate(), Some(4));
//!
//! // Reserving a range fences it from allocation entirely.
//! m.reserve_range(6, 8);
//! assert_eq!(m.free_count(), 5);
//! assert_eq!(m.state(7), Some(GroupState::Reserved));
//! ```

use fa_flash::GroupLayout;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// Which free group the allocator hands to the next write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Log-structured: recycled groups in FIFO order first, then the next
    /// never-used group. Reproduces the pre-subsystem allocator exactly.
    #[default]
    FirstFree,
    /// Round-robin across stripe classes (the `(channel, die)` of each
    /// group's leading page), FIFO within a class.
    ChannelStriped,
    /// Wear-aware: allocate from the block row with the fewest accumulated
    /// erase cycles (ascending group order within the row), so erase wear
    /// levels across the device instead of piling onto the rows the
    /// recycled-FIFO order happens to favour.
    LeastWorn,
}

impl PlacementPolicy {
    /// Short label for reports and perf records.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::FirstFree => "FirstFree",
            PlacementPolicy::ChannelStriped => "ChannelStriped",
            PlacementPolicy::LeastWorn => "LeastWorn",
        }
    }

    /// Every placement policy, in report order.
    pub fn all() -> [PlacementPolicy; 3] {
        [
            PlacementPolicy::FirstFree,
            PlacementPolicy::ChannelStriped,
            PlacementPolicy::LeastWorn,
        ]
    }
}

/// Policy-specific free-group storage. All variants pop and push in O(1)
/// amortized (the striped pop probes at most one queue per stripe class;
/// the wear-aware pop is O(log rows) for the min-wear lookup).
#[derive(Debug, Clone)]
enum FreePool {
    /// Never-used groups live implicitly in `cursor..total`; recycled
    /// groups queue in FIFO order and are reused before the cursor moves.
    FirstFree {
        cursor: u64,
        recycled: VecDeque<u64>,
    },
    /// One FIFO queue of free groups per stripe class, with a rotating
    /// class cursor.
    Striped {
        queues: Vec<VecDeque<u64>>,
        next_class: usize,
    },
    /// One FIFO queue of free groups per block row, indexed by
    /// `(accumulated row wear, row)` so the pop always draws from the
    /// least-worn row holding free groups.
    LeastWorn {
        queues: Vec<VecDeque<u64>>,
        by_wear: BTreeSet<(u64, u64)>,
    },
}

/// Where one page group stands in the free-space manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupState {
    /// In the free structure, ready to allocate.
    Free,
    /// Handed out (mapped, parked in the hot reserve, or garbage awaiting
    /// reclamation).
    Allocated,
    /// Permanently outside the free structure as a metadata carve-out (the
    /// journal's metadata row).
    Reserved,
    /// Permanently outside the free structure with its block row, which
    /// was promoted into the bad-block table: lost capacity (media
    /// failures), not a carve-out.
    Retired,
}

impl GroupState {
    /// Reserved or retired: never allocated, recycled or reclaimed.
    fn is_fenced(self) -> bool {
        matches!(self, GroupState::Reserved | GroupState::Retired)
    }
}

/// The free-space manager: free-group structure plus per-group states.
#[derive(Debug, Clone)]
pub struct FreeSpaceManager {
    layout: GroupLayout,
    policy: PlacementPolicy,
    pool: FreePool,
    /// One state per group, kept in lockstep with the pool: makes
    /// `recycle` idempotent and row reclamation exact.
    states: Vec<GroupState>,
    /// Groups currently free, maintained incrementally — never derived by
    /// scanning.
    free_count: u64,
    /// Reserved groups, O(1).
    reserved_count: u64,
    /// Retired groups, O(1).
    retired_count: u64,
    /// Block erases absorbed per block row, maintained incrementally by
    /// [`FreeSpaceManager::note_block_erase`] — the wear ledger the
    /// `LeastWorn` policy allocates against.
    row_wear: Vec<u64>,
}

impl FreeSpaceManager {
    /// Creates a manager with every group of `layout` free and one wear
    /// entry per block row.
    pub fn new(layout: GroupLayout, policy: PlacementPolicy) -> Self {
        let total_groups = layout.total_groups();
        let rows = layout.geometry.blocks_per_die() as u64;
        let classes = layout.geometry.total_dies();
        let mut manager = FreeSpaceManager {
            layout,
            policy,
            pool: FreePool::FirstFree {
                cursor: 0,
                recycled: VecDeque::new(),
            },
            states: vec![GroupState::Free; total_groups as usize],
            free_count: total_groups,
            reserved_count: 0,
            retired_count: 0,
            row_wear: vec![0; rows as usize],
        };
        match policy {
            PlacementPolicy::FirstFree => {}
            PlacementPolicy::ChannelStriped => {
                // Materialize the per-class queues once, in ascending group
                // order, so striped allocation stays deterministic.
                let mut queues = vec![VecDeque::new(); classes];
                for g in 0..total_groups {
                    queues[layout.lane_of_group(g)].push_back(g);
                }
                manager.pool = FreePool::Striped {
                    queues,
                    next_class: 0,
                };
            }
            PlacementPolicy::LeastWorn => {
                let mut queues = vec![VecDeque::new(); rows as usize];
                for g in 0..total_groups {
                    queues[layout.row_of_group(g) as usize].push_back(g);
                }
                let by_wear = (0..rows)
                    .filter(|&r| !queues[r as usize].is_empty())
                    .map(|r| (0u64, r))
                    .collect();
                manager.pool = FreePool::LeastWorn { queues, by_wear };
            }
        }
        manager
    }

    /// Every group on the device.
    fn total_groups(&self) -> u64 {
        self.states.len() as u64
    }

    /// Groups currently free. O(1).
    pub fn free_count(&self) -> u64 {
        self.free_count
    }

    /// Groups permanently reserved (never allocatable). O(1).
    pub fn reserved_count(&self) -> u64 {
        self.reserved_count
    }

    /// Groups retired with their bad block row (lost capacity). O(1).
    pub fn retired_count(&self) -> u64 {
        self.retired_count
    }

    /// Accumulated block erases per block row (the within-die erase-block
    /// index) — the incrementally maintained wear ledger (also the oracle
    /// surface the property tests recount).
    pub fn row_wear(&self) -> &[u64] {
        &self.row_wear
    }

    /// Records one block erase in block row `row`, re-keying the row in the
    /// min-wear index when the `LeastWorn` pool holds free groups there.
    /// O(log rows).
    pub fn note_block_erase(&mut self, row: u64) {
        let Some(wear) = self.row_wear.get_mut(row as usize) else {
            return;
        };
        let old = *wear;
        *wear += 1;
        if let FreePool::LeastWorn { queues, by_wear } = &mut self.pool {
            if !queues[row as usize].is_empty() {
                by_wear.remove(&(old, row));
                by_wear.insert((old + 1, row));
            }
        }
    }

    /// Pops the next free group under the placement policy, or `None` when
    /// the device is full.
    pub fn allocate(&mut self) -> Option<u64> {
        let g = match &mut self.pool {
            FreePool::FirstFree { cursor, recycled } => {
                if let Some(g) = recycled.pop_front() {
                    g
                } else {
                    // The cursor range may contain reserved groups (the
                    // journal row) or retired ones (bad block rows); they
                    // are skipped, never handed out.
                    loop {
                        if *cursor >= self.states.len() as u64 {
                            return None;
                        }
                        let g = *cursor;
                        *cursor += 1;
                        if !self.states[g as usize].is_fenced() {
                            break g;
                        }
                    }
                }
            }
            FreePool::Striped { queues, next_class } => {
                let classes = queues.len();
                let mut picked = None;
                for probe in 0..classes {
                    let class = (*next_class + probe) % classes;
                    if let Some(g) = queues[class].pop_front() {
                        *next_class = (class + 1) % classes;
                        picked = Some(g);
                        break;
                    }
                }
                picked?
            }
            FreePool::LeastWorn { queues, by_wear } => {
                let &(wear, row) = by_wear.first()?;
                let queue = &mut queues[row as usize];
                let g = queue.pop_front().expect("indexed row has a free group");
                if queue.is_empty() {
                    by_wear.remove(&(wear, row));
                }
                g
            }
        };
        self.free_count -= 1;
        self.states[g as usize] = GroupState::Allocated;
        Some(g)
    }

    /// Where group `g` stands; `None` past the last group.
    pub fn state(&self, g: u64) -> Option<GroupState> {
        self.states.get(g as usize).copied()
    }

    /// True when group `g` is currently in the free structure.
    pub(crate) fn is_free(&self, g: u64) -> bool {
        self.state(g) == Some(GroupState::Free)
    }

    /// Retires every non-reserved group of block row `row`: the groups
    /// leave the free structure and the `LeastWorn` wear index
    /// permanently: a bad block contaminates the whole row it stripes
    /// across, so the row stops being placement-eligible. The caller
    /// guarantees nothing in the row is still mapped (Flashvisor migrates
    /// mapped groups out first). The row's `row_wear` entry is kept:
    /// retirement does not rewrite wear history. Idempotent; returns
    /// how many groups were newly retired.
    pub(crate) fn retire_row(&mut self, row: u64) -> u64 {
        let (low, high) = self.layout.row_groups(row);
        let high = high.min(self.total_groups());
        if low >= high {
            return 0;
        }
        let mut newly = 0;
        for g in low..high {
            let state = &mut self.states[g as usize];
            if state.is_fenced() {
                continue;
            }
            let was = std::mem::replace(state, GroupState::Retired);
            self.retired_count += 1;
            newly += 1;
            if was == GroupState::Free {
                self.free_count -= 1;
            }
        }
        if newly == 0 {
            return 0;
        }
        // Physically remove retired members from the materialized pools
        // (the FirstFree cursor skips them at pop time instead).
        let keep = |g: &u64| *g < low || *g >= high;
        match &mut self.pool {
            FreePool::FirstFree { recycled, .. } => recycled.retain(keep),
            FreePool::Striped { queues, .. } => {
                for q in queues.iter_mut() {
                    q.retain(keep);
                }
            }
            FreePool::LeastWorn { queues, by_wear } => {
                let queue = &mut queues[row as usize];
                queue.retain(keep);
                if queue.is_empty() {
                    by_wear.remove(&(self.row_wear[row as usize], row));
                }
            }
        }
        newly
    }

    /// Permanently removes the group range `[low, high)` from the free
    /// structure: reserved groups are never allocated, never recycled, and
    /// never re-enter the pool through a row reclaim. Flashvisor reserves
    /// the journal's metadata row this way, so the data cursor cannot
    /// collide with journal pages on a nearly-full device.
    pub fn reserve_range(&mut self, low: u64, high: u64) {
        let high = high.min(self.total_groups());
        for g in low..high {
            let state = &mut self.states[g as usize];
            if state.is_fenced() {
                continue;
            }
            if std::mem::replace(state, GroupState::Reserved) == GroupState::Free {
                self.free_count -= 1;
            }
            self.reserved_count += 1;
        }
        // Physically remove reserved members from the materialized pools
        // (the FirstFree cursor skips them at pop time instead).
        if low >= high {
            return;
        }
        let keep = |g: &u64| *g < low || *g >= high;
        let (row_low, row_high) = (
            self.layout.row_of_group(low),
            self.layout.row_of_group(high - 1),
        );
        match &mut self.pool {
            FreePool::FirstFree { recycled, .. } => recycled.retain(keep),
            FreePool::Striped { queues, .. } => {
                for q in queues.iter_mut() {
                    q.retain(keep);
                }
            }
            FreePool::LeastWorn { queues, by_wear } => {
                for row in row_low..=row_high {
                    let queue = &mut queues[row as usize];
                    queue.retain(keep);
                    if queue.is_empty() {
                        by_wear.remove(&(self.row_wear[row as usize], row));
                    }
                }
            }
        }
    }

    /// Returns a reclaimed group to the free structure. Recycling a group
    /// that is already free (or reserved) is a no-op, so a double recycle
    /// cannot put the same group in the pool twice.
    pub(crate) fn recycle(&mut self, g: u64) {
        let state = &mut self.states[g as usize];
        if *state != GroupState::Allocated {
            return;
        }
        *state = GroupState::Free;
        let class = self.layout.lane_of_group(g);
        let row = self.layout.row_of_group(g);
        match &mut self.pool {
            FreePool::FirstFree { recycled, .. } => recycled.push_back(g),
            FreePool::Striped { queues, .. } => queues[class].push_back(g),
            FreePool::LeastWorn { queues, by_wear } => {
                queues[row as usize].push_back(g);
                by_wear.insert((self.row_wear[row as usize], row));
            }
        }
        self.free_count += 1;
    }

    /// Reclaims the whole group range `[low, high)` after its backing
    /// erase-block row was erased: every in-range member already in the
    /// pool is pulled out, every in-range group is freed, and the range
    /// re-enters the free structure as one *ascending* run. Consuming an
    /// ascending run refills the erased blocks from page 0 in NAND
    /// programming order, which is what makes reclaimed rows actually
    /// reusable. Reserved groups are untouched. The caller guarantees
    /// nothing in the range is mapped and all of its blocks are erased.
    /// Returns how many groups were newly freed (garbage that was never
    /// individually recycled).
    pub(crate) fn reclaim_range(&mut self, low: u64, high: u64) -> u64 {
        let high = high.min(self.total_groups());
        if low >= high {
            return 0;
        }
        let in_range = |g: &u64| *g < low || *g >= high;
        // Pool membership is in lockstep with the group states, so when no
        // in-range group is free there is nothing to pull out and the
        // O(free-pool) retain sweeps can be skipped — the common case for a
        // GC pass reclaiming a fully-garbage row.
        let states = &self.states[low as usize..high as usize];
        if states.contains(&GroupState::Free) {
            let (row_low, row_high) = (
                self.layout.row_of_group(low),
                self.layout.row_of_group(high - 1),
            );
            match &mut self.pool {
                FreePool::FirstFree { recycled, .. } => recycled.retain(in_range),
                FreePool::Striped { queues, .. } => {
                    for q in queues.iter_mut() {
                        q.retain(in_range);
                    }
                }
                FreePool::LeastWorn { queues, .. } => {
                    // In-range groups only ever sit in their own rows'
                    // queues, so the sweep is exact over just those rows.
                    for row in row_low..=row_high {
                        queues[row as usize].retain(in_range);
                    }
                }
            }
        }
        let mut newly_freed = 0;
        let mut touched_rows: Vec<u64> = Vec::new();
        for g in low..high {
            let state = &mut self.states[g as usize];
            if state.is_fenced() {
                continue;
            }
            let was_free = std::mem::replace(state, GroupState::Free) == GroupState::Free;
            let row = self.layout.row_of_group(g);
            if !was_free {
                newly_freed += 1;
                self.free_count += 1;
            }
            match &mut self.pool {
                // Groups at or past the cursor are still represented by the
                // cursor itself (and allocate in ascending order from it).
                FreePool::FirstFree { cursor, recycled } => {
                    if g < *cursor {
                        recycled.push_back(g);
                    }
                }
                FreePool::Striped { queues, .. } => {
                    queues[self.layout.lane_of_group(g)].push_back(g)
                }
                FreePool::LeastWorn { queues, .. } => {
                    queues[row as usize].push_back(g);
                    if touched_rows.last() != Some(&row) {
                        touched_rows.push(row);
                    }
                }
            }
        }
        // Re-key the wear index for every row whose queue changed: a retain
        // may have emptied a row whose groups all re-entered, or a row may
        // have gained its first free groups.
        if let FreePool::LeastWorn { queues, by_wear } = &mut self.pool {
            for row in touched_rows {
                let key = (self.row_wear[row as usize], row);
                if queues[row as usize].is_empty() {
                    by_wear.remove(&key);
                } else {
                    by_wear.insert(key);
                }
            }
        }
        newly_freed
    }

    /// Rebuilds the free structure from scratch after a crash: group `g`
    /// is free exactly when `is_free(g)` says so *and* it is neither
    /// reserved nor retired. The pool re-enters in ascending group order
    /// per class/row, every other unfenced group is allocated, and the wear
    /// ledger (`row_wear`), the reservations, and the bad-block
    /// retirements are kept — they survive power loss (wear is physical;
    /// the bad-block table is journaled metadata). The result
    /// is a pure function of the states and the predicate, so replaying
    /// the same journal always reproduces the same allocator.
    pub(crate) fn rebuild(&mut self, is_free: impl Fn(u64) -> bool) {
        self.free_count = 0;
        for g in 0..self.total_groups() {
            let state = &mut self.states[g as usize];
            if state.is_fenced() {
                continue;
            }
            if is_free(g) {
                *state = GroupState::Free;
                self.free_count += 1;
            } else {
                *state = GroupState::Allocated;
            }
        }
        let free_ascending = (0..self.total_groups()).filter(|&g| self.is_free(g));
        self.pool = match self.policy {
            PlacementPolicy::FirstFree => FreePool::FirstFree {
                // Everything re-enters through the recycled FIFO (ascending,
                // so pops stay in NAND programming order); the cursor is
                // exhausted.
                cursor: self.total_groups(),
                recycled: free_ascending.collect(),
            },
            PlacementPolicy::ChannelStriped => {
                let mut queues = vec![VecDeque::new(); self.layout.geometry.total_dies()];
                for g in free_ascending {
                    queues[self.layout.lane_of_group(g)].push_back(g);
                }
                FreePool::Striped {
                    queues,
                    next_class: 0,
                }
            }
            PlacementPolicy::LeastWorn => {
                let mut queues = vec![VecDeque::new(); self.row_wear.len()];
                for g in free_ascending {
                    queues[self.layout.row_of_group(g) as usize].push_back(g);
                }
                let by_wear = queues
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(row, _)| (self.row_wear[row], row as u64))
                    .collect();
                FreePool::LeastWorn { queues, by_wear }
            }
        };
    }

    /// Every group currently in the free structure, in pop order per
    /// policy. O(free); property-test oracle only.
    pub fn debug_free_groups(&self) -> Vec<u64> {
        match &self.pool {
            FreePool::FirstFree { cursor, recycled } => recycled
                .iter()
                .copied()
                .chain(
                    (*cursor..self.total_groups())
                        .filter(|&g| !self.states[g as usize].is_fenced()),
                )
                .collect(),
            FreePool::Striped { queues, .. } => {
                queues.iter().flat_map(|q| q.iter().copied()).collect()
            }
            FreePool::LeastWorn { queues, .. } => {
                queues.iter().flat_map(|q| q.iter().copied()).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_flash::FlashGeometry;

    /// `groups` groups of `pages_per_group` pages on `channels` × `dies`
    /// lanes of `pages_per_block`-page blocks, with as many block rows as
    /// the groups fill.
    fn manager(
        groups: u64,
        pages_per_group: u64,
        channels: usize,
        dies: usize,
        pages_per_block: usize,
        policy: PlacementPolicy,
    ) -> FreeSpaceManager {
        let row_pages = (channels * dies * pages_per_block) as u64;
        assert_eq!(groups * pages_per_group % row_pages, 0, "whole rows");
        let geometry = FlashGeometry {
            channels,
            packages_per_channel: 1,
            dies_per_package: dies,
            planes_per_die: 1,
            blocks_per_plane: (groups * pages_per_group / row_pages) as usize,
            pages_per_block,
            page_bytes: 4096,
        };
        let layout = GroupLayout {
            geometry,
            pages_per_group,
        };
        FreeSpaceManager::new(layout, policy)
    }

    /// Groups `m` holds allocated, recounted from their states.
    fn allocated(m: &FreeSpaceManager) -> u64 {
        (0..m.total_groups())
            .filter(|&g| m.state(g) == Some(GroupState::Allocated))
            .count() as u64
    }

    #[test]
    fn first_free_reproduces_cursor_then_fifo_order() {
        let mut m = manager(8, 2, 2, 1, 4, PlacementPolicy::FirstFree);
        assert_eq!(m.free_count(), 8);
        assert_eq!(m.allocate(), Some(0));
        assert_eq!(m.allocate(), Some(1));
        m.recycle(0);
        m.recycle(1);
        // Recycled groups come back in FIFO order, before the cursor moves.
        assert_eq!(m.allocate(), Some(0));
        assert_eq!(m.allocate(), Some(1));
        assert_eq!(m.allocate(), Some(2));
        assert_eq!(m.free_count(), 5);
    }

    #[test]
    fn exhaustion_returns_none_until_recycle() {
        let mut m = manager(2, 1, 1, 1, 2, PlacementPolicy::FirstFree);
        assert_eq!(m.allocate(), Some(0));
        assert_eq!(m.allocate(), Some(1));
        assert_eq!(m.allocate(), None);
        m.recycle(1);
        assert_eq!(m.free_count(), 1);
        assert_eq!(m.allocate(), Some(1));
    }

    #[test]
    fn striped_rotates_across_classes() {
        // 8 groups of 1 page on 2 channels × 2 dies: group g's leading page
        // is flat page g, so classes cycle 0,2,1,3 (channel first, then
        // die) as g increases.
        let mut m = manager(8, 1, 2, 2, 2, PlacementPolicy::ChannelStriped);
        for _ in 0..2 {
            let picks: Vec<u64> = (0..4).map(|_| m.allocate().unwrap()).collect();
            let mut lanes: Vec<usize> = picks.iter().map(|&g| m.layout.lane_of_group(g)).collect();
            // Every four consecutive allocations cover all four stripe
            // classes, one group each.
            lanes.sort_unstable();
            assert_eq!(lanes, vec![0, 1, 2, 3]);
        }
        assert_eq!(m.allocate(), None);
    }

    #[test]
    fn striped_skips_empty_classes_and_exhausts_cleanly() {
        let mut m = manager(4, 1, 2, 1, 2, PlacementPolicy::ChannelStriped);
        let mut got = Vec::new();
        while let Some(g) = m.allocate() {
            got.push(g);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(m.free_count(), 0);
        m.recycle(3);
        assert_eq!(m.allocate(), Some(3));
        assert_eq!(m.allocate(), None);
    }

    #[test]
    fn double_recycle_is_idempotent() {
        let mut m = manager(4, 1, 1, 1, 4, PlacementPolicy::FirstFree);
        let g = m.allocate().unwrap();
        assert!(!m.is_free(g));
        m.recycle(g);
        m.recycle(g);
        assert!(m.is_free(g));
        assert_eq!(m.free_count(), 4);
        assert_eq!(m.debug_free_groups().len(), 4);
    }

    #[test]
    fn reclaim_range_reinserts_an_ascending_run() {
        for policy in PlacementPolicy::all() {
            let mut m = manager(8, 1, 1, 1, 4, policy);
            // Allocate six groups, recycle two of them out of order, and
            // leave two allocated-but-unmapped (garbage).
            let held: Vec<u64> = (0..6).map(|_| m.allocate().unwrap()).collect();
            m.recycle(held[3]);
            m.recycle(held[1]);
            // Reclaim the whole row [0, 6): the two garbage groups are
            // newly freed, the recycled ones are re-ordered, and the pool
            // pops the run ascending.
            let newly = m.reclaim_range(0, 6);
            assert_eq!(newly, 4, "{policy:?}");
            assert_eq!(m.free_count(), 8, "{policy:?}");
            // Drain everything: the reclaimed range must come back as one
            // ascending contiguous run (free groups that were already
            // queued ahead of it may pop first).
            let drained: Vec<u64> = (0..8).map(|_| m.allocate().unwrap()).collect();
            assert_eq!(m.allocate(), None, "{policy:?}");
            let run: Vec<u64> = drained.iter().copied().filter(|g| *g < 6).collect();
            assert_eq!(run, vec![0, 1, 2, 3, 4, 5], "{policy:?}");
        }
    }

    #[test]
    fn group_states_and_free_set_stay_consistent() {
        for policy in PlacementPolicy::all() {
            let mut m = manager(16, 2, 2, 2, 8, policy);
            let mut held = Vec::new();
            for _ in 0..10 {
                held.push(m.allocate().unwrap());
            }
            for g in held.drain(..5) {
                m.recycle(g);
            }
            let free = m.debug_free_groups();
            assert_eq!(free.len() as u64, m.free_count(), "{policy:?}");
            assert_eq!(allocated(&m), 5, "{policy:?}");
            assert_eq!(allocated(&m) + m.free_count(), 16, "{policy:?}");
            // No group is simultaneously free twice.
            let mut dedup = free.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), free.len(), "{policy:?}");
        }
    }

    #[test]
    fn least_worn_prefers_the_freshest_row() {
        // 8 groups of 2 pages, 2 channels × 1 die × 4-page blocks: each row
        // holds 4 groups.
        let mut m = manager(8, 2, 2, 1, 4, PlacementPolicy::LeastWorn);
        assert_eq!(m.row_wear().len(), 2);
        // Untouched device: rows tie at wear 0, lowest row wins, groups pop
        // ascending within the row.
        assert_eq!(m.allocate(), Some(0));
        assert_eq!(m.allocate(), Some(1));
        // Row 0 wears out; allocation moves to row 1.
        m.note_block_erase(0);
        assert_eq!(m.allocate(), Some(4));
        // Row 1 wears past row 0; allocation returns to row 0's remainder.
        m.note_block_erase(1);
        m.note_block_erase(1);
        assert_eq!(m.allocate(), Some(2));
        // Recycled groups rejoin the back of their row's queue under the
        // current wear, so the less-worn row keeps serving FIFO.
        m.recycle(4);
        m.note_block_erase(0);
        m.note_block_erase(0); // row 0 wear 3, row 1 wear 2
        assert_eq!(m.allocate(), Some(5));
        assert_eq!(m.row_wear(), &[3, 2]);
    }

    #[test]
    fn least_worn_drains_fully_and_recycles() {
        let mut m = manager(8, 1, 1, 1, 4, PlacementPolicy::LeastWorn);
        let mut got = Vec::new();
        while let Some(g) = m.allocate() {
            got.push(g);
        }
        assert_eq!(got.len(), 8);
        assert_eq!(m.free_count(), 0);
        m.recycle(5);
        assert_eq!(m.allocate(), Some(5));
        assert_eq!(m.allocate(), None);
    }

    #[test]
    fn reserve_range_fences_groups_from_every_path() {
        for policy in PlacementPolicy::all() {
            let mut m = manager(8, 1, 1, 1, 4, policy);
            m.reserve_range(6, 8);
            assert_eq!(m.free_count(), 6, "{policy:?}");
            assert_eq!(m.reserved_count(), 2, "{policy:?}");
            assert_eq!(m.state(6), Some(GroupState::Reserved), "{policy:?}");
            assert_eq!(m.state(7), Some(GroupState::Reserved), "{policy:?}");
            // Reserved groups are never allocated...
            let mut got = Vec::new();
            while let Some(g) = m.allocate() {
                got.push(g);
            }
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "{policy:?}");
            // ...never recycled...
            m.recycle(6);
            assert_eq!(m.free_count(), 0, "{policy:?}");
            // ...and never resurrected by a row reclaim over their range.
            let newly = m.reclaim_range(4, 8);
            assert_eq!(newly, 2, "{policy:?}");
            let free = m.debug_free_groups();
            assert!(
                free.iter().all(|&g| m.state(g) == Some(GroupState::Free)),
                "{policy:?}: reserved group leaked into the pool"
            );
        }
    }

    #[test]
    fn retire_row_removes_the_row_from_every_path() {
        for policy in PlacementPolicy::all() {
            // 8 groups of 1 page, 1 channel × 1 die × 4-page blocks: rows
            // are groups [0,4) and [4,8).
            let mut m = manager(8, 1, 1, 1, 4, policy);
            assert_eq!(m.layout.row_groups(1), (4, 8));
            // Leave one group of row 0 allocated (garbage) so retirement
            // takes both free and allocated groups.
            let g = loop {
                let g = m.allocate().unwrap();
                if g < 4 {
                    break g;
                }
                m.recycle(g);
            };
            let newly = m.retire_row(0);
            assert_eq!(newly, 4, "{policy:?}");
            assert_eq!(m.retired_count(), 4, "{policy:?}");
            assert_eq!(m.state(g), Some(GroupState::Retired), "{policy:?}");
            // Retired groups never allocate...
            let mut got = Vec::new();
            while let Some(g) = m.allocate() {
                got.push(g);
            }
            got.sort_unstable();
            assert!(got.iter().all(|&g| g >= 4), "{policy:?}: {got:?}");
            // ...never recycle...
            m.recycle(g);
            assert_eq!(m.free_count(), 0, "{policy:?}");
            // ...never resurrect through a row reclaim...
            assert_eq!(m.reclaim_range(0, 4), 0, "{policy:?}");
            assert!(m.debug_free_groups().is_empty(), "{policy:?}");
            // ...and the partition still balances.
            assert_eq!(
                allocated(&m) + m.free_count() + m.reserved_count() + m.retired_count(),
                8,
                "{policy:?}"
            );
            // Idempotent.
            assert_eq!(m.retire_row(0), 0, "{policy:?}");
        }
    }

    #[test]
    fn retire_row_skips_reserved_groups() {
        let mut m = manager(8, 1, 1, 1, 4, PlacementPolicy::FirstFree);
        m.reserve_range(0, 2);
        assert_eq!(m.retire_row(0), 2);
        assert_eq!(m.state(0), Some(GroupState::Reserved));
        assert_eq!(m.state(2), Some(GroupState::Retired));
        assert_eq!(m.state(3), Some(GroupState::Retired));
        assert_eq!(m.reserved_count(), 2);
        assert_eq!(m.retired_count(), 2);
    }

    #[test]
    fn rebuild_reproduces_a_deterministic_ascending_pool() {
        for policy in PlacementPolicy::all() {
            // 16 groups of 2 pages, 2 channels × 2 dies × 4-page blocks:
            // rows are groups [0,8) and [8,16).
            let mut m = manager(16, 2, 2, 2, 4, policy);
            m.reserve_range(14, 16);
            for _ in 0..6 {
                m.allocate().unwrap();
            }
            m.note_block_erase(0);
            m.retire_row(1);
            let wear_before = m.row_wear().to_vec();
            // Crash: rebuild with "mapped" groups 2 and 5 occupied, the
            // rest free.
            let mapped = [2u64, 5];
            m.rebuild(|g| !mapped.contains(&g));
            assert_eq!(m.row_wear(), &wear_before[..], "{policy:?}");
            assert_eq!(m.state(14), Some(GroupState::Reserved), "{policy:?}");
            assert_eq!(
                m.state(m.layout.row_groups(1).0),
                Some(GroupState::Retired),
                "{policy:?}"
            );
            let free = m.debug_free_groups();
            assert_eq!(free.len() as u64, m.free_count(), "{policy:?}");
            assert!(
                free.iter()
                    .all(|&g| !mapped.contains(&g) && m.state(g) == Some(GroupState::Free)),
                "{policy:?}"
            );
            assert_eq!(allocated(&m), mapped.len() as u64, "{policy:?}");
            assert_eq!(
                allocated(&m) + m.free_count() + m.reserved_count() + m.retired_count(),
                16,
                "{policy:?}"
            );
            // A second identical rebuild pops the identical sequence.
            let mut twin = m.clone();
            twin.rebuild(|g| !mapped.contains(&g));
            let a: Vec<Option<u64>> = (0..4).map(|_| m.allocate()).collect();
            let b: Vec<Option<u64>> = (0..4).map(|_| twin.allocate()).collect();
            assert_eq!(a, b, "{policy:?}");
        }
    }

    #[test]
    fn reservation_is_idempotent_and_occupancy_balances() {
        let mut m = manager(16, 2, 2, 2, 8, PlacementPolicy::FirstFree);
        m.reserve_range(12, 16);
        m.reserve_range(12, 16);
        assert_eq!(m.reserved_count(), 4);
        let mut held = Vec::new();
        for _ in 0..6 {
            held.push(m.allocate().unwrap());
        }
        assert_eq!(allocated(&m), 6);
        assert_eq!(allocated(&m) + m.free_count() + m.reserved_count(), 16);
    }
}
