//! Incremental free-space management for physical page groups.
//!
//! Flashvisor allocates every data-section write (and every GC migration)
//! a physical page group. This module owns every group that is not
//! mapped: the free ones, the hot reserve staged for hot writes, and the
//! reserved and retired ones fenced off for good. It keeps one
//! [`GroupState`] per group with O(1) free, reserved and retired counts,
//! and a [`PlacementPolicy`] deciding *which* free group a write lands
//! on. Keeping the metadata next to the allocator — instead of deriving
//! it by scanning the mapping table — is what keeps the hot write path
//! allocator-bound on the hardware model, not on the simulator.
//!
//! The manager asks the flash layout ([`fa_flash::GroupLayout`]) where a
//! group sits: its *stripe class* is the lane (channel, die) its leading
//! page lands on, and its *block row* is the within-die erase-block index
//! its leading page falls in (block `r` of every channel and die — the
//! unit GC erases).
//!
//! Every policy shares one structure: a cursor over the never-used groups
//! (only `FirstFree` starts it at 0; the others queue every group up
//! front), and one FIFO queue of free groups per *placement key*. A
//! policy is two choices: the key a group queues under, and which
//! non-empty queue the next pop draws from.
//!
//! * [`PlacementPolicy::FirstFree`] keys every group to one queue of
//!   recycled groups, drawn before the cursor moves. It reproduces the
//!   log-structured cursor + recycled-FIFO allocator byte for byte; it is
//!   the default and keeps all recorded figure output identical.
//! * [`PlacementPolicy::ChannelStriped`] keys a group by its stripe class
//!   and round-robins across the classes, spreading consecutive groups
//!   over the channel/die fan-out when groups are narrower than the full
//!   die array.
//! * [`PlacementPolicy::LeastWorn`] keys a group by its block row and
//!   draws from the non-empty row with the fewest accumulated erase
//!   cycles, an O(rows) scan per pop. Every block erase the backbone
//!   reports bumps one row counter
//!   ([`FreeSpaceManager::note_block_erase`]); erase cycles are never
//!   recounted from the dies.
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
//! // A hot write stages the rest of row 1 in the hot reserve.
//! assert_eq!(m.allocate_hot(), Some(5));
//! assert_eq!(m.hot_groups(), &[6, 7]);
//! assert_eq!(m.available(), m.free_count() + 2);
//!
//! // Reserving a range fences it from allocation entirely.
//! m.reserve_range(0, 2);
//! assert_eq!(m.free_count(), 2);
//! assert_eq!(m.state(1), Some(GroupState::Reserved));
//! ```

use fa_flash::GroupLayout;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
    /// erase cycles (FIFO within the row), so erase wear levels across
    /// the device instead of piling onto the rows the recycled-FIFO order
    /// happens to favour.
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

/// The free-space manager: free-group structure, hot reserve and
/// per-group states.
#[derive(Debug, Clone)]
pub struct FreeSpaceManager {
    layout: GroupLayout,
    policy: PlacementPolicy,
    /// Groups `cursor..` were never handed out and sit in no queue; they
    /// pop in ascending order once every queue is empty, skipping fenced
    /// ones. Only `FirstFree` starts it below the last group.
    cursor: u64,
    /// One FIFO queue of free groups per placement key (see `key`).
    queues: Vec<VecDeque<u64>>,
    /// The queue a round-robin pick probes first.
    next_key: usize,
    /// Groups allocated one block row at a time and handed only to hot
    /// writes ([`FreeSpaceManager::allocate_hot`]), so cold rows stop
    /// absorbing churn. They count as allocated.
    hot: VecDeque<u64>,
    /// One state per group, kept in lockstep with the queues: makes
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
        let rows = layout.geometry.blocks_per_die();
        let keys = match policy {
            PlacementPolicy::FirstFree => 1,
            PlacementPolicy::ChannelStriped => layout.geometry.total_dies(),
            PlacementPolicy::LeastWorn => rows,
        };
        let mut manager = FreeSpaceManager {
            layout,
            policy,
            cursor: 0,
            queues: vec![VecDeque::new(); keys],
            next_key: 0,
            hot: VecDeque::new(),
            states: vec![GroupState::Free; total_groups as usize],
            free_count: total_groups,
            reserved_count: 0,
            retired_count: 0,
            row_wear: vec![0; rows],
        };
        if policy != PlacementPolicy::FirstFree {
            manager.requeue();
        }
        manager
    }

    /// Every group on the device.
    fn total_groups(&self) -> u64 {
        self.states.len() as u64
    }

    /// The queue group `g` waits in while free.
    fn key(&self, g: u64) -> usize {
        match self.policy {
            PlacementPolicy::FirstFree => 0,
            PlacementPolicy::ChannelStriped => self.layout.lane_of_group(g),
            PlacementPolicy::LeastWorn => self.layout.row_of_group(g) as usize,
        }
    }

    /// The non-empty queue the next pop draws from: the least-worn row
    /// (ties to the lower row) for `LeastWorn`, otherwise the next queue
    /// in rotation. `None` when every queue is empty.
    fn pick(&self) -> Option<usize> {
        let keys = self.queues.len();
        let nonempty = |&k: &usize| !self.queues[k].is_empty();
        match self.policy {
            PlacementPolicy::LeastWorn => (0..keys)
                .filter(nonempty)
                .min_by_key(|&row| (self.row_wear[row], row)),
            _ => (0..keys)
                .map(|probe| (self.next_key + probe) % keys)
                .find(nonempty),
        }
    }

    /// Queues every free group, ascending within each queue, and
    /// exhausts the cursor.
    fn requeue(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for g in 0..self.total_groups() {
            if self.states[g as usize] == GroupState::Free {
                let key = self.key(g);
                self.queues[key].push_back(g);
            }
        }
        self.cursor = self.total_groups();
        self.next_key = 0;
    }

    /// Groups currently free. O(1).
    pub fn free_count(&self) -> u64 {
        self.free_count
    }

    /// Groups any allocation path can still hand out: the free ones plus
    /// the hot reserve. O(1). GC's abort guards check this, so a run is
    /// never declared out of space while groups sit staged for hot writes.
    pub fn available(&self) -> u64 {
        self.free_count + self.hot.len() as u64
    }

    /// The groups staged in the hot reserve, in the order hot writes take
    /// them.
    pub fn hot_groups(&self) -> &VecDeque<u64> {
        &self.hot
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

    /// Records one block erase in block row `row`. O(1).
    pub fn note_block_erase(&mut self, row: u64) {
        if let Some(wear) = self.row_wear.get_mut(row as usize) {
            *wear += 1;
        }
    }

    /// Pops the next free group under the placement policy; `None` when no
    /// group is free.
    fn pop(&mut self) -> Option<u64> {
        let g = match self.pick() {
            Some(key) => {
                self.next_key = (key + 1) % self.queues.len();
                self.queues[key].pop_front()?
            }
            None => {
                // The cursor range may hold reserved groups (the journal
                // row) or retired ones (bad block rows); they are
                // skipped, never handed out.
                let g = (self.cursor..self.total_groups())
                    .find(|&g| !self.states[g as usize].is_fenced());
                self.cursor = g.map_or(self.total_groups(), |g| g + 1);
                g?
            }
        };
        self.free_count -= 1;
        self.states[g as usize] = GroupState::Allocated;
        Some(g)
    }

    /// Pops the next free group under the placement policy. When none is
    /// free it hands out a group staged in the hot reserve rather than
    /// failing with space still on the device; `None` when both are empty.
    pub fn allocate(&mut self) -> Option<u64> {
        self.pop().or_else(|| self.hot.pop_front())
    }

    /// Allocates a destination for a hot-classified write: the front of
    /// the hot reserve, refilled up to one block *row's* worth of groups
    /// at a time — the row is GC's reclaim unit, so hot churn fills whole
    /// rows that later erase with almost nothing valid left to migrate. A
    /// refill always stops at a row boundary: carving past one would park
    /// a row's leading pages in the reserve while the shared pool hands
    /// out the same row's tail, and whichever stream programs second would
    /// violate the per-block sequential-program order. `None` when no group
    /// is free or staged.
    pub fn allocate_hot(&mut self) -> Option<u64> {
        if self.hot.is_empty() {
            // Groups in one block row: the refill quantum and the
            // alignment unit a refill stops at.
            let batch = self.layout.groups_per_row();
            for _ in 0..batch {
                let Some(g) = self.pop() else { break };
                self.hot.push_back(g);
                if (g + 1) % batch == 0 {
                    break;
                }
            }
        }
        self.hot.pop_front()
    }

    /// Allocates a GC migration destination outside `[low, high)`: a
    /// row-coherent GC pass must not program relocated data into the very
    /// row it is about to erase. Groups popped from inside the range go
    /// straight back to the free structure. When no free group lies
    /// outside the range, the first staged hot group outside it is used
    /// instead — GC must never starve while unmapped space merely sits
    /// staged for future hot writes.
    pub fn allocate_excluding(&mut self, low: u64, high: u64) -> Option<u64> {
        let outside = |g: &u64| *g < low || *g >= high;
        let mut skipped = Vec::new();
        let picked = loop {
            match self.pop() {
                Some(g) if !outside(&g) => skipped.push(g),
                other => break other,
            }
        };
        for g in skipped {
            self.recycle(g);
        }
        picked.or_else(|| {
            let at = self.hot.iter().position(outside)?;
            self.hot.remove(at)
        })
    }

    /// Where group `g` stands; `None` past the last group.
    pub fn state(&self, g: u64) -> Option<GroupState> {
        self.states.get(g as usize).copied()
    }

    /// True when group `g` is currently in the free structure.
    pub(crate) fn is_free(&self, g: u64) -> bool {
        self.state(g) == Some(GroupState::Free)
    }

    /// Takes every group of `[low, high)` (clamped to the device) out of
    /// the queues and the hot reserve, before the caller re-states them.
    /// Groups past the cursor sit in no queue. Queue membership is in
    /// lockstep with the group states, so when no group in the range is
    /// free the O(free) queue sweep is skipped — the common case for a GC
    /// pass reclaiming a fully-garbage row.
    fn pull_range(&mut self, low: u64, high: u64) {
        let outside = |g: &u64| *g < low || *g >= high;
        self.hot.retain(outside);
        if self.states[low as usize..high as usize].contains(&GroupState::Free) {
            for q in &mut self.queues {
                q.retain(outside);
            }
        }
    }

    /// Moves every unfenced group of `[low, high)` to the fenced state
    /// `to` for good, out of the queues and the hot reserve. Returns how
    /// many groups were newly fenced.
    fn fence(&mut self, low: u64, high: u64, to: GroupState) -> u64 {
        let high = high.min(self.total_groups());
        if low >= high {
            return 0;
        }
        self.pull_range(low, high);
        let mut newly = 0;
        for state in &mut self.states[low as usize..high as usize] {
            if state.is_fenced() {
                continue;
            }
            if std::mem::replace(state, to) == GroupState::Free {
                self.free_count -= 1;
            }
            newly += 1;
        }
        match to {
            GroupState::Reserved => self.reserved_count += newly,
            _ => self.retired_count += newly,
        }
        newly
    }

    /// Retires every non-reserved group of block row `row`: the groups
    /// leave the free structure and the hot reserve permanently: a bad
    /// block contaminates the whole row it stripes across, so the row
    /// stops being placement-eligible. The caller guarantees nothing in
    /// the row is still mapped (Flashvisor migrates mapped groups out
    /// first). The row's `row_wear` entry is kept: retirement does not
    /// rewrite wear history. Idempotent; returns how many groups were
    /// newly retired.
    pub fn retire_row(&mut self, row: u64) -> u64 {
        let (low, high) = self.layout.row_groups(row);
        self.fence(low, high, GroupState::Retired)
    }

    /// Permanently removes the group range `[low, high)` from the free
    /// structure: reserved groups are never allocated, never recycled, and
    /// never re-enter the pool through a row reclaim. Flashvisor reserves
    /// the journal's metadata row this way, so the data cursor cannot
    /// collide with journal pages on a nearly-full device.
    pub fn reserve_range(&mut self, low: u64, high: u64) {
        self.fence(low, high, GroupState::Reserved);
    }

    /// Returns a reclaimed group to the free structure. Recycling a group
    /// that is already free (or reserved) is a no-op, so a double recycle
    /// cannot put the same group in the pool twice.
    pub fn recycle(&mut self, g: u64) {
        let state = &mut self.states[g as usize];
        if *state != GroupState::Allocated {
            return;
        }
        *state = GroupState::Free;
        let key = self.key(g);
        self.queues[key].push_back(g);
        self.free_count += 1;
    }

    /// Reclaims the whole group range `[low, high)` after its backing
    /// erase-block row was erased: every in-range member already in the
    /// pool or the hot reserve is pulled out, every in-range group is
    /// freed, and the range re-enters the free structure as one
    /// *ascending* run. Consuming an ascending run refills the erased
    /// blocks from page 0 in NAND programming order, which is what makes
    /// reclaimed rows actually reusable. Reserved groups are untouched.
    /// The caller guarantees nothing in the range is mapped and all of its
    /// blocks are erased. Returns how many groups were newly freed
    /// (garbage that was never individually recycled).
    pub fn reclaim_range(&mut self, low: u64, high: u64) -> u64 {
        let high = high.min(self.total_groups());
        if low >= high {
            return 0;
        }
        self.pull_range(low, high);
        let mut newly_freed = 0;
        for g in low..high {
            let state = &mut self.states[g as usize];
            if state.is_fenced() {
                continue;
            }
            if std::mem::replace(state, GroupState::Free) != GroupState::Free {
                newly_freed += 1;
                self.free_count += 1;
            }
            // Groups at or past the cursor are still represented by the
            // cursor itself (and allocate in ascending order from it).
            if g < self.cursor {
                let key = self.key(g);
                self.queues[key].push_back(g);
            }
        }
        newly_freed
    }

    /// Rebuilds the free structure from scratch after a crash: group `g`
    /// is free exactly when `is_free(g)` says so *and* it is neither
    /// reserved nor retired. Every free group re-enters its queue in
    /// ascending order, the cursor is exhausted, the volatile hot reserve
    /// is dropped, and every other unfenced group is allocated. The wear
    /// ledger (`row_wear`), the reservations, and the bad-block
    /// retirements are kept — they survive power loss (wear is physical;
    /// the bad-block table is journaled metadata). The result is a pure
    /// function of the states and the predicate, so replaying the same
    /// journal always reproduces the same allocator.
    pub fn rebuild(&mut self, is_free: impl Fn(u64) -> bool) {
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
        self.hot.clear();
        self.requeue();
    }

    /// Every group currently in the free structure, in queue order and then
    /// the cursor's ascending order. O(free); property-test oracle only.
    pub fn debug_free_groups(&self) -> Vec<u64> {
        let never_used =
            (self.cursor..self.total_groups()).filter(|&g| !self.states[g as usize].is_fenced());
        self.queues
            .iter()
            .flatten()
            .copied()
            .chain(never_used)
            .collect()
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
