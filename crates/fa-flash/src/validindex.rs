//! Incremental GC-victim index over the whole backbone.
//!
//! Storengine's victim selection asks on every GC pass: "which block has
//! garbage to reclaim at the lowest migration cost?". Recounting page
//! states across the backbone makes that O(total pages); this index keeps
//! the answer current as the backbone executes commands, so it is
//! O(log n).
//!
//! The dies own every per-block fact: write cursor, valid bits, valid
//! count and erase count ([`crate::FlashDie::block_counts`]). The index
//! stores none of them. Each hook receives the block's [`BlockCounts`]
//! from just before the event it records, and the index keeps only what no
//! die holds:
//!
//! * **Garbage buckets.** Every block holding at least one superseded
//!   (invalid) page sits in the bucket keyed by its valid count. The
//!   greedy victim policy pops the lowest-keyed non-empty bucket — the
//!   block that frees space for the fewest migrated pages. The buckets
//!   are bitmaps scanned in ascending order, so the pick is deterministic
//!   (smallest block index wins ties), which the campaign determinism
//!   contract relies on.
//! * **Age.** Every program stamps its block's `last_program_ns`, so the
//!   classic cost-benefit score `age × garbage / valid` is computable for
//!   every garbage block ([`ValidPageIndex::cost_benefit_victim`]), with
//!   the garbage read from the dies.
//! * **Erase events.** Every [`ValidPageIndex::on_erase`] records the
//!   block in a pending list. The translation layer drains that list
//!   ([`ValidPageIndex::take_erased_blocks`]) to keep its min-wear
//!   placement structure current without ever rescanning the dies.
//! * **Retired blocks**, which never re-enter the buckets, and the
//!   device-wide valid total.
//! * **Page groups** (the translation layer's allocation unit, laid out by
//!   the index's [`GroupLayout`]). The index answers the two questions
//!   reclaim asks: does a group still hold a programmed page
//!   ([`ValidPageIndex::group_programmed_pages`]), and which groups did an
//!   erase clear (the fully-erased drain). It keeps one programmed counter
//!   per group and no per-block group lists: it derives the groups a block
//!   holds from the flat page layout of
//!   [`crate::FlashGeometry::flat_to_addr`], because programs fill a
//!   block's levels in ascending order.
//!
//! The index is maintained by [`crate::backbone::FlashBackbone`] for every
//! command routed through it, with one entry point per event: each page
//! program, page invalidation, and block erase is one
//! [`ValidPageIndex::on_program`], [`ValidPageIndex::on_invalidate`], or
//! [`ValidPageIndex::on_erase`] call, whether the page arrived as a single
//! command or as part of a page-group stripe. Preloaded (pre-experiment)
//! data arrives one die block's page run at a time, and the group counters
//! move once per preloaded range. Mutating a die directly (tests using
//! `die_mut`) bypasses the hooks; the property-test oracles recount from
//! page states to catch any such drift in paths that matter.
//!
//! # Examples
//!
//! ```
//! use fa_flash::{FlashBackbone, FlashOp, FlashGeometry, FlashTiming, GroupLayout, OwnerId};
//! use fa_sim::time::SimTime;
//!
//! let layout = GroupLayout { geometry: FlashGeometry::tiny_for_tests(), pages_per_group: 2 };
//! let mut bb = FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000);
//! // Flat pages 0 and 2 are pages 0 and 1 of block 0 (two lanes); page 2
//! // is later superseded.
//! bb.preload_group(0, 1).unwrap();
//! bb.preload_group(2, 1).unwrap();
//! bb.invalidate_group(2, 1).unwrap();
//! assert_eq!((bb.valid_in(0), bb.garbage_in(0)), (1, 1));
//! // Block 0 is now the cheapest (and only) reclaim candidate.
//! assert_eq!(bb.min_valid_garbage_block(), Some(0));
//! assert_eq!(bb.cost_benefit_victim_block(SimTime::from_ns(1_000)), Some(0));
//! // Erasing it leaves nothing to reclaim, queues an erase event, and
//! // clears both groups it held a page of; the die counts the wear.
//! bb.submit_group(SimTime::ZERO, 0, 1, FlashOp::EraseBlock, OwnerId::Gc).unwrap();
//! assert_eq!(bb.min_valid_garbage_block(), None);
//! assert_eq!(bb.take_erased_blocks(), vec![0]);
//! assert_eq!(bb.take_fully_erased_groups(), vec![0, 1]);
//! assert_eq!(bb.block_erase_counts().next(), Some(1));
//! ```

use crate::die::BlockCounts;
use crate::{GroupLayout, PhysicalPageAddr};

/// Page-group accounting layered over the garbage buckets.
///
/// A *page group* is `pages_per_group` consecutive flat pages — the
/// allocation unit of the translation layer above. The tracker answers the
/// question the group-reclaim leak fix needs: *which groups did this erase
/// make reusable?* It keeps one programmed page count per group. Which
/// groups a block holds is not stored: level `p` of a block is the
/// [`crate::FlashGeometry::addr_to_flat`] of its page `p`, consecutive
/// levels lie [`crate::FlashGeometry::total_dies`] flat pages apart, and
/// NAND programs land on ascending levels, so a block's programmed pages
/// are exactly its levels `0..programmed` and an erase walks them. A group stripes across
/// channels, so it spans several blocks of one block row. When an erase
/// clears a group's last programmed page anywhere on the device, the group
/// lands in `fully_erased` for the caller to drain — including overwritten
/// (unmapped) garbage groups that no migration ever recycled. Pages past
/// the last whole group belong to no group.
#[derive(Debug, Clone)]
struct GroupTracker {
    layout: GroupLayout,
    /// Programmed (not yet erased) pages per group. A group holds at most
    /// `pages_per_group` pages, which is capped at `u16::MAX`.
    programmed: Vec<u16>,
    /// Groups whose last programmed page an erase just cleared, pending a
    /// drain by the reclaim path.
    fully_erased: Vec<u64>,
}

impl GroupTracker {
    /// Flat index of level 0 of block `b`.
    fn level0_flat(&self, b: usize) -> u64 {
        let geometry = &self.layout.geometry;
        let (channel, die, block) = geometry.block_index_to_addr(b as u64);
        geometry.addr_to_flat(PhysicalPageAddr::new(channel, die, block, 0))
    }

    /// Flat-page distance between two levels of a block.
    fn lanes(&self) -> u64 {
        self.layout.geometry.total_dies() as u64
    }

    /// A walk over the groups of block `b`'s levels, from level 0 up.
    fn level_groups(&self, b: usize) -> LevelGroups {
        let ppg = self.layout.pages_per_group;
        let flat = self.level0_flat(b);
        LevelGroups {
            group: flat / ppg,
            offset: flat % ppg,
            step_groups: self.lanes() / ppg,
            step_offset: self.lanes() % ppg,
            pages_per_group: ppg,
        }
    }

    /// Records the flat pages `first_flat..first_flat + pages` being
    /// programmed: each tracked group they touch moves once.
    fn add_pages(&mut self, first_flat: u64, pages: u64) {
        let ppg = self.layout.pages_per_group;
        let end = (first_flat + pages).min(self.programmed.len() as u64 * ppg);
        let (mut flat, mut g) = (first_flat, (first_flat / ppg) as usize);
        while flat < end {
            let group_end = ((g as u64 + 1) * ppg).min(end);
            self.programmed[g] += (group_end - flat) as u16;
            (flat, g) = (group_end, g + 1);
        }
    }

    /// Accounts block `b`'s erase, `levels` of which were programmed: each
    /// level's page leaves its group.
    fn erase(&mut self, b: usize, levels: u32) {
        let mut walk = self.level_groups(b);
        for _ in 0..levels {
            let g = walk.group as usize;
            // Levels ascend in flat order, so once past the tracked groups
            // every later level is too.
            let Some(programmed) = self.programmed.get_mut(g) else {
                break;
            };
            *programmed -= 1;
            if *programmed == 0 {
                // The erase cleared this group's last programmed page
                // anywhere on the device: it is reusable again.
                self.fully_erased.push(g as u64);
            }
            walk.advance();
        }
    }
}

/// The group of each successive level of one block. Consecutive levels lie
/// `lanes` flat pages apart, so the walk steps the group index and its
/// in-group offset by that stride instead of dividing every level's flat
/// index.
#[derive(Debug, Clone, Copy)]
struct LevelGroups {
    group: u64,
    offset: u64,
    step_groups: u64,
    step_offset: u64,
    pages_per_group: u64,
}

impl LevelGroups {
    /// Moves to the next level's group.
    fn advance(&mut self) {
        self.group += self.step_groups;
        self.offset += self.step_offset;
        if self.offset >= self.pages_per_group {
            self.offset -= self.pages_per_group;
            self.group += 1;
        }
    }
}

/// Backbone-wide GC-victim index: garbage buckets, program ages, retired
/// blocks, erase events, and page-group counters.
#[derive(Debug, Clone)]
pub struct ValidPageIndex {
    /// Bucket `v` holds the blocks with `v` valid pages *and* at least one
    /// invalid page (i.e. something to reclaim), blocks indexed by
    /// [`crate::FlashGeometry::block_index`]. Stored as one block-index
    /// bitmap per valid level, flattened (`level × words_per_level` words):
    /// the per-command membership flips are single bit operations, and the
    /// per-GC-pass minimum lookups scan words in ascending order, which
    /// preserves the deterministic smallest-block-wins tie-break.
    buckets: Vec<u64>,
    words_per_level: usize,
    /// Blocks per bucket, so emptiness is known without scanning.
    level_counts: Vec<u32>,
    /// Bitmap over valid levels whose bucket is non-empty.
    occupied: Vec<u64>,
    total_valid: u64,
    /// Blocks erased since the last [`ValidPageIndex::take_erased_blocks`]
    /// drain (one entry per erase, so repeated erases of one block are all
    /// visible to the wear structure above).
    erase_events: Vec<u64>,
    /// Instant (ns) of the last program landing in each block — the age
    /// base of the cost-benefit score.
    last_program_ns: Vec<u64>,
    /// Blocks promoted into the bad-block table: permanently excluded from
    /// the garbage buckets, so no victim policy ever proposes erasing a
    /// block the media already rejected. All-false unless a fault plan
    /// retired something.
    retired: Vec<bool>,
    /// Page-group accounting.
    groups: GroupTracker,
}

impl ValidPageIndex {
    /// Creates an index for an all-erased device laid out by `layout`:
    /// `pages_per_group` consecutive flat pages form one allocation group,
    /// and the pages past the last whole group belong to none.
    ///
    /// # Panics
    ///
    /// Panics unless `pages_per_group` fits the 16-bit per-group counters
    /// (at most `u16::MAX`).
    pub fn new(layout: GroupLayout) -> Self {
        let pages_per_group = layout.pages_per_group;
        assert!(
            pages_per_group <= u64::from(u16::MAX),
            "pages_per_group {pages_per_group} exceeds the 16-bit group counters"
        );
        let total_blocks = layout.geometry.total_blocks() as usize;
        let levels = layout.geometry.pages_per_block + 1;
        let words_per_level = total_blocks.div_ceil(64);
        ValidPageIndex {
            buckets: vec![0; levels * words_per_level],
            words_per_level,
            level_counts: vec![0; levels],
            occupied: vec![0; levels.div_ceil(64)],
            total_valid: 0,
            erase_events: Vec::new(),
            last_program_ns: vec![0; total_blocks],
            retired: vec![false; total_blocks],
            groups: GroupTracker {
                layout,
                programmed: vec![0; layout.total_groups() as usize],
                fully_erased: Vec::new(),
            },
        }
    }

    fn bucket_remove(&mut self, level: u32, block: u32) {
        let l = level as usize;
        let word = &mut self.buckets[l * self.words_per_level + (block as usize >> 6)];
        let bit = 1u64 << (block & 63);
        if *word & bit != 0 {
            *word &= !bit;
            self.level_counts[l] -= 1;
            if self.level_counts[l] == 0 {
                self.occupied[l >> 6] &= !(1u64 << (l & 63));
            }
        }
    }

    fn bucket_insert(&mut self, level: u32, block: u32) {
        // Retired blocks never re-enter the victim structure, no matter how
        // much garbage they accumulate.
        if self.retired[block as usize] {
            return;
        }
        let l = level as usize;
        let word = &mut self.buckets[l * self.words_per_level + (block as usize >> 6)];
        let bit = 1u64 << (block & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.level_counts[l] += 1;
            self.occupied[l >> 6] |= 1u64 << (l & 63);
        }
    }

    /// Moves `block` from the bucket its counts `before` put it in to the
    /// one its counts `after` do, and the valid total with it.
    fn rebucket(&mut self, block: u64, before: BlockCounts, after: BlockCounts) {
        if before.garbage() > 0 {
            self.bucket_remove(before.valid, block as u32);
        }
        if after.garbage() > 0 {
            self.bucket_insert(after.valid, block as u32);
        }
        self.total_valid = self.total_valid + u64::from(after.valid) - u64::from(before.valid);
    }

    /// The set bit indices of `words`, ascending.
    fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
        words.iter().enumerate().flat_map(|(i, &w)| {
            std::iter::successors((w != 0).then_some(w), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Records one page program (or preload) of flat page `flat` landing in
    /// `block`, whose counts were `before`, at instant `now_ns` (preloads
    /// pass 0: pre-experiment data is "as old as the run").
    pub fn on_program(&mut self, block: u64, before: BlockCounts, flat: u64, now_ns: u64) {
        self.on_program_run(block, before, flat, 1, now_ns);
        self.on_programmed_range(flat, 1);
    }

    /// Records `n` page programs (or preloads) landing in `block`, whose
    /// counts were `before`, at instant `now_ns`, on its next `n` levels,
    /// the first of them flat page `first_flat`: one die block's page run.
    /// The garbage bucket and the valid total move once for the whole run.
    /// The group counters do not move: the caller reports the run's flat
    /// pages through [`ValidPageIndex::on_programmed_range`].
    pub(crate) fn on_program_run(
        &mut self,
        block: u64,
        before: BlockCounts,
        first_flat: u64,
        n: u32,
        now_ns: u64,
    ) {
        if n == 0 {
            return;
        }
        let b = block as usize;
        debug_assert_eq!(
            self.groups.level0_flat(b) + u64::from(before.programmed) * self.groups.lanes(),
            first_flat,
            "a program must land on its block's next level"
        );
        let after = BlockCounts {
            valid: before.valid + n,
            programmed: before.programmed + n,
        };
        self.rebucket(block, before, after);
        self.last_program_ns[b] = self.last_program_ns[b].max(now_ns);
    }

    /// Records the flat pages `first_flat..first_flat + pages` being
    /// programmed in the group counters, each group they touch once. Their
    /// blocks report them through [`ValidPageIndex::on_program_run`].
    pub(crate) fn on_programmed_range(&mut self, first_flat: u64, pages: u64) {
        self.groups.add_pages(first_flat, pages);
    }

    /// Records one page of `block`, whose counts were `before`, being
    /// superseded.
    pub fn on_invalidate(&mut self, block: u64, before: BlockCounts) {
        let after = BlockCounts {
            valid: before.valid - 1,
            ..before
        };
        self.rebucket(block, before, after);
    }

    /// Records `block`, whose counts were `before`, being erased.
    pub fn on_erase(&mut self, block: u64, before: BlockCounts) {
        self.rebucket(block, before, BlockCounts::default());
        self.groups.erase(block as usize, before.programmed);
        self.erase_events.push(block);
    }

    /// Drains the groups whose last programmed page an erase cleared since
    /// the previous drain. The reclaim path above returns the unmapped ones
    /// to the allocator — the fix for the "erased but never recycled"
    /// overwrite-garbage leak.
    pub(crate) fn take_fully_erased_groups(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.groups.fully_erased)
    }

    /// Programmed (not yet erased) pages of group `g`, device-wide; zero
    /// past the last whole group.
    pub fn group_programmed_pages(&self, g: u64) -> u32 {
        self.groups
            .programmed
            .get(g as usize)
            .map_or(0, |&n| u32::from(n))
    }

    /// Valid pages across the whole backbone.
    pub fn total_valid(&self) -> u64 {
        self.total_valid
    }

    /// The reclaimable block with the fewest valid pages (cheapest
    /// migration), smallest block index on ties; `None` when no block holds
    /// garbage. O(log n).
    pub fn min_valid_garbage_block(&self) -> Option<u64> {
        let level = Self::set_bits(&self.occupied).next()?;
        let base = level * self.words_per_level;
        Self::set_bits(&self.buckets[base..base + self.words_per_level])
            .next()
            .map(|block| block as u64)
    }

    /// Drains the blocks erased since the previous drain, one entry per
    /// erase in execution order. The translation layer feeds these into its
    /// incrementally maintained min-wear placement structure.
    pub fn take_erased_blocks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.erase_events)
    }

    /// The reclaimable block maximizing the classic cost-benefit score
    /// `age × garbage / valid` at instant `now_ns`, where `age` is the time
    /// since the block last absorbed a program and `garbage_in` gives a
    /// block's superseded pages: stale blocks full of garbage are the best
    /// victims, hot blocks about to gather more garbage are the worst.
    /// `None` when no block holds garbage.
    ///
    /// Walks only the garbage buckets — O(blocks with garbage), never a
    /// device rescan — with exact integer cross-multiplied comparison so
    /// the pick is deterministic (score ties go to the first candidate in
    /// (valid-level, block-index) order).
    pub fn cost_benefit_victim(&self, now_ns: u64, garbage_in: impl Fn(u64) -> u32) -> Option<u64> {
        let mut best: Option<(u128, u128, u64)> = None;
        for level in Self::set_bits(&self.occupied) {
            let base = level * self.words_per_level;
            for block in Self::set_bits(&self.buckets[base..base + self.words_per_level]) {
                let block = block as u64;
                let age = now_ns
                    .saturating_sub(self.last_program_ns[block as usize])
                    .max(1) as u128;
                let numerator = age * garbage_in(block) as u128;
                // A block's bucket is its valid count.
                let denominator = level.max(1) as u128;
                let better = match best {
                    None => true,
                    // score = num/den; compare num_a * den_b vs num_b * den_a
                    // exactly instead of dividing.
                    Some((bn, bd, _)) => numerator * bd > bn * denominator,
                };
                if better {
                    best = Some((numerator, denominator, block));
                }
            }
        }
        best.map(|(_, _, block)| block)
    }

    /// Promotes `block`, whose counts are `counts`, into the bad-block
    /// table: it leaves the garbage buckets immediately and never
    /// re-enters, so neither victim policy can propose erasing it again.
    /// Retirement hides the block from GC; its die keeps its state.
    /// Idempotent.
    pub fn retire_block(&mut self, block: u64, counts: BlockCounts) {
        let b = block as usize;
        if b >= self.retired.len() || self.retired[b] {
            return;
        }
        if counts.garbage() > 0 {
            self.bucket_remove(counts.valid, block as u32);
        }
        self.retired[b] = true;
    }

    /// True when `block` sits in the bad-block table.
    pub fn is_block_retired(&self, block: u64) -> bool {
        self.retired
            .get(block as usize)
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlashBackbone, FlashGeometry, FlashOp, FlashTiming, OwnerId};
    use fa_sim::time::SimTime;
    use std::ops::Range;

    /// A geometry of `channels` × `dies` lanes, each with `blocks` blocks
    /// of `pages_per_block` pages.
    fn geometry(
        channels: usize,
        dies: usize,
        blocks: usize,
        pages_per_block: usize,
    ) -> FlashGeometry {
        FlashGeometry {
            channels,
            packages_per_channel: dies,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: blocks,
            pages_per_block,
            page_bytes: 4096,
        }
    }

    /// An all-erased backbone over `g` in `pages_per_group`-page groups,
    /// whose dies feed the index.
    fn device(g: FlashGeometry, pages_per_group: u64) -> FlashBackbone {
        let layout = GroupLayout {
            geometry: g,
            pages_per_group,
        };
        FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000)
    }

    /// Programs flat pages `flats` in order.
    fn program(bb: &mut FlashBackbone, flats: Range<u64>) {
        for flat in flats {
            bb.preload_group(flat, 1).unwrap();
        }
    }

    fn invalidate(bb: &mut FlashBackbone, flat: u64) {
        bb.invalidate_group(flat, 1).unwrap();
    }

    fn erase(bb: &mut FlashBackbone, block: u64) {
        let (channel, die, blk) = bb.geometry().block_index_to_addr(block);
        let flat = bb
            .geometry()
            .addr_to_flat(PhysicalPageAddr::new(channel, die, blk, 0));
        bb.submit_group(SimTime::ZERO, flat, 1, FlashOp::EraseBlock, OwnerId::Gc)
            .unwrap();
    }

    fn programmed(bb: &FlashBackbone, groups: Range<u64>) -> Vec<u32> {
        groups
            .map(|g| bb.valid_index().group_programmed_pages(g))
            .collect()
    }

    #[test]
    fn buckets_track_garbage_blocks_only() {
        let mut bb = device(geometry(1, 1, 4, 8), 1);
        // Fully valid blocks never appear as victims.
        program(&mut bb, 0..8);
        assert_eq!(bb.valid_in(0), 8);
        assert_eq!(bb.valid_index().min_valid_garbage_block(), None);
        // Invalidation makes block 0 reclaimable at valid level 7.
        invalidate(&mut bb, 0);
        assert_eq!(bb.valid_index().min_valid_garbage_block(), Some(0));
        assert_eq!(bb.garbage_in(0), 1);
        assert_eq!(bb.valid_index().total_valid(), 7);
    }

    #[test]
    fn greedy_pick_prefers_fewest_valid_then_smallest_index() {
        // One lane of 8-page blocks: block b holds flats 8b..8b + 8.
        let mut bb = device(geometry(1, 1, 4, 8), 1);
        for block in [1u64, 2, 3] {
            program(&mut bb, 8 * block..8 * block + 4);
        }
        invalidate(&mut bb, 8); // block 1: 3 valid, 1 garbage
        for flat in 24..27 {
            invalidate(&mut bb, flat); // block 3: 1 valid, 3 garbage
        }
        invalidate(&mut bb, 16); // block 2: 3 valid, 1 garbage
        assert_eq!(bb.valid_index().min_valid_garbage_block(), Some(3));
        erase(&mut bb, 3);
        assert_eq!(bb.valid_in(3), 0);
        assert_eq!(bb.programmed_in(3), 0);
        // Blocks 1 and 2 tie at 3 valid pages; the smaller index wins.
        assert_eq!(bb.valid_index().min_valid_garbage_block(), Some(1));
        assert_eq!(bb.valid_index().total_valid(), 3 + 3 + 1 - 1);
    }

    #[test]
    fn erase_clears_membership_and_totals() {
        let mut bb = device(geometry(1, 1, 2, 4), 1);
        program(&mut bb, 4..8);
        invalidate(&mut bb, 4);
        erase(&mut bb, 1);
        assert_eq!(bb.valid_index().min_valid_garbage_block(), None);
        assert_eq!(bb.valid_index().total_valid(), 0);
        // The block is reusable from scratch.
        program(&mut bb, 4..5);
        assert_eq!(bb.valid_in(1), 1);
    }

    #[test]
    fn group_tracking_reports_fully_erased_groups() {
        // 1 lane × 2 blocks × 4 pages, 2-page groups: group g covers flat
        // pages 2g..2g+2, flat pages 0..4 live in block 0 and 4..8 in
        // block 1.
        let mut bb = device(geometry(1, 1, 2, 4), 2);
        program(&mut bb, 0..4);
        assert_eq!(programmed(&bb, 0..4), vec![2, 2, 0, 0]);
        // Overwrite group 0: both its pages go invalid but stay programmed,
        // so nothing is reclaimable before the erase.
        invalidate(&mut bb, 0);
        invalidate(&mut bb, 1);
        assert_eq!(programmed(&bb, 0..2), vec![2, 2]);
        assert!(bb.take_fully_erased_groups().is_empty());
        // The erase clears both resident groups; both report fully erased
        // (group 1 was still valid — the caller filters mapped groups).
        erase(&mut bb, 0);
        assert_eq!(bb.take_fully_erased_groups(), vec![0, 1]);
        // The drain is one-shot.
        assert!(bb.take_fully_erased_groups().is_empty());
        assert_eq!(programmed(&bb, 0..2), vec![0, 0]);
    }

    #[test]
    fn group_spanning_two_blocks_reclaims_only_after_both_erases() {
        // 2 channels × 1 block: group 0's two pages are flat 0 in block 0
        // and flat 1 in block 1 — the striped layout where a group crosses
        // a block row.
        let mut bb = device(geometry(2, 1, 1, 4), 2);
        program(&mut bb, 0..2);
        invalidate(&mut bb, 0);
        invalidate(&mut bb, 1);
        erase(&mut bb, 0);
        // One page still programmed in block 1: not reclaimable yet.
        assert_eq!(programmed(&bb, 0..1), vec![1]);
        assert!(bb.take_fully_erased_groups().is_empty());
        erase(&mut bb, 1);
        assert_eq!(bb.take_fully_erased_groups(), vec![0]);
    }

    #[test]
    fn group_spanning_several_levels_of_one_block() {
        // 2 lanes, 4-page groups: group 0 is flats 0..4, i.e. levels 0 and
        // 1 of both blocks.
        let mut bb = device(geometry(2, 1, 1, 4), 4);
        program(&mut bb, 0..8);
        assert_eq!(programmed(&bb, 0..2), vec![4, 4]);
        for flat in 0..4 {
            invalidate(&mut bb, flat);
        }
        // Each block holds two pages of each group.
        erase(&mut bb, 0);
        assert_eq!(programmed(&bb, 0..2), vec![2, 2]);
        assert!(bb.take_fully_erased_groups().is_empty());
        erase(&mut bb, 1);
        assert_eq!(bb.take_fully_erased_groups(), vec![0, 1]);
        assert_eq!(programmed(&bb, 0..2), vec![0, 0]);
    }

    #[test]
    fn groups_straddling_levels() {
        // 2 channels × 2 dies = 4 lanes, 3-page groups. Lane order is
        // (ch0 die0, ch1 die0, ch0 die1, ch1 die1) = blocks 0, 2, 1, 3, so
        // block 0 holds flats 0, 4, 8 (groups 0, 1, 2), block 1 holds
        // 2, 6, 10 (groups 0, 2, 3), block 2 holds 1, 5, 9 (groups 0, 1,
        // 3) and block 3 holds 3, 7, 11 (groups 1, 2, 3).
        let mut bb = device(geometry(2, 2, 1, 3), 3);
        program(&mut bb, 0..12);
        assert_eq!(programmed(&bb, 0..4), vec![3, 3, 3, 3]);
        for flat in 3..6 {
            invalidate(&mut bb, flat);
        }
        // Superseded pages still count as programmed.
        erase(&mut bb, 0);
        assert_eq!(programmed(&bb, 0..4), vec![2, 2, 2, 3]);
        erase(&mut bb, 1);
        assert_eq!(programmed(&bb, 0..4), vec![1, 2, 1, 2]);
        assert!(bb.take_fully_erased_groups().is_empty());
        erase(&mut bb, 2);
        assert_eq!(bb.take_fully_erased_groups(), vec![0]);
        erase(&mut bb, 3);
        assert_eq!(bb.take_fully_erased_groups(), vec![1, 2, 3]);
    }

    #[test]
    fn tail_pages_belong_to_no_group() {
        // 5 pages in 2-page groups: flat 4 is past the last whole group.
        let mut bb = device(geometry(1, 1, 1, 5), 2);
        program(&mut bb, 0..5);
        assert_eq!(programmed(&bb, 0..3), vec![2, 2, 0]);
        invalidate(&mut bb, 4);
        invalidate(&mut bb, 0);
        invalidate(&mut bb, 1);
        erase(&mut bb, 0);
        assert_eq!(bb.take_fully_erased_groups(), vec![0, 1]);
        assert_eq!(bb.valid_index().total_valid(), 0);
    }

    #[test]
    fn scrapped_page_erase_reports_its_group_fully_erased() {
        // A page programmed and discarded at once (a failed program or a
        // stripe pad) is garbage of its group until its block is erased.
        let mut bb = device(geometry(1, 1, 1, 4), 2);
        program(&mut bb, 0..1);
        invalidate(&mut bb, 0);
        assert_eq!(programmed(&bb, 0..1), vec![1]);
        erase(&mut bb, 0);
        assert_eq!(bb.take_fully_erased_groups(), vec![0]);
        assert_eq!(programmed(&bb, 0..1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit group counters")]
    fn group_tracking_rejects_groups_beyond_16_bit_counters() {
        ValidPageIndex::new(GroupLayout {
            geometry: geometry(1, 1, 2, 4),
            pages_per_group: 1 << 16,
        });
    }

    #[test]
    fn retired_block_leaves_and_never_reenters_victim_selection() {
        let mut bb = device(geometry(1, 1, 2, 8), 1);
        program(&mut bb, 0..2);
        invalidate(&mut bb, 0); // garbage → block 0 enters the buckets
        assert_eq!(bb.valid_index().min_valid_garbage_block(), Some(0));
        bb.retire_block(0);
        assert!(bb.valid_index().is_block_retired(0));
        assert_eq!(bb.valid_index().min_valid_garbage_block(), None);
        // Accumulating more garbage cannot resurrect a retired block.
        invalidate(&mut bb, 1);
        assert_eq!(bb.valid_index().min_valid_garbage_block(), None);
        assert_eq!(bb.cost_benefit_victim_block(SimTime::from_ns(1_000)), None);
        // The die keeps counting it; retirement only hides it from GC.
        assert_eq!(bb.valid_in(0), 0);
        assert_eq!(bb.garbage_in(0), 2);
        bb.retire_block(0); // idempotent
        assert!(bb.valid_index().is_block_retired(0));
    }

    #[test]
    fn reprogramming_a_garbage_block_moves_its_bucket() {
        let mut bb = device(geometry(1, 1, 2, 8), 1);
        program(&mut bb, 0..3);
        invalidate(&mut bb, 0); // block 0: 2 valid, 1 garbage
        program(&mut bb, 8..11);
        invalidate(&mut bb, 8); // block 1: 2 valid, 1 garbage
        assert_eq!(bb.valid_index().min_valid_garbage_block(), Some(0));
        program(&mut bb, 3..4); // 3 valid, 1 garbage — bucket must move 2 → 3
        assert_eq!(bb.valid_in(0), 3);
        assert_eq!(bb.garbage_in(0), 1);
        assert_eq!(bb.valid_index().min_valid_garbage_block(), Some(1));
    }
}
