//! Incremental valid-page index over the whole backbone.
//!
//! Storengine's victim selection needs two questions answered on every GC
//! pass: "how many valid pages does block *b* hold?" and "which block has
//! garbage to reclaim at the lowest migration cost?". Recounting page
//! states across the backbone makes both O(total pages); this index keeps
//! the answers current as the backbone executes commands, so both are
//! O(1)–O(log n).
//!
//! The structure is a per-block valid/programmed counter pair plus *garbage
//! buckets*: every block holding at least one superseded (invalid) page
//! sits in the bucket keyed by its current valid count. The greedy victim
//! policy pops the lowest-keyed non-empty bucket — the block that frees
//! space for the fewest migrated pages. `BTreeSet` buckets make the pick
//! deterministic (smallest block index wins ties), which the campaign
//! determinism contract relies on.
//!
//! Two richer victim policies read further fields of the same structure:
//!
//! * **Wear.** Every [`ValidPageIndex::on_erase`] bumps a per-block erase
//!   counter and records the block in a pending *erase event* list. The
//!   translation layer drains that list ([`ValidPageIndex::take_erased_blocks`])
//!   to keep its min-wear placement structure current without ever
//!   rescanning the dies.
//! * **Age.** Every program stamps its block's `last_program_ns`, so the
//!   classic cost-benefit score `age × garbage / valid` is computable per
//!   garbage block from index state alone
//!   ([`ValidPageIndex::cost_benefit_victim`]).
//!
//! With group tracking enabled ([`ValidPageIndex::enable_group_tracking`])
//! the index also answers which page groups (the translation layer's
//! allocation unit) a block erase frees. It stores no per-block group
//! lists: it keeps one valid bit per page level of each block and derives
//! the groups a block holds from the flat page layout of
//! [`FlashGeometry::flat_to_addr`], because programs fill a block's levels
//! in ascending order.
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
//! use fa_flash::ValidPageIndex;
//!
//! let mut idx = ValidPageIndex::new(2, 4);
//! // Two programs land in block 0; one page is later superseded.
//! idx.on_program(0, 0, 10);
//! idx.on_program(0, 1, 20);
//! idx.on_invalidate(0, 1, 1);
//! assert_eq!(idx.valid_in(0), 1);
//! assert_eq!(idx.garbage_in(0), 1);
//! // Block 0 is now the cheapest (and only) reclaim candidate.
//! assert_eq!(idx.min_valid_garbage_block(), Some(0));
//! assert_eq!(idx.cost_benefit_victim(1_000), Some(0));
//! // Erasing it bumps the wear counter and queues an erase event.
//! idx.on_erase(0);
//! assert_eq!(idx.block_erase_count(0), 1);
//! assert_eq!(idx.take_erased_blocks(), vec![0]);
//! ```

use crate::die::set_bit_run;
use crate::FlashGeometry;

/// Optional page-group accounting layered over the per-block counters.
///
/// A *page group* is `pages_per_group` consecutive flat pages — the
/// allocation unit of the translation layer above. The tracker answers the
/// question the group-reclaim leak fix needs: *which groups did this erase
/// make reusable?* It keeps per-group programmed/valid page counts plus one
/// valid bit per page level of every block. Which groups a block holds is
/// not stored: level `p` of block `b` is flat page
/// `(row × pages_per_block + p) × lanes + die × channels + channel` (the
/// [`FlashGeometry::flat_to_addr`] order, `b` numbered as
/// [`FlashGeometry::block_index`]), and NAND programs land on ascending
/// levels, so a block's programmed pages are exactly its levels
/// `0..programmed` and an erase walks them. A group stripes across
/// channels, so it spans several blocks of one block row. When an erase
/// clears a group's last programmed page anywhere on the device, the group
/// lands in `fully_erased` for the caller to drain — including overwritten
/// (unmapped) garbage groups that no migration ever recycled. Pages past
/// the last whole group belong to no group.
#[derive(Debug, Clone)]
struct GroupTracker {
    pages_per_group: u64,
    channels: u64,
    dies_per_channel: u64,
    /// Channels × dies: the flat-page distance between two levels of a
    /// block.
    lanes: u64,
    blocks_per_die: u64,
    pages_per_block: u64,
    /// `u64` words per block in `valid_bits`.
    words_per_block: usize,
    /// Bit `p` of block `b`'s words is set while level `p` holds a valid
    /// page.
    valid_bits: Vec<u64>,
    /// Programmed (not yet erased) pages per group. A group holds at most
    /// `pages_per_group` pages, which is capped at `u16::MAX`.
    programmed: Vec<u16>,
    /// Valid pages per group.
    valid: Vec<u16>,
    /// Groups whose last programmed page an erase just cleared, pending a
    /// drain by the reclaim path.
    fully_erased: Vec<u64>,
}

impl GroupTracker {
    /// Flat index of level 0 of block `b`.
    fn level0_flat(&self, b: usize) -> u64 {
        let b = b as u64;
        let (lane_block, row) = (b / self.blocks_per_die, b % self.blocks_per_die);
        let (channel, die) = (
            lane_block / self.dies_per_channel,
            lane_block % self.dies_per_channel,
        );
        row * self.pages_per_block * self.lanes + die * self.channels + channel
    }

    /// The level flat page `flat` occupies in its block.
    fn level_of(&self, flat: u64) -> usize {
        ((flat / self.lanes) % self.pages_per_block) as usize
    }

    /// The block flat page `flat` belongs to.
    fn block_of(&self, flat: u64) -> usize {
        let lane = flat % self.lanes;
        let row = flat / self.lanes / self.pages_per_block;
        let (channel, die) = (lane % self.channels, lane / self.channels);
        ((channel * self.dies_per_channel + die) * self.blocks_per_die + row) as usize
    }

    /// A walk over the groups of block `b`'s levels, from level 0 up.
    fn level_groups(&self, b: usize) -> LevelGroups {
        let ppg = self.pages_per_group;
        let flat = self.level0_flat(b);
        LevelGroups {
            group: flat / ppg,
            offset: flat % ppg,
            step_groups: self.lanes / ppg,
            step_offset: self.lanes % ppg,
            pages_per_group: ppg,
        }
    }

    /// Records the flat pages `first_flat..first_flat + pages` being
    /// programmed: each tracked group they touch moves once.
    fn add_pages(&mut self, first_flat: u64, pages: u64) {
        let ppg = self.pages_per_group;
        let end = (first_flat + pages).min(self.programmed.len() as u64 * ppg);
        let (mut flat, mut g) = (first_flat, (first_flat / ppg) as usize);
        while flat < end {
            let group_end = ((g as u64 + 1) * ppg).min(end);
            let n = (group_end - flat) as u16;
            self.programmed[g] += n;
            self.valid[g] += n;
            (flat, g) = (group_end, g + 1);
        }
    }

    /// Sets the valid bits of block `b`'s levels `first..first + n`.
    fn set_valid_levels(&mut self, b: usize, first: usize, n: usize) {
        let words = &mut self.valid_bits[b * self.words_per_block..(b + 1) * self.words_per_block];
        set_bit_run(words, first, n);
    }

    /// Accounts block `b`'s erase, `levels` of which were programmed: each
    /// level's page leaves its group, and its block's valid bits clear.
    fn erase(&mut self, b: usize, levels: u32) {
        let mut walk = self.level_groups(b);
        let words = &mut self.valid_bits[b * self.words_per_block..(b + 1) * self.words_per_block];
        for level in 0..levels as usize {
            let g = walk.group as usize;
            // Levels ascend in flat order, so once past the tracked groups
            // every later level is too.
            let Some(programmed) = self.programmed.get_mut(g) else {
                break;
            };
            *programmed -= 1;
            if words[level >> 6] >> (level & 63) & 1 != 0 {
                self.valid[g] -= 1;
            }
            if *programmed == 0 {
                // The erase cleared this group's last programmed page
                // anywhere on the device: it is reusable again.
                self.fully_erased.push(g as u64);
            }
            walk.advance();
        }
        words.fill(0);
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

/// Backbone-wide incremental valid-page accounting.
#[derive(Debug, Clone)]
pub struct ValidPageIndex {
    pages_per_block: u32,
    /// Valid pages per block, indexed by [`crate::FlashGeometry::block_index`].
    valid: Vec<u32>,
    /// Programmed pages (valid or superseded) per block.
    programmed: Vec<u32>,
    /// Bucket `v` holds the blocks with `v` valid pages *and* at least one
    /// invalid page (i.e. something to reclaim). Stored as one block-index
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
    /// Erase cycles per block, maintained on every [`ValidPageIndex::on_erase`].
    erase_counts: Vec<u64>,
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
    /// Page-group accounting, when enabled.
    groups: Option<GroupTracker>,
}

impl ValidPageIndex {
    /// Creates an all-erased index for `total_blocks` blocks of
    /// `pages_per_block` pages each.
    pub fn new(total_blocks: usize, pages_per_block: usize) -> Self {
        let levels = pages_per_block + 1;
        let words_per_level = total_blocks.div_ceil(64);
        ValidPageIndex {
            pages_per_block: pages_per_block as u32,
            valid: vec![0; total_blocks],
            programmed: vec![0; total_blocks],
            buckets: vec![0; levels * words_per_level],
            words_per_level,
            level_counts: vec![0; levels],
            occupied: vec![0; levels.div_ceil(64)],
            total_valid: 0,
            erase_counts: vec![0; total_blocks],
            erase_events: Vec::new(),
            last_program_ns: vec![0; total_blocks],
            retired: vec![false; total_blocks],
            groups: None,
        }
    }

    /// Enables page-group accounting: `pages_per_group` consecutive flat
    /// pages of `geometry` form one allocation group, and the pages past
    /// the last whole group belong to none.
    ///
    /// # Panics
    ///
    /// Panics unless the index is all-erased (no block holds a programmed
    /// page: the per-group counters start at zero, so a page programmed
    /// before this call would underflow them on its erase), was built for
    /// `geometry`'s blocks, and `pages_per_group` fits the 16-bit per-group
    /// counters (at most `u16::MAX`).
    pub fn enable_group_tracking(&mut self, geometry: &FlashGeometry, pages_per_group: u64) {
        assert_eq!(
            (self.valid.len() as u64, self.pages_per_block as usize),
            (geometry.total_blocks(), geometry.pages_per_block),
            "group tracking needs the geometry the index was built for"
        );
        assert!(
            self.programmed.iter().all(|&p| p == 0),
            "group tracking must be enabled on an all-erased index"
        );
        assert!(
            pages_per_group <= u64::from(u16::MAX),
            "pages_per_group {pages_per_group} exceeds the 16-bit group counters"
        );
        let pages_per_group = pages_per_group.max(1);
        let total_groups = (geometry.total_pages() / pages_per_group) as usize;
        let words_per_block = geometry.pages_per_block.div_ceil(64);
        let channels = geometry.channels as u64;
        let dies_per_channel = geometry.dies_per_channel() as u64;
        self.groups = Some(GroupTracker {
            pages_per_group,
            channels,
            dies_per_channel,
            lanes: channels * dies_per_channel,
            blocks_per_die: geometry.blocks_per_die() as u64,
            pages_per_block: geometry.pages_per_block as u64,
            words_per_block,
            valid_bits: vec![0; self.valid.len() * words_per_block],
            programmed: vec![0; total_groups],
            valid: vec![0; total_groups],
            fully_erased: Vec::new(),
        });
    }

    /// True when page-group accounting is enabled.
    pub fn tracks_groups(&self) -> bool {
        self.groups.is_some()
    }

    fn garbage(&self, block: usize) -> u32 {
        self.programmed[block] - self.valid[block]
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
    /// `block` at instant `now_ns` (preloads pass 0: pre-experiment data is
    /// "as old as the run").
    pub fn on_program(&mut self, block: u64, flat: u64, now_ns: u64) {
        self.on_program_run(block, flat, 1, now_ns);
        self.on_programmed_range(flat, 1);
    }

    /// Records `n` page programs (or preloads) landing in `block` at
    /// instant `now_ns`, on its next `n` levels, the first of them flat
    /// page `first_flat`: one die block's page run. The block counters,
    /// the garbage bucket and the block's valid bits move once for the
    /// whole run. The group counters do not move: the caller reports the
    /// run's flat pages through [`ValidPageIndex::on_programmed_range`].
    pub(crate) fn on_program_run(&mut self, block: u64, first_flat: u64, n: u32, now_ns: u64) {
        if n == 0 {
            return;
        }
        let b = block as usize;
        let level = self.programmed[b] as usize;
        if let Some(t) = &mut self.groups {
            debug_assert_eq!(
                (t.block_of(first_flat), t.level_of(first_flat)),
                (b, level),
                "a program must land on its block's next level"
            );
            t.set_valid_levels(b, level, n as usize);
        }
        let had_garbage = self.garbage(b) > 0;
        if had_garbage {
            self.bucket_remove(self.valid[b], block as u32);
        }
        self.programmed[b] += n;
        self.valid[b] += n;
        self.total_valid += n as u64;
        self.last_program_ns[b] = self.last_program_ns[b].max(now_ns);
        if had_garbage {
            self.bucket_insert(self.valid[b], block as u32);
        }
    }

    /// Records the flat pages `first_flat..first_flat + pages` being
    /// programmed in the group counters, each group they touch once. Their
    /// blocks report them through [`ValidPageIndex::on_program_run`].
    pub(crate) fn on_programmed_range(&mut self, first_flat: u64, pages: u64) {
        if let Some(t) = &mut self.groups {
            t.add_pages(first_flat, pages);
        }
    }

    /// Records page `page` of `block`, flat page `flat`, being superseded.
    pub fn on_invalidate(&mut self, block: u64, page: usize, flat: u64) {
        let b = block as usize;
        if self.garbage(b) > 0 {
            self.bucket_remove(self.valid[b], block as u32);
        }
        self.valid[b] -= 1;
        self.total_valid -= 1;
        self.bucket_insert(self.valid[b], block as u32);
        if let Some(t) = &mut self.groups {
            debug_assert_eq!(
                (t.block_of(flat), t.level_of(flat)),
                (b, page),
                "page {page} of block {block} is not flat page {flat}"
            );
            let word = &mut t.valid_bits[b * t.words_per_block + (page >> 6)];
            let bit = 1u64 << (page & 63);
            debug_assert!(*word & bit != 0, "invalidating a page that is not valid");
            *word &= !bit;
            if let Some(valid) = t.valid.get_mut((flat / t.pages_per_group) as usize) {
                *valid -= 1;
            }
        }
    }

    /// Records `block` being erased.
    pub fn on_erase(&mut self, block: u64) {
        let b = block as usize;
        if self.garbage(b) > 0 {
            self.bucket_remove(self.valid[b], block as u32);
        }
        if let Some(t) = &mut self.groups {
            t.erase(b, self.programmed[b]);
        }
        self.total_valid -= self.valid[b] as u64;
        self.valid[b] = 0;
        self.programmed[b] = 0;
        self.erase_counts[b] += 1;
        self.erase_events.push(block);
    }

    /// Drains the groups whose last programmed page an erase cleared since
    /// the previous drain (empty without group tracking). The reclaim path
    /// above returns the unmapped ones to the allocator — the fix for the
    /// "erased but never recycled" overwrite-garbage leak.
    pub fn take_fully_erased_groups(&mut self) -> Vec<u64> {
        match &mut self.groups {
            Some(t) => std::mem::take(&mut t.fully_erased),
            None => Vec::new(),
        }
    }

    /// The garbage groups currently resident in `block`: groups holding at
    /// least one programmed page in the block but no valid page anywhere.
    /// Empty without group tracking.
    pub fn garbage_groups_in(&self, block: u64) -> Vec<u64> {
        let mut garbage = Vec::new();
        let Some(t) = &self.groups else {
            return garbage;
        };
        let mut walk = t.level_groups(block as usize);
        let mut last = None;
        for _ in 0..self.programmed[block as usize] {
            let g = walk.group;
            let Some(&valid) = t.valid.get(g as usize) else {
                break;
            };
            if valid == 0 && last != Some(g) {
                garbage.push(g);
            }
            last = Some(g);
            walk.advance();
        }
        garbage
    }

    /// Programmed (not yet erased) pages of group `g`, device-wide. Zero
    /// without group tracking.
    pub fn group_programmed_pages(&self, g: u64) -> u32 {
        self.groups
            .as_ref()
            .and_then(|t| t.programmed.get(g as usize).copied())
            .map(u32::from)
            .unwrap_or(0)
    }

    /// Valid pages of group `g`, device-wide. Zero without group tracking.
    pub fn group_valid_pages(&self, g: u64) -> u32 {
        self.groups
            .as_ref()
            .and_then(|t| t.valid.get(g as usize).copied())
            .map(u32::from)
            .unwrap_or(0)
    }

    /// Valid pages currently held by `block`.
    pub fn valid_in(&self, block: u64) -> u32 {
        self.valid[block as usize]
    }

    /// Programmed (valid or superseded) pages currently held by `block`.
    pub fn programmed_in(&self, block: u64) -> u32 {
        self.programmed[block as usize]
    }

    /// Superseded pages reclaimable by erasing `block`.
    pub fn garbage_in(&self, block: u64) -> u32 {
        self.garbage(block as usize)
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

    /// Erase cycles recorded for `block` — the per-block wear counter the
    /// dies also track, mirrored here so wear queries never walk the dies.
    pub fn block_erase_count(&self, block: u64) -> u64 {
        self.erase_counts
            .get(block as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Drains the blocks erased since the previous drain, one entry per
    /// erase in execution order. The translation layer feeds these into its
    /// incrementally maintained min-wear placement structure.
    pub fn take_erased_blocks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.erase_events)
    }

    /// Instant (ns) of the last page program that landed in `block`.
    pub fn last_program_ns_of(&self, block: u64) -> u64 {
        self.last_program_ns
            .get(block as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The reclaimable block maximizing the classic cost-benefit score
    /// `age × garbage / valid` at instant `now_ns`, where `age` is the time
    /// since the block last absorbed a program: stale blocks full of
    /// garbage are the best victims, hot blocks about to gather more
    /// garbage are the worst. `None` when no block holds garbage.
    ///
    /// Walks only the garbage buckets — O(blocks with garbage), never a
    /// device rescan — with exact integer cross-multiplied comparison so
    /// the pick is deterministic (score ties go to the first candidate in
    /// (valid-level, block-index) order).
    pub fn cost_benefit_victim(&self, now_ns: u64) -> Option<u64> {
        let mut best: Option<(u128, u128, u32)> = None;
        for level in Self::set_bits(&self.occupied) {
            let base = level * self.words_per_level;
            for block in Self::set_bits(&self.buckets[base..base + self.words_per_level]) {
                let block = block as u32;
                let b = block as usize;
                let age = now_ns.saturating_sub(self.last_program_ns[b]).max(1) as u128;
                let numerator = age * self.garbage(b) as u128;
                let denominator = self.valid[b].max(1) as u128;
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
        best.map(|(_, _, block)| block as u64)
    }

    /// Promotes `block` into the bad-block table: it leaves the garbage
    /// buckets immediately and never re-enters, so neither victim policy
    /// can propose erasing it again. Counters (valid, programmed, wear)
    /// keep tracking it — retirement hides the block from GC, it does not
    /// rewrite its state. Idempotent.
    pub fn retire_block(&mut self, block: u64) {
        let b = block as usize;
        if b >= self.retired.len() || self.retired[b] {
            return;
        }
        if self.garbage(b) > 0 {
            self.bucket_remove(self.valid[b], block as u32);
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

    /// Pages per block the index was built for.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_track_garbage_blocks_only() {
        let mut idx = ValidPageIndex::new(4, 8);
        // Fully valid blocks never appear as victims.
        for _ in 0..8 {
            idx.on_program(0, 0, 0);
        }
        assert_eq!(idx.valid_in(0), 8);
        assert_eq!(idx.min_valid_garbage_block(), None);
        // Invalidation makes block 0 reclaimable at valid level 7.
        idx.on_invalidate(0, 0, 0);
        assert_eq!(idx.min_valid_garbage_block(), Some(0));
        assert_eq!(idx.garbage_in(0), 1);
        assert_eq!(idx.total_valid(), 7);
    }

    #[test]
    fn greedy_pick_prefers_fewest_valid_then_smallest_index() {
        let mut idx = ValidPageIndex::new(4, 8);
        for block in [1u64, 2, 3] {
            for _ in 0..4 {
                idx.on_program(block, 0, 0);
            }
        }
        idx.on_invalidate(1, 0, 0); // 3 valid, 1 garbage
        idx.on_invalidate(3, 0, 0); // 3 valid, 1 garbage
        idx.on_invalidate(3, 0, 0);
        idx.on_invalidate(3, 0, 0); // 1 valid, 3 garbage
        idx.on_invalidate(2, 0, 0); // 3 valid, 1 garbage
        assert_eq!(idx.min_valid_garbage_block(), Some(3));
        idx.on_erase(3);
        assert_eq!(idx.valid_in(3), 0);
        assert_eq!(idx.programmed_in(3), 0);
        // Blocks 1 and 2 tie at 3 valid pages; the smaller index wins.
        assert_eq!(idx.min_valid_garbage_block(), Some(1));
        assert_eq!(idx.total_valid(), 3 + 3 + 1 - 1);
    }

    #[test]
    fn erase_clears_membership_and_totals() {
        let mut idx = ValidPageIndex::new(2, 4);
        for _ in 0..4 {
            idx.on_program(1, 0, 0);
        }
        idx.on_invalidate(1, 0, 0);
        idx.on_erase(1);
        assert_eq!(idx.min_valid_garbage_block(), None);
        assert_eq!(idx.total_valid(), 0);
        // The block is reusable from scratch.
        idx.on_program(1, 0, 0);
        assert_eq!(idx.valid_in(1), 1);
    }

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

    /// An all-erased index over `g` tracking `pages_per_group`-page groups.
    fn tracked(g: &FlashGeometry, pages_per_group: u64) -> ValidPageIndex {
        let mut idx = ValidPageIndex::new(g.total_blocks() as usize, g.pages_per_block);
        idx.enable_group_tracking(g, pages_per_group);
        idx
    }

    /// The block flat page `flat` of `g` lives in.
    fn block(g: &FlashGeometry, flat: u64) -> u64 {
        g.block_index(g.flat_to_addr(flat))
    }

    /// Programs flat pages `flats` of `g` in order.
    fn program(idx: &mut ValidPageIndex, g: &FlashGeometry, flats: std::ops::Range<u64>) {
        for flat in flats {
            idx.on_program(block(g, flat), flat, 0);
        }
    }

    fn invalidate(idx: &mut ValidPageIndex, g: &FlashGeometry, flat: u64) {
        idx.on_invalidate(block(g, flat), g.flat_to_addr(flat).page, flat);
    }

    #[test]
    fn group_tracking_reports_fully_erased_groups() {
        // 1 lane × 2 blocks × 4 pages, 2-page groups: group g covers flat
        // pages 2g..2g+2, flat pages 0..4 live in block 0 and 4..8 in
        // block 1.
        let g = geometry(1, 1, 2, 4);
        let mut idx = tracked(&g, 2);
        assert!(idx.tracks_groups());
        program(&mut idx, &g, 0..4);
        assert_eq!(idx.group_programmed_pages(0), 2);
        assert_eq!(idx.group_valid_pages(1), 2);
        // Overwrite group 0: both its pages go invalid → it is garbage.
        idx.on_invalidate(0, 0, 0);
        idx.on_invalidate(0, 1, 1);
        assert_eq!(idx.group_valid_pages(0), 0);
        assert_eq!(idx.garbage_groups_in(0), vec![0]);
        // Nothing is reclaimable before the erase.
        assert!(idx.take_fully_erased_groups().is_empty());
        // The erase clears both resident groups; both report fully erased
        // (group 1 was still valid — the caller filters mapped groups).
        idx.on_erase(0);
        assert_eq!(idx.take_fully_erased_groups(), vec![0, 1]);
        // The drain is one-shot.
        assert!(idx.take_fully_erased_groups().is_empty());
        assert_eq!(idx.group_programmed_pages(0), 0);
        assert_eq!(idx.group_valid_pages(1), 0);
    }

    #[test]
    fn group_spanning_two_blocks_reclaims_only_after_both_erases() {
        // 2 channels × 1 block: group 0's two pages are flat 0 in block 0
        // and flat 1 in block 1 — the striped layout where a group crosses
        // a block row.
        let g = geometry(2, 1, 1, 4);
        let mut idx = tracked(&g, 2);
        idx.on_program(0, 0, 0);
        idx.on_program(1, 1, 0);
        idx.on_invalidate(0, 0, 0);
        idx.on_invalidate(1, 0, 1);
        idx.on_erase(0);
        // One page still programmed in block 1: not reclaimable yet.
        assert!(idx.take_fully_erased_groups().is_empty());
        idx.on_erase(1);
        assert_eq!(idx.take_fully_erased_groups(), vec![0]);
    }

    #[test]
    fn group_spanning_several_levels_of_one_block() {
        // 2 lanes, 4-page groups: group 0 is flats 0..4, i.e. levels 0 and
        // 1 of both blocks.
        let g = geometry(2, 1, 1, 4);
        let mut idx = tracked(&g, 4);
        program(&mut idx, &g, 0..8);
        assert_eq!(idx.group_programmed_pages(0), 4);
        for flat in 0..4 {
            invalidate(&mut idx, &g, flat);
        }
        // Each block lists the garbage group once, though it holds two of
        // its pages.
        assert_eq!(idx.garbage_groups_in(0), vec![0]);
        assert_eq!(idx.garbage_groups_in(1), vec![0]);
        idx.on_erase(0);
        assert_eq!(idx.group_programmed_pages(0), 2);
        assert_eq!(idx.group_valid_pages(1), 2);
        assert!(idx.take_fully_erased_groups().is_empty());
        idx.on_erase(1);
        assert_eq!(idx.take_fully_erased_groups(), vec![0, 1]);
        assert_eq!(idx.group_valid_pages(1), 0);
    }

    #[test]
    fn groups_straddling_levels() {
        // 2 channels × 2 dies = 4 lanes, 3-page groups. Lane order is
        // (ch0 die0, ch1 die0, ch0 die1, ch1 die1) = blocks 0, 2, 1, 3, so
        // block 0 holds flats 0, 4, 8 (groups 0, 1, 2), block 1 holds
        // 2, 6, 10 (groups 0, 2, 3), block 2 holds 1, 5, 9 (groups 0, 1,
        // 3) and block 3 holds 3, 7, 11 (groups 1, 2, 3).
        let g = geometry(2, 2, 1, 3);
        let mut idx = tracked(&g, 3);
        program(&mut idx, &g, 0..12);
        for group in 0..4 {
            assert_eq!(idx.group_programmed_pages(group), 3);
        }
        for flat in 3..6 {
            invalidate(&mut idx, &g, flat);
        }
        assert_eq!(idx.garbage_groups_in(0), vec![1]);
        assert_eq!(idx.garbage_groups_in(1), Vec::<u64>::new());
        assert_eq!(idx.garbage_groups_in(2), vec![1]);
        assert_eq!(idx.garbage_groups_in(3), vec![1]);
        idx.on_erase(0);
        assert_eq!(
            (0..4)
                .map(|g| idx.group_programmed_pages(g))
                .collect::<Vec<_>>(),
            vec![2, 2, 2, 3]
        );
        // Flat 4 was already invalid: only flats 0 and 8 leave the valid
        // counts.
        assert_eq!(
            (0..4).map(|g| idx.group_valid_pages(g)).collect::<Vec<_>>(),
            vec![2, 0, 2, 3]
        );
        idx.on_erase(1);
        assert!(idx.take_fully_erased_groups().is_empty());
        idx.on_erase(2);
        assert_eq!(idx.take_fully_erased_groups(), vec![0]);
        idx.on_erase(3);
        assert_eq!(idx.take_fully_erased_groups(), vec![1, 2, 3]);
    }

    #[test]
    fn tail_pages_belong_to_no_group() {
        // 5 pages in 2-page groups: flat 4 is past the last whole group.
        let g = geometry(1, 1, 1, 5);
        let mut idx = tracked(&g, 2);
        program(&mut idx, &g, 0..5);
        assert_eq!(idx.group_programmed_pages(2), 0);
        invalidate(&mut idx, &g, 4);
        assert_eq!(idx.group_valid_pages(1), 2);
        assert!(idx.garbage_groups_in(0).is_empty());
        invalidate(&mut idx, &g, 0);
        invalidate(&mut idx, &g, 1);
        assert_eq!(idx.garbage_groups_in(0), vec![0]);
        idx.on_erase(0);
        assert_eq!(idx.take_fully_erased_groups(), vec![0, 1]);
        assert_eq!(idx.total_valid(), 0);
    }

    #[test]
    fn scrapped_page_erase_reports_its_group_fully_erased() {
        // A page programmed and discarded at once (a failed program or a
        // stripe pad) is garbage of its group until its block is erased.
        let g = geometry(1, 1, 1, 4);
        let mut idx = tracked(&g, 2);
        idx.on_program(0, 0, 0);
        idx.on_invalidate(0, 0, 0);
        assert_eq!(idx.group_programmed_pages(0), 1);
        assert_eq!(idx.group_valid_pages(0), 0);
        assert_eq!(idx.garbage_groups_in(0), vec![0]);
        idx.on_erase(0);
        assert_eq!(idx.take_fully_erased_groups(), vec![0]);
        assert_eq!(idx.group_programmed_pages(0), 0);
        assert_eq!(idx.group_valid_pages(0), 0);
    }

    #[test]
    #[should_panic(expected = "all-erased")]
    fn group_tracking_rejects_a_programmed_index() {
        let g = geometry(1, 1, 2, 4);
        let mut idx = ValidPageIndex::new(2, 4);
        idx.on_program(1, 4, 0);
        idx.enable_group_tracking(&g, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit group counters")]
    fn group_tracking_rejects_groups_beyond_16_bit_counters() {
        let g = geometry(1, 1, 2, 4);
        ValidPageIndex::new(2, 4).enable_group_tracking(&g, 1 << 16);
    }

    #[test]
    fn retired_block_leaves_and_never_reenters_victim_selection() {
        let mut idx = ValidPageIndex::new(2, 8);
        for _ in 0..2 {
            idx.on_program(0, 0, 0);
        }
        idx.on_invalidate(0, 0, 0); // garbage → block 0 enters the buckets
        assert_eq!(idx.min_valid_garbage_block(), Some(0));
        idx.retire_block(0);
        assert!(idx.is_block_retired(0));
        assert_eq!(idx.min_valid_garbage_block(), None);
        // Accumulating more garbage cannot resurrect a retired block.
        idx.on_invalidate(0, 1, 1);
        assert_eq!(idx.min_valid_garbage_block(), None);
        assert_eq!(idx.cost_benefit_victim(1_000), None);
        // Counters keep tracking it; retirement only hides it from GC.
        assert_eq!(idx.valid_in(0), 0);
        assert_eq!(idx.garbage_in(0), 2);
        idx.retire_block(0); // idempotent
        assert!(idx.is_block_retired(0));
    }

    #[test]
    fn reprogramming_a_garbage_block_moves_its_bucket() {
        let mut idx = ValidPageIndex::new(2, 8);
        for _ in 0..3 {
            idx.on_program(0, 0, 0);
        }
        idx.on_invalidate(0, 0, 0); // 2 valid, 1 garbage
        idx.on_program(0, 0, 0); // 3 valid, 1 garbage — bucket must move 2 → 3
        assert_eq!(idx.valid_in(0), 3);
        assert_eq!(idx.garbage_in(0), 1);
        assert_eq!(idx.min_valid_garbage_block(), Some(0));
    }
}
