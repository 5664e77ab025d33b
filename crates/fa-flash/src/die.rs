//! Per-die NAND state machine.
//!
//! A die tracks the program/erase state of every page it holds, enforces
//! NAND programming rules (erase-before-program, sequential programming
//! within a block), counts erase cycles for wear-leveling decisions, and
//! serializes its operations through a FIFO server so die-level contention
//! shows up in operation completion times.

use crate::error::FlashError;
use crate::geometry::{FlashGeometry, PhysicalPageAddr};
use crate::timing::FlashTiming;
use fa_sim::resource::{FifoServer, Reservation};
use fa_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// State of a single flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageState {
    /// Erased and ready to be programmed.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded; space is reclaimed by erasing the block.
    Invalid,
}

/// Per-block bookkeeping inside a die. Which programmed pages still hold
/// valid data lives in the die's single flat `valid_bits` bitmap (one
/// allocation per die, not one per block — a paper-prototype backbone
/// holds 16 K blocks, and per-block vectors made die construction
/// malloc-bound).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BlockState {
    /// Next page index that may legally be programmed (NAND requires
    /// in-order programming within a block). Pages from here on are
    /// [`PageState::Free`]; pages below it are programmed. `u32` like
    /// `valid`: [`FlashDie::new`] caps `pages_per_block` at `u32::MAX`.
    write_cursor: u32,
    erase_count: u64,
    /// Count of pages currently in [`PageState::Valid`], maintained
    /// incrementally on every program/preload/invalidate/erase so
    /// valid-page queries never rescan the bitmap.
    valid: u32,
}

/// A block's page counts as its die holds them. The valid-page index's
/// hooks take a block's counts from just before the event they record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounts {
    /// Pages holding valid data.
    pub valid: u32,
    /// Pages programmed since the block's last erase, valid or superseded.
    pub programmed: u32,
}

impl BlockCounts {
    /// Superseded pages an erase of the block would reclaim.
    pub fn garbage(self) -> u32 {
        self.programmed - self.valid
    }
}

/// Sets bits `first..first + n` of `words`, one word at a time.
fn set_bit_run(words: &mut [u64], first: usize, n: usize) {
    let (mut bit, end) = (first, first + n);
    while bit < end {
        let word_end = ((bit | 63) + 1).min(end);
        // `word_end - bit` is 1..=64 bits, starting at bit `bit & 63`.
        words[bit >> 6] |= u64::MAX >> (64 - (word_end - bit)) << (bit & 63);
        bit = word_end;
    }
}

/// A single NAND die.
///
/// A page's state is not stored as such. A page is [`PageState::Free`]
/// exactly when it lies at or above its block's write cursor (NAND programs
/// a block's pages in order, and only an erase moves the cursor back). A
/// programmed page is [`PageState::Valid`] while its bit is set in
/// `valid_bits` and [`PageState::Invalid`] once superseded.
#[derive(Debug, Clone)]
pub struct FlashDie {
    blocks: Vec<BlockState>,
    /// One bit per page, `words_per_block` `u64` words per block: bit `p`
    /// of block `b`'s words is set while page `p` holds valid data. Bits
    /// at or above a block's write cursor are always clear.
    valid_bits: Vec<u64>,
    words_per_block: usize,
    pages_per_block: usize,
    /// The die's position on the backbone, carried by every error it
    /// returns.
    channel: usize,
    die: usize,
    endurance_limit: u64,
    server: FifoServer,
}

impl FlashDie {
    /// Creates an all-erased die for the given geometry, sitting at
    /// position `die` of channel `channel`.
    ///
    /// `endurance_limit` is the number of erase cycles after which the die
    /// reports [`FlashError::WornOut`]; TLC parts are typically rated for a
    /// few thousand cycles.
    ///
    /// # Panics
    ///
    /// Panics if `geometry.pages_per_block` exceeds `u32::MAX`, the range
    /// of the per-block page counters.
    pub fn new(geometry: &FlashGeometry, endurance_limit: u64, channel: usize, die: usize) -> Self {
        assert!(
            u32::try_from(geometry.pages_per_block).is_ok(),
            "pages_per_block {} exceeds the 32-bit block counters",
            geometry.pages_per_block
        );
        let words_per_block = geometry.pages_per_block.div_ceil(64);
        FlashDie {
            blocks: vec![BlockState::default(); geometry.blocks_per_die()],
            valid_bits: vec![0; geometry.blocks_per_die() * words_per_block],
            words_per_block,
            pages_per_block: geometry.pages_per_block,
            channel,
            die,
            endurance_limit,
            server: FifoServer::new(),
        }
    }

    /// The full address of `page` of `block` on this die.
    fn addr(&self, block: usize, page: usize) -> PhysicalPageAddr {
        PhysicalPageAddr::new(self.channel, self.die, block, page)
    }

    /// The valid bitmap words of `block`: bit `p` is set while page `p`
    /// holds valid data. Empty for a block outside the die.
    fn valid_words(&self, block: usize) -> &[u64] {
        self.valid_bits
            .get(block * self.words_per_block..(block + 1) * self.words_per_block)
            .unwrap_or(&[])
    }

    fn block_bits_mut(&mut self, block: usize) -> &mut [u64] {
        &mut self.valid_bits[block * self.words_per_block..(block + 1) * self.words_per_block]
    }

    /// Whether `page` of in-range `block` holds valid data.
    fn is_valid(&self, block: usize, page: usize) -> bool {
        self.valid_words(block)[page >> 6] >> (page & 63) & 1 != 0
    }

    /// Number of erase blocks in the die.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Returns the state of a page.
    pub fn page_state(&self, block: usize, page: usize) -> Option<PageState> {
        if block >= self.blocks.len() || page >= self.pages_per_block {
            return None;
        }
        Some(if page >= self.blocks[block].write_cursor as usize {
            PageState::Free
        } else if self.is_valid(block, page) {
            PageState::Valid
        } else {
            PageState::Invalid
        })
    }

    /// Number of valid pages in `block`. O(1): the count is maintained
    /// incrementally by the program/preload/invalidate/erase paths.
    pub fn valid_pages_in(&self, block: usize) -> usize {
        self.block_counts(block).valid as usize
    }

    /// Recount of the valid pages in `block` from the valid bitmap itself
    /// (a popcount of the block's words). This is the property-test oracle
    /// for the incremental count behind [`FlashDie::valid_pages_in`].
    pub fn recount_valid_pages_in(&self, block: usize) -> usize {
        self.valid_words(block)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of programmed pages in `block` (valid or superseded).
    pub fn programmed_pages_in(&self, block: usize) -> usize {
        self.block_counts(block).programmed as usize
    }

    /// The valid and programmed page counts of `block`; zero for a block
    /// outside the die.
    pub fn block_counts(&self, block: usize) -> BlockCounts {
        self.blocks
            .get(block)
            .map(|b| BlockCounts {
                valid: b.valid,
                programmed: b.write_cursor,
            })
            .unwrap_or_default()
    }

    /// Number of still-programmable pages in `block`.
    pub fn free_pages_in(&self, block: usize) -> usize {
        self.blocks
            .get(block)
            .map(|b| self.pages_per_block - b.write_cursor as usize)
            .unwrap_or(0)
    }

    /// Erase count of `block`.
    pub fn erase_count(&self, block: usize) -> u64 {
        self.blocks.get(block).map(|b| b.erase_count).unwrap_or(0)
    }

    /// Earliest instant the die could accept another operation.
    pub fn next_free(&self) -> SimTime {
        self.server.next_free()
    }

    /// Busy fraction of the die up to `now`.
    pub(crate) fn utilization(&self, now: SimTime) -> f64 {
        self.server.utilization(now)
    }

    fn check_block(&self, block: usize, page: usize) -> Result<(), FlashError> {
        if block >= self.blocks.len() || page >= self.pages_per_block {
            return Err(FlashError::OutOfRange(self.addr(block, page)));
        }
        Ok(())
    }

    /// Checks that `page` of in-range `block` is the block's next free
    /// page. Pages below the write cursor are programmed and pages from it
    /// on are free, so the cursor alone says which rule the page breaks.
    fn check_at_cursor(&self, block: usize, page: usize) -> Result<(), FlashError> {
        let cursor = self.blocks[block].write_cursor as usize;
        match page.cmp(&cursor) {
            Ordering::Equal => Ok(()),
            Ordering::Less => Err(FlashError::ProgramWithoutErase(self.addr(block, page))),
            Ordering::Greater => Err(FlashError::NonSequentialProgram {
                addr: self.addr(block, page),
                expected_page: cursor,
            }),
        }
    }

    /// Performs an array read of one page, returning the busy window the
    /// die occupies for sensing.
    pub fn read_page(
        &mut self,
        now: SimTime,
        block: usize,
        page: usize,
        timing: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        self.check_block(block, page)?;
        if page >= self.blocks[block].write_cursor as usize {
            return Err(FlashError::ReadUnwritten(self.addr(block, page)));
        }
        Ok(self.server.serve(now, timing.read_page))
    }

    /// Programs one page. The page must be the block's next free page.
    pub fn program_page(
        &mut self,
        now: SimTime,
        block: usize,
        page: usize,
        timing: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        self.check_block(block, page)?;
        let erase_cycles = self.blocks[block].erase_count;
        if erase_cycles >= self.endurance_limit {
            return Err(FlashError::WornOut {
                addr: self.addr(block, page),
                erase_cycles,
            });
        }
        self.check_at_cursor(block, page)?;
        self.valid_bits[block * self.words_per_block + (page >> 6)] |= 1 << (page & 63);
        let blk = &mut self.blocks[block];
        blk.write_cursor += 1;
        blk.valid += 1;
        Ok(self.server.serve(now, timing.program_page))
    }

    /// Marks one page valid without consuming device time: a one-page
    /// [`FlashDie::preload_run`].
    pub fn preload_page(&mut self, block: usize, page: usize) -> Result<(), FlashError> {
        self.preload_run(block, page, 1)
    }

    /// Checks that the `n` pages `first_page..first_page + n` of `block`
    /// could be preloaded, changing nothing: the run lies inside the block,
    /// its first page is [`PageState::Free`], and the block's write cursor
    /// stands on it. Every page from the cursor on is free, so the first
    /// page decides the whole run, and the error is the one a page-by-page
    /// preload would have hit first.
    pub(crate) fn check_preload_run(
        &self,
        block: usize,
        first_page: usize,
        n: usize,
    ) -> Result<(), FlashError> {
        self.check_block(block, first_page)?;
        if first_page + n > self.pages_per_block {
            return Err(FlashError::OutOfRange(
                self.addr(block, self.pages_per_block),
            ));
        }
        self.check_at_cursor(block, first_page)
    }

    /// Marks the `n` consecutive pages `first_page..first_page + n` of
    /// `block` valid without consuming device time, enforcing the same
    /// sequential-programming rule as [`FlashDie::program_page`]. The run
    /// must lie inside the block and start on the block's next free page;
    /// otherwise nothing changes, and the error is the one a page-by-page
    /// preload would have hit first.
    ///
    /// This models data that is already resident in flash before the
    /// simulated experiment begins (the paper's input files live on the
    /// flash backbone before kernels are offloaded), so it bypasses the
    /// die's timing but not its state machine.
    pub fn preload_run(
        &mut self,
        block: usize,
        first_page: usize,
        n: usize,
    ) -> Result<(), FlashError> {
        self.check_preload_run(block, first_page, n)?;
        set_bit_run(self.block_bits_mut(block), first_page, n);
        let blk = &mut self.blocks[block];
        // `n` fits: the run lies inside the block.
        blk.write_cursor += n as u32;
        blk.valid += n as u32;
        Ok(())
    }

    /// Marks a previously valid page as superseded (no die time consumed —
    /// invalidation is a mapping-table act performed by Flashvisor).
    pub fn invalidate_page(&mut self, block: usize, page: usize) -> Result<(), FlashError> {
        self.check_block(block, page)?;
        // Only programmed pages have their bit set, so the bit alone tells
        // a valid page from a free or superseded one.
        let word = &mut self.valid_bits[block * self.words_per_block + (page >> 6)];
        let bit = 1 << (page & 63);
        if *word & bit == 0 {
            return Err(FlashError::ReadUnwritten(self.addr(block, page)));
        }
        *word &= !bit;
        self.blocks[block].valid -= 1;
        Ok(())
    }

    /// Charges one erase-long busy window on the die without touching any
    /// block state: an erase attempt the media rejected. The block keeps
    /// its pages and its erase counter, so the wear ledger only ever counts
    /// erases that actually completed.
    pub fn failed_erase(&mut self, now: SimTime, timing: &FlashTiming) -> Reservation {
        self.server.serve(now, timing.erase_block)
    }

    /// Erases a block, freeing every page in it. A worn-out block refuses
    /// the erase and changes nothing: the error reports the cycle the
    /// erase attempted, and the erase counter keeps counting only erases
    /// that completed.
    pub fn erase_block(
        &mut self,
        now: SimTime,
        block: usize,
        timing: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        self.check_block(block, 0)?;
        let erase_cycles = self.blocks[block].erase_count + 1;
        if erase_cycles > self.endurance_limit {
            return Err(FlashError::WornOut {
                addr: self.addr(block, 0),
                erase_cycles,
            });
        }
        self.block_bits_mut(block).fill(0);
        let blk = &mut self.blocks[block];
        blk.erase_count = erase_cycles;
        blk.write_cursor = 0;
        blk.valid = 0;
        Ok(self.server.serve(now, timing.erase_block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> (FlashDie, FlashTiming) {
        (
            FlashDie::new(&FlashGeometry::tiny_for_tests(), 1000, 0, 0),
            FlashTiming::fast_for_tests(),
        )
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceeds the 32-bit block counters")]
    fn blocks_beyond_the_32_bit_counters_are_rejected() {
        let geometry = FlashGeometry {
            pages_per_block: u32::MAX as usize + 1,
            ..FlashGeometry::tiny_for_tests()
        };
        // The check runs before anything is allocated.
        FlashDie::new(&geometry, 1000, 0, 0);
    }

    #[test]
    fn program_then_read_round_trips() {
        let (mut d, t) = die();
        let now = SimTime::ZERO;
        d.program_page(now, 0, 0, &t).unwrap();
        assert_eq!(d.page_state(0, 0), Some(PageState::Valid));
        let r = d.read_page(now, 0, 0, &t).unwrap();
        assert!(r.end > r.start);
    }

    #[test]
    fn read_of_unwritten_page_fails() {
        let (mut d, t) = die();
        let err = d.read_page(SimTime::ZERO, 0, 3, &t).unwrap_err();
        assert!(matches!(err, FlashError::ReadUnwritten(_)));
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let (mut d, t) = die();
        let err = d.program_page(SimTime::ZERO, 0, 2, &t).unwrap_err();
        assert!(matches!(
            err,
            FlashError::NonSequentialProgram {
                expected_page: 0,
                ..
            }
        ));
    }

    #[test]
    fn double_program_requires_erase() {
        let (mut d, t) = die();
        d.program_page(SimTime::ZERO, 0, 0, &t).unwrap();
        // Even after invalidation, the page cannot be reprogrammed in place.
        d.invalidate_page(0, 0).unwrap();
        let err = d.program_page(SimTime::ZERO, 0, 0, &t).unwrap_err();
        assert!(matches!(err, FlashError::ProgramWithoutErase(_)));
        d.erase_block(SimTime::ZERO, 0, &t).unwrap();
        assert_eq!(d.page_state(0, 0), Some(PageState::Free));
        d.program_page(SimTime::ZERO, 0, 0, &t).unwrap();
    }

    #[test]
    fn erase_resets_cursor_and_counts_cycles() {
        let (mut d, t) = die();
        for p in 0..4 {
            d.program_page(SimTime::ZERO, 1, p, &t).unwrap();
        }
        assert_eq!(d.free_pages_in(1), 12);
        d.erase_block(SimTime::ZERO, 1, &t).unwrap();
        assert_eq!(d.erase_count(1), 1);
        assert_eq!(d.free_pages_in(1), 16);
        assert_eq!(d.valid_pages_in(1), 0);
    }

    #[test]
    fn operations_serialize_on_the_die() {
        let (mut d, t) = die();
        let a = d.program_page(SimTime::ZERO, 0, 0, &t).unwrap();
        let b = d.program_page(SimTime::ZERO, 0, 1, &t).unwrap();
        assert_eq!(b.start, a.end);
        assert!(d.next_free() >= b.end);
    }

    #[test]
    fn endurance_limit_is_enforced() {
        let g = FlashGeometry::tiny_for_tests();
        let mut d = FlashDie::new(&g, 2, 0, 0);
        let t = FlashTiming::fast_for_tests();
        d.erase_block(SimTime::ZERO, 0, &t).unwrap();
        d.erase_block(SimTime::ZERO, 0, &t).unwrap();
        let err = d.erase_block(SimTime::ZERO, 0, &t).unwrap_err();
        assert!(matches!(err, FlashError::WornOut { .. }));
        // Programs to the worn block are also refused.
        let err = d.program_page(SimTime::ZERO, 0, 0, &t).unwrap_err();
        assert!(matches!(err, FlashError::WornOut { .. }));
    }

    #[test]
    fn incremental_valid_count_matches_recount() {
        let (mut d, t) = die();
        for p in 0..6 {
            d.program_page(SimTime::ZERO, 0, p, &t).unwrap();
        }
        d.invalidate_page(0, 1).unwrap();
        d.invalidate_page(0, 4).unwrap();
        d.preload_page(0, 6).unwrap();
        d.preload_run(0, 7, 3).unwrap();
        assert_eq!(d.valid_pages_in(0), d.recount_valid_pages_in(0));
        assert_eq!(d.valid_pages_in(0), 8);
        assert_eq!(d.programmed_pages_in(0), 10);
        d.erase_block(SimTime::ZERO, 0, &t).unwrap();
        assert_eq!(d.valid_pages_in(0), d.recount_valid_pages_in(0));
        assert_eq!(d.valid_pages_in(0), 0);
        assert_eq!(d.programmed_pages_in(0), 0);
    }

    #[test]
    fn rejected_preload_run_changes_nothing() {
        let (mut d, t) = die();
        d.program_page(SimTime::ZERO, 0, 0, &t).unwrap();
        let err = d.preload_run(0, 0, 4).unwrap_err();
        assert!(matches!(err, FlashError::ProgramWithoutErase(_)));
        let err = d.preload_run(0, 2, 4).unwrap_err();
        assert!(matches!(
            err,
            FlashError::NonSequentialProgram {
                expected_page: 1,
                ..
            }
        ));
        let err = d.preload_run(0, 1, 16).unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
        assert_eq!(d.programmed_pages_in(0), 1);
        assert_eq!(d.valid_pages_in(0), d.recount_valid_pages_in(0));
        assert_eq!(d.page_state(0, 1), Some(PageState::Free));
    }

    #[test]
    fn invalidate_requires_valid_page() {
        let (mut d, _t) = die();
        assert!(d.invalidate_page(0, 0).is_err());
    }
}
