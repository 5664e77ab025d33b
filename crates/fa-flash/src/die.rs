//! Per-die NAND state machine.
//!
//! A die tracks the program/erase state of every page it holds, enforces
//! NAND programming rules (erase-before-program, sequential programming
//! within a block), counts erase cycles for wear-leveling decisions, and
//! serializes its operations through a FIFO server so die-level contention
//! shows up in operation completion times.

use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::timing::FlashTiming;
use fa_sim::resource::{FifoServer, Reservation};
use fa_sim::time::SimTime;
use serde::{Deserialize, Serialize};

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

/// Per-block bookkeeping inside a die. The page states themselves live in
/// the die's single flat `pages` array (one allocation per die, not one
/// per block — a paper-prototype backbone holds 16 K blocks, and per-block
/// vectors made die construction malloc-bound and page-state access
/// pointer-chasing).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BlockState {
    /// Next page index that may legally be programmed (NAND requires
    /// in-order programming within a block).
    write_cursor: usize,
    erase_count: u64,
    /// Count of pages currently in [`PageState::Valid`], maintained
    /// incrementally on every program/preload/invalidate/erase so
    /// valid-page queries never rescan the page array.
    valid: u32,
}

impl BlockState {
    fn valid_pages(&self) -> usize {
        self.valid as usize
    }
}

/// Aggregate statistics for one die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DieStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
}

/// A single NAND die.
#[derive(Debug, Clone)]
pub struct FlashDie {
    blocks: Vec<BlockState>,
    /// Page states for every block, flat: `block * pages_per_block + page`.
    pages: Vec<PageState>,
    pages_per_block: usize,
    endurance_limit: u64,
    server: FifoServer,
    stats: DieStats,
}

impl FlashDie {
    /// Creates an all-erased die for the given geometry.
    ///
    /// `endurance_limit` is the number of erase cycles after which the die
    /// reports [`FlashError::WornOut`]; TLC parts are typically rated for a
    /// few thousand cycles.
    pub fn new(geometry: &FlashGeometry, endurance_limit: u64, name: impl Into<String>) -> Self {
        FlashDie {
            blocks: vec![BlockState::default(); geometry.blocks_per_die()],
            pages: vec![PageState::Free; geometry.blocks_per_die() * geometry.pages_per_block],
            pages_per_block: geometry.pages_per_block,
            endurance_limit,
            server: FifoServer::new(name),
            stats: DieStats::default(),
        }
    }

    /// Number of erase blocks in the die.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Pages per block.
    pub fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// Returns the state of a page.
    pub fn page_state(&self, block: usize, page: usize) -> Option<PageState> {
        if block >= self.blocks.len() || page >= self.pages_per_block {
            return None;
        }
        self.pages.get(block * self.pages_per_block + page).copied()
    }

    /// Number of valid pages in `block`. O(1): the count is maintained
    /// incrementally by the program/preload/invalidate/erase paths.
    pub fn valid_pages_in(&self, block: usize) -> usize {
        self.blocks
            .get(block)
            .map(BlockState::valid_pages)
            .unwrap_or(0)
    }

    /// Brute-force recount of the valid pages in `block` from the page
    /// states themselves. This is the property-test oracle for the
    /// incremental count behind [`FlashDie::valid_pages_in`].
    pub fn recount_valid_pages_in(&self, block: usize) -> usize {
        if block >= self.blocks.len() {
            return 0;
        }
        self.pages[block * self.pages_per_block..(block + 1) * self.pages_per_block]
            .iter()
            .filter(|p| **p == PageState::Valid)
            .count()
    }

    /// Number of programmed pages in `block` (valid or superseded).
    pub fn programmed_pages_in(&self, block: usize) -> usize {
        self.blocks.get(block).map(|b| b.write_cursor).unwrap_or(0)
    }

    /// Number of still-programmable pages in `block`.
    pub fn free_pages_in(&self, block: usize) -> usize {
        self.blocks
            .get(block)
            .map(|b| self.pages_per_block - b.write_cursor)
            .unwrap_or(0)
    }

    /// Erase count of `block`.
    pub fn erase_count(&self, block: usize) -> u64 {
        self.blocks.get(block).map(|b| b.erase_count).unwrap_or(0)
    }

    /// Aggregate die statistics.
    pub fn stats(&self) -> DieStats {
        self.stats
    }

    /// Earliest instant the die could accept another operation.
    pub fn next_free(&self) -> SimTime {
        self.server.next_free()
    }

    /// Busy fraction of the die up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.server.utilization(now)
    }

    fn check_block(&self, block: usize, page: usize) -> Result<(), FlashError> {
        if block >= self.blocks.len() || page >= self.pages_per_block {
            return Err(FlashError::OutOfRange(
                crate::geometry::PhysicalPageAddr::new(0, 0, block, page),
            ));
        }
        Ok(())
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
        let state = self.pages[block * self.pages_per_block + page];
        if state == PageState::Free {
            return Err(FlashError::ReadUnwritten(
                crate::geometry::PhysicalPageAddr::new(0, 0, block, page),
            ));
        }
        let res = self.server.serve(now, timing.read_page);
        self.stats.reads += 1;
        Ok(res)
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
        let addr = crate::geometry::PhysicalPageAddr::new(0, 0, block, page);
        let slot = block * self.pages_per_block + page;
        let blk = &mut self.blocks[block];
        if blk.erase_count >= self.endurance_limit {
            return Err(FlashError::WornOut {
                addr,
                erase_cycles: blk.erase_count,
            });
        }
        match self.pages[slot] {
            PageState::Free => {}
            _ => return Err(FlashError::ProgramWithoutErase(addr)),
        }
        if page != blk.write_cursor {
            return Err(FlashError::NonSequentialProgram {
                addr,
                expected_page: blk.write_cursor,
            });
        }
        self.pages[slot] = PageState::Valid;
        blk.write_cursor += 1;
        blk.valid += 1;
        let res = self.server.serve(now, timing.program_page);
        self.stats.programs += 1;
        Ok(res)
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
                crate::geometry::PhysicalPageAddr::new(0, 0, block, self.pages_per_block),
            ));
        }
        // Pages below the write cursor are programmed and pages from it on
        // are free, so the cursor alone says which rule the page breaks.
        let cursor = self.blocks[block].write_cursor;
        let addr = crate::geometry::PhysicalPageAddr::new(0, 0, block, first_page);
        match first_page.cmp(&cursor) {
            std::cmp::Ordering::Equal => Ok(()),
            std::cmp::Ordering::Less => Err(FlashError::ProgramWithoutErase(addr)),
            std::cmp::Ordering::Greater => Err(FlashError::NonSequentialProgram {
                addr,
                expected_page: cursor,
            }),
        }
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
        let slot = block * self.pages_per_block + first_page;
        self.pages[slot..slot + n].fill(PageState::Valid);
        let blk = &mut self.blocks[block];
        blk.write_cursor += n;
        blk.valid += n as u32;
        Ok(())
    }

    /// Marks a previously valid page as superseded (no die time consumed —
    /// invalidation is a mapping-table act performed by Flashvisor).
    pub fn invalidate_page(&mut self, block: usize, page: usize) -> Result<(), FlashError> {
        self.check_block(block, page)?;
        let slot = block * self.pages_per_block + page;
        if self.pages[slot] != PageState::Valid {
            return Err(FlashError::ReadUnwritten(
                crate::geometry::PhysicalPageAddr::new(0, 0, block, page),
            ));
        }
        self.pages[slot] = PageState::Invalid;
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

    /// Erases a block, freeing every page in it.
    pub fn erase_block(
        &mut self,
        now: SimTime,
        block: usize,
        timing: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        self.check_block(block, 0)?;
        let blk = &mut self.blocks[block];
        blk.erase_count += 1;
        if blk.erase_count > self.endurance_limit {
            return Err(FlashError::WornOut {
                addr: crate::geometry::PhysicalPageAddr::new(0, 0, block, 0),
                erase_cycles: blk.erase_count,
            });
        }
        self.pages[block * self.pages_per_block..(block + 1) * self.pages_per_block]
            .fill(PageState::Free);
        blk.write_cursor = 0;
        blk.valid = 0;
        let res = self.server.serve(now, timing.erase_block);
        self.stats.erases += 1;
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> (FlashDie, FlashTiming) {
        (
            FlashDie::new(&FlashGeometry::tiny_for_tests(), 1000, "die0"),
            FlashTiming::fast_for_tests(),
        )
    }

    #[test]
    fn program_then_read_round_trips() {
        let (mut d, t) = die();
        let now = SimTime::ZERO;
        d.program_page(now, 0, 0, &t).unwrap();
        assert_eq!(d.page_state(0, 0), Some(PageState::Valid));
        let r = d.read_page(now, 0, 0, &t).unwrap();
        assert!(r.end > r.start);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().programs, 1);
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
        let mut d = FlashDie::new(&g, 2, "short-lived");
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
