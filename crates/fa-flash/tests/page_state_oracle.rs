//! Oracle for the die's page-state representation.
//!
//! [`FlashDie`] stores no per-page state byte: a page is free exactly when
//! it lies at or above its block's write cursor, valid when its bit is set
//! in the die's valid bitmap, and invalid otherwise. The reference below is
//! the byte-per-page formulation it replaced: one [`PageState`] per page,
//! checked and rewritten page by page, with the die's coordinates in every
//! error it returns.
//!
//! Each case draws a small geometry (blocks of 1 to 200 pages, so block
//! bitmaps span one to four words and end mid-word), a die position and a
//! low endurance limit, then drives both with a random sequence of
//! programs, run preloads (accepted and rejected), reads, invalidations,
//! erases and failed erases. Addresses land mostly on the write cursor and
//! sometimes just below, just above or outside the die, and blocks wear
//! out. After every step the two must agree on the result (the exact error
//! value or the exact busy window), every page state, every per-block
//! count, and the die's next free instant.
//!
//! Case count defaults to 128 and can be raised via `FA_ORACLE_CASES`.

use fa_flash::{FlashDie, FlashError, FlashGeometry, FlashTiming, PageState, PhysicalPageAddr};
use fa_sim::resource::{FifoServer, Reservation};
use fa_sim::time::SimTime;
use proptest::prelude::*;

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(128)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw from `0..n` (`n > 0`).
fn below(rng: &mut u64, n: usize) -> usize {
    (splitmix(rng) % n as u64) as usize
}

/// The byte-per-page reference die.
struct ReferenceDie {
    channel: usize,
    die: usize,
    pages_per_block: usize,
    endurance_limit: u64,
    /// `block * pages_per_block + page`.
    pages: Vec<PageState>,
    write_cursor: Vec<usize>,
    erase_count: Vec<u64>,
    server: FifoServer,
}

impl ReferenceDie {
    fn new(geometry: &FlashGeometry, endurance_limit: u64, channel: usize, die: usize) -> Self {
        let blocks = geometry.blocks_per_die();
        ReferenceDie {
            channel,
            die,
            pages_per_block: geometry.pages_per_block,
            endurance_limit,
            pages: vec![PageState::Free; blocks * geometry.pages_per_block],
            write_cursor: vec![0; blocks],
            erase_count: vec![0; blocks],
            server: FifoServer::new(),
        }
    }

    fn blocks(&self) -> usize {
        self.write_cursor.len()
    }

    fn addr(&self, block: usize, page: usize) -> PhysicalPageAddr {
        PhysicalPageAddr::new(self.channel, self.die, block, page)
    }

    fn check(&self, block: usize, page: usize) -> Result<usize, FlashError> {
        if block >= self.blocks() || page >= self.pages_per_block {
            return Err(FlashError::OutOfRange(self.addr(block, page)));
        }
        Ok(block * self.pages_per_block + page)
    }

    fn page_state(&self, block: usize, page: usize) -> Option<PageState> {
        self.check(block, page).ok().map(|slot| self.pages[slot])
    }

    fn valid_pages_in(&self, block: usize) -> usize {
        if block >= self.blocks() {
            return 0;
        }
        (0..self.pages_per_block)
            .filter(|&p| self.page_state(block, p) == Some(PageState::Valid))
            .count()
    }

    fn read_page(
        &mut self,
        now: SimTime,
        block: usize,
        page: usize,
        t: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        let slot = self.check(block, page)?;
        if self.pages[slot] == PageState::Free {
            return Err(FlashError::ReadUnwritten(self.addr(block, page)));
        }
        Ok(self.server.serve(now, t.read_page))
    }

    fn program_page(
        &mut self,
        now: SimTime,
        block: usize,
        page: usize,
        t: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        let slot = self.check(block, page)?;
        let addr = self.addr(block, page);
        if self.erase_count[block] >= self.endurance_limit {
            return Err(FlashError::WornOut {
                addr,
                erase_cycles: self.erase_count[block],
            });
        }
        if self.pages[slot] != PageState::Free {
            return Err(FlashError::ProgramWithoutErase(addr));
        }
        if page != self.write_cursor[block] {
            return Err(FlashError::NonSequentialProgram {
                addr,
                expected_page: self.write_cursor[block],
            });
        }
        self.pages[slot] = PageState::Valid;
        self.write_cursor[block] += 1;
        Ok(self.server.serve(now, t.program_page))
    }

    fn preload_run(&mut self, block: usize, first: usize, n: usize) -> Result<(), FlashError> {
        let slot = self.check(block, first)?;
        if first + n > self.pages_per_block {
            return Err(FlashError::OutOfRange(
                self.addr(block, self.pages_per_block),
            ));
        }
        if self.pages[slot] != PageState::Free {
            return Err(FlashError::ProgramWithoutErase(self.addr(block, first)));
        }
        if first != self.write_cursor[block] {
            return Err(FlashError::NonSequentialProgram {
                addr: self.addr(block, first),
                expected_page: self.write_cursor[block],
            });
        }
        self.pages[slot..slot + n].fill(PageState::Valid);
        self.write_cursor[block] += n;
        Ok(())
    }

    fn invalidate_page(&mut self, block: usize, page: usize) -> Result<(), FlashError> {
        let slot = self.check(block, page)?;
        if self.pages[slot] != PageState::Valid {
            return Err(FlashError::ReadUnwritten(self.addr(block, page)));
        }
        self.pages[slot] = PageState::Invalid;
        Ok(())
    }

    fn failed_erase(&mut self, now: SimTime, t: &FlashTiming) -> Reservation {
        self.server.serve(now, t.erase_block)
    }

    fn erase_block(
        &mut self,
        now: SimTime,
        block: usize,
        t: &FlashTiming,
    ) -> Result<Reservation, FlashError> {
        let slot = self.check(block, 0)?;
        // A worn-out block refuses the erase and keeps its state, wear
        // included; the error reports the cycle the erase attempted.
        if self.erase_count[block] + 1 > self.endurance_limit {
            return Err(FlashError::WornOut {
                addr: self.addr(block, 0),
                erase_cycles: self.erase_count[block] + 1,
            });
        }
        self.erase_count[block] += 1;
        self.pages[slot..slot + self.pages_per_block].fill(PageState::Free);
        self.write_cursor[block] = 0;
        Ok(self.server.serve(now, t.erase_block))
    }
}

/// Every page state, per-block count and busy horizon must agree, including
/// the answers for a block and a page just outside the die.
fn compare(real: &FlashDie, model: &ReferenceDie) -> Result<(), String> {
    let blocks = model.blocks();
    prop_assert_eq!(real.block_count(), blocks);
    for block in 0..=blocks {
        for page in 0..=model.pages_per_block {
            let (got, want) = (real.page_state(block, page), model.page_state(block, page));
            prop_assert!(
                got == want,
                "page state of {block}/{page}: {got:?} != {want:?}"
            );
        }
        let valid = model.valid_pages_in(block);
        let (count, recount) = (
            real.valid_pages_in(block),
            real.recount_valid_pages_in(block),
        );
        prop_assert!(
            count == valid && recount == valid,
            "block {block}: {count} valid, recount {recount}, reference {valid}"
        );
        let programmed = model.write_cursor.get(block).copied().unwrap_or(0);
        prop_assert_eq!(real.programmed_pages_in(block), programmed);
        let free = if block < blocks {
            model.pages_per_block - programmed
        } else {
            0
        };
        prop_assert_eq!(real.free_pages_in(block), free);
        prop_assert_eq!(
            real.erase_count(block),
            model.erase_count.get(block).copied().unwrap_or(0)
        );
    }
    prop_assert_eq!(real.next_free(), model.server.next_free());
    Ok(())
}

/// A page index near `block`'s write cursor: mostly on it, sometimes just
/// below or above it, sometimes anywhere, occasionally one past the block.
fn page_near_cursor(rng: &mut u64, model: &ReferenceDie, block: usize) -> usize {
    let ppb = model.pages_per_block;
    let cursor = model.write_cursor.get(block).copied().unwrap_or(0);
    match below(rng, 10) {
        0..=5 => cursor,
        6 => cursor.saturating_sub(1 + below(rng, 3)),
        7 => cursor + 1 + below(rng, 2),
        8 => below(rng, ppb),
        _ => ppb,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn bitmap_die_matches_byte_per_page_die(
        shape in (1usize..5, 1usize..5, 1usize..7, 1usize..201),
        endurance in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        let (channels, dies, blocks, pages_per_block) = shape;
        let geometry = FlashGeometry {
            channels,
            packages_per_channel: dies,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: blocks,
            pages_per_block,
            page_bytes: 4096,
        };
        let mut rng = seed;
        let (channel, die) = (below(&mut rng, channels), below(&mut rng, dies));
        let timing = FlashTiming::fast_for_tests();
        let mut real = FlashDie::new(&geometry, endurance, channel, die);
        let mut model = ReferenceDie::new(&geometry, endurance, channel, die);
        let mut now_ns = 0u64;
        let mut accepted = 0;
        for step in 0..160 {
            now_ns += below(&mut rng, 40) as u64 * 1_000;
            let now = SimTime::from_ns(now_ns);
            // Mostly a block inside the die; one in twenty is one past it.
            let block = if below(&mut rng, 20) == 0 { blocks } else { below(&mut rng, blocks) };
            let (op, ok) = match below(&mut rng, 16) {
                0..=3 => {
                    let page = page_near_cursor(&mut rng, &model, block);
                    let got = real.program_page(now, block, page, &timing);
                    let want = model.program_page(now, block, page, &timing);
                    prop_assert!(got == want, "step {step}: program {block}/{page}: {got:?} != {want:?}");
                    (format!("program {block}/{page}"), got.is_ok())
                }
                4..=6 => {
                    let first = page_near_cursor(&mut rng, &model, block);
                    // A run that mostly fits, sometimes overruns the block,
                    // sometimes is empty.
                    let room = pages_per_block.saturating_sub(first);
                    let n = match below(&mut rng, 8) {
                        0 => 0,
                        1 => room + 1 + below(&mut rng, 2),
                        _ => 1 + below(&mut rng, room.clamp(1, 70)),
                    };
                    let got = real.preload_run(block, first, n);
                    let want = model.preload_run(block, first, n);
                    prop_assert!(got == want, "step {step}: preload {block}/{first}+{n}: {got:?} != {want:?}");
                    (format!("preload {block}/{first}+{n}"), got.is_ok())
                }
                7..=9 => {
                    let page = below(&mut rng, pages_per_block + 1);
                    let got = real.read_page(now, block, page, &timing);
                    let want = model.read_page(now, block, page, &timing);
                    prop_assert!(got == want, "step {step}: read {block}/{page}: {got:?} != {want:?}");
                    (format!("read {block}/{page}"), got.is_ok())
                }
                10..=12 => {
                    // Mostly a programmed page, so valid pages get superseded.
                    let cursor = model.write_cursor.get(block).copied().unwrap_or(0);
                    let page = if cursor > 0 && below(&mut rng, 4) != 0 {
                        below(&mut rng, cursor)
                    } else {
                        below(&mut rng, pages_per_block + 1)
                    };
                    let got = real.invalidate_page(block, page);
                    let want = model.invalidate_page(block, page);
                    prop_assert!(got == want, "step {step}: invalidate {block}/{page}: {got:?} != {want:?}");
                    (format!("invalidate {block}/{page}"), got.is_ok())
                }
                13 | 14 => {
                    let got = real.erase_block(now, block, &timing);
                    let want = model.erase_block(now, block, &timing);
                    prop_assert!(got == want, "step {step}: erase {block}: {got:?} != {want:?}");
                    (format!("erase {block}"), got.is_ok())
                }
                _ => {
                    let got = real.failed_erase(now, &timing);
                    let want = model.failed_erase(now, &timing);
                    prop_assert!(got == want, "step {step}: failed erase: {got:?} != {want:?}");
                    ("failed erase".to_string(), true)
                }
            };
            accepted += usize::from(ok);
            compare(&real, &model).map_err(|e| format!("step {step}, after {op}: {e}"))?;
        }
        prop_assert!(accepted > 0, "no operation succeeded");
    }
}
