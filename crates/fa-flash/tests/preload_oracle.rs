//! Oracle for run-wise preloading.
//!
//! [`FlashBackbone::preload_group`] splits a flat page range into one page
//! run per lane (channel × die block) and updates the die and the
//! valid-page index once per run. The model below is the page-by-page
//! formulation it replaced: every page of the range, in ascending flat
//! order, goes through [`ChannelController::preload`] and
//! [`ValidPageIndex::on_program`], the index taking each block's counts
//! from the model's own dies. A rejected range must leave the backbone
//! untouched, so the model restores its state from before the call when
//! one of its pages fails.
//!
//! Each case draws a small geometry and a page-group size, then interleaves
//! preloads with programs, invalidations and erases, so ranges land in
//! blocks that already hold valid and superseded pages, start and end mid
//! row and mid lane, and sometimes aim at pages that cannot be preloaded.
//! After every preload the two must agree on every page state, every
//! per-block count, and every answer the valid-page index gives: the
//! victim picks, each block's garbage, and each group's programmed pages.
//!
//! Case count defaults to 128 and can be raised via `FA_ORACLE_CASES`.

use fa_flash::{
    BlockCounts, ChannelController, FlashBackbone, FlashCommand, FlashDie, FlashError,
    FlashGeometry, FlashOp, FlashTiming, GroupLayout, OwnerId, PageState, PhysicalPageAddr,
    ValidPageIndex,
};
use fa_sim::time::SimTime;
use proptest::prelude::*;

const INBOUND_TAGS: usize = 8;
const ENDURANCE: u64 = 1_000_000;

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
fn below(rng: &mut u64, n: u64) -> u64 {
    splitmix(rng) % n
}

/// The page-by-page reference: channel controllers plus a valid-page
/// index, driven one page at a time.
#[derive(Clone)]
struct PerPageModel {
    geometry: FlashGeometry,
    channels: Vec<ChannelController>,
    index: ValidPageIndex,
}

impl PerPageModel {
    fn new(layout: GroupLayout) -> Self {
        let geometry = layout.geometry;
        let channels = (0..geometry.channels)
            .map(|c| {
                ChannelController::new(
                    c,
                    &geometry,
                    FlashTiming::fast_for_tests(),
                    ENDURANCE,
                    INBOUND_TAGS,
                )
            })
            .collect();
        PerPageModel {
            geometry,
            channels,
            index: ValidPageIndex::new(layout),
        }
    }

    fn die(&self, addr: PhysicalPageAddr) -> &FlashDie {
        self.channels[addr.channel]
            .die(addr.die)
            .expect("model die")
    }

    /// The model's counts of `addr`'s block.
    fn counts(&self, addr: PhysicalPageAddr) -> BlockCounts {
        self.die(addr).block_counts(addr.block)
    }

    /// The model's counts of flat block `block`.
    fn block_counts(&self, block: u64) -> BlockCounts {
        let (channel, die, blk) = self.geometry.block_index_to_addr(block);
        self.counts(PhysicalPageAddr::new(channel, die, blk, 0))
    }

    fn execute(&mut self, now: SimTime, op: FlashOp, addr: PhysicalPageAddr) {
        let before = self.counts(addr);
        self.channels[addr.channel]
            .execute(now, op, addr, OwnerId::Unattributed.dense_index(), None)
            .expect("model command");
        let block = self.geometry.block_index(addr);
        match op {
            FlashOp::ProgramPage => {
                self.index
                    .on_program(block, before, self.geometry.addr_to_flat(addr), now.as_ns())
            }
            FlashOp::EraseBlock => self.index.on_erase(block, before),
            FlashOp::ReadPage => {}
        }
    }

    fn invalidate(&mut self, addr: PhysicalPageAddr) {
        let before = self.counts(addr);
        self.channels[addr.channel]
            .invalidate(addr)
            .expect("model invalidate");
        self.index
            .on_invalidate(self.geometry.block_index(addr), before);
    }

    fn preload_group(&mut self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        let before = self.clone();
        for flat in first_flat..first_flat + pages {
            let addr = self.geometry.flat_to_addr(flat);
            let counts = self.counts(addr);
            if let Err(e) = self.channels[addr.channel].preload(addr) {
                *self = before;
                return Err(e);
            }
            self.index
                .on_program(self.geometry.block_index(addr), counts, flat, 0);
        }
        Ok(())
    }
}

fn page_state(b: &FlashBackbone, addr: PhysicalPageAddr) -> Option<PageState> {
    b.channel(addr.channel)?
        .die(addr.die)?
        .page_state(addr.block, addr.page)
}

/// Every page state and every valid-page-index answer must agree.
fn compare(real: &FlashBackbone, model: &PerPageModel, now_ns: u64) -> Result<(), String> {
    let g = model.geometry;
    for flat in 0..g.total_pages() {
        let addr = g.flat_to_addr(flat);
        let want = model.channels[addr.channel]
            .die(addr.die)
            .and_then(|d| d.page_state(addr.block, addr.page));
        prop_assert_eq!(page_state(real, addr), want);
    }
    for (c, channel) in model.channels.iter().enumerate() {
        let real_channel = real.channel(c).expect("channel");
        for die in 0..g.dies_per_channel() {
            let (rd, md) = (real_channel.die(die).unwrap(), channel.die(die).unwrap());
            for block in 0..g.blocks_per_die() {
                prop_assert_eq!(rd.programmed_pages_in(block), md.programmed_pages_in(block));
                prop_assert_eq!(rd.valid_pages_in(block), md.valid_pages_in(block));
            }
        }
    }
    prop_assert_eq!(real.total_valid_pages(), real.recount_valid_pages());
    prop_assert_eq!(real.total_valid_pages() as u64, model.index.total_valid());
    let (ri, mi) = (real.valid_index(), &model.index);
    for block in 0..g.total_blocks() {
        prop_assert_eq!(real.garbage_in(block), model.block_counts(block).garbage());
    }
    for group in 0..g.total_pages() + 1 {
        prop_assert_eq!(
            ri.group_programmed_pages(group),
            mi.group_programmed_pages(group)
        );
    }
    prop_assert_eq!(ri.min_valid_garbage_block(), mi.min_valid_garbage_block());
    prop_assert_eq!(
        real.cost_benefit_victim_block(SimTime::from_ns(now_ns)),
        mi.cost_benefit_victim(now_ns, |block| model.block_counts(block).garbage())
    );
    Ok(())
}

/// Erases block row `row` on every lane, on both sides.
fn erase_row(real: &mut FlashBackbone, model: &mut PerPageModel, now: SimTime, row: usize) {
    let g = model.geometry;
    for channel in 0..g.channels {
        for die in 0..g.dies_per_channel() {
            let addr = PhysicalPageAddr::new(channel, die, row, 0);
            real.submit_tagged(now, FlashCommand::erase(addr), OwnerId::Unattributed)
                .expect("real erase");
            model.execute(now, FlashOp::EraseBlock, addr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn preload_runs_match_per_page_preload(
        shape in (1usize..5, 1usize..5, 2usize..5, 4usize..33),
        grouping in 0u64..1_000,
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
        let lanes = (channels * dies) as u64;
        let row_pages = lanes * pages_per_block as u64;
        let total = geometry.total_pages();
        // Pages per group from 1 to twice the lane count.
        let layout = GroupLayout {
            geometry,
            pages_per_group: 1 + grouping % (2 * lanes),
        };
        let mut real = FlashBackbone::new(
            layout,
            FlashTiming::fast_for_tests(),
            2.5e9,
            INBOUND_TAGS,
            ENDURANCE,
        );
        let mut model = PerPageModel::new(layout);

        let mut rng = seed;
        // Pages below `frontier` have been written in flat order (or erased
        // since); pages at and above it are free.
        let mut frontier = 0u64;
        let mut now_ns = 0u64;
        let mut preloads = 0;
        for step in 0..48 {
            now_ns += 1 + below(&mut rng, 5_000);
            let now = SimTime::from_ns(now_ns);
            if frontier == total {
                for row in 0..geometry.blocks_per_die() {
                    erase_row(&mut real, &mut model, now, row);
                }
                frontier = 0;
            }
            // A length from one page to a few rows, mostly short.
            let len = match below(&mut rng, 3) {
                0 => 1 + below(&mut rng, lanes),
                1 => 1 + below(&mut rng, 3 * lanes),
                _ => 1 + below(&mut rng, 3 * row_pages),
            };
            match below(&mut rng, 10) {
                // Preload at the write frontier, or anywhere behind it
                // (mostly rejected; accepted in a row erased since).
                op @ (0..=3 | 9) => {
                    let (first, end) = match op {
                        9 if frontier > 0 => (below(&mut rng, frontier), frontier),
                        _ => (frontier, total),
                    };
                    let pages = len.min(end - first);
                    let got = real.preload_group(first, pages);
                    let want = model.preload_group(first, pages);
                    prop_assert!(
                        got == want,
                        "step {step}: preload {first}+{pages}: {got:?} != {want:?}"
                    );
                    if got.is_ok() {
                        frontier = frontier.max(first + pages);
                        preloads += 1;
                    }
                    compare(&real, &model, now_ns)
                        .map_err(|e| format!("step {step}, preload {first}+{pages}: {e}"))?;
                }
                // Program pages at the frontier through the command path.
                4 | 5 => {
                    for _ in 0..len.min(total - frontier) {
                        let addr = geometry.flat_to_addr(frontier);
                        real.submit_tagged(now, FlashCommand::program(addr), OwnerId::Unattributed)
                            .expect("real program");
                        model.execute(now, FlashOp::ProgramPage, addr);
                        frontier += 1;
                    }
                }
                // Supersede a few written pages.
                6 | 7 if frontier > 0 => {
                    for _ in 0..1 + below(&mut rng, 2 * lanes) {
                        let addr = geometry.flat_to_addr(below(&mut rng, frontier));
                        if page_state(&real, addr) == Some(PageState::Valid) {
                            real.invalidate_group(geometry.addr_to_flat(addr), 1)
                                .expect("real invalidate");
                            model.invalidate(addr);
                        }
                    }
                }
                // Erase a row the frontier has left behind.
                8 if frontier >= row_pages => {
                    let row = below(&mut rng, frontier / row_pages) as usize;
                    erase_row(&mut real, &mut model, now, row);
                }
                _ => {}
            }
        }
        compare(&real, &model, now_ns + 1)?;
        prop_assert!(preloads > 0, "no preload succeeded");
    }
}
