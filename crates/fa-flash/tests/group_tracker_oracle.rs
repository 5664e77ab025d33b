//! Oracle for the valid-page index's page-group accounting.
//!
//! [`ValidPageIndex`] stores no per-block group lists and no page bits: it
//! keeps one programmed page count per group and derives the groups a
//! block holds from the flat page layout, so an erase walks the block's
//! programmed levels. This oracle checks every answer reclaim reads
//! against a recount from the dies' page states alone
//! ([`FlashGeometry::flat_to_addr`] plus [`FlashDie::page_state`]), which
//! shares no code with the index, so a layout mistake cannot hide on both
//! sides.
//!
//! Each case draws a geometry with at least two channels and two dies and a
//! page-group size from one page to more than the lane count (so groups
//! divide the lanes, straddle levels, or span several levels of a block,
//! and the device's last pages may belong to no whole group). It then
//! drives preloads, group programs, page stripes, invalidations and block
//! erases through [`FlashBackbone`], some cases under an injected-failure
//! plan so failed programs, stripe pads and failed erases occur. After
//! every step the index must match the recount on:
//!
//! * each group's programmed page count (zero past the last whole group);
//! * the fully-erased drain: exactly the groups whose last programmed page
//!   the step's erase cleared, ascending (empty after any other step).
//!
//! Case count defaults to 128 and can be raised via `FA_ORACLE_CASES`.

use fa_flash::{
    FaultPlan, FlashBackbone, FlashCommand, FlashDie, FlashError, FlashGeometry, FlashOp,
    FlashTiming, GroupLayout, OwnerId, PageState, PhysicalPageAddr,
};
use fa_sim::time::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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

/// The die holding block `block` (numbered as
/// [`FlashGeometry::block_index`]) and the block's index within it.
fn die_of(bb: &FlashBackbone, block: u64) -> (&FlashDie, usize) {
    let (channel, die, blk) = bb.geometry().block_index_to_addr(block);
    let die = bb.channel(channel).and_then(|c| c.die(die)).expect("die");
    (die, blk)
}

fn page_state(bb: &FlashBackbone, addr: PhysicalPageAddr) -> PageState {
    bb.channel(addr.channel)
        .and_then(|c| c.die(addr.die))
        .and_then(|d| d.page_state(addr.block, addr.page))
        .expect("page state")
}

/// Programmed (valid or superseded) pages per group, recounted from die
/// page states.
fn recount(bb: &FlashBackbone, pages_per_group: u64) -> Vec<u32> {
    let g = *bb.geometry();
    let groups = g.total_pages() / pages_per_group;
    let mut programmed = vec![0u32; groups as usize];
    for flat in 0..groups * pages_per_group {
        if page_state(bb, g.flat_to_addr(flat)) != PageState::Free {
            programmed[(flat / pages_per_group) as usize] += 1;
        }
    }
    programmed
}

/// The index's programmed count of every group the recount covers.
fn indexed(bb: &FlashBackbone, groups: usize) -> Vec<u32> {
    (0..groups as u64)
        .map(|g| bb.valid_index().group_programmed_pages(g))
        .collect()
}

/// How many of the flat pages `first..first + max` (clipped to the device)
/// can be programmed in order: each must be the next free page of its block
/// once the run's earlier pages have landed.
fn programmable_run(bb: &FlashBackbone, first: u64, max: u64) -> u64 {
    let g = *bb.geometry();
    let mut landed: HashMap<u64, usize> = HashMap::new();
    let mut run = 0;
    while run < max && first + run < g.total_pages() {
        let addr = g.flat_to_addr(first + run);
        let block = g.block_index(addr);
        let (die, blk) = die_of(bb, block);
        let next = landed.entry(block).or_insert(die.programmed_pages_in(blk));
        if addr.page != *next {
            break;
        }
        *next += 1;
        run += 1;
    }
    run
}

/// Flat index of the next free page of each block that has one.
fn write_points(bb: &FlashBackbone) -> Vec<u64> {
    let g = *bb.geometry();
    (0..g.total_blocks())
        .filter_map(|block| {
            let (channel, die, blk) = g.block_index_to_addr(block);
            let next = die_of(bb, block).0.programmed_pages_in(blk);
            (next < g.pages_per_block)
                .then(|| g.addr_to_flat(PhysicalPageAddr::new(channel, die, blk, next)))
        })
        .collect()
}

/// Accepts success and the injected failures a fault plan causes; any
/// other error is a bug in the driver.
fn tolerate<T>(result: Result<T, FlashError>, what: &str) -> Result<(), String> {
    match result {
        Ok(_)
        | Err(FlashError::InjectedProgramFailure(_))
        | Err(FlashError::InjectedEraseFailure(_)) => Ok(()),
        Err(e) => Err(format!("{what}: {e:?}")),
    }
}

/// What one case exercised, so the fixed cases can check their reach.
#[derive(Debug, Default)]
struct Reach {
    /// Groups the fully-erased drains reported.
    drained: usize,
    /// Programs the fault plan failed.
    program_failures: u64,
    /// Erases the fault plan failed.
    erase_failures: u64,
}

/// Runs one case: `steps` random operations on `geometry` with
/// `pages_per_group`-page groups, under an injected-failure plan when
/// `faults` is set, checking the index against the recount after each.
fn run_case(
    geometry: FlashGeometry,
    pages_per_group: u64,
    faults: bool,
    seed: u64,
    steps: usize,
) -> Result<Reach, String> {
    let layout = GroupLayout {
        geometry,
        pages_per_group,
    };
    let mut bb = FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000_000);
    if faults {
        bb.install_fault_plan(Arc::new(FaultPlan {
            seed,
            program_threshold: u64::MAX / 8,
            erase_threshold: u64::MAX / 10,
            ..FaultPlan::default()
        }));
    }
    let total = geometry.total_pages();
    let total_groups = total / pages_per_group;
    let lanes = (geometry.channels * geometry.dies_per_channel()) as u64;
    let mut rng = seed;
    let mut now_ns = 0u64;
    let mut before = recount(&bb, pages_per_group);
    let mut reach = Reach::default();
    for step in 0..steps {
        now_ns += 1 + below(&mut rng, 5_000);
        let now = SimTime::from_ns(now_ns);
        let owner = OwnerId::Kernel(0);
        let points = write_points(&bb);
        let op = below(&mut rng, 12);
        let what = match op {
            // Preload a run starting at some block's next free page.
            0 | 1 if !points.is_empty() => {
                let first = points[below(&mut rng, points.len() as u64) as usize];
                let pages = programmable_run(&bb, first, 1 + below(&mut rng, 3 * lanes));
                bb.preload_group(first, pages)
                    .map_err(|e| format!("step {step}: preload {first}+{pages}: {e:?}"))?;
                format!("preload {first}+{pages}")
            }
            // Preload an arbitrary range, which the backbone mostly
            // rejects; a rejected range changes nothing.
            2 => {
                let first = below(&mut rng, total);
                let pages = (1 + below(&mut rng, 2 * lanes)).min(total - first);
                let _ = bb.preload_group(first, pages);
                format!("arbitrary preload {first}+{pages}")
            }
            // Program a whole group that can take one.
            3 | 4 => {
                let free: Vec<u64> = (0..total_groups)
                    .filter(|&g| {
                        programmable_run(&bb, g * pages_per_group, pages_per_group)
                            == pages_per_group
                    })
                    .collect();
                let Some(&group) = free.get(below(&mut rng, free.len().max(1) as u64) as usize)
                else {
                    continue;
                };
                let first = group * pages_per_group;
                tolerate(
                    bb.submit_group(now, first, pages_per_group, FlashOp::ProgramPage, owner),
                    &format!("step {step}: program group {group}"),
                )?;
                format!("program group {group}")
            }
            // Program a page stripe from some block's next free page.
            5 if !points.is_empty() => {
                let first = points[below(&mut rng, points.len() as u64) as usize];
                let pages = programmable_run(&bb, first, 1 + below(&mut rng, 2 * lanes));
                tolerate(
                    bb.submit_group(now, first, pages, FlashOp::ProgramPage, owner),
                    &format!("step {step}: program stripe {first}+{pages}"),
                )?;
                format!("program stripe {first}+{pages}")
            }
            // Supersede a few valid pages one at a time.
            6 | 7 => {
                for _ in 0..1 + below(&mut rng, lanes) {
                    let flat = below(&mut rng, total);
                    if page_state(&bb, geometry.flat_to_addr(flat)) == PageState::Valid {
                        bb.invalidate_group(flat, 1)
                            .map_err(|e| format!("step {step}: invalidate: {e:?}"))?;
                    }
                }
                "invalidate pages".to_string()
            }
            // Supersede a whole group (the overwrite path).
            8 if total_groups > 0 => {
                let group = below(&mut rng, total_groups);
                bb.invalidate_group(group * pages_per_group, pages_per_group)
                    .map_err(|e| format!("step {step}: invalidate group: {e:?}"))?;
                format!("invalidate group {group}")
            }
            // Erase one block.
            _ => {
                let block = below(&mut rng, geometry.total_blocks());
                let (channel, die, blk) = geometry.block_index_to_addr(block);
                let addr = PhysicalPageAddr::new(channel, die, blk, 0);
                tolerate(
                    bb.submit_tagged(now, FlashCommand::erase(addr), OwnerId::Unattributed),
                    &format!("step {step}: erase block {block}"),
                )?;
                format!("erase block {block}")
            }
        };
        let after = recount(&bb, pages_per_group);
        let got = indexed(&bb, after.len());
        prop_assert!(
            got == after,
            "step {step} ({what}): index {got:?} != recount {after:?}"
        );
        // Nothing past the tracked groups is ever reported.
        prop_assert_eq!(bb.valid_index().group_programmed_pages(total_groups), 0);
        let want_drained: Vec<u64> = (0..total_groups)
            .filter(|&g| before[g as usize] > 0 && after[g as usize] == 0)
            .collect();
        let drained = bb.take_fully_erased_groups();
        prop_assert!(
            drained == want_drained,
            "step {step} ({what}): drained {drained:?}, want {want_drained:?}"
        );
        reach.drained += drained.len();
        before = after;
    }
    let faults = bb.fault_stats();
    reach.program_failures = faults.injected_program_failures;
    reach.erase_failures = faults.injected_erase_failures;
    Ok(reach)
}

/// Runs eight seeds of `geometry`, every other one under the fault plan,
/// and checks that erases freed groups and that programs and erases
/// failed.
fn run_fixed(geometry: FlashGeometry, pages_per_group: u64) {
    let mut total = Reach::default();
    for seed in 0..8 {
        let reach = run_case(geometry, pages_per_group, seed % 2 == 1, seed, 96).unwrap();
        total.drained += reach.drained;
        total.program_failures += reach.program_failures;
        total.erase_failures += reach.erase_failures;
    }
    assert!(
        total.drained > 0 && total.program_failures > 0 && total.erase_failures > 0,
        "the fixed cases lost their reach: {total:?}"
    );
}

/// A geometry of `channels` × `dies` lanes, each with `blocks` blocks of
/// `pages_per_block` pages.
fn geometry(channels: usize, dies: usize, blocks: usize, pages_per_block: usize) -> FlashGeometry {
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

#[test]
fn three_page_groups_over_four_lanes_with_an_untracked_tail() {
    // 2 × 2 lanes × 2 blocks × 5 pages = 40 pages: 13 three-page groups
    // straddling levels, and one last page that belongs to no group.
    run_fixed(geometry(2, 2, 2, 5), 3);
}

#[test]
fn groups_spanning_several_levels_of_a_block() {
    // 3 × 2 lanes, 8-page groups: each group holds two levels of some
    // blocks, and the 120 pages divide into 15 whole groups.
    run_fixed(geometry(3, 2, 2, 10), 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn group_tracking_matches_page_state_recount(
        shape in (2usize..5, 2usize..5, 1usize..4, 2usize..11),
        grouping in 0u64..1_000,
        faults in prop::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let (channels, dies, blocks, pages_per_block) = shape;
        let lanes = (channels * dies) as u64;
        // Pages per group from 1 to two more than the lane count.
        let pages_per_group = 1 + grouping % (lanes + 2);
        run_case(
            geometry(channels, dies, blocks, pages_per_block),
            pages_per_group,
            faults,
            seed,
            64,
        )?;
    }
}
