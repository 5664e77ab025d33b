//! Oracle for the flat page layout: the block-row, lane, row-block and
//! page-group helpers of `FlashGeometry` and `GroupLayout` against a
//! brute-force walk of `flat_to_addr` over every flat page of random small
//! geometries.
//!
//! The walk knows nothing but `flat_to_addr` and `block_index`. It records,
//! per block row, the flat pages that land in it, the blocks whose page 0
//! lands in it, and the groups (`flat / pages_per_group`) holding one of
//! its pages; then every helper must agree:
//!
//! * `row_pages`: each row is the contiguous flat range
//!   `r × row_pages .. (r + 1) × row_pages`;
//! * `block_row` of every block index is the block number of its pages;
//! * `row_blocks(r)` is row `r`'s blocks, once each, in ascending block
//!   index order, with `total_dies` of them (one per lane);
//! * `row_groups(r)` is the range of groups holding a page of row `r`;
//! * `row_of_group` and `lane_of_group` name the row and the lane
//!   (`channel × dies_per_channel + die`) of each group's leading page;
//! * `total_groups` counts the groups whose pages all exist;
//! * where a row holds whole groups, `groups_per_row` is how many it
//!   holds and `row_groups(r)` is exactly the groups led from row `r`.
//!
//! Case count defaults to 128 and can be raised via `FA_ORACLE_CASES`.

use fa_flash::{FlashGeometry, GroupLayout, PhysicalPageAddr};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(128)
}

/// What the walk saw of one block row.
#[derive(Default)]
struct Row {
    flats: Vec<u64>,
    blocks: Vec<PhysicalPageAddr>,
    groups: BTreeSet<u64>,
}

fn check_layout(layout: GroupLayout) -> Result<(), String> {
    let g = layout.geometry;
    let ppg = layout.pages_per_group;
    let rows = g.blocks_per_die();
    let dies = g.dies_per_channel();
    let mut seen = (0..rows).map(|_| Row::default()).collect::<Vec<_>>();
    let mut lanes = BTreeSet::new();
    for flat in 0..g.total_pages() {
        let addr = g.flat_to_addr(flat);
        let row = &mut seen[addr.block];
        row.flats.push(flat);
        row.groups.insert(flat / ppg);
        if addr.page == 0 {
            row.blocks.push(addr);
        }
        lanes.insert((addr.channel, addr.die));
        prop_assert_eq!(g.block_row(g.block_index(addr)), addr.block as u64);
    }
    prop_assert_eq!(lanes.len(), g.total_dies());

    let row_pages = g.row_pages();
    for (r, row) in seen.iter().enumerate() {
        let r64 = r as u64;
        let expect: Vec<u64> = (r64 * row_pages..(r64 + 1) * row_pages).collect();
        prop_assert_eq!(&row.flats, &expect);

        let mut blocks = row.blocks.clone();
        blocks.sort_by_key(|&a| g.block_index(a));
        let listed: Vec<PhysicalPageAddr> = g.row_blocks(r64).collect();
        prop_assert_eq!(listed.len(), g.total_dies());
        prop_assert_eq!(&listed, &blocks);

        let low = *row.groups.first().unwrap();
        let high = *row.groups.last().unwrap() + 1;
        prop_assert_eq!(layout.row_groups(r64), (low, high));
    }

    let total_groups = g.total_pages() / ppg;
    prop_assert_eq!(layout.total_groups(), total_groups);
    for group in 0..total_groups {
        let lead = g.flat_to_addr(group * ppg);
        prop_assert_eq!(layout.row_of_group(group), lead.block as u64);
        prop_assert_eq!(layout.lane_of_group(group), lead.channel * dies + lead.die);
    }

    if row_pages % ppg == 0 {
        for r in 0..rows as u64 {
            let led: Vec<u64> = (0..total_groups)
                .filter(|&group| g.flat_to_addr(group * ppg).block as u64 == r)
                .collect();
            prop_assert_eq!(led.len() as u64, layout.groups_per_row());
            let (low, high) = layout.row_groups(r);
            prop_assert_eq!((low..high).collect::<Vec<_>>(), led);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn layout_helpers_match_a_flat_page_walk(
        lanes in (1usize..5, 1usize..4, 1usize..3),
        blocks in (1usize..3, 1usize..4, 1usize..9),
        group in (1u64..20, prop::bool::ANY),
    ) {
        let (channels, packages_per_channel, dies_per_package) = lanes;
        let (planes_per_die, blocks_per_plane, pages_per_block) = blocks;
        let geometry = FlashGeometry {
            channels,
            packages_per_channel,
            dies_per_package,
            planes_per_die,
            blocks_per_plane,
            pages_per_block,
            page_bytes: 4096,
        };
        // Half the cases draw a group size that tiles a row exactly (the
        // layouts Flashvisor accepts); the rest may straddle rows.
        let (size, whole) = group;
        let row_pages = geometry.row_pages();
        let pages_per_group = if whole {
            (1..=row_pages).filter(|d| row_pages % d == 0).nth(size as usize % 4).unwrap_or(row_pages)
        } else {
            size
        };
        check_layout(GroupLayout { geometry, pages_per_group })?;
    }
}
