//! Property test: the incremental free-space, valid-page, wear, and
//! hot/cold accounting always equals brute-force recounts from the
//! backbone, under arbitrary write / overwrite / journal / GC
//! interleavings, for every placement × GC-victim policy combination (with
//! and without hot/cold separation).
//!
//! The oracle recomputes everything from primary state — the mapping
//! table, die page states, die erase counters — so a divergence pinpoints
//! a bug in the incremental bookkeeping (free list, group states, reverse
//! index, valid-page buckets, group programmed counts, row-wear ledger,
//! overwrite counts) rather than in the oracle. Failed operations (flash exhaustion,
//! NAND programming-rule violations on recycled-but-unerased groups) are
//! tolerated: the invariants must hold *especially* after an op is
//! rejected partway through.
//!
//! Case count defaults to 256 and can be raised via `FA_ORACLE_CASES`
//! (CI runs the release suite with more).

use flashabacus_suite::fa_flash::{
    FaultPlan, FlashBackbone, FlashCommand, FlashGeometry, FlashOp, FlashTiming, GroupLayout,
    OwnerId, PageState, PhysicalPageAddr, QosBudgets,
};
use flashabacus_suite::fa_platform::mem::Scratchpad;
use flashabacus_suite::fa_platform::PlatformSpec;
use flashabacus_suite::fa_sim::time::{SimDuration, SimTime};
use flashabacus_suite::flashabacus::config::{FlashAbacusConfig, GovernorConfig};
use flashabacus_suite::flashabacus::freespace::{FreeSpaceManager, GroupState, PlacementPolicy};
use flashabacus_suite::flashabacus::openloop::QosGovernor;
use flashabacus_suite::flashabacus::rangelock::LockMode;
use flashabacus_suite::flashabacus::scheduler::SchedulerPolicy;
use flashabacus_suite::flashabacus::storengine::{GcVictimPolicy, Storengine};
use flashabacus_suite::flashabacus::Flashvisor;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A deliberately small device (2 channels × 8 blocks × 16 pages, 2-page
/// groups → 128 groups) so overwrites, GC, and exhaustion all happen
/// within a short random walk.
fn oracle_config(
    placement: PlacementPolicy,
    gc_victim: GcVictimPolicy,
    hot_threshold: Option<u32>,
) -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.flash_geometry = FlashGeometry {
        channels: 2,
        packages_per_channel: 1,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: 8,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    config.flash_timing = FlashTiming::fast_for_tests();
    config.page_group_bytes = 8 * 1024;
    config.endurance_cycles = 100_000;
    config.journal_interval = SimDuration::from_ms(1);
    config.placement = placement;
    config.gc_victim = gc_victim;
    config.hot_overwrite_threshold = hot_threshold;
    config
}

/// True when the free-space manager holds group `g` in `state`.
fn in_state(v: &Flashvisor, g: u64, state: GroupState) -> bool {
    v.freespace().state(g) == Some(state)
}

/// True when group `g` is fenced off for good: reserved or retired.
fn fenced(v: &Flashvisor, g: u64) -> bool {
    in_state(v, g, GroupState::Reserved) || in_state(v, g, GroupState::Retired)
}

/// Checks every incremental structure against a from-scratch recount.
/// `shadow_overwrites` is the test harness's independently maintained
/// per-logical-group overwrite ledger (the brute-force side of the
/// hot/cold classification check).
fn check_invariants(v: &Flashvisor, shadow_overwrites: &[u32]) -> Result<(), String> {
    let config = *v.config();
    let geometry = config.flash_geometry;
    let total_groups = config.total_page_groups();

    // 1. Mapping injectivity: two logical groups never share a physical
    //    group, and every physical group is in range.
    let mut mapped: BTreeSet<u64> = BTreeSet::new();
    for (lg, pg) in v.mapped_groups() {
        prop_assert!(pg < total_groups, "pg {pg} out of range (lg {lg})");
        prop_assert!(mapped.insert(pg), "physical group {pg} mapped twice");
    }

    // 2. Reverse-index consistency: forward and reverse agree exactly.
    for (lg, pg) in v.mapped_groups() {
        prop_assert_eq!(v.logical_group_mapped_to(pg), Some(lg));
    }
    for pg in 0..total_groups {
        if !mapped.contains(&pg) {
            prop_assert_eq!(v.logical_group_mapped_to(pg), None);
        }
    }

    // 3. Free-pool soundness: the free set is duplicate-free, sized like
    //    the O(1) counter says, and disjoint from every mapped group, every
    //    reserved group, and the hot reserve.
    let free = v.freespace().debug_free_groups();
    prop_assert_eq!(free.len() as u64, v.free_physical_groups());
    let free_set: BTreeSet<u64> = free.iter().copied().collect();
    prop_assert_eq!(free_set.len(), free.len());
    prop_assert!(
        free_set.is_disjoint(&mapped),
        "free pool intersects mapped groups"
    );
    let hot = v.freespace().hot_groups();
    let hot_reserve: BTreeSet<u64> = hot.iter().copied().collect();
    prop_assert_eq!(hot_reserve.len(), hot.len());
    prop_assert_eq!(
        v.freespace().available(),
        v.free_physical_groups() + hot.len() as u64
    );
    prop_assert!(
        free_set.is_disjoint(&hot_reserve),
        "free pool intersects the hot reserve"
    );
    prop_assert!(
        hot_reserve.is_disjoint(&mapped),
        "hot reserve intersects mapped groups"
    );
    for &g in free_set.iter().chain(hot_reserve.iter()) {
        prop_assert!(
            !in_state(v, g, GroupState::Reserved),
            "reserved group {g} escaped into the pool or hot reserve"
        );
    }

    // 4. Journal-row fencing: the reserved metadata row is permanently
    //    outside every data path — never free, never mapped.
    let journal_row = config.journal_metadata_row();
    // Every group holding a page of the row; the row's flat pages are
    // block `journal_row` of every channel and die.
    let row_pages =
        (geometry.pages_per_block * geometry.channels * geometry.dies_per_channel()) as u64;
    let pages_per_group = config.pages_per_group();
    let (jlow, jhigh) = (
        journal_row * row_pages / pages_per_group,
        ((journal_row + 1) * row_pages).div_ceil(pages_per_group),
    );
    for g in jlow..jhigh.min(total_groups) {
        prop_assert!(
            in_state(v, g, GroupState::Reserved),
            "journal group {g} unreserved"
        );
        prop_assert!(!free_set.contains(&g), "journal group {g} in the pool");
        prop_assert!(!mapped.contains(&g), "journal group {g} mapped to data");
    }

    // 5. Valid counts vs brute-force recounts from die page states: each
    //    die's incremental per-block count against its bitmap popcount, and
    //    the index's backbone-wide total against the sum of them all.
    let index = v.backbone().valid_index();
    for b in 0..geometry.total_blocks() {
        let (ch, die, block) = geometry.block_index_to_addr(b);
        let die_ref = v.backbone().channel(ch).unwrap().die(die).unwrap();
        prop_assert_eq!(
            die_ref.valid_pages_in(block),
            die_ref.recount_valid_pages_in(block)
        );
    }
    prop_assert_eq!(
        v.backbone().total_valid_pages(),
        v.backbone().recount_valid_pages()
    );

    // 6. Greedy victim pick matches the brute-force argmin over blocks
    //    with at least one invalid page: fewest valid, smallest index.
    //    Retired (bad) blocks are permanently outside victim selection.
    let mut expected: Option<(u32, u64)> = None;
    for b in 0..geometry.total_blocks() {
        if index.is_block_retired(b) {
            continue;
        }
        let (ch, die, block) = geometry.block_index_to_addr(b);
        let die_ref = v.backbone().channel(ch).unwrap().die(die).unwrap();
        let mut valid = 0u32;
        let mut invalid = 0u32;
        for p in 0..geometry.pages_per_block {
            match die_ref.page_state(block, p) {
                Some(PageState::Valid) => valid += 1,
                Some(PageState::Invalid) => invalid += 1,
                _ => {}
            }
        }
        if invalid > 0 && expected.map_or(true, |(ev, _)| valid < ev) {
            expected = Some((valid, b));
        }
    }
    prop_assert_eq!(
        v.backbone().min_valid_garbage_block(),
        expected.map(|(_, b)| b)
    );

    // 7. Wear ledger vs brute-force recount from the die erase counters:
    //    the free-space manager's per-row ledger (fed by the index's erase
    //    events, drained lazily through Flashvisor) sums them row by row.
    //    Lazy drains are flushed by every journal/GC reclaim, so at op
    //    boundaries the ledger agrees.
    let blocks_per_die = geometry.blocks_per_die() as u64;
    let mut row_recount = vec![0u64; blocks_per_die as usize];
    for b in 0..geometry.total_blocks() {
        let (ch, die, block) = geometry.block_index_to_addr(b);
        let die_ref = v.backbone().channel(ch).unwrap().die(die).unwrap();
        row_recount[(b % blocks_per_die) as usize] += die_ref.erase_count(block);
    }
    prop_assert_eq!(v.freespace().row_wear(), row_recount.as_slice());

    // 8. Group-state partition: every group is free, allocated, reserved
    //    or retired, and recounting the states gives the O(1) free,
    //    reserved and retired counts. A group is free exactly when it sits
    //    in the free pool (the hot reserve counts as allocated: those
    //    groups left the pool).
    let (mut free, mut allocated, mut reserved, mut retired) = (0u64, 0u64, 0u64, 0u64);
    for g in 0..total_groups {
        match v.freespace().state(g) {
            Some(GroupState::Free) => free += 1,
            Some(GroupState::Allocated) => allocated += 1,
            Some(GroupState::Reserved) => reserved += 1,
            Some(GroupState::Retired) => retired += 1,
            None => prop_assert!(false, "group {} has no state", g),
        }
        prop_assert!(
            in_state(v, g, GroupState::Free) == free_set.contains(&g),
            "group {} state disagrees with the free pool",
            g
        );
    }
    prop_assert_eq!(v.freespace().state(total_groups), None);
    prop_assert_eq!(free, v.free_physical_groups());
    prop_assert_eq!(reserved, v.freespace().reserved_count());
    prop_assert_eq!(retired, v.freespace().retired_count());
    prop_assert_eq!(free + allocated + reserved + retired, total_groups);

    // 9. Group tracking vs brute force, the no-leak invariant, and free
    //    groups are erased: recount every group's programmed pages from
    //    the die page states.
    //    A *leaked* group would be simultaneously unmapped, absent from
    //    the free pool, unreserved, outside the hot reserve, and fully
    //    erased — space no path can ever reach again. The group-reclaim
    //    completeness fix guarantees erases return such groups to the
    //    allocator, so the combination must never exist.
    let index = v.backbone().valid_index();
    for g in 0..total_groups {
        let mut programmed = 0u32;
        for i in 0..pages_per_group {
            let flat = g * pages_per_group + i;
            if flat >= geometry.total_pages() {
                continue;
            }
            let addr = geometry.flat_to_addr(flat);
            let die_ref = v
                .backbone()
                .channel(addr.channel)
                .unwrap()
                .die(addr.die)
                .unwrap();
            if let Some(PageState::Valid | PageState::Invalid) =
                die_ref.page_state(addr.block, addr.page)
            {
                programmed += 1;
            }
        }
        prop_assert_eq!(index.group_programmed_pages(g), programmed);
        let unmapped = !mapped.contains(&g);
        let leaked = unmapped
            && !free_set.contains(&g)
            && !fenced(v, g)
            && !hot_reserve.contains(&g)
            && programmed == 0;
        prop_assert!(
            !leaked,
            "group {} leaked: unmapped, not free, not reserved, fully erased",
            g
        );
        // The converse: the allocator only ever holds fully erased groups,
        // so a write never lands on a programmed page.
        prop_assert!(
            !free_set.contains(&g) || programmed == 0,
            "free group {} holds {} programmed pages",
            g,
            programmed
        );
    }

    // 10. Hot/cold classification vs the shadow overwrite ledger: the
    //     harness counts every overwrite it performed independently, and
    //     Flashvisor's incremental counts (and therefore the hot/cold
    //     split) must agree, group by group.
    for lg in 0..total_groups {
        prop_assert_eq!(v.overwrite_count(lg), shadow_overwrites[lg as usize]);
        let expect_hot = match config.hot_overwrite_threshold {
            Some(t) => shadow_overwrites[lg as usize] >= t,
            None => false,
        };
        prop_assert_eq!(v.is_hot_group(lg), expect_hot);
    }
    let fv = v.stats();
    prop_assert_eq!(
        fv.overwritten_groups,
        shadow_overwrites.iter().map(|&c| c as u64).sum::<u64>()
    );

    Ok(())
}

/// Invariant 11: per-owner attribution matches counts the backbone does
/// not derive. The journal owner's programs are the pages Storengine's
/// dumps landed, the foreground owners' programs are Flashvisor's
/// committed group writes page by page, and GC's erases are the block
/// erases Storengine counted. Checked on the fault-free walk only: there a
/// write fails before its first program, while an injected failure lands
/// pages no commit counts.
fn check_attribution(v: &Flashvisor, s: &Storengine) -> Result<(), String> {
    let owners = v.backbone().owner_stats();
    let of = |owner: OwnerId| owners.get(&owner).copied().unwrap_or_default();
    let se = s.stats();
    prop_assert_eq!(of(OwnerId::Journal).programs, se.journal_pages);
    prop_assert_eq!(of(OwnerId::Gc).erases, se.erases);
    let foreground: u64 = owners
        .iter()
        .filter(|(owner, _)| !owner.is_background())
        .map(|(_, stats)| stats.programs)
        .sum();
    prop_assert_eq!(
        foreground,
        v.stats().group_writes * v.config().pages_per_group()
    );
    Ok(())
}

/// Deterministic splitmix64 step driving the random walk from a seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The naive side of the pop-order check: every free group in one flat
/// list, in the order it became free, plus `FirstFree`'s never-used
/// groups and the hot reserve. Each policy's pick is a linear search of
/// that list.
struct PoolModel {
    layout: GroupLayout,
    policy: PlacementPolicy,
    states: Vec<GroupState>,
    /// Free groups in the order they (re-)entered the pool; for
    /// `FirstFree`, only those handed out at least once.
    free: Vec<u64>,
    /// `FirstFree` only: groups from here on were never handed out.
    never_used: u64,
    /// `ChannelStriped` only: the stripe class the rotation tries first.
    next_class: usize,
    wear: Vec<u64>,
    /// The hot reserve, in the order hot writes take it.
    hot: Vec<u64>,
}

impl PoolModel {
    fn new(layout: GroupLayout, policy: PlacementPolicy) -> Self {
        let total = layout.total_groups();
        let first_free = policy == PlacementPolicy::FirstFree;
        PoolModel {
            layout,
            policy,
            states: vec![GroupState::Free; total as usize],
            free: if first_free {
                Vec::new()
            } else {
                (0..total).collect()
            },
            never_used: if first_free { 0 } else { total },
            next_class: 0,
            wear: vec![0; layout.geometry.blocks_per_die()],
            hot: Vec::new(),
        }
    }

    fn total(&self) -> u64 {
        self.states.len() as u64
    }

    fn fenced(&self, g: u64) -> bool {
        matches!(
            self.states[g as usize],
            GroupState::Reserved | GroupState::Retired
        )
    }

    /// Position in `free` of the group the policy hands out next.
    fn pick(&mut self) -> Option<usize> {
        let layout = self.layout;
        match self.policy {
            PlacementPolicy::FirstFree => (!self.free.is_empty()).then_some(0),
            PlacementPolicy::ChannelStriped => {
                let classes = layout.geometry.total_dies();
                for probe in 0..classes {
                    let class = (self.next_class + probe) % classes;
                    let at = self
                        .free
                        .iter()
                        .position(|&g| layout.lane_of_group(g) == class);
                    if at.is_some() {
                        self.next_class = (class + 1) % classes;
                        return at;
                    }
                }
                None
            }
            PlacementPolicy::LeastWorn => {
                let row = self
                    .free
                    .iter()
                    .map(|&g| layout.row_of_group(g))
                    .min_by_key(|&r| (self.wear[r as usize], r))?;
                self.free
                    .iter()
                    .position(|&g| layout.row_of_group(g) == row)
            }
        }
    }

    /// The next free group, ignoring the hot reserve.
    fn pop(&mut self) -> Option<u64> {
        let g = match self.pick() {
            Some(at) => self.free.remove(at),
            None => {
                let g = (self.never_used..self.total())
                    .find(|&g| self.states[g as usize] == GroupState::Free)?;
                self.never_used = g + 1;
                g
            }
        };
        self.states[g as usize] = GroupState::Allocated;
        Some(g)
    }

    fn allocate(&mut self) -> Option<u64> {
        self.pop()
            .or_else(|| (!self.hot.is_empty()).then(|| self.hot.remove(0)))
    }

    /// Refills an empty reserve with up to one row of pops, stopping
    /// after the last group of a row, then hands out its front.
    fn allocate_hot(&mut self) -> Option<u64> {
        let per_row = self.layout.groups_per_row();
        if self.hot.is_empty() {
            while let Some(g) = self.pop() {
                self.hot.push(g);
                if (g + 1) % per_row == 0 || self.hot.len() as u64 == per_row {
                    break;
                }
            }
        }
        (!self.hot.is_empty()).then(|| self.hot.remove(0))
    }

    /// The first pop outside `[low, high)`, with every pop inside it
    /// recycled in pop order, else the first hot group outside it.
    fn allocate_excluding(&mut self, low: u64, high: u64) -> Option<u64> {
        let mut inside = Vec::new();
        let picked = loop {
            match self.pop() {
                Some(g) if g >= low && g < high => inside.push(g),
                other => break other,
            }
        };
        for g in inside {
            self.recycle(g);
        }
        picked.or_else(|| {
            let at = self.hot.iter().position(|&g| g < low || g >= high)?;
            Some(self.hot.remove(at))
        })
    }

    fn recycle(&mut self, g: u64) {
        if self.states[g as usize] == GroupState::Allocated {
            self.states[g as usize] = GroupState::Free;
            self.free.push(g);
        }
    }

    fn reclaim_range(&mut self, low: u64, high: u64) -> u64 {
        let high = high.min(self.total());
        if low >= high {
            return 0;
        }
        self.free.retain(|&g| g < low || g >= high);
        self.hot.retain(|&g| g < low || g >= high);
        let mut newly = 0;
        for g in low..high {
            if self.fenced(g) {
                continue;
            }
            if self.states[g as usize] != GroupState::Free {
                newly += 1;
            }
            self.states[g as usize] = GroupState::Free;
            if g < self.never_used {
                self.free.push(g);
            }
        }
        newly
    }

    fn retire_row(&mut self, row: u64) -> u64 {
        let (low, high) = self.layout.row_groups(row);
        let mut newly = 0;
        for g in low..high.min(self.total()) {
            if !self.fenced(g) {
                self.states[g as usize] = GroupState::Retired;
                newly += 1;
            }
        }
        self.free.retain(|&g| g < low || g >= high);
        self.hot.retain(|&g| g < low || g >= high);
        newly
    }

    fn reserve_range(&mut self, low: u64, high: u64) {
        for g in low..high.min(self.total()) {
            if !self.fenced(g) {
                self.states[g as usize] = GroupState::Reserved;
            }
        }
        self.free.retain(|&g| g < low || g >= high);
    }

    fn rebuild(&mut self, is_free: impl Fn(u64) -> bool) {
        for g in 0..self.total() {
            if !self.fenced(g) {
                self.states[g as usize] = if is_free(g) {
                    GroupState::Free
                } else {
                    GroupState::Allocated
                };
            }
        }
        self.free = (0..self.total())
            .filter(|&g| self.states[g as usize] == GroupState::Free)
            .collect();
        self.never_used = self.total();
        self.next_class = 0;
        self.hot.clear();
    }
}

/// Drives a free-space manager of `policy` through `steps` random calls
/// from `seed` and checks every popped group, every returned count and
/// every group state against [`PoolModel`].
fn check_pop_order(
    layout: GroupLayout,
    policy: PlacementPolicy,
    steps: usize,
    seed: u64,
) -> Result<(), String> {
    let mut m = FreeSpaceManager::new(layout, policy);
    let mut model = PoolModel::new(layout, policy);
    let total = layout.total_groups();
    let rows = layout.geometry.blocks_per_die() as u64;
    // Fence the top row off, the way Flashvisor fences the journal's.
    let (low, high) = layout.row_groups(rows - 1);
    m.reserve_range(low, high);
    model.reserve_range(low, high);
    let mut rng = seed;
    for step in 0..steps {
        // What the call returned, next to what the model says it should.
        let (call, got, want) = match splitmix64(&mut rng) % 64 {
            0..=15 => ("allocate".to_string(), m.allocate(), model.allocate()),
            16..=19 => (
                "allocate_hot".to_string(),
                m.allocate_hot(),
                model.allocate_hot(),
            ),
            20..=23 => {
                // GC's exclusion window is one block row, or empty for a
                // read-disturb relocation.
                let (low, high) = match splitmix64(&mut rng) % 4 {
                    0 => (0, 0),
                    _ => layout.row_groups(splitmix64(&mut rng) % rows),
                };
                (
                    format!("allocate_excluding({low}, {high})"),
                    m.allocate_excluding(low, high),
                    model.allocate_excluding(low, high),
                )
            }
            24..=39 => {
                let g = splitmix64(&mut rng) % total;
                m.recycle(g);
                model.recycle(g);
                (format!("recycle({g})"), None, None)
            }
            40..=45 => {
                // A block row or an arbitrary range: the manager takes
                // either.
                let (low, high) = if splitmix64(&mut rng) % 2 == 0 {
                    layout.row_groups(splitmix64(&mut rng) % rows)
                } else {
                    let low = splitmix64(&mut rng) % total;
                    (low, low + 1 + splitmix64(&mut rng) % 8)
                };
                (
                    format!("reclaim_range({low}, {high})"),
                    Some(m.reclaim_range(low, high)),
                    Some(model.reclaim_range(low, high)),
                )
            }
            46 => {
                let row = splitmix64(&mut rng) % rows;
                (
                    format!("retire_row({row})"),
                    Some(m.retire_row(row)),
                    Some(model.retire_row(row)),
                )
            }
            47..=61 => {
                let row = splitmix64(&mut rng) % rows;
                m.note_block_erase(row);
                model.wear[row as usize] += 1;
                (format!("note_block_erase({row})"), None, None)
            }
            _ => {
                let mask = splitmix64(&mut rng);
                let is_free = |g: u64| (mask >> (g % 64)) & 1 == 1;
                m.rebuild(is_free);
                model.rebuild(is_free);
                ("rebuild".to_string(), None, None)
            }
        };
        let at = format!("{policy:?} step {step}: {call}");
        prop_assert!(got == want, "{at} gave {got:?}, the model {want:?}");
        prop_assert!(m.row_wear() == model.wear.as_slice(), "{at}: wear");
        for g in 0..total {
            let want = model.states[g as usize];
            prop_assert!(
                m.state(g) == Some(want),
                "{at}: group {g} is {:?}, the model {want:?}",
                m.state(g)
            );
        }
        let free = model
            .states
            .iter()
            .filter(|&&s| s == GroupState::Free)
            .count();
        prop_assert!(m.free_count() == free as u64, "{at}: free count");
        prop_assert!(
            m.hot_groups().iter().eq(&model.hot),
            "{at}: hot reserve {:?}, the model {:?}",
            m.hot_groups(),
            model.hot
        );
        prop_assert!(
            m.available() == (free + model.hot.len()) as u64,
            "{at}: available"
        );
    }
    Ok(())
}

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// Random write/overwrite/journal/GC interleavings never desynchronize
    /// the incremental metadata from the brute-force recounts, for any
    /// placement × victim-policy × hot/cold combination.
    #[test]
    fn incremental_metadata_always_equals_brute_force_recounts(
        placement_pick in 0usize..3,
        gc_pick in 0usize..3,
        hot_pick in 0u32..4,
        steps in 24usize..56,
        seed in 0u64..u64::MAX,
    ) {
        let placement = PlacementPolicy::all()[placement_pick];
        let gc_victim = GcVictimPolicy::all()[gc_pick];
        // 0 disables hot/cold separation; 1..=3 are thresholds.
        let hot_threshold = (hot_pick > 0).then_some(hot_pick);
        let config = oracle_config(placement, gc_victim, hot_threshold);
        let mut v = Flashvisor::new(config);
        let mut s = Storengine::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let mut rng = seed;
        let mut t_us = 1u64;
        let mut successes = 0usize;
        // The brute-force side of the hot/cold check: the walk's own
        // overwrite ledger, kept without reading Flashvisor's counters on
        // the success path. A write that fails partway commits an
        // unknowable prefix, so only then the ledger resyncs from the
        // device.
        let total_groups = config.total_page_groups();
        let mut shadow = vec![0u32; total_groups as usize];

        check_invariants(&v, &shadow)?;
        check_attribution(&v, &s)?;
        for _ in 0..steps {
            t_us += 37;
            let now = SimTime::from_us(t_us);
            let group_bytes = config.page_group_bytes;
            match splitmix64(&mut rng) % 8 {
                // Writes dominate: confined to a 24-group logical window so
                // overwrites (and therefore garbage) are common.
                0..=4 => {
                    let lg = splitmix64(&mut rng) % 24;
                    let groups = 1 + splitmix64(&mut rng) % 4;
                    let mapped_before: Vec<u64> = (lg..lg + groups)
                        .filter(|g| v.physical_group_of(*g).is_some())
                        .collect();
                    if v.write_section(now, lg * group_bytes, groups * group_bytes, &mut sp).is_ok() {
                        successes += 1;
                        for g in mapped_before {
                            shadow[g as usize] += 1;
                        }
                    } else {
                        // The failed op overwrote an unknowable prefix of
                        // the range; adopt the device's counts for exactly
                        // the groups the op touched.
                        for g in lg..lg + groups {
                            shadow[g as usize] = v.overwrite_count(g);
                        }
                    }
                }
                // Occasional journaling (programs metadata pages).
                5 => {
                    let _ = s.journal(now, &mut v);
                }
                // GC passes, sometimes several back to back.
                _ => {
                    let passes = 1 + splitmix64(&mut rng) % 3;
                    for _ in 0..passes {
                        let _ = s.collect_garbage(now, &mut v);
                    }
                }
            }
            check_invariants(&v, &shadow)?;
            check_attribution(&v, &s)?;
        }
        // The walk starts on an empty device, so the early writes always
        // land: a silent all-failure walk would test nothing.
        prop_assert!(successes > 0, "no operation ever succeeded");
    }

    /// The same random walk with an injected fault plan armed: seeded
    /// probabilistic program/erase failures, remap-on-failure retries
    /// inside `write_section`, and bad-block row retirement must never
    /// desynchronize the incremental metadata either. Failed GC passes are
    /// absorbed the way the system driver absorbs them — retirement
    /// processing runs and the walk continues — and every invariant
    /// (including the new occupied + free + reserved + retired partition
    /// and the no-leak check) holds after every op.
    #[test]
    fn fault_injected_walks_preserve_every_invariant(
        placement_pick in 0usize..3,
        gc_pick in 0usize..3,
        steps in 24usize..56,
        seed in 0u64..u64::MAX,
    ) {
        let placement = PlacementPolicy::all()[placement_pick];
        let gc_victim = GcVictimPolicy::all()[gc_pick];
        let config = oracle_config(placement, gc_victim, None);
        let mut v = Flashvisor::new(config);
        let spec = format!("seed={seed},program=0.01,erase=0.005,retire_after=2");
        v.install_fault_plan(Arc::new(FaultPlan::parse(&spec).unwrap()));
        let mut s = Storengine::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let mut rng = seed;
        let mut t_us = 1u64;
        let mut successes = 0usize;
        let total_groups = config.total_page_groups();
        let mut shadow = vec![0u32; total_groups as usize];

        check_invariants(&v, &shadow)?;
        for _ in 0..steps {
            t_us += 37;
            let now = SimTime::from_us(t_us);
            let group_bytes = config.page_group_bytes;
            match splitmix64(&mut rng) % 8 {
                0..=4 => {
                    let lg = splitmix64(&mut rng) % 24;
                    let groups = 1 + splitmix64(&mut rng) % 4;
                    let mapped_before: Vec<u64> = (lg..lg + groups)
                        .filter(|g| v.physical_group_of(*g).is_some())
                        .collect();
                    if v.write_section(now, lg * group_bytes, groups * group_bytes, &mut sp).is_ok() {
                        successes += 1;
                        for g in mapped_before {
                            shadow[g as usize] += 1;
                        }
                    } else {
                        for g in lg..lg + groups {
                            shadow[g as usize] = v.overwrite_count(g);
                        }
                    }
                }
                5 => {
                    let _ = s.journal(now, &mut v);
                }
                _ => {
                    let passes = 1 + splitmix64(&mut rng) % 3;
                    for _ in 0..passes {
                        let _ = s.collect_garbage(now, &mut v);
                    }
                    // Condemned rows drain here, exactly like the system
                    // driver's background path; a dry allocator legitimately
                    // leaves rows pending.
                    let _ = v.process_retirements(now);
                }
            }
            check_invariants(&v, &shadow)?;
        }
        prop_assert!(successes > 0, "no operation ever succeeded");
    }

    /// Open-loop tenant walk: tenants arrive into a bounded set of
    /// reusable logical slots, do attributed I/O under their range locks,
    /// and depart mid-run — with slots reused by later tenants (groups
    /// stay mapped across occupants, exactly like the open-loop engine's
    /// slot model) — while the online QoS governor keeps retuning
    /// per-tenant tag-budget overrides from the live owner stats. Every
    /// incremental invariant must hold after every op: in particular the
    /// no-leak check (slot reuse must never strand a group), the
    /// occupied + free + reserved + retired partition, and the per-owner
    /// attribution sum (budget overrides must never lose or double-count
    /// a command) with tenants entering and leaving mid-run.
    #[test]
    fn open_loop_tenant_walks_preserve_every_invariant(
        placement_pick in 0usize..3,
        gc_pick in 0usize..3,
        steps in 24usize..56,
        seed in 0u64..u64::MAX,
    ) {
        let placement = PlacementPolicy::all()[placement_pick];
        let gc_victim = GcVictimPolicy::all()[gc_pick];
        let config = oracle_config(placement, gc_victim, Some(2));
        let mut v = Flashvisor::new(config);
        let mut s = Storengine::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let mut governor = QosGovernor::new(
            GovernorConfig {
                window: SimDuration::from_us(100),
                min_budget: 1,
                max_budget: 8,
            },
            SimTime::ZERO,
        );
        // Four reusable slots of four groups each — small enough that the
        // walk cycles tenants through every slot several times.
        const SLOTS: u64 = 4;
        const SLOT_GROUPS: u64 = 4;
        let group_bytes = config.page_group_bytes;
        let slot_bytes = SLOT_GROUPS * group_bytes;
        let mut slot_owner: [Option<u32>; SLOTS as usize] = [None; SLOTS as usize];
        let mut next_tenant = 0u32;
        let mut active: BTreeSet<u32> = BTreeSet::new();
        let total_groups = config.total_page_groups();
        let mut shadow = vec![0u32; total_groups as usize];
        let (mut arrivals, mut departures, mut ticks, mut io_ok) = (0u32, 0u32, 0u32, 0u32);

        let mut rng = seed;
        let mut t_us = 1u64;
        check_invariants(&v, &shadow)?;
        for _ in 0..steps {
            t_us += 37;
            let now = SimTime::from_us(t_us);
            match splitmix64(&mut rng) % 8 {
                // Arrival into a free slot: preload maps whatever the slot's
                // previous occupants left unmapped, the range lock registers
                // the new owner. Exhaustion mid-preload is tolerated — the
                // invariants must hold especially then.
                0..=1 => {
                    let free = (0..SLOTS as usize).find(|&i| slot_owner[i].is_none());
                    if let Some(slot) = free {
                        let base = slot as u64 * slot_bytes;
                        if v.preload_range(base, slot_bytes).is_ok()
                            && v.map_section(base, slot_bytes, LockMode::Write, next_tenant).is_ok()
                        {
                            slot_owner[slot] = Some(next_tenant);
                            active.insert(next_tenant);
                            arrivals += 1;
                            next_tenant += 1;
                        }
                    }
                }
                // Attributed tenant I/O inside its slot (the range lock
                // routes the commands to OwnerId::Kernel(tenant)). Writes
                // feed the shadow overwrite ledger like every other walk.
                2..=4 => {
                    let slot = (splitmix64(&mut rng) % SLOTS) as usize;
                    if slot_owner[slot].is_some() {
                        let base = slot as u64 * slot_bytes;
                        let off = splitmix64(&mut rng) % SLOT_GROUPS;
                        let groups = 1 + splitmix64(&mut rng) % (SLOT_GROUPS - off).max(1);
                        let start = base + off * group_bytes;
                        if splitmix64(&mut rng) % 2 == 0 {
                            let lg0 = start / group_bytes;
                            let mapped_before: Vec<u64> = (lg0..lg0 + groups)
                                .filter(|g| v.physical_group_of(*g).is_some())
                                .collect();
                            if v.write_section(now, start, groups * group_bytes, &mut sp).is_ok() {
                                io_ok += 1;
                                for g in mapped_before {
                                    shadow[g as usize] += 1;
                                }
                            } else {
                                for g in lg0..lg0 + groups {
                                    shadow[g as usize] = v.overwrite_count(g);
                                }
                            }
                        } else if v.read_section(now, start, groups * group_bytes, &mut sp).is_ok() {
                            io_ok += 1;
                        }
                    }
                }
                // Departure: the lock is released and the governor clears
                // the tenant's budget override — but the slot's groups stay
                // mapped for the next occupant (no trim path exists).
                5 => {
                    let slot = (splitmix64(&mut rng) % SLOTS) as usize;
                    if let Some(owner) = slot_owner[slot].take() {
                        v.unmap_owner(owner);
                        governor.retire(owner, v.backbone_mut());
                        active.remove(&owner);
                        departures += 1;
                    }
                }
                // A governor tick over whoever is active right now.
                6 => {
                    governor.rebalance(&active, v.backbone_mut());
                    ticks += 1;
                }
                // Background storage work keeps running underneath.
                _ => {
                    if splitmix64(&mut rng) % 3 == 0 {
                        let _ = s.journal(now, &mut v);
                    } else {
                        let passes = 1 + splitmix64(&mut rng) % 3;
                        for _ in 0..passes {
                            let _ = s.collect_garbage(now, &mut v);
                        }
                    }
                }
            }
            check_invariants(&v, &shadow)?;
        }
        // The walk must actually exercise the churn: tenants came and went,
        // the governor ticked, and attributed I/O landed.
        prop_assert!(arrivals > 0, "no tenant ever arrived");
        prop_assert!(arrivals >= departures, "more departures than arrivals");
        prop_assert!(ticks > 0 || io_ok > 0 || departures > 0, "inert walk");
    }

    /// Crash-recovery oracle: at an arbitrary cut point in a random walk,
    /// the supercap-backed final journal dump plus `recover()`'s replay
    /// must reproduce the pre-crash logical→physical mapping exactly,
    /// leave the reverse index consistent, and rebuild the free pool to
    /// precisely the unmapped-and-erased groups.
    #[test]
    fn journal_replay_reproduces_the_pre_crash_mapping(
        steps in 8usize..32,
        seed in 0u64..u64::MAX,
    ) {
        let config =
            oracle_config(PlacementPolicy::FirstFree, GcVictimPolicy::GreedyMinValid, None);
        let mut v = Flashvisor::new(config);
        // A fault-free plan still arms redo recording: crash/recovery is
        // part of the fault model even when no media fault ever fires.
        v.install_fault_plan(Arc::new(FaultPlan::parse("seed=1").unwrap()));
        let mut s = Storengine::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let mut rng = seed;
        let mut t_us = 1u64;
        let group_bytes = config.page_group_bytes;
        for _ in 0..steps {
            t_us += 37;
            let now = SimTime::from_us(t_us);
            match splitmix64(&mut rng) % 8 {
                0..=5 => {
                    let lg = splitmix64(&mut rng) % 24;
                    let groups = 1 + splitmix64(&mut rng) % 4;
                    let _ =
                        v.write_section(now, lg * group_bytes, groups * group_bytes, &mut sp);
                }
                6 => {
                    let _ = s.journal(now, &mut v);
                }
                _ => {
                    let _ = s.collect_garbage(now, &mut v);
                }
            }
        }
        // Power loss: the supercap window persists every commit, then the
        // restarted device replays the journal.
        t_us += 37;
        let pre: BTreeMap<u64, u64> = v.mapped_groups().collect();
        prop_assert!(s.journal(SimTime::from_us(t_us), &mut v).is_ok());
        prop_assert_eq!(v.unflushed_redo_records(), 0);
        v.recover();
        let post: BTreeMap<u64, u64> = v.mapped_groups().collect();
        prop_assert_eq!(&pre, &post);
        for (&lg, &pg) in &post {
            prop_assert_eq!(v.logical_group_mapped_to(pg), Some(lg));
        }
        // The crash touched no media: the valid-page index still mirrors
        // the dies, and the rebuilt free pool is exactly the unmapped,
        // fully-erased, unfenced groups.
        prop_assert_eq!(
            v.backbone().total_valid_pages(),
            v.backbone().recount_valid_pages()
        );
        let free_set: BTreeSet<u64> = v.freespace().debug_free_groups().into_iter().collect();
        for g in 0..config.total_page_groups() {
            let expect_free = v.logical_group_mapped_to(g).is_none()
                && v.backbone().valid_index().group_programmed_pages(g) == 0
                && !fenced(&v, g);
            prop_assert!(
                free_set.contains(&g) == expect_free,
                "group {} free-pool membership diverged after replay",
                g
            );
        }
        // And the recovered allocator still serves the data path.
        t_us += 37;
        let _ = v.write_section(SimTime::from_us(t_us), 0, group_bytes, &mut sp);
        prop_assert_eq!(
            v.backbone().total_valid_pages(),
            v.backbone().recount_valid_pages()
        );
    }

    /// Randomized accounting on both command entry points: page-group
    /// stripes through `submit_group`, arbitrary-address runs through
    /// `submit_tagged`, and group `invalidate_group` calls never
    /// desynchronize the dense valid-page index and per-owner stats arrays
    /// from brute-force map-based recounts the walk keeps on the side. This
    /// pins the dense bookkeeping against the semantics the old per-command
    /// map-based accounting defined.
    #[test]
    fn batched_accounting_always_equals_map_recounts(
        steps in 32usize..96,
        seed in 0u64..u64::MAX,
    ) {
        let geometry = FlashGeometry {
            channels: 2,
            packages_per_channel: 1,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let pages_per_group = 2u64;
        let layout = GroupLayout { geometry, pages_per_group };
        let mut bb =
            FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 16, 100_000);
        bb.set_qos_budgets(QosBudgets { per_owner: Some(4), background: Some(2) });

        let owners = [
            OwnerId::Kernel(0),
            OwnerId::Kernel(3),
            OwnerId::Gc,
            OwnerId::Journal,
            OwnerId::Unattributed,
        ];
        let total_blocks = geometry.total_blocks();
        let total_pages = geometry.total_pages();
        let total_groups = total_pages / pages_per_group;
        let pages_per_block = geometry.pages_per_block as u64;
        let page_bytes = geometry.page_bytes as u64;
        let addr_of = |block: u64, page: u64| {
            let (ch, die, blk) = geometry.block_index_to_addr(block);
            PhysicalPageAddr::new(ch, die, blk, page as usize)
        };
        // The map-based shadows: per-block write cursors (NAND programs
        // ascend from the cursor, reset by erase), the set of valid flat
        // pages, and a per-owner (reads, programs, erases, bytes) ledger.
        let mut cursor: BTreeMap<u64, u64> = (0..total_blocks).map(|b| (b, 0)).collect();
        let mut valid: BTreeSet<u64> = BTreeSet::new();
        let mut ledger: BTreeMap<OwnerId, (u64, u64, u64, u64)> = BTreeMap::new();

        let mut rng = seed;
        let mut t_us = 1u64;
        for _ in 0..steps {
            t_us += 13;
            let now = SimTime::from_us(t_us);
            let owner = owners[(splitmix64(&mut rng) % owners.len() as u64) as usize];
            match splitmix64(&mut rng) % 8 {
                // Program a stripe of consecutive flat pages starting at a
                // block's write cursor, as long as every page it reaches
                // sits at its own block's cursor.
                0..=1 => {
                    let b = splitmix64(&mut rng) % total_blocks;
                    if cursor[&b] == pages_per_block {
                        continue;
                    }
                    let first = geometry.addr_to_flat(addr_of(b, cursor[&b]));
                    let want = 1 + splitmix64(&mut rng) % 6;
                    let mut next = cursor.clone();
                    let mut run = 0;
                    while run < want && first + run < total_pages {
                        let addr = geometry.flat_to_addr(first + run);
                        let at = next.get_mut(&geometry.block_index(addr)).unwrap();
                        if addr.page as u64 != *at {
                            break;
                        }
                        *at += 1;
                        run += 1;
                    }
                    let done = bb.submit_group(now, first, run, FlashOp::ProgramPage, owner);
                    prop_assert!(done.is_ok(), "program stripe failed: {:?}", done);
                    cursor = next;
                    valid.extend(first..first + run);
                    let e = ledger.entry(owner).or_default();
                    e.1 += run;
                    e.3 += run * page_bytes;
                }
                // Program a run of fresh pages in one block, one command at
                // a time.
                2..=3 => {
                    let b = splitmix64(&mut rng) % total_blocks;
                    let at = cursor[&b];
                    let run = (1 + splitmix64(&mut rng) % 6).min(pages_per_block - at);
                    if run == 0 {
                        continue;
                    }
                    for p in at..at + run {
                        let done = bb.submit_tagged(now, FlashCommand::program(addr_of(b, p)), owner);
                        prop_assert!(done.is_ok(), "program failed: {:?}", done);
                        valid.insert(geometry.addr_to_flat(addr_of(b, p)));
                    }
                    cursor.insert(b, at + run);
                    let e = ledger.entry(owner).or_default();
                    e.1 += run;
                    e.3 += run * page_bytes;
                }
                // Read a stripe of consecutive valid flat pages.
                4 => {
                    if valid.is_empty() {
                        continue;
                    }
                    let flats: Vec<u64> = valid.iter().copied().collect();
                    let first = flats[(splitmix64(&mut rng) % flats.len() as u64) as usize];
                    let want = 1 + splitmix64(&mut rng) % 8;
                    let run = (first..first + want).take_while(|f| valid.contains(f)).count() as u64;
                    prop_assert!(bb.submit_group(now, first, run, FlashOp::ReadPage, owner).is_ok());
                    let e = ledger.entry(owner).or_default();
                    e.0 += run;
                    e.3 += run * page_bytes;
                }
                // Read arbitrary valid pages, one command at a time.
                5 => {
                    if valid.is_empty() {
                        continue;
                    }
                    let flats: Vec<u64> = valid.iter().copied().collect();
                    let n = 1 + splitmix64(&mut rng) % 8;
                    for _ in 0..n {
                        let flat = flats[(splitmix64(&mut rng) % flats.len() as u64) as usize];
                        let cmd = FlashCommand::read(geometry.flat_to_addr(flat));
                        prop_assert!(bb.submit_tagged(now, cmd, owner).is_ok());
                    }
                    let e = ledger.entry(owner).or_default();
                    e.0 += n;
                    e.3 += n * page_bytes;
                }
                // Group invalidation (the write path's overwrite shape);
                // unwritten pages inside the group are benign and charge no
                // owner.
                6 => {
                    let g = splitmix64(&mut rng) % total_groups;
                    prop_assert!(bb
                        .invalidate_group(g * pages_per_group, pages_per_group)
                        .is_ok());
                    for i in 0..pages_per_group {
                        valid.remove(&(g * pages_per_group + i));
                    }
                }
                // Erase one block (GC's reclaim step), through either entry
                // point.
                _ => {
                    let b = splitmix64(&mut rng) % total_blocks;
                    let addr = addr_of(b, 0);
                    let done = if splitmix64(&mut rng) % 2 == 0 {
                        bb.submit_tagged(now, FlashCommand::erase(addr), owner).map(|c| c.finished)
                    } else {
                        let flat = geometry.addr_to_flat(addr);
                        bb.submit_group(now, flat, 1, FlashOp::EraseBlock, owner)
                    };
                    prop_assert!(done.is_ok());
                    cursor.insert(b, 0);
                    valid.retain(|&flat| {
                        geometry.block_index(geometry.flat_to_addr(flat)) != b
                    });
                    ledger.entry(owner).or_default().2 += 1;
                }
            }

            // Die valid counts and the index's group programmed counts vs
            // the map recount, per block and per group, and the backbone total vs
            // the map and the primary-state (die page state) recount.
            for b in 0..total_blocks {
                let expect = valid
                    .iter()
                    .filter(|&&f| geometry.block_index(geometry.flat_to_addr(f)) == b)
                    .count();
                prop_assert_eq!(bb.valid_in(b) as usize, expect);
            }
            prop_assert_eq!(bb.total_valid_pages(), valid.len());
            prop_assert_eq!(bb.recount_valid_pages(), valid.len());
            // A page is programmed while it sits below its block's cursor.
            for g in 0..total_groups {
                let expect = (0..pages_per_group)
                    .map(|i| geometry.flat_to_addr(g * pages_per_group + i))
                    .filter(|a| (a.page as u64) < cursor[&geometry.block_index(*a)])
                    .count() as u32;
                prop_assert_eq!(bb.valid_index().group_programmed_pages(g), expect);
            }
            // Dense owner-stats arrays vs the map ledger, both directions:
            // every commanded owner's counts match, and no phantom owner
            // slot ever surfaces.
            let stats = bb.owner_stats();
            for (owner, s) in &stats {
                let &(reads, programs, erases, bytes) =
                    ledger.get(owner).unwrap_or(&(0, 0, 0, 0));
                prop_assert_eq!(
                    (s.reads, s.programs, s.erases, s.bytes),
                    (reads, programs, erases, bytes)
                );
            }
            for (owner, &(reads, programs, erases, bytes)) in &ledger {
                if reads + programs + erases + bytes > 0 {
                    prop_assert!(stats.contains_key(owner), "owner {:?} missing", owner);
                }
            }
        }
    }

    /// Every placement policy pops the group a flat-list model picks:
    /// `FirstFree` the earliest recycled group, else the lowest unfenced
    /// never-used one; `ChannelStriped` the earliest group of the next
    /// non-empty stripe class in rotation; `LeastWorn` the earliest group
    /// of the non-empty block row with the least `(wear, row)`. Plain,
    /// hot and GC (row-excluding) allocations, recycles, range reclaims,
    /// row retirements, erases and rebuilds interleave on devices of one
    /// to four lanes, and the hot reserve matches the model's too.
    #[test]
    fn pop_order_matches_a_flat_list_model(
        channels in 1usize..3,
        dies in 1usize..3,
        rows in 2usize..7,
        group_pick in 0u32..3,
        steps in 64usize..192,
        seed in 0u64..u64::MAX,
    ) {
        let geometry = FlashGeometry {
            channels,
            packages_per_channel: 1,
            dies_per_package: dies,
            planes_per_die: 1,
            blocks_per_plane: rows,
            pages_per_block: 4,
            page_bytes: 4096,
        };
        // 1, 2 or 4 pages per group: every row of 4-page blocks holds a
        // whole number of them.
        let layout = GroupLayout { geometry, pages_per_group: 1 << group_pick };
        for policy in PlacementPolicy::all() {
            check_pop_order(layout, policy, steps, seed)?;
        }
    }
}

/// The wear-leveling payoff, pinned as a deterministic unit test: on a
/// churn workload that repeatedly overwrites a small logical window and
/// lets GC reclaim the garbage, `LeastWorn` placement spreads erases
/// across the block rows while `FirstFree`'s recycled-FIFO order keeps
/// hammering the same rows — so the erase-count spread (max − min over
/// data blocks) narrows.
#[test]
fn least_worn_narrows_erase_spread_vs_first_free() {
    fn churn(placement: PlacementPolicy) -> (u64, u64, f64) {
        let mut config = oracle_config(placement, GcVictimPolicy::GreedyMinValid, None);
        config.gc_low_watermark = 0.55;
        let mut v = Flashvisor::new(config);
        let mut s = Storengine::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let group_bytes = config.page_group_bytes;
        let mut now_us = 1u64;
        for round in 0..400u64 {
            let lg = round % 16;
            now_us += 53;
            let _ = v.write_section(
                SimTime::from_us(now_us),
                lg * group_bytes,
                group_bytes,
                &mut sp,
            );
            while s.gc_needed(&v) {
                now_us += 211;
                if s.collect_garbage(SimTime::from_us(now_us), &mut v).is_err() {
                    break;
                }
            }
        }
        // Wear over the data blocks (the reserved journal row is excluded;
        // one shared definition in Flashvisor::data_block_wear).
        let wear = v.data_block_wear();
        (wear.min_erases, wear.max_erases, wear.stddev_erases)
    }

    let (ff_min, ff_max, ff_stddev) = churn(PlacementPolicy::FirstFree);
    let (lw_min, lw_max, lw_stddev) = churn(PlacementPolicy::LeastWorn);
    assert!(
        lw_max - lw_min < ff_max - ff_min,
        "LeastWorn spread {}..{} should be narrower than FirstFree {}..{}",
        lw_min,
        lw_max,
        ff_min,
        ff_max,
    );
    assert!(
        lw_stddev < ff_stddev,
        "LeastWorn stddev {lw_stddev} should beat FirstFree {ff_stddev}"
    );
}
