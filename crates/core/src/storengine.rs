//! Storengine: background storage management.
//!
//! Splitting flash management from address translation is one of the
//! paper's key design decisions (§3.3, §4.3): Flashvisor stays on the
//! critical path only for translation and scheduling, while a second system
//! LWP — Storengine — periodically dumps the scratchpad mapping table to
//! flash (metadata journaling), reclaims physical blocks in round-robin
//! order, migrates still-valid pages out of victim blocks, and returns the
//! reclaimed space to the allocator. All of this runs in the background,
//! overlapped with kernel execution.
//!
//! A flush that trips the free-space watermark starts a *campaign* of
//! reclamation passes (see `FlashAbacusSystem::housekeeping` in
//! `system.rs`). Each pass is planned (`plan_gc`), opened
//! (`begin_gc_pass`), migrated in slices (`migrate_gc_groups`) and
//! closed (`finish_gc_pass`); the driver runs those steps at the
//! flush instant in synchronous mode, or as deferred storage tasks in
//! background mode. [`Storengine::collect_garbage`] runs one pass in one
//! call.

use crate::config::FlashAbacusConfig;
use crate::error::FaError;
use crate::flashvisor::Flashvisor;
use fa_flash::{FlashCommand, FlashError, OwnerId};
use fa_sim::resource::FifoServer;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a reclamation pass picks its victim block row.
///
/// Both policies run the same *row-coherent* pass: the victim is a
/// within-die block row (block `r` of every channel and die), the pass
/// migrates every group with a page in the row, relocation destinations
/// are excluded from the row, and the erase reclaims the whole row's group
/// range — so an erase can never destroy a mapped group the pass did not
/// migrate, and overwrite garbage in the row comes back to the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GcVictimPolicy {
    /// Visit block rows in order, no valid-page counting — the paper's
    /// cheap §4.3 policy and the default.
    #[default]
    RoundRobin,
    /// Pick the row of the reclaimable block with the fewest valid pages
    /// from the backbone's incremental valid-page index (cheapest
    /// migration); falls back to the round-robin walk when nothing holds
    /// garbage.
    GreedyMinValid,
    /// Pick the row of the reclaimable block maximizing the classic
    /// cost-benefit score `age × garbage / valid`, where `age` is the time
    /// since the block last absorbed a program — stale garbage is cheap to
    /// reclaim now, hot blocks are about to gather more garbage. Block ages
    /// and garbage counts are maintained incrementally in the valid-page
    /// index, never rescanned. Falls back to the round-robin walk when
    /// nothing holds garbage.
    CostBenefit,
}

impl GcVictimPolicy {
    /// Short label for reports and perf records.
    pub fn label(self) -> &'static str {
        match self {
            GcVictimPolicy::RoundRobin => "RoundRobin",
            GcVictimPolicy::GreedyMinValid => "GreedyMinValid",
            GcVictimPolicy::CostBenefit => "CostBenefit",
        }
    }

    /// Every victim policy, in report order.
    pub fn all() -> [GcVictimPolicy; 3] {
        [
            GcVictimPolicy::RoundRobin,
            GcVictimPolicy::GreedyMinValid,
            GcVictimPolicy::CostBenefit,
        ]
    }
}

/// Statistics kept by Storengine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StorengineStats {
    /// Metadata journaling dumps performed.
    pub journal_dumps: u64,
    /// Pages written by journaling.
    pub journal_pages: u64,
    /// Blocks reclaimed by garbage collection.
    pub blocks_reclaimed: u64,
    /// Valid pages migrated out of victim blocks.
    pub pages_migrated: u64,
    /// Block erases issued.
    pub erases: u64,
    /// Page groups returned to the allocator by GC row reclaims. Together
    /// with `pages_migrated` this yields the migrated-bytes-per-
    /// reclaimed-byte efficiency the victim policies compete on.
    pub groups_reclaimed: u64,
}

/// Outcome of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Physical page groups returned to the free pool.
    pub groups_reclaimed: u64,
    /// Valid pages migrated.
    pub pages_migrated: u64,
    /// When the pass finished.
    pub finished: SimTime,
}

/// The planning half of a reclamation pass: which block row to erase and
/// which groups must be migrated out of it first. Planning touches only
/// Storengine's cursor and the incremental indexes — no device time — so
/// the system driver plans a pass when its campaign step runs and
/// executes it at once against the state the plan was derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcPlan {
    /// Within-die block row this pass reclaims (block `row` of every
    /// channel and die).
    pub row: u64,
    /// Low end (inclusive) of the row's page-group range.
    pub group_low: u64,
    /// High end (exclusive) of the row's page-group range.
    pub group_high: u64,
    /// `(logical, physical)` groups to migrate, in logical order.
    pub victims: Vec<(u64, u64)>,
}

/// Progress of one reclamation pass across budget-bounded migration
/// slices: where the next slice resumes, what has been migrated so far,
/// and the simulated instant the issued traffic completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPassProgress {
    /// Index into [`GcPlan::victims`] the next migration slice starts at.
    pub next_victim: usize,
    /// Groups migrated so far by this pass.
    pub migrated_groups: u64,
    /// Pages migrated so far by this pass.
    pub migrated_pages: u64,
    /// When the traffic issued so far completes (the next slice resumes
    /// here).
    pub finished: SimTime,
}

/// The storage-management LWP.
pub struct Storengine {
    config: FlashAbacusConfig,
    cpu: FifoServer,
    /// Nanoseconds per LWP cycle, derived once from the platform clock —
    /// `charge_cpu` runs per journal page and per GC slice.
    lwp_ns_per_cycle: f64,
    /// Round-robin cursor over physical blocks (channel, die, block).
    victim_cursor: u64,
    /// Running index of journal pages written, so successive dumps append
    /// to the reserved metadata blocks instead of rewriting page 0.
    journal_cursor: u64,
    last_journal: SimTime,
    stats: StorengineStats,
}

impl Storengine {
    /// Creates an idle Storengine.
    pub fn new(config: FlashAbacusConfig) -> Self {
        Storengine {
            config,
            cpu: FifoServer::new(),
            lwp_ns_per_cycle: 1.0e9 / config.platform.lwp_freq_hz as f64,
            victim_cursor: 0,
            journal_cursor: 0,
            last_journal: SimTime::ZERO,
            stats: StorengineStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> StorengineStats {
        self.stats
    }

    /// Busy fraction of the Storengine LWP up to `now`.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Total busy time of the Storengine LWP.
    pub fn cpu_busy_time(&self) -> SimDuration {
        self.cpu.busy_time()
    }

    fn charge_cpu(&mut self, now: SimTime, cycles: u64) -> SimTime {
        self.cpu
            .serve(
                now,
                SimDuration::from_ns_f64(cycles as f64 * self.lwp_ns_per_cycle),
            )
            .end
    }

    /// True when a journaling dump is due at `now`.
    pub fn journal_due(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_journal) >= self.config.journal_interval
    }

    /// Dumps the mapping-table entries dirtied since the previous dump to
    /// flash (§4.3: page-table entries are persisted in reserved metadata
    /// pages of the backbone). The dump is incremental — journaling the
    /// whole table on every period would serialize multi-millisecond TLC
    /// programs behind foreground reads — and is charged to the Storengine
    /// LWP and the flash backbone, never to Flashvisor.
    pub fn journal(
        &mut self,
        now: SimTime,
        flashvisor: &mut Flashvisor,
    ) -> Result<SimTime, FaError> {
        let dirty_entries = flashvisor.take_dirty_mapping_entries();
        let dirty_bytes = (dirty_entries * 4).max(1);
        let page_bytes = self.config.flash_geometry.page_bytes as u64;
        let pages = dirty_bytes.div_ceil(page_bytes).max(1);
        // Storengine spends CPU preparing the snapshot (a few cycles per
        // entry), then streams it out.
        let prep_done = self.charge_cpu(now, (dirty_bytes / 16).max(200));
        let geometry = self.config.flash_geometry;
        let mut finished = prep_done;
        // Journal pages land in the reserved metadata row in flat order,
        // striped across channels and dies. The cursor persists across
        // dumps so successive dumps append rather than rewriting (and
        // erasing) the same pages.
        let row = self.config.journal_metadata_row();
        let row_pages = geometry.row_pages();
        for _ in 0..pages {
            let i = self.journal_cursor;
            self.journal_cursor += 1;
            let addr = geometry.flat_to_addr(row * row_pages + i % row_pages);
            // The metadata block may need erasing once its pages are used
            // up. All journal traffic carries the Journal owner, so it
            // contends at the tag queues under the background budget.
            let page_result: Result<(), FaError> = (|| {
                match flashvisor.backbone_mut().submit_tagged(
                    prep_done,
                    FlashCommand::program(addr),
                    OwnerId::Journal,
                ) {
                    Ok(c) => finished = finished.max(c.finished),
                    Err(_) => {
                        let erased = flashvisor.backbone_mut().submit_tagged(
                            prep_done,
                            FlashCommand::erase(addr),
                            OwnerId::Journal,
                        )?;
                        let c = flashvisor.backbone_mut().submit_tagged(
                            erased.finished,
                            FlashCommand::program(addr),
                            OwnerId::Journal,
                        )?;
                        finished = finished.max(c.finished);
                    }
                }
                Ok(())
            })();
            if let Err(e) = page_result {
                // Even a failed dump may have erased the metadata block;
                // drain the reclaim list before surfacing the error, or the
                // cleared groups would sit unreachable until the next
                // storage-management activity.
                flashvisor.reclaim_fully_erased();
                return Err(e);
            }
            self.stats.journal_pages += 1;
        }
        // A metadata-block erase may have cleared the last programmed pages
        // of data groups; return any unmapped ones to the allocator.
        flashvisor.reclaim_fully_erased();
        // Every page of the dump landed: the redo records it carried are
        // now persistent, so crash recovery may replay them. A failed dump
        // never reaches this point and its records stay volatile — exactly
        // the commits a crash would lose.
        flashvisor.flush_redo_to_journal();
        self.stats.journal_dumps += 1;
        self.last_journal = now;
        Ok(finished)
    }

    /// True when the free-space watermark calls for a reclamation pass.
    pub fn gc_needed(&self, flashvisor: &Flashvisor) -> bool {
        flashvisor.free_fraction() < self.config.gc_low_watermark
    }

    /// Plans one reclamation pass at instant `now`: picks the victim block
    /// row under the configured policy and enumerates the groups that must
    /// be migrated out of it (via the reverse index — O(groups per row),
    /// not a mapping scan). `now` feeds the cost-benefit block ages; the
    /// other policies ignore it. The journal's reserved metadata row is
    /// never a victim. Consumes no device time; the caller executes the
    /// plan against the same Flashvisor state, as
    /// [`Storengine::collect_garbage`] does.
    pub(crate) fn plan_gc(&mut self, now: SimTime, flashvisor: &Flashvisor) -> GcPlan {
        let layout = self.config.group_layout();
        // The round-robin walk (also every policy's no-garbage fallback)
        // cycles over the data rows only, skipping the journal row (the
        // last one).
        let data_rows = self.config.journal_metadata_row();
        let picked = match self.config.gc_victim {
            GcVictimPolicy::RoundRobin => None,
            GcVictimPolicy::GreedyMinValid => flashvisor.backbone().min_valid_garbage_block(),
            GcVictimPolicy::CostBenefit => flashvisor.backbone().cost_benefit_victim_block(now),
        };
        let row = match picked {
            Some(b) => layout.geometry.block_row(b),
            // RoundRobin, or nothing holds garbage: advance the cursor walk
            // so the pass still erases *something* reclaimable in the long
            // run.
            None => {
                let r = self.victim_cursor % data_rows;
                self.victim_cursor += 1;
                r
            }
        };
        let (group_low, group_high) = layout.row_groups(row);
        GcPlan {
            row,
            group_low,
            group_high,
            victims: flashvisor.victim_groups(group_low, group_high),
        }
    }

    /// Opens a reclamation pass: charges the page-table load to the
    /// Storengine LWP (the paper's Storengine reads the victim's entries
    /// from the backbone metadata area) and returns the progress record
    /// the migration steps advance.
    pub(crate) fn begin_gc_pass(&mut self, now: SimTime) -> GcPassProgress {
        GcPassProgress {
            next_victim: 0,
            migrated_groups: 0,
            migrated_pages: 0,
            finished: self.charge_cpu(now, 2_000),
        }
    }

    /// Migrates up to `max_groups` of the plan's victims, starting at
    /// `progress.next_victim`, one after another: each moves with
    /// [`Flashvisor::migrate_group`] to a destination outside the victim
    /// row, so the erase at the end of the pass can never destroy freshly
    /// relocated data. The old group is not recycled here: its block is
    /// still unerased, and the row erase returns it with the rest of the
    /// row. A bounded `max_groups` is how the system driver slices a
    /// budgeted background pass into separate events, so foreground
    /// requests issue between slices instead of queueing behind a whole
    /// row's migration burst.
    pub(crate) fn migrate_gc_groups(
        &mut self,
        flashvisor: &mut Flashvisor,
        plan: &GcPlan,
        progress: &mut GcPassProgress,
        max_groups: usize,
    ) -> Result<(), FaError> {
        let pages_per_group = self.config.pages_per_group();
        let end = plan
            .victims
            .len()
            .min(progress.next_victim.saturating_add(max_groups));
        while progress.next_victim < end {
            let (lg, old_pg) = plan.victims[progress.next_victim];
            progress.next_victim += 1;
            // A sliced pass interleaves with foreground writes, which may
            // have remapped or overwritten the group since planning; a
            // stale entry needs no migration (its garbage is reclaimed
            // with the row).
            if flashvisor.physical_group_of(lg) != Some(old_pg) {
                continue;
            }
            match flashvisor.migrate_group(
                progress.finished,
                lg,
                old_pg,
                plan.group_low,
                plan.group_high,
            )? {
                Some(done) => {
                    progress.finished = done;
                    progress.migrated_groups += 1;
                    progress.migrated_pages += pages_per_group;
                    self.stats.pages_migrated += pages_per_group;
                }
                // Every available group lies inside the victim row, or the
                // destination's programs failed: the group stays mapped
                // where it is, and the erase check at the end of the pass
                // sees it and skips the erase, so nothing mapped is lost.
                // The run goes on while space is left anywhere.
                None if flashvisor.freespace().available() > 0 => {}
                None => {
                    return Err(FaError::OutOfFlashSpace {
                        requested: 1,
                        available: 0,
                    })
                }
            }
        }
        Ok(())
    }

    /// Closes a reclamation pass once every victim was visited. When the
    /// victim row holds no mapped group any more — every migration landed,
    /// and no interleaved foreground write claimed an in-row group — the
    /// whole row is erased (the erases parallelize across channels and
    /// dies) and its group range, including overwrite garbage no migration
    /// ever recycled, returns to the allocator as one ascending run.
    /// Otherwise the pass banks its migrations and skips the erase, so
    /// mapped data is never destroyed.
    pub(crate) fn finish_gc_pass(
        &mut self,
        flashvisor: &mut Flashvisor,
        plan: &GcPlan,
        progress: &GcPassProgress,
    ) -> Result<GcOutcome, FaError> {
        if !flashvisor
            .victim_groups(plan.group_low, plan.group_high)
            .is_empty()
        {
            // The migrations are banked (the mappings moved), but no space
            // comes back until a later pass can erase the row.
            return Ok(GcOutcome {
                groups_reclaimed: 0,
                pages_migrated: progress.migrated_pages,
                finished: progress.finished,
            });
        }
        let mut finished = progress.finished;
        let mut row_erase_failed = false;
        // One erase per channel/die in ch-major order, tolerating injected
        // failures block by block.
        for erase_addr in self.config.flash_geometry.row_blocks(plan.row) {
            match flashvisor.backbone_mut().submit_tagged(
                progress.finished,
                FlashCommand::erase(erase_addr),
                OwnerId::Gc,
            ) {
                Ok(erased) => {
                    finished = finished.max(erased.finished);
                    self.stats.erases += 1;
                    self.stats.blocks_reclaimed += 1;
                }
                // An injected erase failure condemns only that block:
                // its siblings still erase, its garbage stays put for a
                // retry (or for row retirement once the block crosses
                // the failure threshold), and the pass reclaims what
                // actually cleared.
                Err(FlashError::InjectedEraseFailure(_)) => {
                    row_erase_failed = true;
                }
                // A real fault aborts the pass — but sibling blocks may
                // already have erased; drain the reclaim list before
                // surfacing the error, or their groups (and the wear
                // events) would sit unaccounted until the next storage
                // activity.
                Err(e) => {
                    flashvisor.reclaim_fully_erased();
                    return Err(e.into());
                }
            }
        }
        // The fully-erased drain first returns any group the erases cleared
        // (inside the range the reclaim below normalizes the order;
        // elsewhere, garbage the row shared a group with), then the range
        // reclaim recovers everything the row held: the migrated groups'
        // old locations and the overwrite garbage no migration ever
        // recycled. Both counts are this pass's reclaim — the drain usually
        // recycles the row's garbage before the range walk can see it. The
        // range reclaim assumes every block of the row erased, so after a
        // failed erase the surviving garbage must stay out of the
        // allocator and only the drain returns space this pass.
        let drained = flashvisor.reclaim_fully_erased();
        let ranged = if row_erase_failed {
            0
        } else {
            flashvisor.reclaim_group_range(plan.group_low, plan.group_high)
        };
        let reclaimed_groups = drained + ranged;
        self.stats.groups_reclaimed += reclaimed_groups;
        Ok(GcOutcome {
            groups_reclaimed: reclaimed_groups,
            pages_migrated: progress.migrated_pages,
            finished,
        })
    }

    /// Runs one reclamation pass synchronously: plan, migrate every victim,
    /// then erase and reclaim the row.
    pub fn collect_garbage(
        &mut self,
        now: SimTime,
        flashvisor: &mut Flashvisor,
    ) -> Result<GcOutcome, FaError> {
        let plan = self.plan_gc(now, flashvisor);
        let mut progress = self.begin_gc_pass(now);
        self.migrate_gc_groups(flashvisor, &plan, &mut progress, usize::MAX)?;
        self.finish_gc_pass(flashvisor, &plan, &progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerPolicy;
    use fa_flash::FlashOp;
    use fa_platform::mem::Scratchpad;
    use fa_platform::PlatformSpec;

    fn setup() -> (Storengine, Flashvisor, Scratchpad) {
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        (
            Storengine::new(config),
            Flashvisor::new(config),
            Scratchpad::new(&PlatformSpec::paper_prototype()),
        )
    }

    #[test]
    fn journaling_writes_mapping_pages_and_tracks_period() {
        let (mut s, mut v, _sp) = setup();
        assert!(s.journal_due(SimTime::from_ms(10)));
        let done = s.journal(SimTime::from_ms(10), &mut v).unwrap();
        assert!(done > SimTime::from_ms(10));
        assert_eq!(s.stats().journal_dumps, 1);
        assert!(s.stats().journal_pages >= 1);
        assert!(!s.journal_due(SimTime::from_ms(10)));
        assert!(s.journal_due(SimTime::from_ms(12)));
    }

    #[test]
    fn repeated_journaling_recycles_the_metadata_block() {
        let (mut s, mut v, _sp) = setup();
        // The tiny geometry has 16 pages per block; journaling enough times
        // forces the erase-and-rewrite path.
        let mut t = SimTime::ZERO;
        for i in 0..40 {
            t = s
                .journal(SimTime::from_ms(2 * i as u64), &mut v)
                .unwrap()
                .max(t);
        }
        assert_eq!(s.stats().journal_dumps, 40);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn gc_reclaims_space_after_overwrites() {
        let (mut s, mut v, mut sp) = setup();
        // Fill a few logical groups, then overwrite them so their old
        // physical groups become garbage.
        let group = v.config().page_group_bytes;
        v.write_section(SimTime::ZERO, 0, 4 * group, &mut sp)
            .unwrap();
        v.write_section(SimTime::from_ms(1), 0, 4 * group, &mut sp)
            .unwrap();
        let free_before = v.free_physical_groups();
        // Run GC passes over the whole device; at least one pass must
        // reclaim the overwritten groups (round-robin visits every block).
        let mut reclaimed = 0;
        let mut now = SimTime::from_ms(10);
        for _ in 0..v.config().flash_geometry.total_blocks() {
            let out = s.collect_garbage(now, &mut v).unwrap();
            reclaimed += out.groups_reclaimed;
            now = out.finished;
        }
        assert!(s.stats().blocks_reclaimed > 0);
        assert!(v.free_physical_groups() >= free_before);
        // Relocated-but-live data is still mapped.
        assert!(v.physical_group_of(0).is_some());
        let _ = reclaimed;
    }

    #[test]
    fn greedy_gc_preserves_all_mapped_data() {
        // The GreedyMinValid regression: the pass must migrate exactly the
        // groups covering its victim block (the block row), keep relocation
        // destinations out of that row, and therefore never erase mapped
        // data it did not move. Read-back of every logical group after a
        // full greedy drain proves it.
        let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        config.gc_victim = GcVictimPolicy::GreedyMinValid;
        let mut s = Storengine::new(config);
        let mut v = Flashvisor::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let group = config.page_group_bytes;
        v.write_section(SimTime::ZERO, 0, 8 * group, &mut sp)
            .unwrap();
        // Overwrite to create garbage in the first block row.
        v.write_section(SimTime::from_ms(1), 0, 8 * group, &mut sp)
            .unwrap();
        let mut now = SimTime::from_ms(10);
        for _ in 0..6 {
            let out = s.collect_garbage(now, &mut v).unwrap();
            now = out.finished;
        }
        assert!(s.stats().blocks_reclaimed > 0);
        // Every logical group is still mapped and every one of its pages
        // is readable — nothing mapped was erased unmigrated.
        let t = v.read_section(now, 0, 8 * group, &mut sp).unwrap();
        assert_eq!(t.groups, 8);
        assert!(t.finished > now);
        // The device keeps working after greedy GC: fresh writes and
        // overwrites (which draw reclaimed row groups off the free
        // structure) must program cleanly.
        v.write_section(t.finished, 16 * group, 4 * group, &mut sp)
            .unwrap();
        v.write_section(SimTime::from_ms(60), 0, 8 * group, &mut sp)
            .unwrap();
        let t = v
            .read_section(SimTime::from_ms(80), 0, 8 * group, &mut sp)
            .unwrap();
        assert_eq!(t.groups, 8);
    }

    #[test]
    fn gc_survives_pool_drained_into_hot_groups() {
        // Regression: a hot write's reserve refill can empty the shared
        // pool while the reserve still holds free groups. A GC pass that
        // then needs a migration destination must draw from the reserve
        // (and the abort guards must count it) instead of failing the run
        // with OutOfFlashSpace while unmapped space exists.
        let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        config.hot_overwrite_threshold = Some(1);
        let mut s = Storengine::new(config);
        let mut v = Flashvisor::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let group = config.page_group_bytes;
        let row_groups = config.group_layout().groups_per_row();
        // Fill the first two rows, then overwrite all but one group of
        // row 0: the overwrites are hot (threshold 1), so they relocate
        // through the reserve and row 0 becomes almost pure garbage.
        v.write_section(SimTime::ZERO, 0, 2 * row_groups * group, &mut sp)
            .unwrap();
        v.write_section(
            SimTime::from_ms(1),
            group,
            (row_groups - 1) * group,
            &mut sp,
        )
        .unwrap();
        // Fill fresh cold groups until the shared pool is empty; free
        // space now exists only inside the hot reserve.
        let remaining = v.free_physical_groups();
        v.write_section(
            SimTime::from_ms(2),
            2 * row_groups * group,
            remaining * group,
            &mut sp,
        )
        .unwrap();
        assert_eq!(v.free_physical_groups(), 0, "pool should be drained");
        assert!(
            !v.freespace().hot_groups().is_empty(),
            "reserve should still hold staged groups"
        );
        // The round-robin pass over row 0 must migrate its one live group;
        // the only possible destination is in the hot reserve.
        let out = s
            .collect_garbage(SimTime::from_ms(3), &mut v)
            .expect("GC must not abort while the hot reserve holds free groups");
        assert!(out.pages_migrated > 0, "pass had a group to migrate");
        assert!(
            out.groups_reclaimed >= row_groups - 1,
            "erasing the garbage row reclaims it (got {})",
            out.groups_reclaimed
        );
        // The migrated data is still mapped and readable.
        let t = v
            .read_section(SimTime::from_ms(5), 0, 4 * group, &mut sp)
            .unwrap();
        assert_eq!(t.groups, 4);
    }

    #[test]
    fn a_gc_migration_costs_one_read_stripe_and_one_program_stripe() {
        // tiny_for_tests has two lanes and two-page groups, so a group's
        // pages sit on both lanes: its read stripe and its program stripe
        // each overlap the two pages.
        let (mut s, mut v, mut sp) = setup();
        let group = v.config().page_group_bytes;
        let mut twin = Flashvisor::new(*v.config());
        for visor in [&mut v, &mut twin] {
            visor
                .write_section(SimTime::ZERO, 0, group, &mut sp)
                .unwrap();
        }
        let now = SimTime::from_ms(1);
        let plan = s.plan_gc(now, &v);
        assert_eq!(plan.victims, [(0, 0)], "row 0 holds logical group 0");
        let mut progress = s.begin_gc_pass(now);
        let start = progress.finished;
        s.migrate_gc_groups(&mut v, &plan, &mut progress, usize::MAX)
            .unwrap();
        // The destination is the first free group outside row 0.
        let (destination, _) = v.config().group_layout().row_groups(1);
        assert_eq!(v.physical_group_of(0), Some(destination));
        let pages = v.config().pages_per_group();
        let read = twin
            .backbone_mut()
            .submit_group(start, 0, pages, FlashOp::ReadPage, OwnerId::Gc)
            .unwrap();
        let programmed = twin
            .backbone_mut()
            .submit_group(
                read,
                destination * pages,
                pages,
                FlashOp::ProgramPage,
                OwnerId::Gc,
            )
            .unwrap();
        assert_eq!(progress.finished, programmed);
        assert_eq!(progress.migrated_pages, pages);
    }

    #[test]
    fn gc_watermark_triggers_only_when_space_is_low() {
        let (s, mut v, mut sp) = setup();
        assert!(!s.gc_needed(&v));
        // Consume ~95% of the groups.
        let group = v.config().page_group_bytes;
        let total = v.config().total_page_groups();
        let to_use = (total as f64 * 0.95) as u64;
        v.write_section(SimTime::ZERO, 0, to_use * group, &mut sp)
            .unwrap();
        assert!(s.gc_needed(&v));
    }

    #[test]
    fn storengine_time_is_separate_from_flashvisor_time() {
        let (mut s, mut v, _sp) = setup();
        s.journal(SimTime::ZERO, &mut v).unwrap();
        assert!(s.cpu_busy_time() > SimDuration::ZERO);
        // Flashvisor's CPU was never charged by journaling.
        assert_eq!(v.cpu_busy_time(), SimDuration::ZERO);
    }
}
