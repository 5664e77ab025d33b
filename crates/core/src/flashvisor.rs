//! Flashvisor: flash virtualization and access control.
//!
//! Flashvisor is the LWP that owns the flash backbone. It maps each
//! kernel's data section to physical flash by grouping pages across
//! channels and dies into *page groups*, keeps that mapping table in the
//! scratchpad, translates logical addresses, enforces protection with range
//! locks, and issues the resulting page commands to the FPGA channel
//! controllers (§3.3, §4.3). Writes are allocated log-structured: each new
//! write takes the next free physical page group.

use crate::config::FlashAbacusConfig;
use crate::error::FaError;
use crate::freespace::FreeSpaceManager;
use crate::rangelock::{LockId, LockMode, RangeLockTable};
use fa_flash::{FaultPlan, FlashBackbone, FlashError, FlashOp, OwnerId};
use fa_platform::mem::Scratchpad;
use fa_sim::resource::FifoServer;
use fa_sim::table::LazyTable;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Statistics kept by Flashvisor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FlashvisorStats {
    /// Page-group read requests translated and issued.
    pub group_reads: u64,
    /// Page-group write requests translated and issued.
    pub group_writes: u64,
    /// Page groups whose old physical location was invalidated by an
    /// overwrite.
    pub overwritten_groups: u64,
    /// Group writes whose logical group was classified *hot* (overwrite
    /// count at or above the configured threshold).
    pub hot_group_writes: u64,
    /// Group writes whose logical group was classified cold (or hot/cold
    /// separation is disabled).
    pub cold_group_writes: u64,
    /// Hot group writes actually served from the dedicated hot active
    /// blocks (the remainder failed: the device had no free group left to
    /// refill the hot reserve).
    pub hot_steered_writes: u64,
}

impl FlashvisorStats {
    /// Fraction of hot-classified writes that landed on the dedicated hot
    /// active blocks; 0 when no write was classified hot.
    pub fn hot_steer_rate(&self) -> f64 {
        if self.hot_group_writes == 0 {
            0.0
        } else {
            self.hot_steered_writes as f64 / self.hot_group_writes as f64
        }
    }
}

/// Erase-cycle statistics over the *data* blocks (the journal's reserved
/// metadata row is excluded — its wear is journal cadence, not placement
/// quality). The single definition behind `RunOutcome`'s wear metrics,
/// the policy-ablation figure, and the oracle's wear checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WearSummary {
    /// Fewest erase cycles any data block absorbed.
    pub min_erases: u64,
    /// Most erase cycles any data block absorbed.
    pub max_erases: u64,
    /// Population standard deviation of per-data-block erase cycles.
    pub stddev_erases: f64,
}

impl WearSummary {
    /// `max − min`: the endurance-headroom spread wear-aware placement
    /// exists to narrow.
    pub fn spread(&self) -> u64 {
        self.max_erases - self.min_erases
    }
}

/// Completion information for a data-section transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferCompletion {
    /// When the request was accepted by Flashvisor.
    pub accepted: SimTime,
    /// When the last page of the transfer completed on the backbone.
    pub finished: SimTime,
    /// Page groups touched.
    pub groups: u64,
}

impl TransferCompletion {
    /// End-to-end latency of the transfer.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.accepted)
    }
}

/// The flash-virtualization LWP.
pub struct Flashvisor {
    config: FlashAbacusConfig,
    backbone: FlashBackbone,
    /// Logical page group → physical page group, one 4-byte entry per
    /// group like the scratchpad table it models (§4.3), sentinel-encoded:
    /// `0` = unmapped, `pg + 1` = mapped to `pg` (see [`group_entry`]).
    /// The table is reserved at full length but filled only up to the
    /// 4 KiB chunk holding the highest logical group a run maps, so
    /// construction writes none of it, and every entry past that prefix
    /// reads as unmapped. Walks of the mapped groups stop at the prefix.
    mapping: LazyTable<u32>,
    /// Physical page group → logical page group, maintained alongside
    /// `mapping` so GC can enumerate the groups of one victim block
    /// without walking the whole table. An entry may briefly go stale
    /// (a group recycled externally while still mapped); consumers filter
    /// through `mapping` for the authoritative answer. Sentinel-encoded
    /// like `mapping`: `0` = none, `lg + 1` = logical group `lg`; filled
    /// only up to the highest physical group ever mapped.
    reverse: LazyTable<u32>,
    /// Incremental free-group structure and placement policy.
    freespace: FreeSpaceManager,
    /// Overwrites absorbed per *logical* group — the cross-layer metadata
    /// hot/cold separation classifies on (the global
    /// `overwritten_groups` stat is the sum of this table). Requested at
    /// the first overwrite and filled only up to the highest logical group
    /// overwritten, so a run that never overwrites allocates none of it.
    overwrite_counts: LazyTable<u32>,
    locks: RangeLockTable,
    /// Flashvisor's own LWP time: translations and scheduling decisions
    /// serialize here.
    cpu: FifoServer,
    /// Nanoseconds per LWP cycle, derived once from the platform clock —
    /// `charge_cpu` runs per request, and the division is not free there.
    lwp_ns_per_cycle: f64,
    /// Mapping-table entries modified since the last Storengine journal
    /// dump (incremental journaling writes only these).
    dirty_mapping_entries: u64,
    /// True once a fault plan is installed: every mapping commit is then
    /// also appended to `redo_since_journal` so power-loss recovery can
    /// replay the journal. Fault-free runs never set this and record
    /// nothing.
    record_redo: bool,
    /// Redo records `(logical, physical)` committed since the previous
    /// successful journal dump. A crash loses these — exactly the commits
    /// the real device would lose.
    redo_since_journal: Vec<(u64, u64)>,
    /// Ordered redo records persisted by successful journal dumps — the
    /// journal's logical content, replayed by [`Flashvisor::recover`].
    journal_replay_log: Vec<(u64, u64)>,
    /// Block rows the fault model condemned but which could not yet be
    /// vacated (no migration destination, or the destinations kept
    /// failing); retried on the next retirement pass.
    pending_retire_rows: VecDeque<u64>,
    /// The bad-block remap table: block rows retired from service, in
    /// retirement order.
    retired_rows: Vec<u64>,
    stats: FlashvisorStats,
}

/// The 4-byte mapping-table entry naming page group `group`.
///
/// # Panics
///
/// Panics if `group + 1` does not fit in a `u32`. [`Flashvisor::new`]
/// rejects devices with that many groups, so only an out-of-range group
/// can get here.
fn group_entry(group: u64) -> u32 {
    u32::try_from(group + 1).expect("page group index fits a 4-byte mapping entry")
}

/// The page group a mapping-table entry names, if any.
fn entry_group(entry: u32) -> Option<u64> {
    entry.checked_sub(1).map(u64::from)
}

/// What an allocation returns when no group is free or staged.
const OUT_OF_SPACE: FaError = FaError::OutOfFlashSpace {
    requested: 1,
    available: 0,
};

impl Flashvisor {
    /// Creates a Flashvisor owning a freshly built backbone.
    ///
    /// # Panics
    ///
    /// Panics unless `page_group_bytes` is a nonzero multiple of the flash
    /// page size: a group is a whole number of pages. Panics if the device
    /// has `u32::MAX` page groups or more: the mapping table's 4-byte
    /// entries could not name them all. Panics unless a block row holds a
    /// whole number of page groups: a group straddling two rows would be
    /// migrated with one row and retired or reclaimed with the other.
    /// Panics unless every die has at least two block rows: one for data
    /// and one for the metadata journal.
    pub fn new(config: FlashAbacusConfig) -> Self {
        let (group_bytes, page_bytes) = (
            config.page_group_bytes,
            config.flash_geometry.page_bytes as u64,
        );
        assert!(
            group_bytes > 0 && group_bytes % page_bytes == 0,
            "page_group_bytes {group_bytes} is not a whole number of {page_bytes}-byte pages"
        );
        let layout = config.group_layout();
        let total_groups = layout.total_groups();
        assert!(
            total_groups < u64::from(u32::MAX),
            "{total_groups} page groups exceed the 4-byte mapping entries"
        );
        let row_pages = layout.geometry.row_pages();
        assert!(
            row_pages % layout.pages_per_group == 0,
            "a {row_pages}-page block row does not hold whole {}-page groups",
            layout.pages_per_group
        );
        let rows = layout.geometry.blocks_per_die();
        assert!(
            rows >= 2,
            "{rows} block row(s) per die leave no row for the metadata journal"
        );
        // Group-level accounting (complete reclamation of erased groups)
        // and the per-owner tag budgets both live in the backbone.
        let mut backbone = FlashBackbone::new(
            layout,
            config.flash_timing,
            config.srio_bytes_per_sec,
            config.channel_tag_queue,
            config.endurance_cycles,
        );
        backbone.set_qos_budgets(config.qos.budgets());
        let mut freespace = FreeSpaceManager::new(layout, config.placement);
        // Fence the journal's metadata row off from the data allocator: on
        // a nearly-full device the cursor used to reach it, programs
        // failed, and the journal's recycle path erased under live data.
        let (low, high) = layout.row_groups(config.journal_metadata_row());
        freespace.reserve_range(low, high);
        Flashvisor {
            config,
            backbone,
            mapping: LazyTable::new(total_groups as usize),
            reverse: LazyTable::new(total_groups as usize),
            freespace,
            overwrite_counts: LazyTable::deferred(total_groups as usize),
            locks: RangeLockTable::new(),
            cpu: FifoServer::new(),
            lwp_ns_per_cycle: 1.0e9 / config.platform.lwp_freq_hz as f64,
            dirty_mapping_entries: 0,
            record_redo: false,
            redo_since_journal: Vec::new(),
            journal_replay_log: Vec::new(),
            pending_retire_rows: VecDeque::new(),
            retired_rows: Vec::new(),
            stats: FlashvisorStats::default(),
        }
    }

    /// The configuration this Flashvisor was built with.
    pub fn config(&self) -> &FlashAbacusConfig {
        &self.config
    }

    /// Immutable access to the backbone (reports, GC victim inspection).
    pub fn backbone(&self) -> &FlashBackbone {
        &self.backbone
    }

    /// Mutable access to the backbone (used by Storengine).
    pub fn backbone_mut(&mut self) -> &mut FlashBackbone {
        &mut self.backbone
    }

    /// Current statistics.
    pub fn stats(&self) -> FlashvisorStats {
        self.stats
    }

    /// Number of physical page groups not yet allocated. O(1): read from
    /// the free-space manager's incremental count.
    pub fn free_physical_groups(&self) -> u64 {
        self.freespace.free_count()
    }

    /// The free-space manager (placement policy, group states, oracles).
    pub fn freespace(&self) -> &FreeSpaceManager {
        &self.freespace
    }

    /// Fraction of physical page groups still free.
    pub(crate) fn free_fraction(&self) -> f64 {
        self.free_physical_groups() as f64 / self.config.total_page_groups() as f64
    }

    /// Busy fraction of the Flashvisor LWP up to `now`.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Total busy time of the Flashvisor LWP.
    pub fn cpu_busy_time(&self) -> SimDuration {
        self.cpu.busy_time()
    }

    /// Logical page-group index covering logical byte address `addr`.
    fn logical_group_of(&self, addr: u64) -> u64 {
        addr / self.config.page_group_bytes
    }

    /// Number of page groups covering the byte range `[start, start+len)`.
    fn groups_covering(&self, start: u64, len: u64) -> (u64, u64) {
        if len == 0 {
            let g = self.logical_group_of(start);
            return (g, g);
        }
        let first = self.logical_group_of(start);
        let last = self.logical_group_of(start + len - 1);
        (first, last)
    }

    /// Charges Flashvisor CPU time for one unit of work of `cycles` cycles
    /// starting no earlier than `now`, returning when that work is done.
    fn charge_cpu(&mut self, now: SimTime, cycles: u64) -> SimTime {
        let dur = SimDuration::from_ns_f64(cycles as f64 * self.lwp_ns_per_cycle);
        self.cpu.serve(now, dur).end
    }

    /// Charges one scheduling decision (used by the system driver so that
    /// scheduling overhead lands on the Flashvisor LWP as the paper
    /// describes).
    pub(crate) fn charge_scheduling_decision(&mut self, now: SimTime) -> SimTime {
        self.charge_cpu(now, self.config.scheduling_decision_cycles)
    }

    /// Acquires the range lock protecting a data-section mapping.
    pub fn map_section(
        &mut self,
        start: u64,
        len: u64,
        mode: LockMode,
        owner: u32,
    ) -> Result<LockId, FaError> {
        let end = start + len.max(1);
        self.locks
            .try_acquire(start, end, mode, owner)
            .ok_or(FaError::RangeConflict {
                range: (start, end),
            })
    }

    /// Releases a data-section mapping.
    pub fn unmap_section(&mut self, lock: LockId) {
        self.locks.release(lock);
    }

    /// Releases every mapping owned by `owner`.
    pub fn unmap_owner(&mut self, owner: u32) {
        self.locks.release_owner(owner);
    }

    /// Access to the lock table (ablation experiments).
    pub fn locks(&self) -> &RangeLockTable {
        &self.locks
    }

    /// The owner identity a transfer over `[start, start+len)` carries to
    /// the backbone: the range-lock owner when a kernel has the section
    /// mapped (the cross-layer metadata the QoS budgets key on), otherwise
    /// [`OwnerId::Unattributed`].
    fn transfer_owner(&self, start: u64, len: u64) -> OwnerId {
        match self.locks.owner_covering(start, start + len.max(1)) {
            Some(owner) => OwnerId::Kernel(owner),
            None => OwnerId::Unattributed,
        }
    }

    /// Returns erased-and-unmapped page groups to the allocator: drains
    /// the backbone's fully-erased group list (maintained by group
    /// tracking on every block erase) and recycles each group that no
    /// mapping references — the group-reclaim completeness fix, covering
    /// overwritten garbage groups no migration ever recycled. Groups still
    /// mapped are left alone. Returns how many groups were newly freed.
    pub(crate) fn reclaim_fully_erased(&mut self) -> u64 {
        self.sync_wear();
        let mut reclaimed = 0;
        for pg in self.backbone.take_fully_erased_groups() {
            if self.logical_group_mapped_to(pg).is_none() && !self.freespace.is_free(pg) {
                self.freespace.recycle(pg);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Forwards the block erases the backbone absorbed since the previous
    /// drain into the free-space manager's per-row wear ledger, which
    /// `LeastWorn` allocates against, without ever recounting erase
    /// cycles from the dies. A no-op (and O(1)) when nothing was erased.
    fn sync_wear(&mut self) {
        let geometry = self.config.flash_geometry;
        for block in self.backbone.take_erased_blocks() {
            self.freespace.note_block_erase(geometry.block_row(block));
        }
    }

    fn allocate_physical_group(&mut self) -> Result<u64, FaError> {
        self.sync_wear();
        self.freespace.allocate().ok_or(OUT_OF_SPACE)
    }

    /// Allocates a destination for a hot-classified write from the hot
    /// reserve (see [`FreeSpaceManager::allocate_hot`]). Wear is synced
    /// only when the reserve is empty, before its refill pops the pool.
    fn allocate_hot_group(&mut self) -> Result<u64, FaError> {
        if self.freespace.hot_groups().is_empty() {
            self.sync_wear();
        }
        let g = self.freespace.allocate_hot().ok_or(OUT_OF_SPACE)?;
        self.stats.hot_steered_writes += 1;
        Ok(g)
    }

    /// Looks up the mapping slot of a logical group, rejecting addresses
    /// beyond the virtualized capacity.
    fn logical_slot(&self, logical_group: u64) -> Result<Option<u64>, FaError> {
        self.mapping
            .get(logical_group as usize)
            .map(entry_group)
            .ok_or(FaError::UnmappedAddress(
                logical_group * self.config.page_group_bytes,
            ))
    }

    /// Pre-populates the mapping and backbone for a logical byte range, as
    /// if a host had written the input data before the experiment started.
    /// Consumes no simulated time.
    ///
    /// Unmapped logical groups receive physical groups from the allocator
    /// in logical order. Each maximal run of consecutive physical groups it
    /// hands out is placed with one [`FlashBackbone::preload_group`] call,
    /// and only once that succeeds are the run's mapping, reverse and redo
    /// entries written, in logical order. On error, runs already placed
    /// stay committed; the failed run's groups (and a group allocated past
    /// it) go back to the allocator.
    pub fn preload_range(&mut self, start: u64, len: u64) -> Result<(), FaError> {
        if len == 0 {
            return Ok(());
        }
        let (first, last) = self.groups_covering(start, len);
        // The pending run: physical groups `run_pg..run_pg + run_len` for
        // the unmapped logical groups of `run_first..=lg`, in order.
        let (mut run_first, mut run_pg, mut run_len) = (first, 0, 0);
        for lg in first..=last {
            let pg = match self.logical_slot(lg) {
                Ok(Some(_)) => continue,
                Ok(None) => self.allocate_physical_group(),
                Err(e) => Err(e),
            };
            let pg = match pg {
                Ok(pg) => pg,
                Err(e) => {
                    self.commit_preload_run(run_first, lg, run_pg, run_len)?;
                    return Err(e);
                }
            };
            if run_len > 0 && pg != run_pg + run_len {
                if let Err(e) = self.commit_preload_run(run_first, lg, run_pg, run_len) {
                    self.recycle_if_unprogrammed(pg);
                    return Err(e);
                }
                run_len = 0;
            }
            if run_len == 0 {
                (run_first, run_pg) = (lg, pg);
            }
            run_len += 1;
        }
        self.commit_preload_run(run_first, last + 1, run_pg, run_len)
    }

    /// Places the physical groups `first_pg..first_pg + groups` with one
    /// backbone preload, then maps them, in order, to the logical groups of
    /// `first_lg..end_lg` that are still unmapped. If the backbone rejects
    /// the run (it then changed nothing), the groups go back to the
    /// allocator and nothing is mapped.
    fn commit_preload_run(
        &mut self,
        first_lg: u64,
        end_lg: u64,
        first_pg: u64,
        groups: u64,
    ) -> Result<(), FaError> {
        if groups == 0 {
            return Ok(());
        }
        let pages = self.config.pages_per_group();
        if let Err(e) = self
            .backbone
            .preload_group(first_pg * pages, groups * pages)
        {
            for pg in first_pg..first_pg + groups {
                self.recycle_if_unprogrammed(pg);
            }
            return Err(e.into());
        }
        let mut pg = first_pg;
        for lg in first_lg..end_lg {
            if self.mapping[lg as usize] != 0 {
                continue;
            }
            self.mapping[lg as usize] = group_entry(pg);
            self.reverse[pg as usize] = group_entry(lg);
            // Preloads model data that existed before the run: they must
            // survive journal replay like any committed mapping.
            self.record_commit(lg, pg);
            pg += 1;
        }
        debug_assert_eq!(pg, first_pg + groups);
        Ok(())
    }

    /// Reads the logical byte range `[start, start+len)` of a data section
    /// into DDR3L: translation on the Flashvisor LWP followed by page reads
    /// on the backbone. Returns when the last page arrives.
    ///
    /// Each mapping lookup is charged as `flashvisor_request_cycles` of
    /// Flashvisor time. The scratchpad argument is not used: the
    /// scratchpad models no timing. It stays in the signature so existing
    /// callers compile.
    pub fn read_section(
        &mut self,
        now: SimTime,
        start: u64,
        len: u64,
        _scratchpad: &mut Scratchpad,
    ) -> Result<TransferCompletion, FaError> {
        if len == 0 {
            return Ok(TransferCompletion {
                accepted: now,
                finished: now,
                groups: 0,
            });
        }
        let pages = self.config.pages_per_group();
        let owner = self.transfer_owner(start, len);
        let (first, last) = self.groups_covering(start, len);
        let mut finished = now;
        let mut cursor = now;
        for lg in first..=last {
            // Mapping lookup: Flashvisor cycles.
            cursor = self.charge_cpu(cursor, self.config.flashvisor_request_cycles);
            let pg = self
                .logical_slot(lg)?
                .ok_or(FaError::UnmappedAddress(lg * self.config.page_group_bytes))?;
            // Group submission: every page command of the group goes down
            // at the translated instant, with the flat→physical stepping
            // done inside the backbone.
            let done =
                self.backbone
                    .submit_group(cursor, pg * pages, pages, FlashOp::ReadPage, owner)?;
            finished = finished.max(done);
            self.stats.group_reads += 1;
        }
        // Read-disturb is retry-then-relocate: the channel already retried
        // the sense; any page it flagged now gets its whole group migrated
        // to a fresh location before the disturbance can accumulate.
        if self.backbone.faults_affect_reads() {
            finished = finished.max(self.relocate_disturbed(finished)?);
        }
        Ok(TransferCompletion {
            accepted: now,
            finished,
            groups: last - first + 1,
        })
    }

    /// Writes the logical byte range `[start, start+len)` back to flash:
    /// log-structured allocation of new physical groups, page programs, and
    /// invalidation of any overwritten groups. The scratchpad argument is
    /// not used (see [`Flashvisor::read_section`]).
    pub fn write_section(
        &mut self,
        now: SimTime,
        start: u64,
        len: u64,
        _scratchpad: &mut Scratchpad,
    ) -> Result<TransferCompletion, FaError> {
        if len == 0 {
            return Ok(TransferCompletion {
                accepted: now,
                finished: now,
                groups: 0,
            });
        }
        let pages = self.config.pages_per_group();
        let owner = self.transfer_owner(start, len);
        let (first, last) = self.groups_covering(start, len);
        let mut finished = now;
        let mut cursor = now;
        for lg in first..=last {
            cursor = self.charge_cpu(cursor, self.config.flashvisor_request_cycles);
            // Invalidate the previous location, if any.
            let old = self.logical_slot(lg)?;
            if let Some(old) = old {
                // Vectored invalidation of the superseded group: unwritten
                // trailing pages of a partially used group are skipped
                // inside the backbone; anything else — an out-of-range
                // address, a worn die — is a real fault the caller must
                // see.
                self.backbone.invalidate_group(old * pages, pages)?;
                self.stats.overwritten_groups += 1;
                let count = &mut self.overwrite_counts[lg as usize];
                *count = count.saturating_add(1);
            }
            // Hot/cold separation: a logical group overwritten at least
            // `hot_overwrite_threshold` times draws its destination from
            // the dedicated hot active blocks.
            let hot = self.is_hot_group(lg);
            let mut pg = if hot {
                self.stats.hot_group_writes += 1;
                self.allocate_hot_group()?
            } else {
                self.stats.cold_group_writes += 1;
                self.allocate_physical_group()?
            };
            let done = loop {
                match self.backbone.submit_group(
                    cursor,
                    pg * pages,
                    pages,
                    FlashOp::ProgramPage,
                    owner,
                ) {
                    Ok(done) => break done,
                    // Remap-on-failure: an injected program failure burns
                    // the attempted group (any landed pages are garbage
                    // until its row erases) and the write retries on a
                    // fresh destination. This terminates even at p = 1:
                    // every failed attempt consumes a group, so the
                    // allocator runs dry in bounded time.
                    Err(FlashError::InjectedProgramFailure(_)) => {
                        self.recycle_if_unprogrammed(pg);
                        pg = self.allocate_physical_group()?;
                    }
                    Err(e) => {
                        self.recycle_if_unprogrammed(pg);
                        return Err(e.into());
                    }
                }
            };
            finished = finished.max(done);
            // Commit the remap and both index directions together, only
            // once the programs succeeded: a failure above must leave the
            // old mapping (and its reverse entry) intact so GC can still
            // find the group.
            if let Some(old) = old {
                self.release_unmapped_group(old);
            }
            self.mapping[lg as usize] = group_entry(pg);
            self.reverse[pg as usize] = group_entry(lg);
            self.dirty_mapping_entries += 1;
            self.record_commit(lg, pg);
            self.stats.group_writes += 1;
        }
        Ok(TransferCompletion {
            accepted: now,
            finished,
            groups: last - first + 1,
        })
    }

    /// Looks up the physical group a logical group maps to (Storengine uses
    /// this while migrating valid pages).
    pub fn physical_group_of(&self, logical_group: u64) -> Option<u64> {
        self.mapping
            .get(logical_group as usize)
            .and_then(entry_group)
    }

    /// Remaps a logical group to a new physical group (GC migration) and
    /// returns the previous physical group.
    pub(crate) fn remap_group(&mut self, logical_group: u64, new_physical: u64) -> Option<u64> {
        let slot = self.mapping.get_mut(logical_group as usize)?;
        self.dirty_mapping_entries += 1;
        let old = entry_group(std::mem::replace(slot, group_entry(new_physical)));
        self.record_commit(logical_group, new_physical);
        if let Some(old) = old {
            self.release_unmapped_group(old);
        }
        if let Some(r) = self.reverse.get_mut(new_physical as usize) {
            *r = group_entry(logical_group);
        }
        old
    }

    /// Commits the unmapping of physical group `old`: clears its reverse
    /// entry and recycles it if no page of it is programmed.
    fn release_unmapped_group(&mut self, old: u64) {
        if let Some(r) = self.reverse.get_mut(old as usize) {
            *r = 0;
        }
        self.recycle_if_unprogrammed(old);
    }

    /// Returns unmapped group `pg` to the allocator when no programmed page
    /// of it remains on the device. Such a group is invisible to every
    /// erase-driven reclaim path — no erase will ever report it again — so
    /// this is the last chance to reclaim it. Two paths need it: a
    /// just-allocated group whose programs failed before any page landed,
    /// and an unmapped group whose last page a destructive metadata-block
    /// erase (the journal recycling its reserved block under live data)
    /// cleared while it was still mapped, when the fully-erased drain had
    /// to skip it. A group with landed pages stays allocated: the row
    /// erase that clears them reclaims it later.
    pub(crate) fn recycle_if_unprogrammed(&mut self, pg: u64) {
        if self.backbone.valid_index().group_programmed_pages(pg) == 0 {
            self.freespace.recycle(pg);
        }
    }

    /// Overwrites absorbed by logical group `lg` since the run started.
    pub fn overwrite_count(&self, lg: u64) -> u32 {
        self.overwrite_counts.get(lg as usize).unwrap_or_default()
    }

    /// True when logical group `lg` is classified *hot*: its overwrite
    /// count reached the configured threshold. Always false when hot/cold
    /// separation is disabled.
    pub fn is_hot_group(&self, lg: u64) -> bool {
        match self.config.hot_overwrite_threshold {
            Some(threshold) => self.overwrite_count(lg) >= threshold,
            None => false,
        }
    }

    /// Erase-cycle statistics over the data blocks, excluding the
    /// journal's reserved metadata row.
    ///
    /// Streams the dies' erase counts twice, in flat block order: once for
    /// the count, sum, minimum and maximum, once for the squared
    /// deviations from the mean.
    pub fn data_block_wear(&self) -> WearSummary {
        let geometry = self.config.flash_geometry;
        let journal_row = self.config.journal_metadata_row();
        let wear = self
            .backbone
            .block_erase_counts()
            .enumerate()
            .filter(move |&(i, _)| geometry.block_row(i as u64) != journal_row)
            .map(|(_, c)| c);
        let (mut len, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
        for c in wear.clone() {
            len += 1;
            sum += c;
            min = min.min(c);
            max = max.max(c);
        }
        if len == 0 {
            return WearSummary::default();
        }
        let mean = sum as f64 / len as f64;
        let squares = wear.map(|c| (c as f64 - mean).powi(2)).sum::<f64>();
        WearSummary {
            min_erases: min,
            max_erases: max,
            stddev_erases: (squares / len as f64).sqrt(),
        }
    }

    /// The logical group currently mapped to physical group `pg`, filtered
    /// through the forward mapping so stale reverse entries never leak out.
    pub fn logical_group_mapped_to(&self, pg: u64) -> Option<u64> {
        let lg = entry_group(self.reverse.get(pg as usize)?)?;
        (self.physical_group_of(lg) == Some(pg)).then_some(lg)
    }

    /// The `(logical, physical)` pairs whose physical groups fall in
    /// `[group_low, group_high)`, ordered by logical group — the view one
    /// GC pass takes of its victim block. O(groups per block) via the
    /// reverse index, instead of a scan over the whole mapping table.
    pub(crate) fn victim_groups(&self, group_low: u64, group_high: u64) -> Vec<(u64, u64)> {
        let high = group_high.min(self.reverse.len() as u64);
        let mut victims: Vec<(u64, u64)> = (group_low..high)
            .filter_map(|pg| self.logical_group_mapped_to(pg).map(|lg| (lg, pg)))
            .collect();
        // Storengine migrates in logical-group order (the order the old
        // full-table scan produced); keep that contract so the default GC
        // policy reproduces the recorded physics exactly.
        victims.sort_unstable();
        victims
    }

    /// Number of mapping entries modified since the last journal dump, and
    /// resets the counter (called by Storengine when it snapshots).
    pub(crate) fn take_dirty_mapping_entries(&mut self) -> u64 {
        std::mem::take(&mut self.dirty_mapping_entries)
    }

    /// Iterates over `(logical, physical)` pairs currently mapped, in
    /// logical order. Walks only the mapping's filled prefix.
    pub fn mapped_groups(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.mapping
            .filled()
            .iter()
            .enumerate()
            .filter_map(|(lg, &pg)| entry_group(pg).map(|p| (lg as u64, p)))
    }

    /// Reclaims the whole group range `[low, high)` after its erase-block
    /// row was erased (see [`FreeSpaceManager::reclaim_range`]). Every
    /// group in the range must be unmapped. Returns how many groups were
    /// newly freed.
    pub(crate) fn reclaim_group_range(&mut self, low: u64, high: u64) -> u64 {
        debug_assert!(
            (low..high.min(self.reverse.len() as u64))
                .all(|pg| self.logical_group_mapped_to(pg).is_none()),
            "reclaiming a range that still holds mapped groups"
        );
        self.freespace.reclaim_range(low, high)
    }

    /// Allocates a physical page group outside `[low, high)` on behalf of
    /// Storengine's valid-page migration (see
    /// [`FreeSpaceManager::allocate_excluding`]), without charging
    /// Flashvisor statistics or CPU time — migration is Storengine's work.
    pub(crate) fn allocate_group_for_gc_excluding(&mut self, low: u64, high: u64) -> Option<u64> {
        self.freespace.allocate_excluding(low, high)
    }

    // ------------------------------------------------------------------
    // Fault model & power-loss recovery
    // ------------------------------------------------------------------

    /// Installs the injectable fault plan: per-channel fault state in the
    /// backbone, plus redo-record keeping here so a power-loss crash can
    /// be recovered by journal replay. Fault-free runs never call this
    /// and pay nothing on any hot path.
    pub fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.backbone.install_fault_plan(plan);
        self.record_redo = true;
    }

    /// The installed fault plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.backbone.fault_plan()
    }

    /// The bad-block remap table: block rows retired from service so far,
    /// in retirement order.
    pub fn retired_rows(&self) -> &[u64] {
        &self.retired_rows
    }

    fn record_commit(&mut self, lg: u64, pg: u64) {
        if self.record_redo {
            self.redo_since_journal.push((lg, pg));
        }
    }

    /// Moves the redo records accumulated since the previous journal dump
    /// into the persisted replay log. Storengine calls this when — and
    /// only when — a journal dump's programs succeeded: commits after the
    /// last successful dump are lost by a crash, exactly like the real
    /// device.
    pub(crate) fn flush_redo_to_journal(&mut self) {
        self.journal_replay_log.append(&mut self.redo_since_journal);
    }

    /// Number of redo records not yet persisted by a journal dump (test
    /// and report surface).
    pub fn unflushed_redo_records(&self) -> usize {
        self.redo_since_journal.len()
    }

    /// Power-loss recovery: rebuilds the logical→physical mapping by
    /// replaying the journal's redo records in commit order (later records
    /// for the same logical group win — the replay of a log-structured
    /// journal), derives the reverse index from the result, and
    /// reconstructs the free-space structure from the recovered mapping
    /// and the media state: a group is free exactly when it is unmapped
    /// and holds no programmed page. Reserved ranges, the bad-block table
    /// and the wear ledger survive (media state, not volatile state); the
    /// hot reserve and the overwrite classifier are volatile and reset.
    ///
    /// Replay and the reverse rebuild walk only the journal and the
    /// mapping's filled prefix, not the whole device.
    pub fn recover(&mut self) {
        self.mapping.clear();
        for &(lg, pg) in &self.journal_replay_log {
            if let Some(slot) = self.mapping.get_mut(lg as usize) {
                *slot = group_entry(pg);
            }
        }
        self.reverse.clear();
        for (lg, &entry) in self.mapping.filled().iter().enumerate() {
            if let Some(pg) = entry_group(entry) {
                if let Some(r) = self.reverse.get_mut(pg as usize) {
                    *r = group_entry(lg as u64);
                }
            }
        }
        let reverse = &self.reverse;
        let index = self.backbone.valid_index();
        self.freespace
            .rebuild(|pg| reverse[pg as usize] == 0 && index.group_programmed_pages(pg) == 0);
        self.overwrite_counts.clear();
        self.dirty_mapping_entries = 0;
        self.redo_since_journal.clear();
    }

    /// GC-style migration of one mapped group out of `[excl_low,
    /// excl_high)`: reads the group's pages, programs a fresh destination
    /// outside the exclusion window, invalidates the old location, and
    /// commits the remap. Returns `Ok(Some(end))` on success and
    /// `Ok(None)` when no destination exists or the destination programs
    /// kept failing — the old mapping is left intact either way, so the
    /// data is never lost, merely not yet moved.
    fn migrate_mapped_group(
        &mut self,
        now: SimTime,
        lg: u64,
        pg: u64,
        excl_low: u64,
        excl_high: u64,
    ) -> Result<Option<SimTime>, FaError> {
        let pages = self.config.pages_per_group();
        let mut cursor = now;
        if let Ok(done) =
            self.backbone
                .submit_group(now, pg * pages, pages, FlashOp::ReadPage, OwnerId::Gc)
        {
            cursor = done;
        }
        for _attempt in 0..2 {
            let Some(new_pg) = self.freespace.allocate_excluding(excl_low, excl_high) else {
                return Ok(None);
            };
            match self.backbone.submit_group(
                cursor,
                new_pg * pages,
                pages,
                FlashOp::ProgramPage,
                OwnerId::Gc,
            ) {
                Ok(done) => {
                    self.backbone.invalidate_group(pg * pages, pages)?;
                    self.remap_group(lg, new_pg);
                    return Ok(Some(done));
                }
                Err(FlashError::InjectedProgramFailure(_)) => {
                    self.recycle_if_unprogrammed(new_pg);
                }
                Err(e) => {
                    self.recycle_if_unprogrammed(new_pg);
                    return Err(e.into());
                }
            }
        }
        Ok(None)
    }

    /// Relocates every group holding a page the fault model flagged as
    /// read-disturbed. The channel already retried the sense
    /// (retry-then-relocate's *retry*); here each affected group still
    /// mapped is migrated to a fresh destination like a GC pass would.
    /// Returns when the last relocation finished (`now` if none).
    fn relocate_disturbed(&mut self, now: SimTime) -> Result<SimTime, FaError> {
        let pages = self.config.pages_per_group();
        let mut groups: Vec<u64> = self
            .backbone
            .take_disturbed_pages()
            .into_iter()
            .map(|flat| flat / pages)
            .collect();
        groups.sort_unstable();
        groups.dedup();
        let mut finished = now;
        for pg in groups {
            let Some(lg) = self.logical_group_mapped_to(pg) else {
                continue;
            };
            if let Some(end) = self.migrate_mapped_group(finished, lg, pg, 0, 0)? {
                finished = finished.max(end);
            }
        }
        Ok(finished)
    }

    /// Promotes the blocks the fault model condemned into the bad-block
    /// remap table. A failing block condemns its whole block *row* — page
    /// groups stripe across every channel and die, so one bad block
    /// poisons every group of its row. Mapped groups are migrated out
    /// first; once a row is vacated its groups leave the allocator
    /// permanently (and the wear ledger's placement view), its blocks
    /// leave GC victim selection, and the row lands in
    /// [`Flashvisor::retired_rows`]. Rows that could not be fully vacated
    /// (allocator dry, destinations kept failing) stay pending and are
    /// retried on the next call. The journal's reserved metadata row is
    /// never retired. Returns when the last migration finished.
    pub fn process_retirements(&mut self, now: SimTime) -> Result<SimTime, FaError> {
        let layout = self.config.group_layout();
        for block in self.backbone.take_blocks_pending_retirement() {
            let row = layout.geometry.block_row(block);
            if row == self.config.journal_metadata_row()
                || self.pending_retire_rows.contains(&row)
                || self.retired_rows.contains(&row)
            {
                continue;
            }
            self.pending_retire_rows.push_back(row);
        }
        let mut finished = now;
        let mut still_pending = VecDeque::new();
        while let Some(row) = self.pending_retire_rows.pop_front() {
            let (low, high) = layout.row_groups(row);
            let mut vacated = true;
            for (lg, pg) in self.victim_groups(low, high) {
                match self.migrate_mapped_group(finished, lg, pg, low, high)? {
                    Some(end) => finished = finished.max(end),
                    None => vacated = false,
                }
            }
            if vacated {
                self.freespace.retire_row(row);
                for addr in layout.geometry.row_blocks(row) {
                    self.backbone
                        .retire_block(layout.geometry.block_index(addr));
                }
                self.retired_rows.push(row);
            } else {
                still_pending.push_back(row);
            }
        }
        self.pending_retire_rows = still_pending;
        Ok(finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freespace::PlacementPolicy;
    use crate::scheduler::SchedulerPolicy;
    use fa_platform::PlatformSpec;

    fn visor() -> (Flashvisor, Scratchpad) {
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        (
            Flashvisor::new(config),
            Scratchpad::new(&PlatformSpec::paper_prototype()),
        )
    }

    #[test]
    #[should_panic(expected = "exceed the 4-byte mapping entries")]
    fn devices_beyond_4_byte_mapping_entries_are_rejected_before_building() {
        // 2^32 one-page groups: one more than a 4-byte entry can name with
        // its zero sentinel. The check runs before anything is allocated.
        let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        config.flash_geometry.blocks_per_plane = 1 << 32;
        config.flash_geometry.pages_per_block = 1;
        config.flash_geometry.planes_per_die = 1;
        config.flash_geometry.packages_per_channel = 1;
        config.flash_geometry.dies_per_package = 1;
        config.flash_geometry.channels = 1;
        config.page_group_bytes = config.flash_geometry.page_bytes as u64;
        assert_eq!(config.total_page_groups(), 1 << 32);
        Flashvisor::new(config);
    }

    #[test]
    #[should_panic(expected = "a 64-page block row does not hold whole 3-page groups")]
    fn groups_straddling_a_block_row_are_rejected() {
        // 2 lanes × 32-page blocks: 64-page rows, which 3-page groups
        // cannot tile.
        let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        config.page_group_bytes = 3 * config.flash_geometry.page_bytes as u64;
        Flashvisor::new(config);
    }

    #[test]
    #[should_panic(expected = "1 block row(s) per die leave no row for the metadata journal")]
    fn devices_with_one_block_row_are_rejected() {
        // One block per die: the journal would have to share row 0 with
        // the data.
        let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        config.flash_geometry.blocks_per_plane = 1;
        Flashvisor::new(config);
    }

    #[test]
    fn group_sizes_that_are_not_whole_pages_are_rejected() {
        // 0 used to divide by zero on the first translation; 3000 used to
        // round up to one whole 4 KiB page per 3000-byte group.
        for bytes in [0, 3000] {
            let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
            config.page_group_bytes = bytes;
            let panic = std::panic::catch_unwind(|| drop(Flashvisor::new(config))).unwrap_err();
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert_eq!(
                message,
                &format!("page_group_bytes {bytes} is not a whole number of 4096-byte pages")
            );
        }
    }

    #[test]
    fn preload_then_read_round_trips() {
        let (mut v, mut sp) = visor();
        v.preload_range(0, 64 * 1024).unwrap();
        let t = v
            .read_section(SimTime::ZERO, 0, 64 * 1024, &mut sp)
            .unwrap();
        assert!(t.finished > SimTime::ZERO);
        assert_eq!(t.groups, 8); // 64 KB at 8 KB groups in the tiny config.
        assert_eq!(v.stats().group_reads, 8);
        // Each group read was translated to a mapped physical group, whose
        // pages all reached the flash.
        assert_eq!(v.backbone().stats().reads, 8 * v.config().pages_per_group());
    }

    #[test]
    fn failed_preload_changes_nothing_and_returns_its_group() {
        let (mut v, _sp) = visor();
        let free = v.free_physical_groups();
        // Data the valid-page index does not know about sits on the first
        // page of group 0, the group the allocator hands out next.
        v.backbone_mut()
            .channel_mut(0)
            .unwrap()
            .die_mut(0)
            .unwrap()
            .preload_page(0, 0)
            .unwrap();
        let err = v.preload_range(0, 64 * 1024).unwrap_err();
        assert!(matches!(
            err,
            FaError::Flash(FlashError::ProgramWithoutErase(_))
        ));
        assert_eq!(v.free_physical_groups(), free);
        assert_eq!(v.mapped_groups().count(), 0);
        assert_eq!(v.backbone().total_valid_pages(), 0);
    }

    #[test]
    fn preload_runs_split_where_the_allocator_breaks_them() {
        // One preload over every logical group, some already mapped, against
        // the same groups preloaded one per call. Under the wear-aware
        // policy, a worn row 0 makes the allocator run up to the reserved
        // journal row, skip it, and go on from row 0, so the range splits
        // into several backbone runs.
        let group_bytes = 8 * 1024;
        let premapped = [100, 101, 2_000];
        let setup = |placement| {
            let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
            config.placement = placement;
            let mut v = Flashvisor::new(config);
            v.install_fault_plan(Arc::new(FaultPlan::default()));
            let erase = fa_flash::FlashCommand::erase(fa_flash::PhysicalPageAddr::new(0, 0, 0, 0));
            v.backbone_mut()
                .submit_tagged(SimTime::ZERO, erase, OwnerId::Unattributed)
                .unwrap();
            for lg in premapped {
                v.preload_range(lg * group_bytes, group_bytes).unwrap();
            }
            v
        };
        for placement in PlacementPolicy::all() {
            let mut merged = setup(placement);
            let mut single = setup(placement);
            let groups = merged.free_physical_groups() + premapped.len() as u64;
            merged.preload_range(0, groups * group_bytes).unwrap();
            for lg in 0..groups {
                single.preload_range(lg * group_bytes, group_bytes).unwrap();
            }
            assert_eq!(
                merged.mapping.filled(),
                single.mapping.filled(),
                "{placement:?}"
            );
            assert_eq!(
                merged.reverse.filled(),
                single.reverse.filled(),
                "{placement:?}"
            );
            assert_eq!(
                merged.unflushed_redo_records(),
                single.unflushed_redo_records()
            );
            assert_eq!(merged.redo_since_journal, single.redo_since_journal);
            assert_eq!(merged.free_physical_groups(), 0);
            assert_eq!(single.free_physical_groups(), 0);
            let (a, b) = (merged.backbone(), single.backbone());
            assert_eq!(a.total_valid_pages(), b.total_valid_pages());
            assert_eq!(a.total_valid_pages(), a.recount_valid_pages());
            if placement == PlacementPolicy::LeastWorn {
                let placed: Vec<u32> = (0..groups)
                    .filter(|lg| !premapped.contains(lg))
                    .map(|lg| merged.mapping[lg as usize])
                    .collect();
                let runs = 1 + placed.windows(2).filter(|w| w[1] != w[0] + 1).count();
                assert!(runs >= 2, "{runs} run(s)");
            }
        }
    }

    #[test]
    fn read_of_unmapped_range_fails() {
        let (mut v, mut sp) = visor();
        let err = v
            .read_section(SimTime::ZERO, 1 << 20, 4096, &mut sp)
            .unwrap_err();
        assert!(matches!(err, FaError::UnmappedAddress(_)));
    }

    #[test]
    fn writes_allocate_log_structured_groups_and_invalidate_old() {
        let (mut v, mut sp) = visor();
        let before = v.free_physical_groups();
        v.write_section(SimTime::ZERO, 0, 16 * 1024, &mut sp)
            .unwrap();
        assert_eq!(v.free_physical_groups(), before - 2);
        // Overwriting the same logical range allocates fresh groups and
        // invalidates the old ones.
        v.write_section(SimTime::from_ms(50), 0, 16 * 1024, &mut sp)
            .unwrap();
        assert_eq!(v.free_physical_groups(), before - 4);
        assert_eq!(v.stats().overwritten_groups, 2);
        assert_eq!(v.stats().group_writes, 4);
    }

    #[test]
    fn overwrite_count_reads_zero_until_the_first_overwrite() {
        let (mut v, mut sp) = visor();
        v.write_section(SimTime::ZERO, 0, 16 * 1024, &mut sp)
            .unwrap();
        assert_eq!(v.overwrite_count(0), 0);
        assert!(v.overwrite_counts.filled().is_empty());
        v.write_section(SimTime::from_ms(50), 0, 8 * 1024, &mut sp)
            .unwrap();
        assert_eq!(v.overwrite_count(0), 1);
        assert_eq!(v.overwrite_count(1), 0);
        assert_eq!(&v.overwrite_counts.filled()[..2], &[1, 0]);
    }

    #[test]
    fn recover_works_on_a_system_that_never_overwrote() {
        let (mut v, mut sp) = visor();
        v.install_fault_plan(Arc::new(FaultPlan::default()));
        v.write_section(SimTime::ZERO, 0, 32 * 1024, &mut sp)
            .unwrap();
        v.flush_redo_to_journal();
        let before: Vec<(u64, u64)> = v.mapped_groups().collect();
        v.recover();
        assert_eq!(v.mapped_groups().collect::<Vec<_>>(), before);
        assert_eq!(v.overwrite_count(0), 0);
        // The recovered mapping still absorbs overwrites.
        v.write_section(SimTime::from_ms(50), 0, 8 * 1024, &mut sp)
            .unwrap();
        assert_eq!(v.overwrite_count(0), 1);
        assert_eq!(v.stats().overwritten_groups, 1);
    }

    #[test]
    fn prototype_tables_fill_only_the_preloaded_prefix_and_recover_it() {
        let config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
        let total = config.total_page_groups();
        let mut v = Flashvisor::new(config);
        v.install_fault_plan(Arc::new(FaultPlan::default()));
        let n = 1000;
        v.preload_range(0, n * config.page_group_bytes).unwrap();
        v.flush_redo_to_journal();
        // Both tables filled up to their first 4 KiB chunk of entries.
        assert_eq!(v.mapping.len() as u64, total);
        assert_eq!(v.mapping.filled().len(), 1024);
        assert_eq!(v.reverse.filled().len(), 1024);
        let before: Vec<(u64, u64)> = v.mapped_groups().collect();
        assert_eq!(before.len() as u64, n);
        for g in n..total {
            assert_eq!(v.physical_group_of(g), None, "logical group {g}");
            assert_eq!(v.logical_group_mapped_to(g), None, "physical group {g}");
        }
        assert_eq!(v.physical_group_of(total), None);
        v.recover();
        assert_eq!(v.mapped_groups().collect::<Vec<_>>(), before);
        for &(lg, pg) in &before {
            assert_eq!(v.logical_group_mapped_to(pg), Some(lg));
        }
        assert_eq!(
            v.free_physical_groups(),
            total - n - v.freespace().reserved_count()
        );
    }

    #[test]
    fn streamed_wear_summary_matches_the_collected_form() {
        let (mut v, _sp) = visor();
        let geometry = v.config().flash_geometry;
        let journal_row = v.config().journal_metadata_row() as usize;
        // Uneven erases, the journal row's block worn far past the others
        // so counting it would move the minimum, maximum and spread.
        let mut now = SimTime::ZERO;
        for block in 0..geometry.total_blocks() as usize {
            let (channel, die, row) = geometry.block_index_to_addr(block as u64);
            let erases = if row == journal_row {
                40
            } else {
                block * 7 % 5
            };
            for _ in 0..erases {
                let addr = fa_flash::PhysicalPageAddr::new(channel, die, row, 0);
                now = v
                    .backbone_mut()
                    .submit_tagged(
                        now,
                        fa_flash::FlashCommand::erase(addr),
                        OwnerId::Unattributed,
                    )
                    .unwrap()
                    .finished;
            }
        }
        let blocks_per_die = geometry.blocks_per_die();
        let wear: Vec<u64> = v
            .backbone()
            .block_erase_counts()
            .enumerate()
            .filter(|(i, _)| i % blocks_per_die != journal_row)
            .map(|(_, c)| c)
            .collect();
        let mean = wear.iter().sum::<u64>() as f64 / wear.len() as f64;
        let stddev = (wear.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>()
            / wear.len() as f64)
            .sqrt();
        let summary = v.data_block_wear();
        assert_eq!(summary.min_erases, *wear.iter().min().unwrap());
        assert_eq!(summary.max_erases, *wear.iter().max().unwrap());
        assert_eq!(summary.max_erases, 4);
        assert_eq!(summary.stddev_erases.to_bits(), stddev.to_bits());
        assert!(stddev > 0.0);
    }

    #[test]
    fn mapping_survives_and_is_remappable() {
        let (mut v, mut sp) = visor();
        v.write_section(SimTime::ZERO, 0, 8 * 1024, &mut sp)
            .unwrap();
        let pg = v.physical_group_of(0).unwrap();
        let old = v.remap_group(0, pg + 100).unwrap();
        assert_eq!(old, pg);
        assert_eq!(v.physical_group_of(0), Some(pg + 100));
        assert_eq!(v.mapped_groups().count(), 1);
    }

    #[test]
    fn naive_victim_scan_agrees_with_the_reverse_index() {
        // The mapping-table population a large campaign reaches, plus a few
        // groups GC-migrated into distant rows.
        let config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
        let mut v = Flashvisor::new(config);
        v.preload_range(0, 4096 * config.page_group_bytes).unwrap();
        let layout = config.group_layout();
        let (row9, _) = layout.row_groups(9);
        let (row200, _) = layout.row_groups(200);
        for (lg, pg) in [(7, row9 + 3), (1500, row9), (4000, row200 + 17)] {
            v.remap_group(lg, pg).unwrap();
        }
        // The full-table scan the reverse index replaces, over every block
        // row a GC pass or a row retirement migrates.
        let mapped: Vec<(u64, u64)> = v.mapped_groups().collect();
        let rows = config.flash_geometry.blocks_per_die() as u64;
        for row in 0..rows {
            let (low, high) = layout.row_groups(row);
            let scanned: Vec<(u64, u64)> = mapped
                .iter()
                .copied()
                .filter(|&(_, pg)| pg >= low && pg < high)
                .collect();
            assert_eq!(scanned, v.victim_groups(low, high), "row {row}");
        }
    }

    #[test]
    fn range_locks_gate_conflicting_sections() {
        let (mut v, _sp) = visor();
        let a = v.map_section(0, 4096, LockMode::Write, 1).unwrap();
        let err = v.map_section(1024, 4096, LockMode::Read, 2).unwrap_err();
        assert!(matches!(err, FaError::RangeConflict { .. }));
        assert_eq!(v.locks().denials(), 1);
        v.unmap_section(a);
        assert!(v.map_section(1024, 4096, LockMode::Read, 2).is_ok());
    }

    #[test]
    fn flashvisor_cpu_serializes_requests() {
        let (mut v, mut sp) = visor();
        v.preload_range(0, 256 * 1024).unwrap();
        let a = v
            .read_section(SimTime::ZERO, 0, 128 * 1024, &mut sp)
            .unwrap();
        let b = v
            .read_section(SimTime::ZERO, 128 * 1024, 128 * 1024, &mut sp)
            .unwrap();
        // The second request's translation work queues behind the first on
        // the Flashvisor LWP, so it cannot finish earlier.
        assert!(b.finished >= a.finished);
        assert!(v.cpu_utilization(b.finished) > 0.0);
    }

    #[test]
    fn free_space_accounting_and_exhaustion() {
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::InterDy);
        let total = config.total_page_groups();
        let mut v = Flashvisor::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        // The journal's metadata row is fenced off from the data allocator,
        // so the writable capacity is total minus the reserved row.
        let reserved = v.freespace().reserved_count();
        assert!(reserved > 0);
        let writable = total - reserved;
        assert_eq!(v.free_physical_groups(), writable);
        // Fill the writable space, consuming every allocatable group.
        let group_bytes = config.page_group_bytes;
        v.write_section(SimTime::ZERO, 0, writable * group_bytes, &mut sp)
            .unwrap();
        assert_eq!(v.free_physical_groups(), 0);
        // Overwriting any group now needs a fresh physical group and fails
        // cleanly — the cursor never spills into the reserved journal row.
        let res = v.write_section(SimTime::from_ms(1), 0, group_bytes, &mut sp);
        assert!(matches!(res, Err(FaError::OutOfFlashSpace { .. })));
        // Addresses beyond the virtualized capacity are reported as unmapped.
        let res = v.write_section(SimTime::from_ms(2), total * group_bytes, 1, &mut sp);
        assert!(matches!(res, Err(FaError::UnmappedAddress(_))));
    }

    #[test]
    fn journal_row_is_fenced_even_when_the_device_fills() {
        // The journal/data collision fix: fill the device completely, then
        // journal repeatedly enough to force metadata-block recycling. The
        // journal's erase-and-rewrite path must keep working (its row was
        // never allocated to data), and no data mapping may point into the
        // reserved row.
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        let mut v = Flashvisor::new(config);
        let mut s = crate::storengine::Storengine::new(config);
        let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
        let writable = v.free_physical_groups();
        v.write_section(
            SimTime::ZERO,
            0,
            writable * config.page_group_bytes,
            &mut sp,
        )
        .unwrap();
        assert_eq!(v.free_physical_groups(), 0);
        for i in 0..80u64 {
            s.journal(SimTime::from_ms(2 * i), &mut v)
                .expect("journaling survives a full device");
        }
        let (jlow, jhigh) = config
            .group_layout()
            .row_groups(config.journal_metadata_row());
        for (_, pg) in v.mapped_groups() {
            assert!(
                pg < jlow || pg >= jhigh,
                "data group {pg} mapped inside the reserved journal row"
            );
        }
    }

    #[test]
    fn scheduling_decisions_consume_flashvisor_time() {
        let (mut v, _sp) = visor();
        let t1 = v.charge_scheduling_decision(SimTime::ZERO);
        let t2 = v.charge_scheduling_decision(SimTime::ZERO);
        assert!(t1 > SimTime::ZERO);
        assert!(t2 > t1);
    }
}
