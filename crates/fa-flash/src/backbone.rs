//! The complete flash backbone (storage complex).
//!
//! The backbone bundles the four channel controllers behind the SRIO/FMC
//! front-end that connects the storage complex to the accelerator's tier-2
//! network. Flashvisor submits page-group stripes
//! ([`FlashBackbone::submit_group`]); Storengine and the open-loop driver
//! submit single [`FlashCommand`]s ([`FlashBackbone::submit_tagged`]).
//! Both run one per-page step that routes the command to its owning
//! channel, models the SRIO hop, and keeps the backbone's accounting.

use crate::controller::{ChannelController, ChannelStats};
use crate::die::{BlockCounts, FlashDie};
use crate::error::FlashError;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::geometry::{FlashGeometry, PhysicalPageAddr};
use crate::owner::{nearest_rank, OwnerId, OwnerStats, QosBudgets, ReadTail};
use crate::timing::FlashTiming;
use crate::validindex::ValidPageIndex;
use fa_sim::resource::SerializedResource;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Operations accepted by the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlashOp {
    /// Read one page.
    ReadPage,
    /// Program one page.
    ProgramPage,
    /// Erase one block (the `page` field of the address is ignored).
    EraseBlock,
}

/// A command submitted to the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashCommand {
    /// What to do.
    pub op: FlashOp,
    /// Target physical page (or block for erases).
    pub addr: PhysicalPageAddr,
}

impl FlashCommand {
    /// Builds a page-read command.
    pub fn read(addr: PhysicalPageAddr) -> Self {
        FlashCommand {
            op: FlashOp::ReadPage,
            addr,
        }
    }

    /// Builds a page-program command.
    pub fn program(addr: PhysicalPageAddr) -> Self {
        FlashCommand {
            op: FlashOp::ProgramPage,
            addr,
        }
    }

    /// Builds a block-erase command.
    pub fn erase(addr: PhysicalPageAddr) -> Self {
        FlashCommand {
            op: FlashOp::EraseBlock,
            addr,
        }
    }
}

/// Completion record for a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCompletion {
    /// The command that completed.
    pub command: FlashCommand,
    /// When the command was submitted.
    pub submitted: SimTime,
    /// When the command (including SRIO data return for reads) finished.
    pub finished: SimTime,
}

impl FlashCompletion {
    /// End-to-end latency of this command.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.submitted)
    }
}

/// Aggregate backbone statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackboneStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Payload bytes moved over the SRIO front-end.
    pub srio_bytes: u64,
}

/// The storage complex: channel controllers behind the SRIO front-end.
#[derive(Debug, Clone)]
pub struct FlashBackbone {
    geometry: FlashGeometry,
    timing: FlashTiming,
    channels: Vec<ChannelController>,
    srio: SerializedResource,
    /// Backbone-wide GC-victim index, updated on every command that
    /// changes page state. Storengine's GC victim selection reads this.
    valid_index: ValidPageIndex,
    /// The valid bitmap words of the block being erased, copied from its
    /// die before the erase so the index can walk them once it completes.
    /// One buffer, reused by every erase.
    erase_words: Vec<u64>,
    stats: BackboneStats,
    /// Per-owner command/byte/latency accounting (QoS figures and oracles),
    /// dense by [`OwnerId::dense_index`] — the data path updates plain array
    /// slots instead of map entries.
    owner_stats: Vec<OwnerStats>,
    /// Whether the matching `owner_stats` slot has ever received a
    /// submission, so reporting surfaces exactly the owners that submitted
    /// (the map semantics the oracles check).
    owner_touched: Vec<bool>,
    /// Every completed read's end-to-end latency in nanoseconds, per owner
    /// (dense by [`OwnerId::dense_index`]), for tail-latency quantiles
    /// (p99 of one kernel under concurrent GC).
    read_latencies: Vec<Vec<u64>>,
    /// SRIO service time for one page-sized transfer, precomputed so the
    /// per-page step skips the bytes-to-duration conversion (identical
    /// value to what `srio.reserve` would derive).
    srio_page_service: SimDuration,
    /// The installed fault plan, if any. `None` (the default) means no
    /// channel carries fault state and every hook is one dead branch —
    /// fault-free runs stay byte-identical to the recorded golden campaign.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl FlashBackbone {
    /// Builds a backbone with the given geometry, timing, SRIO bandwidth
    /// (bytes/second across all lanes), per-channel tag-queue depth, and
    /// block endurance limit.
    ///
    /// # Panics
    ///
    /// Panics if `inbound_tags` is zero (see [`ChannelController::new`]).
    pub fn new(
        geometry: FlashGeometry,
        timing: FlashTiming,
        srio_bytes_per_sec: f64,
        inbound_tags: usize,
        endurance_limit: u64,
    ) -> Self {
        let channels = (0..geometry.channels)
            .map(|c| ChannelController::new(c, &geometry, timing, endurance_limit, inbound_tags))
            .collect();
        FlashBackbone {
            geometry,
            timing,
            channels,
            srio: SerializedResource::new("srio-fmc", srio_bytes_per_sec),
            valid_index: ValidPageIndex::new(
                geometry.total_blocks() as usize,
                geometry.pages_per_block,
            ),
            erase_words: Vec::new(),
            stats: BackboneStats::default(),
            owner_stats: Vec::new(),
            owner_touched: Vec::new(),
            read_latencies: Vec::new(),
            srio_page_service: SimDuration::for_transfer(
                geometry.page_bytes as u64,
                srio_bytes_per_sec,
            ),
            fault_plan: None,
        }
    }

    /// Installs a fault plan: every channel controller receives its own
    /// channel-local [`FaultState`] built from the shared plan, so fault
    /// decisions depend only on each channel's own command sequence
    /// (interleaving-independent determinism; see [`crate::fault`]).
    pub fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for channel in &mut self.channels {
            let index = channel.index();
            channel.install_fault_state(FaultState::new(plan.clone(), index));
        }
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// True when an installed plan can fault the read path (read-disturb or
    /// a scripted read fault). The translation layer then relocates the
    /// groups a section read disturbed.
    pub fn faults_affect_reads(&self) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.affects_reads())
    }

    /// Drains the flat page indexes hit by read-disturb since the last
    /// drain, channels in ascending order (each channel's pages in the
    /// order it recorded them). The translation layer relocates the
    /// containing groups before the disturbed data degrades further.
    pub fn take_disturbed_pages(&mut self) -> Vec<u64> {
        let geometry = self.geometry;
        let mut pages = Vec::new();
        for channel in &mut self.channels {
            if let Some(f) = channel.fault_state_mut() {
                pages.extend(
                    f.take_disturbed()
                        .into_iter()
                        .map(|a| geometry.addr_to_flat(a)),
                );
            }
        }
        pages
    }

    /// Drains the blocks that crossed the fault plan's `retire_after`
    /// threshold since the last drain, as flat
    /// [`FlashGeometry::block_index`] values, channels in ascending order.
    /// The translation layer promotes these into its bad-block table.
    pub fn take_blocks_pending_retirement(&mut self) -> Vec<u64> {
        let dies = self.geometry.dies_per_channel() as u64;
        let blocks_per_die = self.geometry.blocks_per_die() as u64;
        let mut blocks = Vec::new();
        for channel in &mut self.channels {
            let c = channel.index() as u64;
            if let Some(f) = channel.fault_state_mut() {
                blocks.extend(
                    f.take_retired_pending().into_iter().map(|(die, block)| {
                        (c * dies + die as u64) * blocks_per_die + block as u64
                    }),
                );
            }
        }
        blocks
    }

    /// Device-wide fault statistics: the element-wise sum over every
    /// channel's fault state (all zeros when no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for channel in &self.channels {
            if let Some(f) = channel.fault_state() {
                total.absorb(f.stats());
            }
        }
        total
    }

    /// Dense accounting slot for `owner`, growing the per-owner arrays on
    /// first sight and marking the slot as live.
    fn owner_slot(&mut self, owner: OwnerId) -> usize {
        let oi = owner.dense_index();
        if oi >= self.owner_stats.len() {
            self.owner_stats.resize_with(oi + 1, OwnerStats::default);
            self.owner_touched.resize(oi + 1, false);
            self.read_latencies.resize_with(oi + 1, Vec::new);
        }
        self.owner_touched[oi] = true;
        oi
    }

    /// Installs per-owner tag budgets on every channel controller
    /// (unlimited by default, which reproduces untagged admission exactly).
    pub fn set_qos_budgets(&mut self, budgets: QosBudgets) {
        for channel in &mut self.channels {
            channel.set_qos_budgets(budgets);
        }
    }

    /// Installs (or clears, with `None`) a per-owner tag-budget override on
    /// every channel. Overrides replace the static [`QosBudgets`] grant for
    /// that owner only; the online QoS governor uses this to retune budgets
    /// mid-run from a sliding window over [`FlashBackbone::owner_commands`].
    pub fn set_owner_budget_override(&mut self, owner: OwnerId, budget: Option<usize>) {
        for channel in &mut self.channels {
            channel.set_owner_budget_override(owner, budget);
        }
    }

    /// Enables page-group accounting in the valid-page index: `pages_per_
    /// group` consecutive flat pages form one allocation group, and erases
    /// report the groups whose last programmed page they cleared (see
    /// [`FlashBackbone::take_fully_erased_groups`]).
    ///
    /// # Panics
    ///
    /// Panics if any page has been programmed or preloaded already, or if
    /// `pages_per_group` exceeds `u16::MAX`.
    pub fn enable_group_tracking(&mut self, pages_per_group: u64) {
        assert!(
            self.dies()
                .all(|d| (0..d.block_count()).all(|b| d.programmed_pages_in(b) == 0)),
            "group tracking must be enabled on an all-erased device"
        );
        self.valid_index
            .enable_group_tracking(&self.geometry, pages_per_group);
    }

    /// The backbone geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The backbone timing profile.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> BackboneStats {
        self.stats
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// Immutable access to a channel controller.
    pub fn channel(&self, idx: usize) -> Option<&ChannelController> {
        self.channels.get(idx)
    }

    /// Mutable access to a channel controller (Storengine uses this to
    /// inspect victim blocks).
    pub fn channel_mut(&mut self, idx: usize) -> Option<&mut ChannelController> {
        self.channels.get_mut(idx)
    }

    /// Mean utilization of all dies up to `now`.
    pub(crate) fn mean_die_utilization(&self, now: SimTime) -> f64 {
        if self.channels.is_empty() {
            return 0.0;
        }
        self.channels
            .iter()
            .map(|c| c.mean_die_utilization(now))
            .sum::<f64>()
            / self.channels.len() as f64
    }

    /// Mean channel-bus utilization up to `now`.
    fn mean_channel_bus_utilization(&self, now: SimTime) -> f64 {
        if self.channels.is_empty() {
            return 0.0;
        }
        self.channels
            .iter()
            .map(|c| c.bus_utilization(now))
            .sum::<f64>()
            / self.channels.len() as f64
    }

    /// Fraction of the backbone's active power drawn over the window ending
    /// at `now`: the busier of the NAND arrays (sensing/programming) and
    /// the channel buses (transfers). Used by the energy model to charge
    /// device-active power proportionally to actual activity.
    pub fn activity_factor(&self, now: SimTime) -> f64 {
        self.mean_die_utilization(now)
            .max(self.mean_channel_bus_utilization(now))
            .clamp(0.0, 1.0)
    }

    /// Submits a command at `now` without owner attribution (equivalent to
    /// [`FlashBackbone::submit_tagged`] with [`OwnerId::Unattributed`]).
    pub fn submit(
        &mut self,
        now: SimTime,
        command: FlashCommand,
    ) -> Result<FlashCompletion, FlashError> {
        self.submit_tagged(now, command, OwnerId::Unattributed)
    }

    /// Books a page the die consumed without keeping its data into the
    /// valid index as programmed-then-invalid: an injected program failure
    /// (the media programmed garbage before reporting it) or a stripe pad.
    /// `before` are the block's counts from before the program. The
    /// recycle/rollback paths key on programmed counts — recycling a
    /// silently page-consumed group would later program it again without an
    /// erase.
    fn book_scrapped_program(
        &mut self,
        addr: PhysicalPageAddr,
        before: BlockCounts,
        flat: u64,
        now_ns: u64,
    ) {
        let block = block_of(&self.geometry, addr);
        self.valid_index.on_program(block, before, flat, now_ns);
        let landed = BlockCounts {
            valid: before.valid + 1,
            programmed: before.programmed + 1,
        };
        self.valid_index.on_invalidate(block, landed, flat);
    }

    /// Executes one page command — tag-queue admission at the channel, the
    /// SRIO hop, and every counter the command moves: backbone and owner
    /// stats, read latencies, and the valid-page index. `addr` must be in
    /// range, `flat` is its flat page index, and `oi` is `owner`'s dense
    /// accounting slot. Returns when the command (including the SRIO data
    /// return of a read) finished.
    fn execute_page(
        &mut self,
        now: SimTime,
        op: FlashOp,
        addr: PhysicalPageAddr,
        flat: u64,
        owner: OwnerId,
        oi: usize,
    ) -> Result<SimTime, FlashError> {
        let page_bytes = self.geometry.page_bytes as u64;
        let channel = &mut self.channels[addr.channel];
        let by_owner = &mut self.owner_stats[oi];
        match op {
            FlashOp::ReadPage => {
                let done = channel.execute(now, op, addr, owner)?;
                // Read data crosses the SRIO lanes back to the network.
                let end = self
                    .srio
                    .reserve_prepaid(done, page_bytes, self.srio_page_service)
                    .end;
                self.stats.reads += 1;
                self.stats.srio_bytes += page_bytes;
                by_owner.reads += 1;
                by_owner.bytes += page_bytes;
                let latency_ns = end.saturating_since(now).as_ns();
                by_owner.read_latency_total_ns += latency_ns;
                by_owner.read_latency_max_ns = by_owner.read_latency_max_ns.max(latency_ns);
                self.read_latencies[oi].push(latency_ns);
                Ok(end)
            }
            FlashOp::ProgramPage => {
                // Write data crosses SRIO before it reaches the channel; the
                // reservation stands even if the program then fails.
                let start = self
                    .srio
                    .reserve_prepaid(now, page_bytes, self.srio_page_service)
                    .end;
                let before = channel.block_counts(addr);
                match channel.execute(start, op, addr, owner) {
                    Ok(done) => {
                        let block = block_of(&self.geometry, addr);
                        self.valid_index
                            .on_program(block, before, flat, now.as_ns());
                        self.stats.programs += 1;
                        self.stats.srio_bytes += page_bytes;
                        by_owner.programs += 1;
                        by_owner.bytes += page_bytes;
                        Ok(done)
                    }
                    Err(e) => {
                        if matches!(e, FlashError::InjectedProgramFailure(_)) {
                            self.book_scrapped_program(addr, before, flat, now.as_ns());
                        }
                        Err(e)
                    }
                }
            }
            FlashOp::EraseBlock => {
                let before = channel.block_counts(addr);
                self.erase_words.clear();
                if let Some(die) = channel.die(addr.die) {
                    self.erase_words
                        .extend_from_slice(die.valid_words(addr.block));
                }
                let done = channel.execute(now, op, addr, owner)?;
                self.valid_index.on_erase(
                    block_of(&self.geometry, addr),
                    before,
                    &self.erase_words,
                );
                self.stats.erases += 1;
                by_owner.erases += 1;
                Ok(done)
            }
        }
    }

    /// Submits a command at `now` on behalf of `owner` and returns its
    /// completion record. The owner identity reaches the channel
    /// controller's tag queue (per-owner budget admission) and the
    /// per-owner statistics.
    pub fn submit_tagged(
        &mut self,
        now: SimTime,
        command: FlashCommand,
        owner: OwnerId,
    ) -> Result<FlashCompletion, FlashError> {
        if !self.geometry.contains(command.addr) {
            return Err(FlashError::OutOfRange(command.addr));
        }
        let oi = self.owner_slot(owner);
        let flat = self.geometry.addr_to_flat(command.addr);
        let finished = self.execute_page(now, command.op, command.addr, flat, owner, oi)?;
        Ok(FlashCompletion {
            command,
            submitted: now,
            finished,
        })
    }

    /// Rejects a flat-page range that reaches outside the backbone before
    /// any page of it takes effect, reporting the range's first page
    /// (clamped to the device's last page).
    fn check_flat_range(&self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        let total = self.geometry.total_pages();
        if first_flat + pages > total {
            return Err(FlashError::OutOfRange(
                self.geometry.flat_to_addr(first_flat.min(total - 1)),
            ));
        }
        Ok(())
    }

    /// Submits `pages` same-op commands covering the consecutive flat pages
    /// `first_flat..first_flat + pages` — the page-group stripe every
    /// Flashvisor group read/write issues — at `now` on behalf of `owner`,
    /// and returns when the last one finished. Each page goes through the
    /// same per-page step as [`FlashBackbone::submit_tagged`], in stripe
    /// order; the flat→physical conversion is done once and then stepped
    /// across the channel/die stripe. Stops at the first failing command;
    /// commands before it have already taken effect.
    pub fn submit_group(
        &mut self,
        now: SimTime,
        first_flat: u64,
        pages: u64,
        op: FlashOp,
        owner: OwnerId,
    ) -> Result<SimTime, FlashError> {
        if pages == 0 {
            return Ok(now);
        }
        self.check_flat_range(first_flat, pages)?;
        let oi = self.owner_slot(owner);
        let end_flat = first_flat + pages;
        let mut addr = self.geometry.flat_to_addr(first_flat);
        let mut finished = now;
        for flat in first_flat..end_flat {
            match self.execute_page(now, op, addr, flat, owner, oi) {
                Ok(done) => finished = finished.max(done),
                Err(e) => {
                    if matches!(e, FlashError::InjectedProgramFailure(_)) {
                        self.pad_stripe(now, addr, flat + 1..end_flat, owner);
                    }
                    return Err(e);
                }
            }
            addr = next_flat_addr(&self.geometry, addr);
        }
        Ok(finished)
    }

    /// Closes a stripe after an injected program failure at `failed`: the
    /// stripe's remaining pages `flats` are padded (programmed and
    /// discarded) so sibling dies' write cursors stay in lockstep with the
    /// failed one — without this, the next stripe's programs would be
    /// non-sequential on every die the abort skipped. Pads pass through the
    /// owner's tag queue but count in no backbone or owner statistics.
    fn pad_stripe(
        &mut self,
        now: SimTime,
        failed: PhysicalPageAddr,
        flats: std::ops::Range<u64>,
        owner: OwnerId,
    ) {
        let page_bytes = self.geometry.page_bytes as u64;
        let mut pad = failed;
        for flat in flats {
            pad = next_flat_addr(&self.geometry, pad);
            let start = self
                .srio
                .reserve_prepaid(now, page_bytes, self.srio_page_service)
                .end;
            let channel = &mut self.channels[pad.channel];
            let before = channel.block_counts(pad);
            match channel.execute(start, FlashOp::ProgramPage, pad, owner) {
                // A clean pad program must be discarded at the die as well,
                // so page state, controller counters, and index agree that
                // it is programmed garbage.
                Ok(_) => {
                    let _ = channel.invalidate(pad);
                }
                // A pad page drawing its own injected failure lands in the
                // same state: the fault hook already invalidated it at the
                // die.
                Err(FlashError::InjectedProgramFailure(_)) => {}
                // Anything else (out of range, worn die) is a real fault;
                // stop padding and let the caller surface the original
                // error.
                Err(_) => break,
            }
            self.book_scrapped_program(pad, before, flat, now.as_ns());
        }
    }

    /// Marks a page valid without consuming device time (pre-experiment data
    /// placement): a one-page [`FlashBackbone::preload_group`] at `addr`'s
    /// flat index.
    pub fn preload(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        if !self.geometry.contains(addr) {
            return Err(FlashError::OutOfRange(addr));
        }
        self.preload_group(self.geometry.addr_to_flat(addr), 1)
    }

    /// Preloads the `pages` consecutive flat pages starting at `first_flat`
    /// — data already resident before the experiment starts, placed without
    /// consuming device time (see [`crate::die::FlashDie::preload_run`]).
    ///
    /// The range is walked one block row at a time, and within a row one
    /// lane (channel × die block) at a time: each lane receives one
    /// contiguous page run, so the die and the valid-page index's garbage
    /// bucket and valid total each update once per run rather than once per
    /// page; its page-group counters update once per group the range
    /// touches. The resulting state is exactly that of calling
    /// [`FlashBackbone::preload`] on each page in ascending order.
    ///
    /// Every lane's run is checked before anything changes: its first page
    /// must be free and its block's write cursor must stand on it. On error
    /// nothing changes, and the error is the one the first failing page of
    /// an ascending page-by-page preload would have returned.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches outside the backbone, exactly where the
    /// per-page `flat_to_addr` would.
    pub fn preload_group(&mut self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        if pages == 0 {
            return Ok(());
        }
        assert!(
            first_flat + pages <= self.geometry.total_pages(),
            "page index out of range"
        );
        let runs = LaneRuns::new(&self.geometry, first_flat, pages);
        // Lane runs come in ascending flat order of their first pages, so
        // the first failure is the one a page-by-page walk would meet.
        let channels = &self.channels;
        runs.try_for_each(|addr, _, n| channels[addr.channel].check_preload_run(addr, n))?;
        let (geometry, channels, index) =
            (&self.geometry, &mut self.channels, &mut self.valid_index);
        runs.try_for_each(|addr, flat, n| {
            let channel = &mut channels[addr.channel];
            let before = channel.block_counts(addr);
            channel.preload_run(addr, n)?;
            index.on_program_run(block_of(geometry, addr), before, flat, n as u32, 0);
            Ok(())
        })?;
        self.valid_index.on_programmed_range(first_flat, pages);
        Ok(())
    }

    /// Marks a page invalid (mapping-table act; consumes no device time).
    pub fn invalidate(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        if !self.geometry.contains(addr) {
            return Err(FlashError::OutOfRange(addr));
        }
        let channel = &mut self.channels[addr.channel];
        let before = channel.block_counts(addr);
        channel.invalidate(addr)?;
        self.valid_index.on_invalidate(
            self.geometry.block_index(addr),
            before,
            self.geometry.addr_to_flat(addr),
        );
        Ok(())
    }

    /// Marks every page of the physical group starting at flat page
    /// `first_flat` invalid — exactly equivalent to invalidating each page
    /// with [`FlashBackbone::invalidate`] while skipping unwritten trailing
    /// pages of a partially used group. A range reaching outside the
    /// backbone is rejected with [`FlashError::OutOfRange`] before any page
    /// changes; any other hard error (a worn die) stops the sweep, and
    /// pages before it have already taken effect.
    pub fn invalidate_group(&mut self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        if pages == 0 {
            return Ok(());
        }
        self.check_flat_range(first_flat, pages)?;
        let mut addr = self.geometry.flat_to_addr(first_flat);
        for flat in first_flat..first_flat + pages {
            let channel = &mut self.channels[addr.channel];
            let before = channel.block_counts(addr);
            match channel.invalidate(addr) {
                Ok(()) => {
                    self.valid_index
                        .on_invalidate(block_of(&self.geometry, addr), before, flat)
                }
                // An unwritten trailing page of a partially used group is
                // benign on this path.
                Err(FlashError::ReadUnwritten(_)) => {}
                Err(e) => return Err(e),
            }
            addr = next_flat_addr(&self.geometry, addr);
        }
        Ok(())
    }

    /// Total number of valid pages across the backbone. O(1): read from
    /// the incremental valid-page index.
    pub fn total_valid_pages(&self) -> usize {
        self.valid_index.total_valid() as usize
    }

    /// Brute-force recount of the backbone's valid pages from the die page
    /// states — the property-test oracle for the incremental index.
    pub fn recount_valid_pages(&self) -> usize {
        self.channels.iter().map(|c| c.recount_valid_pages()).sum()
    }

    /// The incremental valid-page index (GC victim selection, oracles).
    pub fn valid_index(&self) -> &ValidPageIndex {
        &self.valid_index
    }

    /// The page counts of flat block `block`
    /// ([`FlashGeometry::block_index`]), read from its die.
    fn block_counts(&self, block: u64) -> BlockCounts {
        let (channel, die, block) = self.geometry.block_index_to_addr(block);
        self.channels[channel].block_counts(PhysicalPageAddr::new(channel, die, block, 0))
    }

    /// Valid pages in flat block `block`, read from its die.
    pub fn valid_in(&self, block: u64) -> u32 {
        self.block_counts(block).valid
    }

    /// Programmed (valid or superseded) pages in flat block `block`, read
    /// from its die.
    pub fn programmed_in(&self, block: u64) -> u32 {
        self.block_counts(block).programmed
    }

    /// Superseded pages an erase of flat block `block` would reclaim, read
    /// from its die.
    pub fn garbage_in(&self, block: u64) -> u32 {
        self.block_counts(block).garbage()
    }

    /// Promotes a flat block into the bad-block table of the valid-page
    /// index: no GC victim policy will propose it again. See
    /// [`ValidPageIndex::retire_block`].
    ///
    /// # Panics
    ///
    /// Panics if `flat_block` is outside the backbone.
    pub fn retire_block(&mut self, flat_block: u64) {
        let counts = self.block_counts(flat_block);
        self.valid_index.retire_block(flat_block, counts);
    }

    /// Drains the page groups whose last programmed page was cleared by an
    /// erase since the previous call. With group tracking enabled, these
    /// are exactly the groups an erase made reusable — including
    /// overwritten (unmapped) garbage groups that were never individually
    /// recycled. Callers return the unmapped ones to the allocator.
    pub fn take_fully_erased_groups(&mut self) -> Vec<u64> {
        self.valid_index.take_fully_erased_groups()
    }

    /// Every owner that submitted a command or holds a tag-queue peak, in
    /// [`OwnerId`] order (kernels ascending, then GC, journal,
    /// unattributed), with its dense slot and its stats, the channels'
    /// occupancy peaks folded in. Walks the dense slots directly: no map is
    /// built per channel or per call.
    fn owners(&self) -> impl Iterator<Item = (usize, OwnerId, OwnerStats)> + '_ {
        let slots = self
            .channels
            .iter()
            .map(ChannelController::owner_slots)
            .fold(self.owner_stats.len(), usize::max);
        let fixed = OwnerId::DENSE_FIXED.min(slots);
        (fixed..slots).chain(0..fixed).filter_map(move |oi| {
            let peak = self.channels.iter().map(|c| c.owner_peak(oi)).max();
            let peak = peak.unwrap_or(0);
            if peak == 0 && !self.owner_touched.get(oi).copied().unwrap_or(false) {
                return None;
            }
            let mut stats = self.owner_stats.get(oi).copied().unwrap_or_default();
            stats.peak_tags = stats.peak_tags.max(peak);
            Some((oi, OwnerId::from_dense_index(oi), stats))
        })
    }

    /// Per-owner command counts, payload bytes, read latencies, and peak
    /// channel tag occupancy. Summing the command counts and bytes across
    /// owners reproduces [`FlashBackbone::stats`] exactly (the oracle
    /// property).
    pub fn owner_stats(&self) -> BTreeMap<OwnerId, OwnerStats> {
        self.owners()
            .map(|(_, owner, stats)| (owner, stats))
            .collect()
    }

    /// The owners of [`FlashBackbone::owner_stats`], in the same order,
    /// each with its page-read tail (`None` when it completed no reads) —
    /// what the run outcome reports per owner. Each tail is found by
    /// selection in one scratch buffer reused across owners, and equals
    /// the nearest ranks of a sorted copy.
    pub fn owner_read_tails(
        &self,
    ) -> impl Iterator<Item = (OwnerId, OwnerStats, Option<ReadTail>)> + '_ {
        let mut scratch = Vec::new();
        self.owners().map(move |(oi, owner, stats)| {
            let latencies = self.read_latencies.get(oi).map_or(&[][..], Vec::as_slice);
            let tail = (!latencies.is_empty()).then(|| {
                scratch.clear();
                scratch.extend_from_slice(latencies);
                ReadTail::select(&mut scratch, stats.read_latency_max_ns)
            });
            (owner, stats, tail)
        })
    }

    /// `owner`'s total commands (reads + programs + erases) — equal to
    /// `owner_stats()[&owner].commands()`, but one dense-slot read instead
    /// of a map over every owner. 0 for an owner that never submitted. The
    /// online QoS governor reads this every tick.
    pub fn owner_commands(&self, owner: OwnerId) -> u64 {
        self.owner_stats
            .get(owner.dense_index())
            .map_or(0, OwnerStats::commands)
    }

    /// The nearest-rank `q`-quantile of all *foreground*
    /// (non-background-owner) read latencies — the tail the QoS budgets
    /// exist to protect. `None` when no foreground read completed.
    pub fn foreground_read_latency_quantile(&self, q: f64) -> Option<SimDuration> {
        let foreground = || {
            self.read_latencies
                .iter()
                .enumerate()
                .filter(|&(oi, _)| !OwnerId::from_dense_index(oi).is_background())
                .map(|(_, latencies)| latencies)
        };
        let mut merged = Vec::with_capacity(foreground().map(Vec::len).sum());
        for latencies in foreground() {
            merged.extend_from_slice(latencies);
        }
        if merged.is_empty() {
            return None;
        }
        // Selection, not a sort: identical value to `sorted[rank]` at O(n).
        let rank = nearest_rank(merged.len(), q);
        let (_, nth, _) = merged.select_nth_unstable(rank);
        Some(SimDuration::from_ns(*nth))
    }

    /// The reclaimable block (≥1 invalid page) with the fewest valid pages,
    /// as a flat [`FlashGeometry::block_index`]; `None` when nothing holds
    /// garbage.
    pub fn min_valid_garbage_block(&self) -> Option<u64> {
        self.valid_index.min_valid_garbage_block()
    }

    /// The reclaimable block maximizing the cost-benefit score
    /// `age × garbage / valid` at `now` (see
    /// [`ValidPageIndex::cost_benefit_victim`]); `None` when nothing holds
    /// garbage.
    pub fn cost_benefit_victim_block(&self, now: SimTime) -> Option<u64> {
        self.valid_index
            .cost_benefit_victim(now.as_ns(), |block| self.garbage_in(block))
    }

    /// Drains the flat block indices erased since the previous drain, one
    /// entry per erase. The translation layer feeds these into its
    /// min-wear placement structure so wear stays incrementally current.
    pub fn take_erased_blocks(&mut self) -> Vec<u64> {
        self.valid_index.take_erased_blocks()
    }

    /// Erase cycles of every block, read from the dies and indexed by
    /// [`FlashGeometry::block_index`] — the endurance snapshot the run
    /// outcome's wear-spread metrics summarize.
    pub fn block_erase_counts(&self) -> Vec<u64> {
        self.dies()
            .flat_map(|d| (0..d.block_count()).map(|b| d.erase_count(b)))
            .collect()
    }

    /// Every die, channel by channel: the order of flat block indices.
    fn dies(&self) -> impl Iterator<Item = &FlashDie> + '_ {
        let dies = self.geometry.dies_per_channel();
        self.channels
            .iter()
            .flat_map(move |c| (0..dies).filter_map(|d| c.die(d)))
    }

    /// Returns the erase count of the given block.
    pub fn erase_count(&self, channel: usize, die: usize, block: usize) -> u64 {
        self.channels
            .get(channel)
            .and_then(|c| c.die(die))
            .map(|d| d.erase_count(block))
            .unwrap_or(0)
    }
}

/// The flat page after `addr` in [`FlashGeometry::flat_to_addr`] order:
/// channels stripe fastest, then dies, then pages within the block, then
/// blocks.
fn next_flat_addr(geometry: &FlashGeometry, mut addr: PhysicalPageAddr) -> PhysicalPageAddr {
    addr.channel += 1;
    if addr.channel == geometry.channels {
        addr.channel = 0;
        addr.die += 1;
        if addr.die == geometry.dies_per_channel() {
            addr.die = 0;
            addr.page += 1;
            if addr.page == geometry.pages_per_block {
                addr.page = 0;
                addr.block += 1;
            }
        }
    }
    addr
}

/// A flat page range (inside the backbone) split into per-lane page runs:
/// within each block row (block index), every lane — one channel × die
/// block — holds one contiguous run of the range's pages. The divisions
/// that locate the range's first page happen once, in
/// [`LaneRuns::new`]; the walk then steps the lane address the way
/// [`next_flat_addr`] steps a page, so walking the same range twice costs
/// no further division for ranges of less than a row.
#[derive(Debug, Clone, Copy)]
struct LaneRuns {
    channels: usize,
    dies: usize,
    lanes: u64,
    row_pages: u64,
    pages_per_block: usize,
    /// The range's first page.
    first: PhysicalPageAddr,
    first_flat: u64,
    end_flat: u64,
    /// Pages from the first page to the end of its row.
    first_row_left: u64,
}

impl LaneRuns {
    fn new(geometry: &FlashGeometry, first_flat: u64, pages: u64) -> Self {
        let channels = geometry.channels;
        let dies = geometry.dies_per_channel();
        let lanes = (channels * dies) as u64;
        let row_pages = lanes * geometry.pages_per_block as u64;
        let block = first_flat / row_pages;
        let row_offset = first_flat - block * row_pages;
        let page = row_offset / lanes;
        let lane = (row_offset - page * lanes) as usize;
        let die = lane / channels;
        LaneRuns {
            channels,
            dies,
            lanes,
            row_pages,
            pages_per_block: geometry.pages_per_block,
            first: PhysicalPageAddr {
                channel: lane - die * channels,
                die,
                block: block as usize,
                page: page as usize,
            },
            first_flat,
            end_flat: first_flat + pages,
            first_row_left: row_pages - row_offset,
        }
    }

    /// Calls `run(addr, flat, n)` for each lane run, stopping at the first
    /// error: `n` pages of `addr`'s block starting at `addr.page`, the first
    /// of them at flat index `flat`. Rows come in ascending order, and
    /// within a row the lanes come in the flat order of their first pages.
    fn try_for_each(
        self,
        mut run: impl FnMut(PhysicalPageAddr, u64, usize) -> Result<(), FlashError>,
    ) -> Result<(), FlashError> {
        let mut addr = self.first;
        let mut flat = self.first_flat;
        let mut row_left = self.first_row_left;
        while flat < self.end_flat {
            let in_row = row_left.min(self.end_flat - flat);
            // The first `extra` lanes of the sweep take one page more.
            let (per_lane, extra) = if in_row == self.row_pages {
                (self.pages_per_block, 0)
            } else if in_row < self.lanes {
                (0, in_row)
            } else {
                ((in_row / self.lanes) as usize, in_row % self.lanes)
            };
            let row = addr.block;
            for k in 0..in_row.min(self.lanes) {
                run(addr, flat + k, per_lane + usize::from(k < extra))?;
                addr.channel += 1;
                if addr.channel == self.channels {
                    addr.channel = 0;
                    addr.die += 1;
                    if addr.die == self.dies {
                        addr.die = 0;
                        addr.page += 1;
                    }
                }
            }
            flat += in_row;
            row_left = self.row_pages;
            addr = PhysicalPageAddr::new(0, 0, row + 1, 0);
        }
        Ok(())
    }
}

/// [`FlashGeometry::block_index`] of an address already known to be in
/// range, without the range assertion.
fn block_of(geometry: &FlashGeometry, addr: PhysicalPageAddr) -> u64 {
    (addr.channel as u64 * geometry.dies_per_channel() as u64 + addr.die as u64)
        * geometry.blocks_per_die() as u64
        + addr.block as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backbone() -> FlashBackbone {
        FlashBackbone::new(
            FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            2.5e9,
            8,
            1_000,
        )
    }

    #[test]
    fn read_after_program_succeeds_and_reports_latency() {
        let mut b = backbone();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        let w = b
            .submit(SimTime::ZERO, FlashCommand::program(addr))
            .unwrap();
        let r = b.submit(w.finished, FlashCommand::read(addr)).unwrap();
        assert!(r.latency() > SimDuration::ZERO);
        assert_eq!(b.stats().reads, 1);
        assert_eq!(b.stats().programs, 1);
        assert!(b.stats().srio_bytes >= 2 * 4096);
    }

    #[test]
    fn commands_to_different_channels_overlap() {
        let mut b = FlashBackbone::new(
            FlashGeometry::tiny_for_tests(),
            FlashTiming::paper_prototype(),
            20.0e9, // wide front-end so SRIO is not the bottleneck here
            8,
            1_000,
        );
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(1, 0, 0, 0);
        let c0 = b.submit(SimTime::ZERO, FlashCommand::program(a0)).unwrap();
        let c1 = b.submit(SimTime::ZERO, FlashCommand::program(a1)).unwrap();
        // Channel-level parallelism: both programs finish within a small
        // window of each other rather than back-to-back.
        let spread = c1
            .finished
            .saturating_since(c0.finished)
            .max(c0.finished.saturating_since(c1.finished));
        assert!(spread < FlashTiming::paper_prototype().program_page / 2);
    }

    #[test]
    fn out_of_range_command_is_rejected() {
        let mut b = backbone();
        let err = b
            .submit(
                SimTime::ZERO,
                FlashCommand::read(PhysicalPageAddr::new(7, 0, 0, 0)),
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
    }

    #[test]
    fn erase_enables_rewrite_and_counts() {
        let mut b = backbone();
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        b.submit(SimTime::ZERO, FlashCommand::program(addr))
            .unwrap();
        b.invalidate(addr).unwrap();
        assert_eq!(b.total_valid_pages(), 0);
        let e = b.submit(SimTime::ZERO, FlashCommand::erase(addr)).unwrap();
        assert_eq!(b.stats().erases, 1);
        assert_eq!(b.erase_count(1, 0, 2), 1);
        b.submit(e.finished, FlashCommand::program(addr)).unwrap();
        assert_eq!(b.total_valid_pages(), 1);
    }

    #[test]
    fn die_errors_carry_the_commands_address() {
        // Two dies on each of two channels, so every error below comes from
        // channel 1, die 1 and would read channel 0, die 0 if a die reported
        // only its block and page.
        let geometry = FlashGeometry {
            packages_per_channel: 2,
            ..FlashGeometry::tiny_for_tests()
        };
        let mut b = FlashBackbone::new(geometry, FlashTiming::fast_for_tests(), 2.5e9, 8, 1);
        let at = |page| PhysicalPageAddr::new(1, 1, 2, page);
        let read = b.submit(SimTime::ZERO, FlashCommand::read(at(3)));
        assert_eq!(read.unwrap_err(), FlashError::ReadUnwritten(at(3)));
        let skip = b.submit(SimTime::ZERO, FlashCommand::program(at(3)));
        assert_eq!(
            skip.unwrap_err(),
            FlashError::NonSequentialProgram {
                addr: at(3),
                expected_page: 0
            }
        );
        b.submit(SimTime::ZERO, FlashCommand::program(at(0)))
            .unwrap();
        let again = b.submit(SimTime::ZERO, FlashCommand::program(at(0)));
        assert_eq!(again.unwrap_err(), FlashError::ProgramWithoutErase(at(0)));
        assert_eq!(
            b.invalidate(at(1)).unwrap_err(),
            FlashError::ReadUnwritten(at(1))
        );
        let preload = b.preload_group(geometry.addr_to_flat(at(0)), 1);
        assert_eq!(preload.unwrap_err(), FlashError::ProgramWithoutErase(at(0)));
        // Endurance 1: the second erase wears the block out.
        b.submit(SimTime::ZERO, FlashCommand::erase(at(0))).unwrap();
        let worn = b.submit(SimTime::ZERO, FlashCommand::erase(at(0)));
        assert_eq!(
            worn.unwrap_err(),
            FlashError::WornOut {
                addr: at(0),
                erase_cycles: 2
            }
        );
    }

    #[test]
    fn refused_erase_leaves_one_wear_count() {
        // Endurance 1: the block's second erase is refused.
        let geometry = FlashGeometry::tiny_for_tests();
        let mut b = FlashBackbone::new(geometry, FlashTiming::fast_for_tests(), 2.5e9, 8, 1);
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        b.submit(SimTime::ZERO, FlashCommand::erase(addr)).unwrap();
        let worn = b.submit(SimTime::ZERO, FlashCommand::erase(addr));
        assert!(matches!(
            worn,
            Err(FlashError::WornOut {
                erase_cycles: 2,
                ..
            })
        ));
        // Both wear readers count the one erase that completed.
        let block = geometry.block_index(addr) as usize;
        assert_eq!(b.block_erase_counts()[block], 1);
        assert_eq!(b.erase_count(1, 0, 2), 1);
    }

    #[test]
    fn valid_index_tracks_commands_and_agrees_with_recount() {
        let mut b = backbone();
        let g = *b.geometry();
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(0, 0, 0, 1);
        let a2 = PhysicalPageAddr::new(1, 0, 3, 0);
        b.submit(SimTime::ZERO, FlashCommand::program(a0)).unwrap();
        b.submit(SimTime::ZERO, FlashCommand::program(a1)).unwrap();
        b.preload(a2).unwrap();
        assert_eq!(b.total_valid_pages(), 3);
        assert_eq!(b.total_valid_pages(), b.recount_valid_pages());
        // Nothing holds garbage yet, so there is no victim.
        assert_eq!(b.min_valid_garbage_block(), None);
        b.invalidate(a1).unwrap();
        let victim = b.min_valid_garbage_block().unwrap();
        assert_eq!(victim, g.block_index(a0));
        assert_eq!(b.valid_in(victim), 1);
        assert_eq!(b.garbage_in(victim), 1);
        b.submit(SimTime::ZERO, FlashCommand::erase(a0)).unwrap();
        assert_eq!(b.min_valid_garbage_block(), None);
        assert_eq!(b.total_valid_pages(), 1);
        assert_eq!(b.total_valid_pages(), b.recount_valid_pages());
    }

    #[test]
    fn submit_group_matches_per_command_submission() {
        let mut a = backbone();
        let mut b = backbone();
        let g = *a.geometry();
        let owner = OwnerId::Kernel(0);
        let mut finished = SimTime::ZERO;
        for flat in 0..4 {
            let cmd = FlashCommand::program(g.flat_to_addr(flat));
            let done = a.submit_tagged(SimTime::ZERO, cmd, owner).unwrap();
            finished = finished.max(done.finished);
        }
        let group = b
            .submit_group(SimTime::ZERO, 0, 4, FlashOp::ProgramPage, owner)
            .unwrap();
        assert_eq!(group, finished);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.owner_stats(), b.owner_stats());
        assert_eq!(a.total_valid_pages(), b.total_valid_pages());
    }

    #[test]
    fn out_of_range_group_invalidation_is_rejected_up_front() {
        let mut b = backbone();
        let total = b.geometry().total_pages();
        let err = b.invalidate_group(total - 1, 2).unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
        // Nothing of a rejected range takes effect, even its in-range head.
        b.preload_group(0, 2).unwrap();
        let err = b.invalidate_group(0, total + 1).unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
        assert_eq!(b.total_valid_pages(), 2);
        assert_eq!(b.recount_valid_pages(), 2);
    }

    #[test]
    fn per_owner_stats_sum_to_untagged_totals() {
        let mut b = backbone();
        let owners = [
            OwnerId::Kernel(0),
            OwnerId::Kernel(1),
            OwnerId::Gc,
            OwnerId::Journal,
        ];
        let mut t = SimTime::ZERO;
        for (i, &owner) in owners.iter().enumerate() {
            for p in 0..4 {
                let addr = PhysicalPageAddr::new(p % 2, 0, i, p / 2);
                t = b
                    .submit_tagged(t, FlashCommand::program(addr), owner)
                    .unwrap()
                    .finished;
                t = b
                    .submit_tagged(t, FlashCommand::read(addr), owner)
                    .unwrap()
                    .finished;
            }
        }
        t = b
            .submit_tagged(
                t,
                FlashCommand::erase(PhysicalPageAddr::new(0, 0, 0, 0)),
                OwnerId::Gc,
            )
            .unwrap()
            .finished;
        let _ = t;
        let per_owner = b.owner_stats();
        let totals = b.stats();
        assert_eq!(
            per_owner.values().map(|o| o.reads).sum::<u64>(),
            totals.reads
        );
        assert_eq!(
            per_owner.values().map(|o| o.programs).sum::<u64>(),
            totals.programs
        );
        assert_eq!(
            per_owner.values().map(|o| o.erases).sum::<u64>(),
            totals.erases
        );
        assert_eq!(
            per_owner.values().map(|o| o.bytes).sum::<u64>(),
            totals.srio_bytes
        );
        // Every owner that read pages has an ordered read tail topped by
        // its recorded worst read, listed in the owner-stats order.
        let tails: Vec<_> = b.owner_read_tails().collect();
        assert!(tails.iter().map(|t| t.0).eq(per_owner.keys().copied()));
        for (owner, stats, tail) in tails {
            assert_eq!(stats, per_owner[&owner]);
            assert_eq!(stats.reads, 4, "{owner}");
            let tail = tail.unwrap();
            assert!(tail.p50 <= tail.p99 && tail.p99 <= tail.max);
            assert_eq!(tail.max.as_ns(), stats.read_latency_max_ns);
        }
        // The foreground aggregate covers exactly the two kernels' reads.
        assert!(b.foreground_read_latency_quantile(0.99).is_some());
    }

    #[test]
    fn fault_plan_installs_per_channel_and_drains_flat_indexes() {
        use crate::fault::{threshold_from_probability, FaultPlan};
        let mut b = backbone();
        let g = *b.geometry();
        b.install_fault_plan(Arc::new(FaultPlan {
            program_threshold: threshold_from_probability(1.0),
            retire_after: 1,
            ..FaultPlan::default()
        }));
        assert!(b.fault_plan().is_some());
        assert!(!b.faults_affect_reads());
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        let err = b
            .submit(SimTime::ZERO, FlashCommand::program(addr))
            .unwrap_err();
        assert!(matches!(err, FlashError::InjectedProgramFailure(_)));
        // The failed program never became valid anywhere.
        assert_eq!(b.total_valid_pages(), 0);
        assert_eq!(b.recount_valid_pages(), 0);
        // One failure with retire_after=1 promotes the block, reported as
        // its flat block index.
        assert_eq!(
            b.take_blocks_pending_retirement(),
            vec![g.block_index(addr)]
        );
        assert!(b.take_blocks_pending_retirement().is_empty());
        assert_eq!(b.fault_stats().injected_program_failures, 1);
        assert_eq!(b.fault_stats().blocks_retired, 1);
    }

    #[test]
    fn disturbed_pages_drain_as_flat_pages_channels_ascending() {
        use crate::fault::{threshold_from_probability, FaultPlan};
        let mut b = backbone();
        let g = *b.geometry();
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(1, 0, 0, 0);
        let t0 = b.submit(SimTime::ZERO, FlashCommand::program(a0)).unwrap();
        let t1 = b.submit(SimTime::ZERO, FlashCommand::program(a1)).unwrap();
        b.install_fault_plan(Arc::new(FaultPlan {
            read_disturb_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        }));
        assert!(b.faults_affect_reads());
        let t = t0.finished.max(t1.finished);
        // Submit in descending channel order; the drain still reports
        // channels ascending.
        b.submit(t, FlashCommand::read(a1)).unwrap();
        b.submit(t, FlashCommand::read(a0)).unwrap();
        assert_eq!(
            b.take_disturbed_pages(),
            vec![g.addr_to_flat(a0), g.addr_to_flat(a1)]
        );
        assert!(b.take_disturbed_pages().is_empty());
        assert_eq!(b.fault_stats().read_disturbs, 2);
    }

    #[test]
    fn injected_mid_stripe_program_failure_pads_the_rest_of_the_stripe() {
        use crate::die::PageState;
        let mut b = backbone();
        b.install_fault_plan(Arc::new(
            FaultPlan::parse("script=program@c1.d0.b0.n1").unwrap(),
        ));
        let owner = OwnerId::Kernel(0);
        // Flats 0..4 stripe c0.p0, c1.p0, c0.p1, c1.p1; the scripted fault
        // hits flat 1, so flats 2 and 3 are padded.
        let err = b
            .submit_group(SimTime::ZERO, 0, 4, FlashOp::ProgramPage, owner)
            .unwrap_err();
        assert!(matches!(err, FlashError::InjectedProgramFailure(_)));
        let g = *b.geometry();
        for flat in 0..4 {
            let addr = g.flat_to_addr(flat);
            let expect = if flat == 0 {
                PageState::Valid
            } else {
                PageState::Invalid
            };
            let state = b
                .channel(addr.channel)
                .and_then(|c| c.die(addr.die))
                .and_then(|d| d.page_state(addr.block, addr.page));
            assert_eq!(state, Some(expect), "flat {flat}");
        }
        for channel in 0..2 {
            let block = g.block_index(PhysicalPageAddr::new(channel, 0, 0, 0));
            assert_eq!(b.programmed_in(block), 2);
            assert_eq!(b.valid_in(block), 1 - channel as u32);
        }
        assert_eq!(b.total_valid_pages(), 1);
        assert_eq!(b.recount_valid_pages(), 1);
        // Only the page before the fault is charged to the owner.
        let stats = b.owner_stats()[&owner];
        assert_eq!((stats.programs, stats.bytes), (1, 4096));
        assert_eq!(b.stats().programs, 1);
        // The pads kept both dies' write cursors in lockstep: the next
        // stripe programs cleanly.
        b.submit_group(SimTime::ZERO, 4, 4, FlashOp::ProgramPage, owner)
            .unwrap();
        assert_eq!(b.total_valid_pages(), 5);
        assert_eq!(b.recount_valid_pages(), 5);
    }

    #[test]
    fn srio_front_end_serializes_heavy_traffic() {
        // With a deliberately slow SRIO link, programs queue on the front
        // end even though they target different channels.
        let mut b = FlashBackbone::new(
            FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            1.0e6, // 1 MB/s — absurdly slow to expose the serialization
            8,
            1_000,
        );
        let c0 = b
            .submit(
                SimTime::ZERO,
                FlashCommand::program(PhysicalPageAddr::new(0, 0, 0, 0)),
            )
            .unwrap();
        let c1 = b
            .submit(
                SimTime::ZERO,
                FlashCommand::program(PhysicalPageAddr::new(1, 0, 0, 0)),
            )
            .unwrap();
        // The second page waits for the first to cross the front end.
        let page_bytes = b.geometry().page_bytes as u64;
        assert!(c1.finished >= c0.finished + SimDuration::for_transfer(page_bytes, 1.0e6));
    }
}
