//! The complete flash backbone (storage complex).
//!
//! The backbone bundles the four channel controllers behind the SRIO/FMC
//! front-end that connects the storage complex to the accelerator's tier-2
//! network. Flashvisor submits page-group stripes
//! ([`FlashBackbone::submit_group`]); Storengine and the open-loop driver
//! submit single [`FlashCommand`]s ([`FlashBackbone::submit_tagged`]).
//! A stripe is the unit of accounting, and a single command is a one-page
//! stripe: the stripe resolves its owner's dense slot and tag budget once,
//! runs one lean per-page step per page (the tag slot, die, channel bus and
//! SRIO reservations, the valid-page index, and a read's latency sample),
//! and adds the pages that took effect to the owner's counts once. The
//! owner slots are the only command counters; every total is summed from
//! them when read.

use crate::controller::{ChannelController, ChannelStats};
use crate::die::{BlockCounts, FlashDie};
use crate::error::FlashError;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::geometry::{FlashGeometry, GroupLayout, PhysicalPageAddr};
use crate::owner::{select_tails, OwnerId, OwnerStats, QosBudgets, ReadTail, Samples, TailScratch};
use crate::timing::FlashTiming;
use crate::validindex::ValidPageIndex;
use fa_sim::resource::FifoServer;
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

/// Aggregate backbone statistics, summed over the owners' slots when read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackboneStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Payload bytes moved over the SRIO front-end: one page per read and
    /// per program.
    pub srio_bytes: u64,
}

/// One owner's dense accounting slot (see [`OwnerId::dense_index`]): the
/// only count of its commands, its read-latency samples, and its tag-budget
/// override.
#[derive(Debug, Clone, Default)]
struct OwnerSlot {
    /// Whether the owner has submitted a command, even one that failed, so
    /// reporting surfaces exactly the owners that submitted.
    touched: bool,
    reads: u64,
    programs: u64,
    erases: u64,
    /// Every completed read's end-to-end latency in nanoseconds, for
    /// tail-latency quantiles (p99 of one kernel under concurrent GC).
    read_latencies: Vec<u64>,
    /// The smallest and largest of `read_latencies` (0 while it is empty).
    read_min_ns: u64,
    read_max_ns: u64,
    /// The online QoS governor's budget override: `Some(b)` replaces what
    /// the static [`QosBudgets`] grant this owner.
    budget_override: Option<usize>,
}

impl OwnerSlot {
    /// Adds the `n` pages of one stripe that took effect. For reads, their
    /// latencies run from `min_ns` to `max_ns`.
    fn add_stripe(&mut self, op: FlashOp, n: u64, min_ns: u64, max_ns: u64) {
        match op {
            FlashOp::ReadPage if n > 0 => {
                if self.reads == 0 || min_ns < self.read_min_ns {
                    self.read_min_ns = min_ns;
                }
                self.read_max_ns = self.read_max_ns.max(max_ns);
                self.reads += n;
            }
            FlashOp::ReadPage => {}
            FlashOp::ProgramPage => self.programs += n,
            FlashOp::EraseBlock => self.erases += n,
        }
    }
}

/// The storage complex: channel controllers behind the SRIO front-end.
#[derive(Debug, Clone)]
pub struct FlashBackbone {
    geometry: FlashGeometry,
    timing: FlashTiming,
    channels: Vec<ChannelController>,
    srio: FifoServer,
    /// Backbone-wide GC-victim index, updated on every command that
    /// changes page state. Storengine's GC victim selection reads this.
    valid_index: ValidPageIndex,
    /// Per-owner accounting (QoS figures and oracles), dense by
    /// [`OwnerId::dense_index`] — the data path updates plain array slots
    /// instead of map entries.
    owners: Vec<OwnerSlot>,
    /// Per-owner tag budgets at every channel's tag queue; unlimited by
    /// default, which reproduces the untagged FIFO admission exactly.
    budgets: QosBudgets,
    /// SRIO service time for one page-sized transfer, derived once from
    /// the SRIO bandwidth: every SRIO transfer moves exactly one page.
    srio_page_service: SimDuration,
    /// The installed fault plan, if any. `None` (the default) means no
    /// channel carries fault state and every hook is one dead branch —
    /// fault-free runs stay byte-identical to the recorded golden campaign.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl FlashBackbone {
    /// Builds an all-erased backbone with the given flash layout, timing,
    /// SRIO bandwidth (bytes/second across all lanes), per-channel
    /// tag-queue depth, and block endurance limit. The layout's page groups
    /// are the ones erases report fully erased (see
    /// [`FlashBackbone::take_fully_erased_groups`]).
    ///
    /// # Panics
    ///
    /// Panics if `inbound_tags` is zero (see [`ChannelController::new`]),
    /// or if the layout's `pages_per_group` exceeds `u16::MAX` (see
    /// [`ValidPageIndex::new`]).
    pub fn new(
        layout: GroupLayout,
        timing: FlashTiming,
        srio_bytes_per_sec: f64,
        inbound_tags: usize,
        endurance_limit: u64,
    ) -> Self {
        let geometry = layout.geometry;
        let channels = (0..geometry.channels)
            .map(|c| ChannelController::new(c, &geometry, timing, endurance_limit, inbound_tags))
            .collect();
        FlashBackbone {
            geometry,
            timing,
            channels,
            srio: FifoServer::new(),
            valid_index: ValidPageIndex::new(layout),
            owners: Vec::new(),
            budgets: QosBudgets::default(),
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
        let geometry = self.geometry;
        let mut blocks = Vec::new();
        for channel in &mut self.channels {
            let c = channel.index();
            if let Some(f) = channel.fault_state_mut() {
                blocks.extend(f.take_retired_pending().into_iter().map(|(die, block)| {
                    geometry.block_index(PhysicalPageAddr::new(c, die, block, 0))
                }));
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

    /// `owner`'s dense accounting slot, grown on first sight.
    fn slot_mut(&mut self, owner: OwnerId) -> &mut OwnerSlot {
        let oi = owner.dense_index();
        if oi >= self.owners.len() {
            self.owners.resize_with(oi + 1, OwnerSlot::default);
        }
        &mut self.owners[oi]
    }

    /// Installs per-owner tag budgets for every channel's tag queue
    /// (unlimited by default, which reproduces untagged admission exactly).
    pub fn set_qos_budgets(&mut self, budgets: QosBudgets) {
        self.budgets = budgets;
    }

    /// Installs (or clears, with `None`) a per-owner tag-budget override.
    /// Overrides replace the static [`QosBudgets`] grant for that owner only,
    /// on every channel; the online QoS governor uses this to retune budgets
    /// mid-run from a sliding window over [`FlashBackbone::owner_commands`].
    pub fn set_owner_budget_override(&mut self, owner: OwnerId, budget: Option<usize>) {
        if budget.is_none() && owner.dense_index() >= self.owners.len() {
            return;
        }
        self.slot_mut(owner).budget_override = budget;
    }

    /// The budget override in force for `owner`, if any.
    pub fn owner_budget_override(&self, owner: OwnerId) -> Option<usize> {
        self.owners
            .get(owner.dense_index())
            .and_then(|s| s.budget_override)
    }

    /// The backbone geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The backbone timing profile.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Aggregate statistics: the owners' counts summed.
    pub fn stats(&self) -> BackboneStats {
        let mut total = BackboneStats::default();
        for slot in &self.owners {
            total.reads += slot.reads;
            total.programs += slot.programs;
            total.erases += slot.erases;
        }
        total.srio_bytes = (total.reads + total.programs) * self.geometry.page_bytes as u64;
        total
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
        let block = self.geometry.block_of(addr);
        self.valid_index.on_program(block, before, flat, now_ns);
        let landed = BlockCounts {
            valid: before.valid + 1,
            programmed: before.programmed + 1,
        };
        self.valid_index.on_invalidate(block, landed);
    }

    /// The lean per-page step of a stripe: tag-queue admission at the
    /// channel for dense owner slot `oi` under tag budget `budget`, the
    /// die, channel-bus and SRIO reservations, the valid-page index, and a
    /// read's latency sample (pushed onto `samples`). It counts nothing:
    /// the stripe adds its pages to the owner's slot once. `addr` must be
    /// in range and `flat` is its flat page index. Returns when the command
    /// (including the SRIO data return of a read) finished.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn execute_page(
        &mut self,
        now: SimTime,
        op: FlashOp,
        addr: PhysicalPageAddr,
        flat: u64,
        oi: usize,
        budget: Option<usize>,
        samples: &mut Vec<u64>,
    ) -> Result<SimTime, FlashError> {
        let channel = &mut self.channels[addr.channel];
        match op {
            FlashOp::ReadPage => {
                let done = channel.execute(now, op, addr, oi, budget)?;
                // Read data crosses the SRIO lanes back to the network.
                let end = self.srio.serve(done, self.srio_page_service).end;
                samples.push(end.saturating_since(now).as_ns());
                Ok(end)
            }
            FlashOp::ProgramPage => {
                // Write data crosses SRIO before it reaches the channel; the
                // reservation stands even if the program then fails.
                let start = self.srio.serve(now, self.srio_page_service).end;
                let before = channel.block_counts(addr);
                match channel.execute(start, op, addr, oi, budget) {
                    Ok(done) => {
                        let block = self.geometry.block_of(addr);
                        self.valid_index
                            .on_program(block, before, flat, now.as_ns());
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
                let done = channel.execute(now, op, addr, oi, budget)?;
                self.valid_index
                    .on_erase(self.geometry.block_of(addr), before);
                Ok(done)
            }
        }
    }

    /// Runs one stripe: `pages` same-op commands on the consecutive flat
    /// pages from `first_flat` (at in-range `first`), all submitted at
    /// `now` for `owner`, in stripe order. The owner's slot and tag budget
    /// are resolved once; each page takes the per-page step; the pages that
    /// took effect are added to the owner's counts once, also when the
    /// stripe stops at a failing page. An injected program failure pads
    /// the rest of the stripe. Returns when the last page finished.
    fn submit_stripe(
        &mut self,
        now: SimTime,
        op: FlashOp,
        first: PhysicalPageAddr,
        first_flat: u64,
        pages: u64,
        owner: OwnerId,
    ) -> Result<SimTime, FlashError> {
        let oi = owner.dense_index();
        let static_budget = self.budgets.budget_for(owner);
        let slot = self.slot_mut(owner);
        slot.touched = true;
        let budget = slot.budget_override.or(static_budget);
        let mut samples = std::mem::take(&mut slot.read_latencies);
        let end_flat = first_flat + pages;
        let mut addr = first;
        let (mut first_done, mut last_done) = (SimTime::MAX, now);
        let mut outcome = Ok(());
        let mut flat = first_flat;
        while flat < end_flat {
            match self.execute_page(now, op, addr, flat, oi, budget, &mut samples) {
                Ok(done) => {
                    first_done = first_done.min(done);
                    last_done = last_done.max(done);
                }
                Err(e) => {
                    if matches!(e, FlashError::InjectedProgramFailure(_)) {
                        self.pad_stripe(now, addr, flat + 1..end_flat, oi, budget);
                    }
                    outcome = Err(e);
                    break;
                }
            }
            flat += 1;
            addr = self.geometry.next_flat_addr(addr);
        }
        let slot = &mut self.owners[oi];
        slot.read_latencies = samples;
        slot.add_stripe(
            op,
            flat - first_flat,
            first_done.saturating_since(now).as_ns(),
            last_done.saturating_since(now).as_ns(),
        );
        outcome.map(|()| last_done)
    }

    /// Submits a command at `now` on behalf of `owner` and returns its
    /// completion record: a one-page stripe. The owner identity reaches the
    /// channel controller's tag queue (per-owner budget admission) and the
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
        let flat = self.geometry.addr_to_flat(command.addr);
        let finished = self.submit_stripe(now, command.op, command.addr, flat, 1, owner)?;
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
    /// and returns when the last one finished. The pages run in stripe
    /// order through the same per-page step as
    /// [`FlashBackbone::submit_tagged`]; the flat→physical conversion is
    /// done once and then stepped across the channel/die stripe. Stops at
    /// the first failing command; commands before it have already taken
    /// effect and are counted.
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
        let first = self.geometry.flat_to_addr(first_flat);
        self.submit_stripe(now, op, first, first_flat, pages, owner)
    }

    /// Closes a stripe after an injected program failure at `failed`: the
    /// stripe's remaining pages `flats` are padded (programmed and
    /// discarded) so sibling dies' write cursors stay in lockstep with the
    /// failed one — without this, the next stripe's programs would be
    /// non-sequential on every die the abort skipped. Pads pass through the
    /// owner's tag queue (dense slot `oi`, tag budget `budget`) but count
    /// in no backbone or owner statistics.
    fn pad_stripe(
        &mut self,
        now: SimTime,
        failed: PhysicalPageAddr,
        flats: std::ops::Range<u64>,
        oi: usize,
        budget: Option<usize>,
    ) {
        let mut pad = failed;
        for flat in flats {
            pad = self.geometry.next_flat_addr(pad);
            let start = self.srio.serve(now, self.srio_page_service).end;
            let channel = &mut self.channels[pad.channel];
            let before = channel.block_counts(pad);
            match channel.execute(start, FlashOp::ProgramPage, pad, oi, budget) {
                // A clean pad program must be discarded at the die as well,
                // so page state and index agree that it is programmed
                // garbage.
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

    /// Preloads the `pages` consecutive flat pages starting at `first_flat`
    /// — data already resident before the experiment starts, placed without
    /// consuming device time (see [`crate::die::FlashDie::preload_run`]).
    ///
    /// The range is walked one block row at a time, and within a row one
    /// lane (channel × die block) at a time: each lane receives one
    /// contiguous page run, so the die and the valid-page index's garbage
    /// bucket and valid total each update once per run rather than once per
    /// page; its page-group counters update once per group the range
    /// touches. The resulting state is exactly that of preloading each page
    /// on its own (a one-page range) in ascending order.
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
            index.on_program_run(geometry.block_of(addr), before, flat, n as u32, 0);
            Ok(())
        })?;
        self.valid_index.on_programmed_range(first_flat, pages);
        Ok(())
    }

    /// Marks the `pages` consecutive flat pages from `first_flat` invalid
    /// (a mapping-table act; consumes no device time), skipping unwritten
    /// pages such as the trailing pages of a partially used group. A range
    /// reaching outside the backbone is rejected with
    /// [`FlashError::OutOfRange`] before any page changes; any other hard
    /// error (a worn die) stops the sweep, and pages before it have already
    /// taken effect.
    pub fn invalidate_group(&mut self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        if pages == 0 {
            return Ok(());
        }
        self.check_flat_range(first_flat, pages)?;
        let mut addr = self.geometry.flat_to_addr(first_flat);
        for _ in 0..pages {
            let channel = &mut self.channels[addr.channel];
            let before = channel.block_counts(addr);
            match channel.invalidate(addr) {
                Ok(()) => self
                    .valid_index
                    .on_invalidate(self.geometry.block_of(addr), before),
                // An unwritten trailing page of a partially used group is
                // benign on this path.
                Err(FlashError::ReadUnwritten(_)) => {}
                Err(e) => return Err(e),
            }
            addr = self.geometry.next_flat_addr(addr);
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
    /// erase since the previous call: exactly the groups an erase made
    /// reusable — including
    /// overwritten (unmapped) garbage groups that were never individually
    /// recycled. Callers return the unmapped ones to the allocator.
    pub fn take_fully_erased_groups(&mut self) -> Vec<u64> {
        self.valid_index.take_fully_erased_groups()
    }

    /// Every owner that submitted a command or holds a tag-queue peak, in
    /// [`OwnerId`] order (kernels ascending, then GC, journal,
    /// unattributed), with its stats: payload bytes derived from its
    /// slot's counts, the channels' occupancy peaks folded in. Walks the
    /// dense slots directly: no map is built per channel or per call.
    fn owners(&self) -> impl Iterator<Item = (OwnerId, OwnerStats)> + '_ {
        let page_bytes = self.geometry.page_bytes as u64;
        self.dense_order().filter_map(move |oi| {
            let peak = self.channels.iter().map(|c| c.owner_peak(oi)).max();
            let peak_tags = peak.unwrap_or(0);
            let slot = self.owners.get(oi);
            if peak_tags == 0 && !slot.is_some_and(|s| s.touched) {
                return None;
            }
            let stats = slot.map_or_else(OwnerStats::default, |s| OwnerStats {
                reads: s.reads,
                programs: s.programs,
                erases: s.erases,
                bytes: (s.reads + s.programs) * page_bytes,
                read_latency_max_ns: s.read_max_ns,
                peak_tags: 0,
            });
            let stats = OwnerStats { peak_tags, ..stats };
            Some((OwnerId::from_dense_index(oi), stats))
        })
    }

    /// Every dense owner slot the backbone or a channel has, in
    /// [`OwnerId`] order: kernels ascending, then GC, journal,
    /// unattributed.
    fn dense_order(&self) -> impl Iterator<Item = usize> + Clone {
        let slots = self
            .channels
            .iter()
            .map(ChannelController::owner_slots)
            .fold(self.owners.len(), usize::max);
        let fixed = OwnerId::DENSE_FIXED.min(slots);
        (fixed..slots).chain(0..fixed)
    }

    /// Per-owner command counts, payload bytes, read latencies, and peak
    /// channel tag occupancy. Summing the command counts and bytes across
    /// owners gives [`FlashBackbone::stats`]: both read the same slots.
    pub fn owner_stats(&self) -> BTreeMap<OwnerId, OwnerStats> {
        self.owners().collect()
    }

    /// Every owner's page-read tail and the pooled foreground
    /// `q`-quantile. The owners are those of [`FlashBackbone::owner_stats`],
    /// in the same order, each with its tail (`None` when it completed no
    /// reads); the quantile is `None` when no foreground read completed.
    /// Every tail and the quantile equal the nearest ranks of sorted
    /// copies.
    ///
    /// The foreground owners (kernels and the unattributed stream) are
    /// one group for `owner::select_tails`: their tails and the pooled
    /// quantile come from one count pass and one gather pass over their
    /// recorded samples, left where they are. The GC and journal streams
    /// are not pooled: each is a group of its own, selected when the walk
    /// reaches it, so a caller that wants only the quantile never selects
    /// them.
    pub fn read_tails(
        &self,
        q: f64,
    ) -> (
        impl Iterator<Item = (OwnerId, OwnerStats, Option<ReadTail>)> + '_,
        Option<SimDuration>,
    ) {
        let samples = |oi: usize| {
            let s = self.owners.get(oi)?;
            (!s.read_latencies.is_empty()).then(|| Samples {
                ns: &s.read_latencies,
                min: s.read_min_ns,
                max: s.read_max_ns,
            })
        };
        let foreground = self
            .dense_order()
            .filter(|&oi| !OwnerId::from_dense_index(oi).is_background())
            .filter_map(samples);
        let mut scratch = TailScratch::default();
        let (mut tails, quantile) = select_tails(&mut scratch, foreground, Some(q));
        // The foreground tails are handed out in the same dense order.
        let owners = self.owners().map(move |(owner, stats)| {
            let tail = samples(owner.dense_index()).map(|s| {
                if owner.is_background() {
                    let (mut alone, _) = select_tails(&mut scratch, std::iter::once(s), None);
                    alone.next(&mut scratch, s)
                } else {
                    tails.next(&mut scratch, s)
                }
            });
            (owner, stats, tail)
        });
        (owners, quantile.map(SimDuration::from_ns))
    }

    /// The owners of [`FlashBackbone::owner_stats`], in the same order,
    /// each with its page-read tail (`None` when it completed no reads):
    /// [`FlashBackbone::read_tails`]' owners.
    pub fn owner_read_tails(
        &self,
    ) -> impl Iterator<Item = (OwnerId, OwnerStats, Option<ReadTail>)> + '_ {
        self.read_tails(0.99).0
    }

    /// `owner`'s total commands (reads + programs + erases) — equal to
    /// `owner_stats()[&owner].commands()`, but one dense-slot read instead
    /// of a map over every owner. 0 for an owner that never submitted. The
    /// online QoS governor reads this every tick.
    pub fn owner_commands(&self, owner: OwnerId) -> u64 {
        self.owners
            .get(owner.dense_index())
            .map_or(0, |s| s.reads + s.programs + s.erases)
    }

    /// The nearest-rank `q`-quantile of all *foreground*
    /// (non-background-owner) read latencies — the tail the QoS budgets
    /// exist to protect: [`FlashBackbone::read_tails`]' pooled quantile.
    /// `None` when no foreground read completed.
    pub fn foreground_read_latency_quantile(&self, q: f64) -> Option<SimDuration> {
        self.read_tails(q).1
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

    /// Erase cycles of every block, streamed from the dies in
    /// [`FlashGeometry::block_index`] order — the endurance snapshot the run
    /// outcome's wear-spread metrics summarize.
    pub fn block_erase_counts(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.dies()
            .flat_map(|d| (0..d.block_count()).map(|b| d.erase_count(b)))
    }

    /// Every die, channel by channel: the order of flat block indices.
    fn dies(&self) -> impl Iterator<Item = &FlashDie> + Clone + '_ {
        let dies = self.geometry.dies_per_channel();
        self.channels
            .iter()
            .flat_map(move |c| (0..dies).filter_map(|d| c.die(d)))
    }
}

/// A flat page range (inside the backbone) split into per-lane page runs:
/// within each block row, every lane (one channel × die block) holds one
/// contiguous run of the range's pages. The range's first page is located
/// once, in [`LaneRuns::new`]; the walk then steps the lane address the
/// way [`FlashGeometry::next_flat_addr`] steps a page, so walking the same
/// range twice costs no further division for ranges of less than a row.
#[derive(Debug, Clone, Copy)]
struct LaneRuns {
    geometry: FlashGeometry,
    /// The range's first page.
    first: PhysicalPageAddr,
    first_flat: u64,
    end_flat: u64,
    /// Pages from the first page to the end of its row.
    first_row_left: u64,
}

impl LaneRuns {
    fn new(geometry: &FlashGeometry, first_flat: u64, pages: u64) -> Self {
        let first = geometry.flat_to_addr(first_flat);
        let row_pages = geometry.row_pages();
        LaneRuns {
            geometry: *geometry,
            first,
            first_flat,
            end_flat: first_flat + pages,
            first_row_left: (first.block as u64 + 1) * row_pages - first_flat,
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
        let lanes = self.geometry.total_dies() as u64;
        let row_pages = self.geometry.row_pages();
        let mut addr = self.first;
        let mut flat = self.first_flat;
        let mut row_left = self.first_row_left;
        while flat < self.end_flat {
            let in_row = row_left.min(self.end_flat - flat);
            // The first `extra` lanes of the sweep take one page more.
            let (per_lane, extra) = if in_row == row_pages {
                (self.geometry.pages_per_block, 0)
            } else if in_row < lanes {
                (0, in_row)
            } else {
                ((in_row / lanes) as usize, in_row % lanes)
            };
            let row = addr.block;
            for k in 0..in_row.min(lanes) {
                run(addr, flat + k, per_lane + usize::from(k < extra))?;
                addr = self.geometry.next_flat_addr(addr);
            }
            flat += in_row;
            row_left = row_pages;
            addr = PhysicalPageAddr::new(0, 0, row + 1, 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::nearest_rank;

    /// `geometry` in two-page groups.
    fn layout(geometry: FlashGeometry) -> GroupLayout {
        GroupLayout {
            geometry,
            pages_per_group: 2,
        }
    }

    fn backbone() -> FlashBackbone {
        FlashBackbone::new(
            layout(FlashGeometry::tiny_for_tests()),
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
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(addr),
                OwnerId::Unattributed,
            )
            .unwrap();
        let r = b
            .submit_tagged(w.finished, FlashCommand::read(addr), OwnerId::Unattributed)
            .unwrap();
        assert!(r.latency() > SimDuration::ZERO);
        assert_eq!(b.stats().reads, 1);
        assert_eq!(b.stats().programs, 1);
        assert!(b.stats().srio_bytes >= 2 * 4096);
    }

    #[test]
    fn commands_to_different_channels_overlap() {
        let mut b = FlashBackbone::new(
            layout(FlashGeometry::tiny_for_tests()),
            FlashTiming::paper_prototype(),
            20.0e9, // wide front-end so SRIO is not the bottleneck here
            8,
            1_000,
        );
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(1, 0, 0, 0);
        let c0 = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(a0),
                OwnerId::Unattributed,
            )
            .unwrap();
        let c1 = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(a1),
                OwnerId::Unattributed,
            )
            .unwrap();
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
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::read(PhysicalPageAddr::new(7, 0, 0, 0)),
                OwnerId::Unattributed,
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
    }

    #[test]
    fn erase_enables_rewrite_and_counts() {
        let mut b = backbone();
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::program(addr),
            OwnerId::Unattributed,
        )
        .unwrap();
        let flat = b.geometry().addr_to_flat(addr);
        b.invalidate_group(flat, 1).unwrap();
        assert_eq!(b.total_valid_pages(), 0);
        let e = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::erase(addr),
                OwnerId::Unattributed,
            )
            .unwrap();
        assert_eq!(b.stats().erases, 1);
        assert_eq!(b.channel(1).unwrap().die(0).unwrap().erase_count(2), 1);
        b.submit_tagged(
            e.finished,
            FlashCommand::program(addr),
            OwnerId::Unattributed,
        )
        .unwrap();
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
        let mut b =
            FlashBackbone::new(layout(geometry), FlashTiming::fast_for_tests(), 2.5e9, 8, 1);
        let at = |page| PhysicalPageAddr::new(1, 1, 2, page);
        let read = b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::read(at(3)),
            OwnerId::Unattributed,
        );
        assert_eq!(read.unwrap_err(), FlashError::ReadUnwritten(at(3)));
        let skip = b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::program(at(3)),
            OwnerId::Unattributed,
        );
        assert_eq!(
            skip.unwrap_err(),
            FlashError::NonSequentialProgram {
                addr: at(3),
                expected_page: 0
            }
        );
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::program(at(0)),
            OwnerId::Unattributed,
        )
        .unwrap();
        let again = b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::program(at(0)),
            OwnerId::Unattributed,
        );
        assert_eq!(again.unwrap_err(), FlashError::ProgramWithoutErase(at(0)));
        let preload = b.preload_group(geometry.addr_to_flat(at(0)), 1);
        assert_eq!(preload.unwrap_err(), FlashError::ProgramWithoutErase(at(0)));
        // Endurance 1: the second erase wears the block out.
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::erase(at(0)),
            OwnerId::Unattributed,
        )
        .unwrap();
        let worn = b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::erase(at(0)),
            OwnerId::Unattributed,
        );
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
        let mut b =
            FlashBackbone::new(layout(geometry), FlashTiming::fast_for_tests(), 2.5e9, 8, 1);
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::erase(addr),
            OwnerId::Unattributed,
        )
        .unwrap();
        let worn = b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::erase(addr),
            OwnerId::Unattributed,
        );
        assert!(matches!(
            worn,
            Err(FlashError::WornOut {
                erase_cycles: 2,
                ..
            })
        ));
        // Both wear readers count the one erase that completed.
        let block = geometry.block_index(addr) as usize;
        assert_eq!(b.block_erase_counts().nth(block), Some(1));
        assert_eq!(b.channel(1).unwrap().die(0).unwrap().erase_count(2), 1);
    }

    #[test]
    fn valid_index_tracks_commands_and_agrees_with_recount() {
        let mut b = backbone();
        let g = *b.geometry();
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(0, 0, 0, 1);
        let a2 = PhysicalPageAddr::new(1, 0, 3, 0);
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::program(a0),
            OwnerId::Unattributed,
        )
        .unwrap();
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::program(a1),
            OwnerId::Unattributed,
        )
        .unwrap();
        b.preload_group(g.addr_to_flat(a2), 1).unwrap();
        assert_eq!(b.total_valid_pages(), 3);
        assert_eq!(b.total_valid_pages(), b.recount_valid_pages());
        // Nothing holds garbage yet, so there is no victim.
        assert_eq!(b.min_valid_garbage_block(), None);
        b.invalidate_group(g.addr_to_flat(a1), 1).unwrap();
        let victim = b.min_valid_garbage_block().unwrap();
        assert_eq!(victim, g.block_index(a0));
        assert_eq!(b.valid_in(victim), 1);
        assert_eq!(b.garbage_in(victim), 1);
        b.submit_tagged(
            SimTime::ZERO,
            FlashCommand::erase(a0),
            OwnerId::Unattributed,
        )
        .unwrap();
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
        // The walk counts its own commands; the backbone's totals must
        // match them, and the owners' counts must add up to the totals.
        let (mut reads, mut programs, mut erases) = (0, 0, 0);
        let mut t = SimTime::ZERO;
        for (i, &owner) in owners.iter().enumerate() {
            for p in 0..4 {
                let addr = PhysicalPageAddr::new(p % 2, 0, i, p / 2);
                t = b
                    .submit_tagged(t, FlashCommand::program(addr), owner)
                    .unwrap()
                    .finished;
                programs += 1;
                t = b
                    .submit_tagged(t, FlashCommand::read(addr), owner)
                    .unwrap()
                    .finished;
                reads += 1;
            }
        }
        // A stripe of four reads over pages the walk programmed above, and
        // one erase.
        t = b
            .submit_group(t, 0, 4, FlashOp::ReadPage, OwnerId::Kernel(0))
            .unwrap();
        reads += 4;
        b.submit_tagged(
            t,
            FlashCommand::erase(PhysicalPageAddr::new(0, 0, 0, 0)),
            OwnerId::Gc,
        )
        .unwrap();
        erases += 1;
        let totals = b.stats();
        assert_eq!(
            (totals.reads, totals.programs, totals.erases),
            (reads, programs, erases)
        );
        assert_eq!(totals.srio_bytes, (reads + programs) * 4096);
        let per_owner = b.owner_stats();
        let sum = |f: fn(&OwnerStats) -> u64| per_owner.values().map(f).sum::<u64>();
        assert_eq!(sum(|o| o.commands()), reads + programs + erases);
        assert_eq!(sum(|o| o.bytes), totals.srio_bytes);
        // Every owner that read pages has an ordered read tail topped by
        // its recorded worst read, listed in the owner-stats order.
        let tails: Vec<_> = b.owner_read_tails().collect();
        assert!(tails.iter().map(|t| t.0).eq(per_owner.keys().copied()));
        for (owner, stats, tail) in tails {
            assert_eq!(stats, per_owner[&owner]);
            let expect = if owner == OwnerId::Kernel(0) { 8 } else { 4 };
            assert_eq!(stats.reads, expect, "{owner}");
            let tail = tail.unwrap();
            assert!(tail.p50 <= tail.p99 && tail.p99 <= tail.max);
            assert_eq!(tail.max.as_ns(), stats.read_latency_max_ns);
        }
        // The foreground aggregate covers exactly the two kernels' reads.
        assert!(b.foreground_read_latency_quantile(0.99).is_some());
    }

    /// Everything a stripe leaves in the accounting: totals, per-owner
    /// stats with their read tails, and every read-latency sample.
    type Accounting = (
        BackboneStats,
        Vec<(OwnerId, OwnerStats, Option<ReadTail>)>,
        Vec<Vec<u64>>,
    );

    /// `b`'s [`Accounting`]. Tag peaks are left out: the failing page and a
    /// failed program's pads still take tags.
    fn accounting(b: &FlashBackbone) -> Accounting {
        let tails = b
            .owner_read_tails()
            .map(|(owner, stats, tail)| {
                (
                    owner,
                    OwnerStats {
                        peak_tags: 0,
                        ..stats
                    },
                    tail,
                )
            })
            .collect();
        let samples = b.owners.iter().map(|s| s.read_latencies.clone()).collect();
        (b.stats(), tails, samples)
    }

    /// Runs a `pages`-page stripe of `op` from flat page `first` on one
    /// backbone and, on a twin, the `k` one-page submissions of the pages
    /// before the stripe stopped, all at the stripe's instant; both must
    /// leave the same accounting (owner stats, totals, latency samples and
    /// read tails), and the stripe must end in `want`.
    fn stripe_stops_like_one_page_submissions(
        setup: impl Fn(&mut FlashBackbone),
        first: u64,
        pages: u64,
        op: FlashOp,
        k: u64,
        want: fn(&FlashError) -> bool,
    ) {
        let owner = OwnerId::Kernel(2);
        let at = SimTime::from_ms(1);
        let (mut stripe, mut single) = (backbone(), backbone());
        setup(&mut stripe);
        setup(&mut single);
        let err = stripe
            .submit_group(at, first, pages, op, owner)
            .unwrap_err();
        assert!(want(&err), "{err:?}");
        let g = *single.geometry();
        for flat in first..first + k {
            let command = FlashCommand {
                op,
                addr: g.flat_to_addr(flat),
            };
            single.submit_tagged(at, command, owner).unwrap();
        }
        let (s, o) = (accounting(&stripe), accounting(&single));
        assert_eq!(s, o);
        let (totals, tails, _) = s;
        match op {
            FlashOp::ReadPage => assert_eq!(totals.reads, k),
            _ => assert_eq!(totals.programs, k),
        }
        // The stripe's owner is listed once it submitted a page, and its
        // worst read is its read tail's maximum.
        assert_eq!(tails.len(), usize::from(k > 0));
        for (_, stats, tail) in tails {
            let max = tail.map_or(0, |t| t.max.as_ns());
            assert_eq!(stats.read_latency_max_ns, max);
        }
    }

    #[test]
    fn stripe_stopped_by_an_unwritten_page_counts_the_pages_before_it() {
        // Flats 0..5 are written; a read stripe over 0..8 stops at flat 5.
        stripe_stops_like_one_page_submissions(
            |b| b.preload_group(0, 5).unwrap(),
            0,
            8,
            FlashOp::ReadPage,
            5,
            |e| matches!(e, FlashError::ReadUnwritten(_)),
        );
    }

    #[test]
    fn stripe_stopped_by_an_injected_program_failure_counts_the_pages_before_it() {
        // The scripted fault hits channel 1's second program, flat 3;
        // flats 4..8 are padded on the stripe side and never submitted on
        // the other. The pads count nowhere.
        stripe_stops_like_one_page_submissions(
            |b| {
                b.install_fault_plan(Arc::new(
                    FaultPlan::parse("script=program@c1.d0.b0.n2").unwrap(),
                ))
            },
            0,
            8,
            FlashOp::ProgramPage,
            3,
            |e| matches!(e, FlashError::InjectedProgramFailure(_)),
        );
    }

    #[test]
    fn stripe_reaching_out_of_range_counts_nothing() {
        // The range check rejects the whole stripe before its first page.
        let total = FlashGeometry::tiny_for_tests().total_pages();
        stripe_stops_like_one_page_submissions(
            |b| b.preload_group(0, total).unwrap(),
            total - 4,
            8,
            FlashOp::ReadPage,
            0,
            |e| matches!(e, FlashError::OutOfRange(_)),
        );
    }

    #[test]
    fn stripes_keep_the_owners_fastest_and_slowest_read() {
        // Read stripes of 8 pages, many at one instant so queueing spreads
        // each stripe's latencies, plus one-page reads: enough samples for
        // the bucketed selection, whose buckets start at the recorded
        // fastest read.
        let mut b = backbone();
        let total = b.geometry().total_pages();
        b.preload_group(0, total).unwrap();
        let owner = OwnerId::Kernel(0);
        for k in 0..60 {
            let at = SimTime::from_us(k / 20 * 500);
            b.submit_group(at, k * 8 % total, 8, FlashOp::ReadPage, owner)
                .unwrap();
            let addr = b.geometry().flat_to_addr(k * 3 % total);
            b.submit_tagged(at, FlashCommand::read(addr), owner)
                .unwrap();
        }
        let slot = &b.owners[owner.dense_index()];
        let mut sorted = slot.read_latencies.clone();
        sorted.sort_unstable();
        assert!(sorted.len() > crate::owner::ONE_BUCKET_MAX);
        assert!(sorted[0] < sorted[sorted.len() - 1]);
        assert_eq!(slot.read_min_ns, sorted[0]);
        assert_eq!(slot.read_max_ns, sorted[sorted.len() - 1]);
        let rank = |q| sorted[nearest_rank(sorted.len(), q)];
        let (_, _, tail) = b.owner_read_tails().next().unwrap();
        let tail = tail.unwrap();
        assert_eq!(
            (tail.p50.as_ns(), tail.p99.as_ns()),
            (rank(0.5), rank(0.99))
        );
        assert_eq!(
            b.foreground_read_latency_quantile(0.99),
            Some(SimDuration::from_ns(rank(0.99)))
        );
    }

    #[test]
    fn owner_budget_override_replaces_the_static_grant() {
        // Static budget 3, override 1: the override wins and the owner is
        // serialized to one tag. Clearing the override restores the static
        // grant for subsequent traffic.
        let mut b = FlashBackbone::new(
            layout(FlashGeometry::tiny_for_tests()),
            FlashTiming::fast_for_tests(),
            2.5e9,
            4,
            1_000,
        );
        b.set_qos_budgets(QosBudgets {
            per_owner: Some(3),
            background: Some(3),
        });
        let hog = OwnerId::Kernel(1);
        b.set_owner_budget_override(hog, Some(1));
        assert_eq!(b.owner_budget_override(hog), Some(1));
        let on_channel_0 = |p| FlashCommand::program(PhysicalPageAddr::new(0, 0, 0, p));
        let mut last = SimTime::ZERO;
        for p in 0..6 {
            last = b
                .submit_tagged(SimTime::ZERO, on_channel_0(p), hog)
                .unwrap()
                .finished;
        }
        let peaks = |b: &FlashBackbone| b.channel(0).unwrap().owner_peak_tags();
        assert_eq!(peaks(&b)[&hog], 1, "override must serialize");
        // A fresh owner under the same static budget runs 3 wide.
        let peer = OwnerId::Kernel(2);
        for p in 6..12 {
            b.submit_tagged(last, on_channel_0(p), peer).unwrap();
        }
        assert_eq!(peaks(&b)[&peer], 3);
        // Clearing the override falls back to the static grant.
        b.set_owner_budget_override(hog, None);
        assert_eq!(b.owner_budget_override(hog), None);
        // Clearing an owner that never had an override is a no-op and must
        // not grow the owner table.
        let slots = b.owners.len();
        b.set_owner_budget_override(OwnerId::Kernel(999), None);
        assert_eq!(b.owner_budget_override(OwnerId::Kernel(999)), None);
        assert_eq!(b.owners.len(), slots);
    }

    #[test]
    fn fault_plan_installs_per_channel_and_drains_flat_indexes() {
        use crate::fault::threshold_from_probability;
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
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(addr),
                OwnerId::Unattributed,
            )
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
        use crate::fault::threshold_from_probability;
        let mut b = backbone();
        let g = *b.geometry();
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(1, 0, 0, 0);
        let t0 = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(a0),
                OwnerId::Unattributed,
            )
            .unwrap();
        let t1 = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(a1),
                OwnerId::Unattributed,
            )
            .unwrap();
        b.install_fault_plan(Arc::new(FaultPlan {
            read_disturb_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        }));
        assert!(b.faults_affect_reads());
        let t = t0.finished.max(t1.finished);
        // Submit in descending channel order; the drain still reports
        // channels ascending.
        b.submit_tagged(t, FlashCommand::read(a1), OwnerId::Unattributed)
            .unwrap();
        b.submit_tagged(t, FlashCommand::read(a0), OwnerId::Unattributed)
            .unwrap();
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
    fn idle_page_commands_pay_each_stage_once() {
        // The SRIO and channel-bus page services are derived once from
        // their rates; on an idle backbone each command pays each exactly
        // once, equal to the transfer time at that rate.
        let timing = FlashTiming::fast_for_tests();
        let srio_rate = 2.0e9;
        let mut b = FlashBackbone::new(
            layout(FlashGeometry::tiny_for_tests()),
            timing,
            srio_rate,
            8,
            1_000,
        );
        let page_bytes = b.geometry().page_bytes as u64;
        let srio = SimDuration::for_transfer(page_bytes, srio_rate);
        let bus = SimDuration::for_transfer(page_bytes, timing.channel_bytes_per_sec);
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        let program = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(addr),
                OwnerId::Unattributed,
            )
            .unwrap();
        assert_eq!(
            program.finished,
            SimTime::ZERO + srio + timing.controller_overhead + bus + timing.program_page
        );
        let at = SimTime::from_ms(1);
        let read = b
            .submit_tagged(at, FlashCommand::read(addr), OwnerId::Unattributed)
            .unwrap();
        assert_eq!(
            read.finished,
            at + timing.controller_overhead + timing.read_page + bus + srio
        );
    }

    #[test]
    fn srio_front_end_serializes_heavy_traffic() {
        // With a deliberately slow SRIO link, programs queue on the front
        // end even though they target different channels.
        let mut b = FlashBackbone::new(
            layout(FlashGeometry::tiny_for_tests()),
            FlashTiming::fast_for_tests(),
            1.0e6, // 1 MB/s — absurdly slow to expose the serialization
            8,
            1_000,
        );
        let c0 = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(PhysicalPageAddr::new(0, 0, 0, 0)),
                OwnerId::Unattributed,
            )
            .unwrap();
        let c1 = b
            .submit_tagged(
                SimTime::ZERO,
                FlashCommand::program(PhysicalPageAddr::new(1, 0, 0, 0)),
                OwnerId::Unattributed,
            )
            .unwrap();
        // The second page waits for the first to cross the front end.
        let page_bytes = b.geometry().page_bytes as u64;
        assert!(c1.finished >= c0.finished + SimDuration::for_transfer(page_bytes, 1.0e6));
    }
}
