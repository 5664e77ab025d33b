//! Per-channel FPGA flash controller.
//!
//! Each of the backbone's channels has its own FPGA controller (§2.2) that
//! converts requests from the processor network into the flash clock
//! domain. The controller implements inbound and outbound *tag queues* for
//! buffering requests with minimal overhead, owns the NV-DDR2 channel bus
//! shared by the dies on the channel, and dispatches array operations to
//! the target die.

use crate::backbone::FlashOp;
use crate::die::{BlockCounts, FlashDie};
use crate::error::FlashError;
use crate::fault::{FaultOp, FaultState};
use crate::geometry::{FlashGeometry, PhysicalPageAddr};
use crate::owner::{OwnerId, QosBudgets};
use crate::timing::FlashTiming;
use fa_sim::resource::SerializedResource;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Statistics kept by one channel controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Read commands completed.
    pub reads: u64,
    /// Program commands completed.
    pub programs: u64,
    /// Erase commands completed.
    pub erases: u64,
    /// Payload bytes moved over the channel bus.
    pub bytes_transferred: u64,
    /// Peak simultaneous occupancy observed on the inbound tag queue.
    /// Never exceeds the queue depth.
    pub peak_inbound_tags: usize,
    /// Admissions that walked the in-flight suffix, for a budget check or
    /// to raise a peak. Without budgets this stops growing once every
    /// submitting owner has peaked at the full queue depth.
    pub admission_scans: u64,
}

/// One FPGA channel controller together with the dies it fronts.
#[derive(Debug, Clone)]
pub struct ChannelController {
    index: usize,
    dies: Vec<FlashDie>,
    bus: SerializedResource,
    timing: FlashTiming,
    page_bytes: usize,
    /// Bus time for one page-sized transfer, precomputed so the
    /// per-command path skips the bytes-to-duration conversion (identical
    /// to `timing.page_transfer(page_bytes)`).
    page_xfer: SimDuration,
    inbound_tags: usize,
    /// Per-owner outstanding-command budgets; unlimited by default, which
    /// reproduces the untagged FIFO admission exactly.
    budgets: QosBudgets,
    /// Per-owner budget *overrides* (dense owner index), installed by the
    /// online QoS governor: `Some(b)` replaces whatever `budgets` would
    /// grant that owner. Empty by default, so static-budget admission is
    /// reproduced byte for byte until a governor writes its first budget.
    owner_budget_overrides: Vec<Option<usize>>,
    /// Completion time and dense owner index (see [`OwnerId::dense_index`])
    /// of each in-flight command in submission order. Completion times are
    /// clamped non-decreasing as they are recorded, so every "commands
    /// still in flight at instant t" question — the whole queue's or one
    /// owner's — is answered by a suffix of this one queue.
    outstanding: VecDeque<(SimTime, u32)>,
    /// Peak simultaneous tag occupancy per owner (dense owner index), for
    /// the QoS figures. Never exceeds `inbound_tags`.
    owner_peaks: Vec<usize>,
    /// Channel-local fault state, installed by the backbone when a fault
    /// plan is active. `None` (the default) keeps every hook a single
    /// branch, so fault-free runs stay byte-identical to the recorded
    /// golden campaign.
    fault: Option<FaultState>,
    stats: ChannelStats,
}

impl ChannelController {
    /// Creates a controller for channel `index` of `geometry`.
    ///
    /// `inbound_tags` bounds the number of simultaneously outstanding
    /// commands the tag queue will accept; additional commands stall at the
    /// submission point (back-pressure to Flashvisor).
    ///
    /// # Panics
    ///
    /// Panics if `inbound_tags` is zero: a tag queue with no tags could
    /// never admit a command, so `FlashAbacusConfig::channel_tag_queue`
    /// must be at least one.
    pub fn new(
        index: usize,
        geometry: &FlashGeometry,
        timing: FlashTiming,
        endurance_limit: u64,
        inbound_tags: usize,
    ) -> Self {
        assert!(
            inbound_tags > 0,
            "inbound_tags (channel_tag_queue) must be at least 1"
        );
        let dies = (0..geometry.dies_per_channel())
            .map(|d| FlashDie::new(geometry, endurance_limit, index, d))
            .collect();
        ChannelController {
            index,
            dies,
            bus: SerializedResource::new(format!("nvddr2-ch{index}"), timing.channel_bytes_per_sec),
            timing,
            page_bytes: geometry.page_bytes,
            page_xfer: timing.page_transfer(geometry.page_bytes),
            inbound_tags,
            budgets: QosBudgets::unlimited(),
            owner_budget_overrides: Vec::new(),
            outstanding: VecDeque::new(),
            owner_peaks: Vec::new(),
            fault: None,
            stats: ChannelStats::default(),
        }
    }

    /// Installs the channel-local fault state (see [`crate::fault`]).
    pub(crate) fn install_fault_state(&mut self, state: FaultState) {
        self.fault = Some(state);
    }

    /// The channel's fault state, if a plan is installed.
    pub(crate) fn fault_state(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Mutable access to the channel's fault state (drain lists).
    pub(crate) fn fault_state_mut(&mut self) -> Option<&mut FaultState> {
        self.fault.as_mut()
    }

    /// Installs per-owner tag budgets (unlimited by default).
    pub fn set_qos_budgets(&mut self, budgets: QosBudgets) {
        self.budgets = budgets;
    }

    /// Installs (or clears, with `None`) a per-owner budget override. An
    /// installed override replaces the static [`QosBudgets`] grant for that
    /// owner only — the online QoS governor recomputes these from a sliding
    /// window over the owner statistics.
    pub fn set_owner_budget_override(&mut self, owner: OwnerId, budget: Option<usize>) {
        let oi = owner.dense_index();
        if oi >= self.owner_budget_overrides.len() {
            if budget.is_none() {
                return;
            }
            self.owner_budget_overrides.resize(oi + 1, None);
        }
        self.owner_budget_overrides[oi] = budget;
    }

    /// The budget override in force for `owner`, if any.
    pub fn owner_budget_override(&self, owner: OwnerId) -> Option<usize> {
        self.owner_budget_overrides
            .get(owner.dense_index())
            .copied()
            .flatten()
    }

    /// Peak simultaneous tag-queue occupancy each owner reached. Owners
    /// that never submitted a command are absent (their dense slot is 0).
    pub fn owner_peak_tags(&self) -> BTreeMap<OwnerId, usize> {
        self.owner_peaks
            .iter()
            .enumerate()
            .filter(|(_, &peak)| peak > 0)
            .map(|(i, &peak)| (OwnerId::from_dense_index(i), peak))
            .collect()
    }

    /// Dense owner slots this controller has grown to (see
    /// [`OwnerId::dense_index`]).
    pub(crate) fn owner_slots(&self) -> usize {
        self.owner_peaks.len()
    }

    /// Peak tag occupancy of the owner in dense slot `oi` (0 if it never
    /// submitted here).
    pub(crate) fn owner_peak(&self, oi: usize) -> usize {
        self.owner_peaks.get(oi).copied().unwrap_or(0)
    }

    /// The channel index this controller serves.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Immutable access to a die (for GC victim inspection).
    pub fn die(&self, die: usize) -> Option<&FlashDie> {
        self.dies.get(die)
    }

    /// Mutable access to a die (used by tests and the Storengine model).
    pub fn die_mut(&mut self, die: usize) -> Option<&mut FlashDie> {
        self.dies.get_mut(die)
    }

    /// The page counts of `addr`'s block; zero outside the channel.
    pub(crate) fn block_counts(&self, addr: PhysicalPageAddr) -> BlockCounts {
        self.dies
            .get(addr.die)
            .map_or_else(BlockCounts::default, |d| d.block_counts(addr.block))
    }

    /// Controller statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Channel bus utilization up to `now`.
    pub(crate) fn bus_utilization(&self, now: SimTime) -> f64 {
        self.bus.utilization(now)
    }

    /// Mean die utilization on this channel up to `now`.
    pub(crate) fn mean_die_utilization(&self, now: SimTime) -> f64 {
        if self.dies.is_empty() {
            return 0.0;
        }
        self.dies.iter().map(|d| d.utilization(now)).sum::<f64>() / self.dies.len() as f64
    }

    /// Models tag-queue admission: commands submitted while `inbound_tags`
    /// commands are still in flight are delayed until the oldest completes,
    /// and an owner already holding its whole tag budget is deferred until
    /// one of *its own* commands retires — other owners are admitted past
    /// it rather than FIFO-stalling behind it.
    fn admit(&mut self, now: SimTime, owner: OwnerId) -> SimTime {
        let oi = self.ensure_owner_slot(owner);
        // Drop commands that have already retired by the submission instant.
        while matches!(self.outstanding.front(), Some(&(done, _)) if done <= now) {
            self.outstanding.pop_front();
        }
        let occupancy = self.outstanding.len();
        let mut admitted = if occupancy < self.inbound_tags {
            now
        } else {
            // Admission happens when enough in-flight commands have retired
            // to open a tag slot. Completion times are kept in submission
            // order and that order is non-decreasing (FIFO service on every
            // phase), so the command that frees our slot is at a fixed
            // offset from the front.
            self.outstanding[occupancy - self.inbound_tags].0
        };
        // Every command still in flight at `admitted` sits in the suffix of
        // entries completing after it, and the tag-slot rule above bounds
        // that suffix to `inbound_tags - 1` entries however deep the queue
        // is. Both walks below stay inside it.
        //
        // Per-owner budget `b`: defer until the owner's `b`-th in-flight
        // command from the back retires. A zero budget is clamped to one
        // tag — it bounds concurrency, never deadlocks the owner.
        let owner_tag = oi as u32;
        let budget = self
            .owner_budget_overrides
            .get(oi)
            .copied()
            .flatten()
            .or_else(|| self.budgets.budget_for(owner));
        let mut scanned = false;
        if let Some(budget) = budget {
            scanned = true;
            let nth_own_from_back = self
                .outstanding
                .iter()
                .rev()
                .take_while(|&&(done, _)| done > admitted)
                .filter(|&&(_, o)| o == owner_tag)
                .nth(budget.max(1) - 1);
            if let Some(&(done, _)) = nth_own_from_back {
                admitted = done;
            }
        }
        // Occupancy the tag queue and the owner actually see once this
        // command is let in. Both are capped at `inbound_tags` by the same
        // suffix bound, so once both peaks reach it the walk cannot move
        // either and is skipped. An owner's peak never exceeds the queue's,
        // so the owner's peak alone says whether both have reached it.
        if self.owner_peaks[oi] < self.inbound_tags {
            scanned = true;
            let (in_flight, owner_in_flight) = self
                .outstanding
                .iter()
                .rev()
                .take_while(|&&(done, _)| done > admitted)
                .fold((0, 0), |(all, own), &(_, o)| {
                    (all + 1, own + usize::from(o == owner_tag))
                });
            self.stats.peak_inbound_tags = self.stats.peak_inbound_tags.max(in_flight + 1);
            self.owner_peaks[oi] = self.owner_peaks[oi].max(owner_in_flight + 1);
        }
        self.stats.admission_scans += u64::from(scanned);
        admitted
    }

    /// Grows the dense per-owner structures to cover `owner`, returning its
    /// dense index.
    fn ensure_owner_slot(&mut self, owner: OwnerId) -> usize {
        let oi = owner.dense_index();
        if oi >= self.owner_peaks.len() {
            self.owner_peaks.resize(oi + 1, 0);
        }
        oi
    }

    fn record_completion(&mut self, done: SimTime, owner: OwnerId) {
        // Keep the queue sorted in the rare case a later submission finishes
        // slightly earlier (e.g. an erase racing a read on another die).
        let done = self.outstanding.back().map_or(done, |b| done.max(b.0));
        let oi = self.ensure_owner_slot(owner);
        self.outstanding.push_back((done, oi as u32));
    }

    /// Executes one operation against `addr` on behalf of `owner`,
    /// returning its completion time. A read senses the array, then moves
    /// the page out over the bus; a program moves the page in over the bus,
    /// then programs the array; an erase takes no bus time.
    ///
    /// The returned instant accounts for tag-queue admission (including the
    /// owner's QoS budget), controller overhead, die contention, and
    /// channel-bus contention for the data transfer phase.
    pub fn execute(
        &mut self,
        now: SimTime,
        op: FlashOp,
        addr: PhysicalPageAddr,
        owner: OwnerId,
    ) -> Result<SimTime, FlashError> {
        if addr.die >= self.dies.len() {
            return Err(FlashError::OutOfRange(addr));
        }
        let timing = self.timing;
        let admitted = self.admit(now, owner) + timing.controller_overhead;
        // Fault decision, rolled before the die operation. The counters it
        // advances are channel-local, so the verdict depends only on this
        // channel's own command sequence, not on how channels interleave.
        let faulted = match self.fault.as_mut() {
            Some(f) => f.decide(
                match op {
                    FlashOp::ReadPage => FaultOp::Read,
                    FlashOp::ProgramPage => FaultOp::Program,
                    FlashOp::EraseBlock => FaultOp::Erase,
                },
                addr,
            ),
            None => false,
        };
        let page_bytes = self.page_bytes;
        let die = &mut self.dies[addr.die];
        let completion = match op {
            FlashOp::ReadPage => {
                let sense = die.read_page(admitted, addr.block, addr.page, &timing)?;
                // Read-disturb: the first sense needs a retry before the
                // data is correctable, then the page must be relocated. The
                // command still succeeds — it just pays a second array read
                // and queues the page on the disturb list.
                let sense_end = if faulted {
                    let retry = die
                        .read_page(sense.end, addr.block, addr.page, &timing)
                        .expect("retry of a page that just read cleanly");
                    retry.end
                } else {
                    sense.end
                };
                // Data comes off the array, then crosses the channel bus.
                let xfer = self.bus.reserve_duration(sense_end, self.page_xfer);
                self.stats.reads += 1;
                self.stats.bytes_transferred += page_bytes as u64;
                if faulted {
                    self.fault
                        .as_mut()
                        .expect("faulted implies fault state")
                        .note_disturb(addr);
                }
                xfer.end
            }
            FlashOp::ProgramPage => {
                // Data crosses the bus into the die's page register first.
                let xfer = self.bus.reserve_duration(admitted, self.page_xfer);
                let prog = die.program_page(xfer.end, addr.block, addr.page, &timing)?;
                self.stats.programs += 1;
                self.stats.bytes_transferred += page_bytes as u64;
                if faulted {
                    // The program consumed the page (NAND write cursors only
                    // move forward) but the data reads back uncorrectable:
                    // the page goes straight to Invalid, and the caller gets
                    // the error so the translation layer can re-allocate
                    // elsewhere.
                    die.invalidate_page(addr.block, addr.page)
                        .expect("freshly programmed page is valid");
                    self.record_completion(prog.end, owner);
                    self.note_block_failure(FaultOp::Program, addr);
                    return Err(FlashError::InjectedProgramFailure(addr));
                }
                prog.end
            }
            FlashOp::EraseBlock => {
                if faulted {
                    // The erase pulse ran (the die is busy for the full
                    // erase latency) but the block kept its contents and
                    // its wear counter did not advance.
                    let res = die.failed_erase(admitted, &timing);
                    self.record_completion(res.end, owner);
                    self.note_block_failure(FaultOp::Erase, addr);
                    return Err(FlashError::InjectedEraseFailure(addr));
                }
                let erase = die.erase_block(admitted, addr.block, &timing)?;
                self.stats.erases += 1;
                erase.end
            }
        };
        self.record_completion(completion, owner);
        Ok(completion)
    }

    fn note_block_failure(&mut self, op: FaultOp, addr: PhysicalPageAddr) {
        if let Some(f) = self.fault.as_mut() {
            f.note_failure(op, addr);
        }
    }

    /// Marks a page invalid without consuming channel time.
    pub fn invalidate(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        self.dies
            .get_mut(addr.die)
            .ok_or(FlashError::OutOfRange(addr))?
            .invalidate_page(addr.block, addr.page)
    }

    /// Marks a page valid without consuming channel time (pre-experiment
    /// data placement): a one-page run preload.
    pub fn preload(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        self.preload_run(addr, 1)
    }

    /// Checks, changing nothing, that the `n` pages of `addr`'s block
    /// starting at `addr.page` could be preloaded (see
    /// `FlashDie::check_preload_run`).
    pub(crate) fn check_preload_run(
        &self,
        addr: PhysicalPageAddr,
        n: usize,
    ) -> Result<(), FlashError> {
        self.dies
            .get(addr.die)
            .ok_or(FlashError::OutOfRange(addr))?
            .check_preload_run(addr.block, addr.page, n)
    }

    /// Marks the `n` pages of `addr`'s block starting at `addr.page` valid
    /// without consuming channel time (pre-experiment data placement; see
    /// [`FlashDie::preload_run`]). On error nothing changes.
    pub(crate) fn preload_run(
        &mut self,
        addr: PhysicalPageAddr,
        n: usize,
    ) -> Result<(), FlashError> {
        self.dies
            .get_mut(addr.die)
            .ok_or(FlashError::OutOfRange(addr))?
            .preload_run(addr.block, addr.page, n)
    }

    /// Recount of the channel's valid pages from the dies' valid bitmaps:
    /// the property-test oracle for the backbone's valid total.
    pub(crate) fn recount_valid_pages(&self) -> usize {
        self.dies
            .iter()
            .map(|d| {
                (0..d.block_count())
                    .map(|b| d.recount_valid_pages_in(b))
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> ChannelController {
        ChannelController::new(
            0,
            &FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            1_000,
            8,
        )
    }

    #[test]
    fn program_then_read_completes_in_order() {
        let mut c = controller();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        let wrote = c
            .execute(
                SimTime::ZERO,
                FlashOp::ProgramPage,
                addr,
                OwnerId::Unattributed,
            )
            .unwrap();
        let read = c
            .execute(wrote, FlashOp::ReadPage, addr, OwnerId::Unattributed)
            .unwrap();
        assert!(read > wrote);
        assert_eq!(c.stats().programs, 1);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().bytes_transferred, 2 * 4096);
    }

    #[test]
    fn reads_to_different_dies_overlap_on_the_array() {
        let geom = FlashGeometry {
            channels: 1,
            packages_per_channel: 2,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 4,
            pages_per_block: 8,
            page_bytes: 4096,
        };
        let timing = FlashTiming::paper_prototype();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 8);
        // Program one page on each die so reads are legal.
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(0, 1, 0, 0);
        let d0 = c
            .execute(
                SimTime::ZERO,
                FlashOp::ProgramPage,
                a0,
                OwnerId::Unattributed,
            )
            .unwrap();
        let d1 = c
            .execute(
                SimTime::ZERO,
                FlashOp::ProgramPage,
                a1,
                OwnerId::Unattributed,
            )
            .unwrap();
        let start = d0.max(d1);
        let r0 = c
            .execute(start, FlashOp::ReadPage, a0, OwnerId::Unattributed)
            .unwrap();
        let r1 = c
            .execute(start, FlashOp::ReadPage, a1, OwnerId::Unattributed)
            .unwrap();
        // Both reads sense in parallel; only the bus transfer serializes, so
        // the second completion trails the first by far less than a full
        // array read.
        let gap = r1.saturating_since(r0);
        assert!(gap < timing.read_page / 2, "gap was {gap}");
    }

    #[test]
    fn erase_takes_no_bus_bandwidth() {
        let mut c = controller();
        let before = c.stats().bytes_transferred;
        c.execute(
            SimTime::ZERO,
            FlashOp::EraseBlock,
            PhysicalPageAddr::new(0, 0, 1, 0),
            OwnerId::Unattributed,
        )
        .unwrap();
        assert_eq!(c.stats().bytes_transferred, before);
        assert_eq!(c.stats().erases, 1);
    }

    #[test]
    fn tag_queue_back_pressure_delays_admission() {
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut narrow = ChannelController::new(0, &geom, timing, 1_000, 1);
        let mut wide = ChannelController::new(0, &geom, timing, 1_000, 16);
        let mut last_narrow = SimTime::ZERO;
        let mut last_wide = SimTime::ZERO;
        for p in 0..8 {
            let addr = PhysicalPageAddr::new(0, 0, 0, p);
            last_narrow = narrow
                .execute(
                    SimTime::ZERO,
                    FlashOp::ProgramPage,
                    addr,
                    OwnerId::Unattributed,
                )
                .unwrap();
            let addr = PhysicalPageAddr::new(0, 0, 0, p);
            last_wide = wide
                .execute(
                    SimTime::ZERO,
                    FlashOp::ProgramPage,
                    addr,
                    OwnerId::Unattributed,
                )
                .unwrap();
        }
        // With a single tag the controller admits commands one at a time, so
        // the final completion cannot be earlier than the wide queue's.
        assert!(last_narrow >= last_wide);
        assert!(narrow.stats().peak_inbound_tags <= 2);
        assert!(wide.stats().peak_inbound_tags >= 2);
    }

    #[test]
    fn owner_budget_caps_a_saturating_owner() {
        // A single owner with budget 2 on a 4-tag queue: no matter how many
        // commands it floods at t=0, it never holds more than 2 tags.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 4);
        c.set_qos_budgets(QosBudgets {
            per_owner: Some(2),
            background: Some(2),
        });
        let hog = OwnerId::Kernel(1);
        for p in 0..8 {
            c.execute(
                SimTime::ZERO,
                FlashOp::ProgramPage,
                PhysicalPageAddr::new(0, 0, 0, p),
                hog,
            )
            .unwrap();
        }
        assert!(
            c.owner_peak_tags()[&hog] <= 2,
            "owner exceeded its budget: {:?}",
            c.owner_peak_tags()
        );
        // The queue itself never saw more than the owner's budget in
        // flight either — the other two tags stayed free for other owners.
        assert!(c.stats().peak_inbound_tags <= 2);
    }

    #[test]
    fn owner_budget_override_replaces_the_static_grant() {
        // Static budget 3, override 1: the override wins and the owner is
        // serialized to one tag. Clearing the override restores the static
        // grant for subsequent traffic.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 4);
        c.set_qos_budgets(QosBudgets {
            per_owner: Some(3),
            background: Some(3),
        });
        let hog = OwnerId::Kernel(1);
        c.set_owner_budget_override(hog, Some(1));
        assert_eq!(c.owner_budget_override(hog), Some(1));
        let mut last = SimTime::ZERO;
        for p in 0..6 {
            last = c
                .execute(
                    SimTime::ZERO,
                    FlashOp::ProgramPage,
                    PhysicalPageAddr::new(0, 0, 0, p),
                    hog,
                )
                .unwrap();
        }
        assert_eq!(c.owner_peak_tags()[&hog], 1, "override must serialize");
        // A fresh owner under the same static budget runs 3 wide.
        let peer = OwnerId::Kernel(2);
        for p in 6..12 {
            c.execute(
                last,
                FlashOp::ProgramPage,
                PhysicalPageAddr::new(0, 0, 0, p),
                peer,
            )
            .unwrap();
        }
        assert_eq!(c.owner_peak_tags()[&peer], 3);
        // Clearing the override falls back to the static grant.
        c.set_owner_budget_override(hog, None);
        assert_eq!(c.owner_budget_override(hog), None);
        // Clearing an owner that never had an override is a no-op and must
        // not grow the override table.
        c.set_owner_budget_override(OwnerId::Kernel(999), None);
        assert_eq!(c.owner_budget_override(OwnerId::Kernel(999)), None);
    }

    #[test]
    fn two_budgeted_owners_interleave_fairly_on_a_shared_queue() {
        // Two owners, budget 2 each, 4-tag queue, both flooding 8 programs
        // at t=0 in strict alternation: admission must interleave them (no
        // owner's whole burst finishes before the other's starts), both
        // reach their 2-tag peak, and neither exceeds it.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 4);
        c.set_qos_budgets(QosBudgets {
            per_owner: Some(2),
            background: Some(2),
        });
        let a = OwnerId::Kernel(1);
        let b = OwnerId::Kernel(2);
        let mut completions: Vec<(SimTime, OwnerId)> = Vec::new();
        for p in 0..8 {
            for (owner, die_block) in [(a, 0), (b, 1)] {
                let done = c
                    .execute(
                        SimTime::ZERO,
                        FlashOp::ProgramPage,
                        PhysicalPageAddr::new(0, 0, die_block, p),
                        owner,
                    )
                    .unwrap();
                completions.push((done, owner));
            }
        }
        assert_eq!(c.owner_peak_tags()[&a], 2);
        assert_eq!(c.owner_peak_tags()[&b], 2);
        // Fairness: order completions by time; the first half of the
        // timeline must contain commands of both owners, i.e. the last
        // completion of each owner's first four commands precedes the other
        // owner's final completion.
        completions.sort();
        let first_half: Vec<OwnerId> = completions[..8].iter().map(|(_, o)| *o).collect();
        assert!(first_half.contains(&a) && first_half.contains(&b));
        let second_half: Vec<OwnerId> = completions[8..].iter().map(|(_, o)| *o).collect();
        assert!(second_half.contains(&a) && second_half.contains(&b));
    }

    #[test]
    fn unlimited_budgets_reproduce_untagged_admission() {
        // The QoS default must be byte-identical to the pre-owner FIFO tag
        // queue: identical command streams under different owner labels
        // complete at identical instants when no budget is set.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut untagged = ChannelController::new(0, &geom, timing, 1_000, 2);
        let mut tagged = ChannelController::new(0, &geom, timing, 1_000, 2);
        for p in 0..8 {
            let addr = PhysicalPageAddr::new(0, 0, 0, p);
            let u = untagged
                .execute(
                    SimTime::ZERO,
                    FlashOp::ProgramPage,
                    addr,
                    OwnerId::Unattributed,
                )
                .unwrap();
            let owner = if p % 2 == 0 {
                OwnerId::Kernel(p as u32)
            } else {
                OwnerId::Gc
            };
            let t = tagged
                .execute(SimTime::ZERO, FlashOp::ProgramPage, addr, owner)
                .unwrap();
            assert_eq!(u, t, "page {p}");
        }
        // Every simulated statistic matches; the host-work counter may not,
        // since each fresh owner label walks the queue to set its peak.
        let simulated = |s: ChannelStats| ChannelStats {
            admission_scans: 0,
            ..s
        };
        assert_eq!(simulated(untagged.stats()), simulated(tagged.stats()));
    }

    #[test]
    #[should_panic(expected = "inbound_tags (channel_tag_queue) must be at least 1")]
    fn zero_tag_depth_is_rejected_at_construction() {
        ChannelController::new(
            0,
            &FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            1_000,
            0,
        );
    }

    #[test]
    fn admission_stops_scanning_once_the_peaks_are_capped() {
        // Without budgets the in-flight suffix is walked only while a peak
        // can still rise: one owner flooding a channel at one instant raises
        // both peaks by one per admission, so exactly `inbound_tags`
        // admissions walk it and the other 9 992 do not.
        let mut c = controller();
        let tags = 8;
        let page = PhysicalPageAddr::new(0, 0, 0, 0);
        c.preload(page).unwrap();
        let a = OwnerId::Kernel(1);
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            last = c
                .execute(SimTime::ZERO, FlashOp::ReadPage, page, a)
                .unwrap();
        }
        assert_eq!(c.stats().peak_inbound_tags, tags);
        assert_eq!(c.stats().admission_scans, tags as u64);
        // A second owner joining while the queue is still deep walks it
        // only until its own peak reaches the depth.
        let b = OwnerId::Kernel(2);
        let mid = SimTime::from_ns(last.as_ns() / 2);
        for _ in 0..1_000 {
            c.execute(mid, FlashOp::ReadPage, page, b).unwrap();
        }
        assert_eq!(c.owner_peak_tags()[&b], tags);
        assert!(c.stats().admission_scans <= 2 * tags as u64);
        // With every peak capped, interleaved traffic never walks again.
        let scans = c.stats().admission_scans;
        for owner in [a, b].into_iter().cycle().take(1_000) {
            c.execute(mid, FlashOp::ReadPage, page, owner).unwrap();
        }
        assert_eq!(c.stats().admission_scans, scans);
    }

    #[test]
    fn invalid_die_is_rejected() {
        let mut c = controller();
        let err = c
            .execute(
                SimTime::ZERO,
                FlashOp::ReadPage,
                PhysicalPageAddr::new(0, 99, 0, 0),
                OwnerId::Unattributed,
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
    }

    #[test]
    fn injected_program_failure_scraps_the_page_and_retires_the_block() {
        use crate::fault::{threshold_from_probability, FaultPlan, FaultState};
        use std::sync::Arc;
        let mut c = controller();
        let plan = Arc::new(FaultPlan {
            program_threshold: threshold_from_probability(1.0),
            retire_after: 2,
            ..FaultPlan::default()
        });
        c.install_fault_state(FaultState::new(plan, 0));
        for page in 0..2 {
            let err = c
                .execute(
                    SimTime::ZERO,
                    FlashOp::ProgramPage,
                    PhysicalPageAddr::new(0, 0, 0, page),
                    OwnerId::Unattributed,
                )
                .unwrap_err();
            assert!(matches!(err, FlashError::InjectedProgramFailure(_)));
        }
        // The scrapped pages are Invalid, never Valid.
        assert_eq!(c.recount_valid_pages(), 0);
        // The write cursor moved past the scrapped pages, so the block's
        // next legal program is page 2.
        assert_eq!(c.die(0).unwrap().programmed_pages_in(0), 2);
        // Two failures crossed retire_after=2: the block is pending
        // retirement, exactly once.
        assert_eq!(
            c.fault_state_mut().unwrap().take_retired_pending(),
            vec![(0, 0)]
        );
    }

    #[test]
    fn injected_erase_failure_preserves_block_state_and_wear() {
        use crate::fault::{threshold_from_probability, FaultPlan, FaultState};
        use std::sync::Arc;
        let mut c = controller();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        c.execute(
            SimTime::ZERO,
            FlashOp::ProgramPage,
            addr,
            OwnerId::Unattributed,
        )
        .unwrap();
        let plan = Arc::new(FaultPlan {
            erase_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        });
        c.install_fault_state(FaultState::new(plan, 0));
        let busy_before = c.die(0).unwrap().next_free();
        let err = c
            .execute(
                SimTime::ZERO,
                FlashOp::EraseBlock,
                addr,
                OwnerId::Unattributed,
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::InjectedEraseFailure(_)));
        // The block kept its data and its wear counter.
        assert_eq!(c.recount_valid_pages(), 1);
        assert_eq!(c.die(0).unwrap().erase_count(0), 0);
        assert_eq!(c.stats().erases, 0);
        // The die was still busy for the failed pulse: the failed erase
        // charged real device time.
        assert!(c.die(0).unwrap().next_free() > busy_before);
    }

    #[test]
    fn read_disturb_retries_then_queues_the_page_for_relocation() {
        use crate::fault::{threshold_from_probability, FaultPlan, FaultState};
        use std::sync::Arc;
        let mut clean = controller();
        let mut disturbed = controller();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        for c in [&mut clean, &mut disturbed] {
            c.execute(
                SimTime::ZERO,
                FlashOp::ProgramPage,
                addr,
                OwnerId::Unattributed,
            )
            .unwrap();
        }
        let plan = Arc::new(FaultPlan {
            read_disturb_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        });
        disturbed.install_fault_state(FaultState::new(plan, 0));
        let t_clean = clean
            .execute(
                SimTime::from_ms(1),
                FlashOp::ReadPage,
                addr,
                OwnerId::Unattributed,
            )
            .unwrap();
        let t_disturbed = disturbed
            .execute(
                SimTime::from_ms(1),
                FlashOp::ReadPage,
                addr,
                OwnerId::Unattributed,
            )
            .unwrap();
        // The disturbed read still succeeds, but pays the retry sense.
        assert!(t_disturbed > t_clean);
        assert_eq!(
            disturbed.fault_state_mut().unwrap().take_disturbed(),
            vec![addr]
        );
        assert_eq!(disturbed.fault_state().unwrap().stats().read_disturbs, 1);
    }

    #[test]
    fn valid_page_accounting() {
        let mut c = controller();
        assert_eq!(c.recount_valid_pages(), 0);
        for p in 0..3 {
            c.execute(
                SimTime::ZERO,
                FlashOp::ProgramPage,
                PhysicalPageAddr::new(0, 0, 0, p),
                OwnerId::Unattributed,
            )
            .unwrap();
        }
        assert_eq!(c.recount_valid_pages(), 3);
        c.invalidate(PhysicalPageAddr::new(0, 0, 0, 1)).unwrap();
        assert_eq!(c.recount_valid_pages(), 2);
    }
}
