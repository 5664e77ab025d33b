//! The full FlashAbacus device simulation.
//!
//! [`FlashAbacusSystem`] ties every substrate together: the host offloads
//! kernel description tables over PCIe into DDR3L, Flashvisor boots worker
//! LWPs through the power/sleep controller, the configured scheduler
//! distributes kernels (or their screens) across the workers, kernel data
//! sections are staged from the flash backbone through Flashvisor, outputs
//! are written back log-structured, Storengine journals metadata and
//! reclaims blocks in the background, and the energy accountant integrates
//! component power over all of it.
//!
//! The simulation is *reservation driven*: every hardware component exposes
//! "request at time t → completion at time t'" semantics, and a single
//! completion-ordered dispatch loop drives all four scheduling policies so
//! that every shared resource sees its requests in non-decreasing simulated
//! time (output write-back is deferred to the retire step for the same
//! reason). The ordering rules of the multi-app execution chain are
//! enforced by `fa_kernel::chain` and violations panic, so scheduler bugs
//! cannot silently produce wrong timings.

use crate::config::FlashAbacusConfig;
use crate::error::FaError;
use crate::flashvisor::Flashvisor;
use crate::metrics::{EnergySummary, KernelLatency, OwnerFlashStats, RunOutcome};
use crate::rangelock::LockMode;
use crate::scheduler::{all_kernels, intra_next_ready, static_assignment, SchedulerPolicy};
use crate::storengine::{GcPassProgress, GcPlan, Storengine};
use fa_energy::{ActivityCategory, Component, EnergyAccountant};
use fa_flash::{FaultPlan, FlashError};
use fa_kernel::chain::{ExecutionChain, ScreenRef};
use fa_kernel::descriptor::KernelDescriptionTable;
use fa_kernel::model::Application;
use fa_platform::lwp::{LwpCore, LwpSpec};
use fa_platform::mem::MemorySystem;
use fa_platform::noc::{Crossbar, MessageQueue, PcieLink};
use fa_sim::crash::PowerLossClock;
use fa_sim::deferred::DeferredWorkQueue;
use fa_sim::stats::{bucketed, timeline_bucket, TimeSeries};
use fa_sim::time::SimTime;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// An injected media failure is an event the storage stack absorbs
/// (remap, retire, retry) — never a reason to abort the run.
pub(crate) fn is_injected_fault(e: &FaError) -> bool {
    matches!(
        e,
        FaError::Flash(FlashError::InjectedProgramFailure(_) | FlashError::InjectedEraseFailure(_))
    )
}

/// Background storage-management work, scheduled as deferred events that
/// contend with foreground traffic instead of executing instantaneously at
/// the flush instant (`qos.background_gc`).
#[derive(Debug, Clone)]
pub(crate) enum StorageTask {
    /// Start a new Storengine reclamation pass. `remaining` bounds the
    /// campaign the triggering flush started, mirroring the synchronous
    /// guard of [`FlashAbacusSystem::run_background_storage`].
    GcPass { remaining: u32 },
    /// Continue a pass whose migrations are sliced by the GC tag budget:
    /// each event migrates at most `gc_budget` groups, then yields the
    /// channels to foreground traffic until its own commands complete —
    /// the deferred-admission behaviour of an over-budget owner, applied
    /// at the pass level.
    GcSlice {
        plan: GcPlan,
        progress: GcPassProgress,
        remaining: u32,
    },
}

/// Per-screen placement of a kernel's data section: which slice of the
/// section each screen reads and writes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScreenSlice {
    pub(crate) input_start: u64,
    pub(crate) input_len: u64,
    pub(crate) output_start: u64,
    pub(crate) output_len: u64,
}

/// A pending screen completion in the dispatch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Completion {
    end: SimTime,
    screen: ScreenRef,
    worker: usize,
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest end.
        other
            .end
            .cmp(&self.end)
            .then_with(|| other.screen.cmp(&self.screen))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A record of one compute interval, kept to rebuild the FU timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComputeInterval {
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) busy_fus: f64,
}

/// Maximum screens in flight per worker: one executing plus one whose input
/// is being prefetched, so data transfers overlap execution (§5's
/// methodology notes that accelerator latency overlaps with DMA time).
const WORKER_QUEUE_DEPTH: usize = 2;

/// Per-worker scheduling state used by the unified dispatch loop.
#[derive(Debug, Clone, Copy)]
struct WorkerState {
    /// Earliest instant new work could start.
    free_at: SimTime,
    /// Screens currently dispatched to this worker (executing or staged).
    in_flight: usize,
    /// The worker has been booted through the PSC protocol at least once.
    booted: bool,
    /// Inter-kernel policies: index (into the kernel list) of the kernel
    /// currently owned by this worker.
    current_kernel: Option<usize>,
}

/// The simulated FlashAbacus accelerator.
pub struct FlashAbacusSystem {
    config: FlashAbacusConfig,
    pub(crate) flashvisor: Flashvisor,
    pub(crate) storengine: Storengine,
    pub(crate) workers: Vec<LwpCore>,
    memory: MemorySystem,
    pcie: PcieLink,
    tier1: Crossbar,
    pub(crate) msgq: MessageQueue,
    pub(crate) energy: EnergyAccountant,
    pub(crate) compute_intervals: Vec<ComputeInterval>,
    gc_passes: u64,
    /// Deferred storage-management events (background-GC mode only).
    pub(crate) background: DeferredWorkQueue<StorageTask>,
    /// A background GC campaign is in flight: the watermark check at flush
    /// time must not start a second one.
    gc_campaign_active: bool,
    /// One-shot power-loss trigger, armed from the fault plan's
    /// `power_loss_ns`. Disarmed (and free) on fault-free runs.
    power_loss: PowerLossClock,
    /// Crash/recovery cycles executed so far.
    recoveries: u64,
}

impl FlashAbacusSystem {
    /// Builds a fault-free system from its configuration. The result
    /// depends on `config` alone; a fault plan is installed afterwards with
    /// [`FlashAbacusSystem::install_fault_plan`].
    pub fn new(config: FlashAbacusConfig) -> Self {
        let lwp_spec = LwpSpec::from_platform(&config.platform);
        let workers = (0..config.platform.worker_lwps())
            .map(|i| LwpCore::new(i + config.platform.system_lwps, lwp_spec))
            .collect();
        let mut energy = EnergyAccountant::new(config.power);
        energy.register_idle(Component::Lwp, config.platform.lwp_count);
        energy.register_idle(Component::Ddr3l, 1);
        energy.register_idle(Component::Fabric, 1);
        energy.register_idle(Component::FlashOrSsd, 1);
        energy.register_idle(Component::Pcie, 1);
        FlashAbacusSystem {
            flashvisor: Flashvisor::new(config),
            storengine: Storengine::new(config),
            workers,
            memory: MemorySystem::new(&config.platform),
            pcie: PcieLink::new(&config.platform),
            tier1: Crossbar::tier1(&config.platform),
            msgq: MessageQueue::new(&config.platform, 64),
            energy,
            compute_intervals: Vec::new(),
            gc_passes: 0,
            background: DeferredWorkQueue::new(),
            gc_campaign_active: false,
            power_loss: PowerLossClock::disarmed(),
            recoveries: 0,
            config,
        }
    }

    /// An alias of [`FlashAbacusSystem::new`], kept because the benchmark
    /// package (`perfbench/`) calls it by this name.
    #[doc(hidden)]
    pub fn without_env_faults(config: FlashAbacusConfig) -> Self {
        Self::new(config)
    }

    /// Installs an injectable fault plan: per-channel fault state in the
    /// backbone, redo-record keeping in Flashvisor, and the power-loss
    /// clock here when the plan schedules one.
    pub fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.power_loss = PowerLossClock::new(plan.power_loss_ns.map(SimTime::from_ns));
        self.flashvisor.install_fault_plan(plan);
    }

    /// The power-loss clock (test and report surface).
    pub fn power_loss_clock(&self) -> &PowerLossClock {
        &self.power_loss
    }

    /// Crash/recovery cycles executed so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The system configuration.
    pub(crate) fn config(&self) -> &FlashAbacusConfig {
        &self.config
    }

    /// Access to Flashvisor (inspection in tests and ablations).
    pub fn flashvisor(&self) -> &Flashvisor {
        &self.flashvisor
    }

    /// Access to Storengine (inspection in tests and ablations).
    pub fn storengine(&self) -> &Storengine {
        &self.storengine
    }

    /// Runs an offloaded batch of applications to completion and returns
    /// the measured outcome.
    pub fn run(&mut self, apps: &[Application]) -> Result<RunOutcome, FaError> {
        if apps.is_empty() || apps.iter().all(|a| a.kernels.is_empty()) {
            return Err(FaError::InvalidWorkload(
                "no applications or kernels to run".into(),
            ));
        }

        // Phase 0: the input data already resides in the flash backbone.
        for app in apps {
            for kernel in &app.kernels {
                self.flashvisor.preload_range(
                    kernel.data_section.flash_base,
                    kernel.data_section.input_bytes,
                )?;
            }
        }

        // Phase 1: offload every kernel description table over PCIe.
        let (offload_times, offload_end) = self.offload(apps);

        // Phase 2: map data sections (range locks) and pre-compute per-screen
        // slices.
        let mut locks = Vec::new();
        for app in apps {
            for kernel in &app.kernels {
                let ds = kernel.data_section;
                if ds.input_bytes > 0 {
                    locks.push(self.flashvisor.map_section(
                        ds.flash_base,
                        ds.input_bytes,
                        LockMode::Read,
                        app.id.0,
                    )?);
                }
                if ds.output_bytes > 0 {
                    locks.push(self.flashvisor.map_section(
                        ds.flash_base + ds.input_bytes,
                        ds.output_bytes,
                        LockMode::Write,
                        app.id.0,
                    )?);
                }
            }
        }
        let slices = compute_screen_slices(apps);

        // Phase 3: schedule.
        let mut chain = ExecutionChain::new(apps);
        self.run_schedule(apps, &slices, &mut chain, &offload_times, offload_end)?;

        // Phase 4: release every mapping.
        for lock in locks {
            self.flashvisor.unmap_section(lock);
        }

        // Phase 5: collect metrics.
        Ok(self.build_outcome(apps, &chain, &offload_times))
    }

    /// Offloads every kernel description table over PCIe into DDR3L.
    /// Returns per-kernel offload completion times and the instant the last
    /// offload (plus the doorbell interrupt) lands.
    fn offload(&mut self, apps: &[Application]) -> (HashMap<(usize, usize), SimTime>, SimTime) {
        let mut times = HashMap::new();
        let mut cursor = SimTime::ZERO;
        for (ai, app) in apps.iter().enumerate() {
            for (ki, kernel) in app.kernels.iter().enumerate() {
                let kdt = KernelDescriptionTable::for_kernel(kernel);
                let bytes = kdt.offload_bytes();
                let pcie = self.pcie.dma(cursor, bytes);
                // The payload continues over the tier-1 crossbar into DDR3L.
                let xbar = self.tier1.transfer(pcie.end, bytes);
                let ddr = self.memory.ddr3l.transfer(xbar.end, bytes);
                self.energy.record(
                    Component::Pcie,
                    ActivityCategory::DataMovement,
                    pcie.start,
                    pcie.end,
                );
                self.energy.record(
                    Component::Ddr3l,
                    ActivityCategory::DataMovement,
                    ddr.start,
                    ddr.end,
                );
                times.insert((ai, ki), ddr.end);
                cursor = pcie.end;
            }
        }
        let last = times.values().copied().max().unwrap_or(SimTime::ZERO);
        // Doorbell interrupt to Flashvisor.
        let ready = self.pcie.doorbell(last);
        (times, ready)
    }

    /// Reads a screen's input slice from flash into DDR3L and returns when
    /// the data is ready for the LWP.
    pub(crate) fn stage_input(
        &mut self,
        now: SimTime,
        flash_base: u64,
        slice: &ScreenSlice,
    ) -> Result<SimTime, FaError> {
        if slice.input_len == 0 {
            return Ok(now);
        }
        let t = self.flashvisor.read_section(
            now,
            flash_base + slice.input_start,
            slice.input_len,
            &mut self.memory.scratchpad,
        )?;
        // Pages land in DDR3L through the tier-1 crossbar. Device-active
        // energy for the backbone and DDR3L is charged once at the end of
        // the run from their measured utilization (concurrent stagings
        // share the same devices, so per-request charging would double
        // count).
        let xbar = self.tier1.transfer(t.finished, slice.input_len);
        let ddr = self.memory.ddr3l.transfer(xbar.end, slice.input_len);
        Ok(ddr.end)
    }

    /// Writes a screen's output slice back to flash. With buffered writes
    /// (the prototype default) the caller does not wait for the returned
    /// completion; the flash programs still happen (and are charged) in the
    /// background.
    pub(crate) fn flush_output(
        &mut self,
        now: SimTime,
        flash_base: u64,
        slice: &ScreenSlice,
    ) -> Result<SimTime, FaError> {
        if slice.output_len == 0 {
            return Ok(now);
        }
        let ddr = self.memory.ddr3l.transfer(now, slice.output_len);
        let t = self.flashvisor.write_section(
            ddr.end,
            flash_base + slice.output_start,
            slice.output_len,
            &mut self.memory.scratchpad,
        )?;
        if self.config.qos.background_gc {
            self.schedule_background_storage(t.finished)?;
        } else {
            self.run_background_storage(t.finished)?;
        }
        if self.config.buffered_writes {
            Ok(ddr.end)
        } else {
            Ok(t.finished)
        }
    }

    /// Storengine housekeeping, synchronous mode: periodic journaling plus
    /// watermark-driven garbage collection, executed in full at the flush
    /// instant (the seed behaviour, and the `background_gc=false` default).
    fn run_background_storage(&mut self, now: SimTime) -> Result<(), FaError> {
        if self.storengine.journal_due(now) {
            match self.storengine.journal(now, &mut self.flashvisor) {
                Ok(_) => {}
                // A failed dump stays volatile and is retried next period.
                Err(e) if is_injected_fault(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let mut guard = 0;
        while self.storengine.gc_needed(&self.flashvisor) && guard < 64 {
            let out = match self.storengine.collect_garbage(now, &mut self.flashvisor) {
                Ok(out) => out,
                // A pass that hit an injected failure retires what it
                // flushed out and the campaign tries the next victim.
                Err(e) if is_injected_fault(&e) => {
                    self.flashvisor.process_retirements(now)?;
                    guard += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            self.gc_passes += 1;
            guard += 1;
            if out.groups_reclaimed == 0 && self.flashvisor.available_groups() == 0 {
                return Err(FaError::OutOfFlashSpace {
                    requested: 1,
                    available: 0,
                });
            }
        }
        if self.flashvisor.fault_plan().is_some() {
            self.flashvisor.process_retirements(now)?;
        }
        Ok(())
    }

    /// Storengine housekeeping, background mode: journaling stays a cheap
    /// synchronous metadata dump, but a tripped GC watermark *schedules* a
    /// reclamation campaign as deferred events instead of running it here —
    /// the passes then interleave with foreground screens in the dispatch
    /// loop and contend for the channels under the `Gc` owner.
    fn schedule_background_storage(&mut self, now: SimTime) -> Result<(), FaError> {
        if self.storengine.journal_due(now) {
            match self.storengine.journal(now, &mut self.flashvisor) {
                Ok(_) => {}
                Err(e) if is_injected_fault(&e) => {}
                Err(e) => return Err(e),
            }
        }
        if self.flashvisor.fault_plan().is_some() {
            self.flashvisor.process_retirements(now)?;
        }
        if !self.gc_campaign_active && self.storengine.gc_needed(&self.flashvisor) {
            // Same campaign bound as the synchronous guard (64 passes per
            // triggering flush).
            self.background
                .push(now, StorageTask::GcPass { remaining: 64 });
            self.gc_campaign_active = true;
        }
        Ok(())
    }

    /// Executes one deferred storage task at its scheduled instant and, for
    /// GC, keeps the campaign going while the watermark stays tripped.
    fn run_storage_task(&mut self, at: SimTime, task: StorageTask) -> Result<(), FaError> {
        match task {
            StorageTask::GcPass { remaining } => {
                // Mirror the synchronous loop's `while gc_needed` guard:
                // foreground reclamation (overwrite releases, journal
                // drains) may have refilled the pool since this pass was
                // scheduled, and then the pass must not run at all.
                if !self.storengine.gc_needed(&self.flashvisor) {
                    self.gc_campaign_active = false;
                    return Ok(());
                }
                let plan = self.storengine.plan_gc(at, &self.flashvisor);
                let progress = self.storengine.begin_gc_pass(at);
                self.advance_gc_pass(plan, progress, remaining)
            }
            StorageTask::GcSlice {
                plan,
                progress,
                remaining,
            } => self.advance_gc_pass(plan, progress, remaining),
        }
    }

    /// Runs one deferred storage task, absorbing injected media failures:
    /// the interrupted campaign ends (its plan may reference blocks the
    /// failure condemned), the bad blocks are retired, and the next flush
    /// re-evaluates the watermark to start a fresh campaign.
    pub(crate) fn run_storage_task_tolerant(
        &mut self,
        at: SimTime,
        task: StorageTask,
    ) -> Result<(), FaError> {
        match self.run_storage_task(at, task) {
            Ok(()) => Ok(()),
            Err(e) if is_injected_fault(&e) => {
                self.gc_campaign_active = false;
                self.flashvisor.process_retirements(at)?;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Polls the power-loss clock at `now`; when it trips, runs the crash
    /// protocol: a final supercap-backed journal dump persists the redo
    /// records accumulated since the last periodic dump, volatile state is
    /// lost (pending background campaigns die with the power), and the
    /// mapping is rebuilt by journal replay before the run continues — the
    /// restart-after-power-loss experiment inside one simulated timeline.
    pub(crate) fn maybe_power_loss(&mut self, now: SimTime) -> Result<(), FaError> {
        if !self.power_loss.check(now) {
            return Ok(());
        }
        match self.storengine.journal(now, &mut self.flashvisor) {
            Ok(_) => {}
            // The supercap dump itself hit an injected failure: its redo
            // records stay unpersisted and are lost below, exactly what a
            // real crash would lose.
            Err(e) if is_injected_fault(&e) => {}
            Err(e) => return Err(e),
        }
        self.background = DeferredWorkQueue::new();
        self.gc_campaign_active = false;
        self.flashvisor.recover();
        self.recoveries += 1;
        Ok(())
    }

    /// Migrates the next budget-bounded slice of a background pass. An
    /// unfinished pass re-defers itself to the instant its slice's traffic
    /// completes; a finished pass erases/reclaims its row and schedules
    /// the campaign's next pass while the watermark stays tripped.
    fn advance_gc_pass(
        &mut self,
        plan: GcPlan,
        mut progress: GcPassProgress,
        remaining: u32,
    ) -> Result<(), FaError> {
        let slice = self
            .config
            .qos
            .gc_budget
            .map(|b| b.max(1))
            .unwrap_or(usize::MAX);
        self.storengine
            .migrate_gc_groups(&mut self.flashvisor, &plan, &mut progress, slice)?;
        if progress.next_victim < plan.victims.len() {
            self.background.push(
                progress.finished,
                StorageTask::GcSlice {
                    plan,
                    progress,
                    remaining,
                },
            );
            return Ok(());
        }
        let out = self
            .storengine
            .finish_gc_pass(&mut self.flashvisor, &plan, &progress)?;
        self.gc_passes += 1;
        if out.groups_reclaimed == 0 && self.flashvisor.available_groups() == 0 {
            return Err(FaError::OutOfFlashSpace {
                requested: 1,
                available: 0,
            });
        }
        if remaining > 1 && self.storengine.gc_needed(&self.flashvisor) {
            self.background.push(
                out.finished,
                StorageTask::GcPass {
                    remaining: remaining - 1,
                },
            );
        } else {
            self.gc_campaign_active = false;
        }
        Ok(())
    }

    /// Executes one screen on a worker LWP: optional IPC dispatch cost,
    /// input staging, compute. Output write-back is *not* performed here —
    /// the caller flushes at retire time so shared resources always see
    /// requests in non-decreasing simulated-time order.
    fn execute_screen(
        &mut self,
        apps: &[Application],
        slices: &HashMap<ScreenRef, ScreenSlice>,
        sref: ScreenRef,
        worker: usize,
        dispatch_at: SimTime,
        charge_ipc: bool,
    ) -> Result<SimTime, FaError> {
        let kernel = &apps[sref.app].kernels[sref.kernel];
        let screen = &kernel.microblocks[sref.microblock].screens[sref.screen];
        let slice = slices
            .get(&sref)
            .copied()
            .expect("every screen has a slice");

        // Dispatch overhead: a scheduling decision on Flashvisor plus a
        // message-queue hop to the worker.
        let dispatched = if charge_ipc {
            let decided = self.flashvisor.charge_scheduling_decision(dispatch_at);
            self.msgq.send(decided)
        } else {
            dispatch_at
        };

        // Stage the screen's input from flash.
        let data_ready = self.stage_input(dispatched, kernel.data_section.flash_base, &slice)?;

        // Compute on the worker.
        let est = self.workers[worker].estimate(&screen.mix, screen.bytes_touched());
        let start = data_ready.max(self.workers[worker].next_free());
        let res = self.workers[worker].execute(start, &est);
        self.energy.record(
            Component::Lwp,
            ActivityCategory::Computation,
            res.start,
            res.end,
        );
        let spec = *self.workers[worker].spec();
        self.compute_intervals.push(ComputeInterval {
            start: res.start,
            end: res.end,
            busy_fus: est.occupancy.mean_busy_fus(&spec, est.cycles),
        });
        Ok(res.end)
    }

    /// Picks the screen an idle worker should run next under the configured
    /// policy, together with whether the dispatch must pay kernel-boot and
    /// IPC costs. Returns `None` when this worker has nothing to do right
    /// now. Every arm is a frontier lookup on the chain — no policy rescans
    /// the batch, so a whole schedule of S screens does O(S) frontier work.
    #[allow(clippy::too_many_arguments)]
    fn pick_screen(
        &self,
        worker: usize,
        chain: &ExecutionChain,
        kernel_list: &[crate::scheduler::KernelRef],
        kernel_taken: &mut [bool],
        worker_state: &mut [WorkerState],
        template_of_app: &[usize],
    ) -> Option<(ScreenRef, bool)> {
        match self.config.scheduler {
            SchedulerPolicy::IntraIo | SchedulerPolicy::IntraO3 => {
                intra_next_ready(self.config.scheduler, chain).map(|s| (s, true))
            }
            SchedulerPolicy::InterSt | SchedulerPolicy::InterDy => {
                // Continue the worker's current kernel if it still has work.
                if let Some(kidx) = worker_state[worker].current_kernel {
                    let kref = kernel_list[kidx];
                    if chain.kernel_completion(kref.app, kref.kernel).is_none() {
                        // The kernel runs as a single instruction stream: no
                        // per-screen IPC once the kernel is bootstrapped.
                        return chain
                            .next_ready_of_kernel(kref.app, kref.kernel)
                            .map(|s| (s, false));
                    }
                }
                // Otherwise adopt the next unstarted kernel this worker may
                // take: any kernel (InterDy) or only kernels whose
                // application number maps to this worker (InterSt). The
                // "application number" is the number of the *application*,
                // not of the instance: every instance of the same benchmark
                // shares it, which is exactly why the static policy piles
                // homogeneous batches onto one LWP (§4.1, §5.1).
                let workers = worker_state.len();
                for (kidx, kref) in kernel_list.iter().enumerate() {
                    if kernel_taken[kidx] {
                        continue;
                    }
                    if self.config.scheduler == SchedulerPolicy::InterSt
                        && static_assignment(template_of_app[kref.app], workers) != worker
                    {
                        continue;
                    }
                    kernel_taken[kidx] = true;
                    worker_state[worker].current_kernel = Some(kidx);
                    // A freshly adopted kernel pays boot + IPC.
                    return chain
                        .next_ready_of_kernel(kref.app, kref.kernel)
                        .map(|s| (s, true));
                }
                None
            }
        }
    }

    /// The unified, completion-ordered dispatch loop driving all four
    /// policies.
    fn run_schedule(
        &mut self,
        apps: &[Application],
        slices: &HashMap<ScreenRef, ScreenSlice>,
        chain: &mut ExecutionChain,
        offload_times: &HashMap<(usize, usize), SimTime>,
        offload_end: SimTime,
    ) -> Result<(), FaError> {
        let worker_count = self.workers.len();
        let kernel_list = all_kernels(apps);
        let mut kernel_taken = vec![false; kernel_list.len()];
        // Map each application instance to its template ("application
        // number"): the first instance of every distinct benchmark defines
        // the number, all later instances of the same benchmark share it.
        let template_of_app: Vec<usize> = {
            let mut seen: Vec<&str> = Vec::new();
            apps.iter()
                .map(|a| {
                    if let Some(pos) = seen.iter().position(|n| *n == a.name) {
                        pos
                    } else {
                        seen.push(&a.name);
                        seen.len() - 1
                    }
                })
                .collect()
        };
        // Output flushes deferred until the batch completes (the DDR3L
        // write buffer absorbs them during execution, §2.2).
        let mut deferred_flushes: Vec<(u64, ScreenSlice)> = Vec::new();
        let mut worker_state = vec![
            WorkerState {
                free_at: offload_end,
                in_flight: 0,
                booted: false,
                current_kernel: None,
            };
            worker_count
        ];
        // At most WORKER_QUEUE_DEPTH screens are in flight per worker, so
        // the completion heap never outgrows this pre-sized allocation.
        let mut completions: BinaryHeap<Completion> =
            BinaryHeap::with_capacity(worker_count * WORKER_QUEUE_DEPTH + 1);
        // The retire frontier: dispatches (and therefore resource
        // reservations) never go backwards past this point, which keeps the
        // FIFO resource models causal.
        let mut frontier = offload_end;

        loop {
            if chain.is_complete() {
                break;
            }

            // Dispatch phase: give every worker with a free queue slot
            // (fewest-in-flight, earliest-free first) one screen if the
            // policy has one for it, repeating until no such worker can be
            // matched with a ready screen. The second slot prefetches the
            // next screen's input while the first computes.
            loop {
                let mut available: Vec<usize> = (0..worker_count)
                    .filter(|w| worker_state[*w].in_flight < WORKER_QUEUE_DEPTH)
                    .collect();
                available
                    .sort_by_key(|w| (worker_state[*w].in_flight, worker_state[*w].free_at, *w));
                let mut dispatched = false;
                for worker in available {
                    let picked = self.pick_screen(
                        worker,
                        chain,
                        &kernel_list,
                        &mut kernel_taken,
                        &mut worker_state,
                        &template_of_app,
                    );
                    let Some((sref, needs_ipc)) = picked else {
                        continue;
                    };
                    chain.mark_running(sref, worker);
                    // A screen may not start before its kernel was offloaded,
                    // and dispatches never precede the retire frontier.
                    let kernel_offloaded = offload_times
                        .get(&(sref.app, sref.kernel))
                        .copied()
                        .unwrap_or(offload_end);
                    let mut dispatch_at = frontier.max(kernel_offloaded);
                    if needs_ipc && !worker_state[worker].booted {
                        // First use of the worker: PSC sleep/boot sequence.
                        dispatch_at = self.workers[worker].boot_kernel(dispatch_at);
                        worker_state[worker].booted = true;
                    }
                    let end =
                        self.execute_screen(apps, slices, sref, worker, dispatch_at, needs_ipc)?;
                    worker_state[worker].in_flight += 1;
                    completions.push(Completion {
                        end,
                        screen: sref,
                        worker,
                    });
                    dispatched = true;
                    // The ready set changed; rebuild the availability list.
                    break;
                }
                if !dispatched {
                    break;
                }
            }

            // Background storage phase: a deferred Storengine pass whose
            // start precedes the next foreground completion executes now,
            // so its channel traffic is in place when later foreground
            // reads arrive — GC genuinely contends instead of happening
            // atomically between screens. Foreground wins ties.
            let background_due = match (completions.peek(), self.background.peek_time()) {
                (Some(c), Some(t)) => t < c.end,
                (None, Some(_)) => true,
                _ => false,
            };
            if background_due {
                let (at, task) = self
                    .background
                    .pop()
                    .expect("peeked background task vanished");
                self.run_storage_task_tolerant(at, task)?;
                self.maybe_power_loss(at)?;
                continue;
            }

            // Retire phase: the earliest completion frees its worker and
            // unlocks successor microblocks. When the completion finishes a
            // kernel, the kernel's whole output region (accumulated in the
            // DDR3L write buffer during execution, §2.2) is flushed to flash
            // in one log-structured write.
            match completions.pop() {
                Some(c) => {
                    let kernel = &apps[c.screen.app].kernels[c.screen.kernel];
                    // The retiring screen is the last incomplete one of its
                    // kernel exactly when one screen remains (itself) — an
                    // O(1) counter lookup, not a per-retire kernel scan.
                    let finishes_kernel =
                        chain.kernel_screens_remaining(c.screen.app, c.screen.kernel) == 1;
                    let output_slice = ScreenSlice {
                        input_start: 0,
                        input_len: 0,
                        output_start: kernel.data_section.input_bytes,
                        output_len: kernel.data_section.output_bytes,
                    };
                    let done_at = if finishes_kernel && kernel.data_section.output_bytes > 0 {
                        if self.config.buffered_writes {
                            // The DDR3L write buffer holds the output; the
                            // flash programs happen once the batch is done so
                            // they do not block other kernels' reads.
                            deferred_flushes.push((kernel.data_section.flash_base, output_slice));
                            c.end
                        } else {
                            self.flush_output(c.end, kernel.data_section.flash_base, &output_slice)?
                        }
                    } else {
                        c.end
                    };
                    chain.mark_done(c.screen, done_at);
                    worker_state[c.worker].in_flight =
                        worker_state[c.worker].in_flight.saturating_sub(1);
                    worker_state[c.worker].free_at = done_at.max(worker_state[c.worker].free_at);
                    frontier = frontier.max(c.end);
                    self.maybe_power_loss(c.end)?;
                }
                None => {
                    return Err(FaError::SchedulerStalled(format!(
                        "{} screens completed of {}",
                        chain.completed_screens(),
                        chain.total_screens()
                    )));
                }
            }
        }
        // Drain the DDR3L write buffer: all deferred output regions are now
        // written back log-structured.
        for (flash_base, slice) in deferred_flushes {
            self.flush_output(frontier, flash_base, &slice)?;
        }
        // Run any remaining background storage campaigns to quiescence (in
        // simulated time; nothing left contends with them).
        while let Some((at, task)) = self.background.pop() {
            self.run_storage_task_tolerant(at, task)?;
            self.maybe_power_loss(at)?;
        }
        // A power-loss armed past the end of all activity still fires
        // before the run reports: the crash experiment must not silently
        // degenerate into a fault-free run because the workload was short.
        if self.power_loss.armed() {
            let at = self.power_loss.at().expect("armed clock has an instant");
            self.maybe_power_loss(frontier.max(at))?;
        }
        Ok(())
    }

    /// Builds the [`RunOutcome`] once the chain has completed.
    fn build_outcome(
        &mut self,
        apps: &[Application],
        chain: &ExecutionChain,
        offload_times: &HashMap<(usize, usize), SimTime>,
    ) -> RunOutcome {
        let mut kernel_latencies = Vec::new();
        let mut finished_at = SimTime::ZERO;
        for (ai, app) in apps.iter().enumerate() {
            for (ki, _) in app.kernels.iter().enumerate() {
                let completed = chain
                    .kernel_completion(ai, ki)
                    .expect("chain complete implies every kernel completed");
                finished_at = finished_at.max(completed);
                kernel_latencies.push(KernelLatency {
                    app_name: app.name.clone(),
                    app_index: ai,
                    kernel_index: ki,
                    offloaded_at: offload_times
                        .get(&(ai, ki))
                        .copied()
                        .unwrap_or(SimTime::ZERO),
                    completed_at: completed,
                });
            }
        }
        let bytes_processed: u64 = apps.iter().map(Application::flash_bytes).sum();
        self.collect_common_outcome(finished_at, kernel_latencies, bytes_processed)
    }

    /// The workload-independent tail of outcome collection: charges the
    /// run's device-active and storage-stack energy, builds the timelines,
    /// and projects the per-owner flash statistics. Shared by the
    /// closed-loop batch driver and the open-loop traffic engine
    /// (`openloop.rs`), which overrides the tenant fields afterwards.
    pub(crate) fn collect_common_outcome(
        &mut self,
        finished_at: SimTime,
        kernel_latencies: Vec<KernelLatency>,
        bytes_processed: u64,
    ) -> RunOutcome {
        // Device-active energy of the flash backbone and DDR3L, charged
        // proportionally to their measured activity over the run.
        let flash_activity = self.flashvisor.backbone().activity_factor(finished_at);
        self.energy.record_scaled(
            Component::FlashOrSsd,
            ActivityCategory::StorageAccess,
            SimTime::ZERO,
            finished_at,
            flash_activity,
        );
        let ddr_activity = self.memory.ddr3l.utilization(finished_at);
        self.energy.record_scaled(
            Component::Ddr3l,
            ActivityCategory::StorageAccess,
            SimTime::ZERO,
            finished_at,
            ddr_activity,
        );

        // Flashvisor and Storengine busy time is part of the accelerator's
        // storage-access energy (their work exists to serve storage).
        let fv_busy = self.flashvisor.cpu_busy_time();
        let se_busy = self.storengine.cpu_busy_time();
        self.energy.record(
            Component::Lwp,
            ActivityCategory::StorageAccess,
            SimTime::ZERO,
            SimTime::ZERO + fv_busy,
        );
        self.energy.record(
            Component::Lwp,
            ActivityCategory::StorageAccess,
            SimTime::ZERO,
            SimTime::ZERO + se_busy,
        );

        // Fold background power into the paper's three categories: there is
        // no host in the loop, so PCIe idles count as data movement, the
        // LWPs/DDR3L/fabric as computation, and the flash backbone as
        // storage access.
        let power = &self.config.power;
        let accel_idle_w =
            self.config.platform.lwp_count as f64 * power.lwp_idle_w + power.ddr3l_idle_w + 0.05;
        let breakdown = self.energy.breakdown(finished_at).with_idle_redistributed(
            0.02,
            accel_idle_w,
            power.flash_idle_w,
        );
        let bucket = timeline_bucket(finished_at);
        let power_timeline = self.energy.power_timeline(finished_at, bucket);
        // Busy functional units over time (Figure 15a); a run that never
        // ran has no FU timeline.
        let fu_timeline = if finished_at == SimTime::ZERO {
            TimeSeries::new()
        } else {
            let busy = self
                .compute_intervals
                .iter()
                .map(|iv| (iv.start, iv.end, iv.busy_fus));
            bucketed(finished_at, bucket, 0.0, busy)
        };

        // Per-owner flash traffic and read tails, in deterministic owner
        // order (kernels ascending, then GC, journal, unattributed).
        let backbone = self.flashvisor.backbone();
        let flash_owner_stats = backbone
            .owner_read_tails()
            .map(|(owner, s, tail)| {
                let tail = tail.unwrap_or_default();
                OwnerFlashStats {
                    owner: owner.label(),
                    reads: s.reads,
                    programs: s.programs,
                    erases: s.erases,
                    bytes: s.bytes,
                    read_p50_s: tail.p50.as_secs_f64(),
                    read_p99_s: tail.p99.as_secs_f64(),
                    read_max_s: tail.max.as_secs_f64(),
                    peak_channel_tags: s.peak_tags,
                }
            })
            .collect();
        let foreground_read_p99_s = backbone
            .foreground_read_latency_quantile(0.99)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);

        // Endurance: erase-cycle spread over the data blocks, and GC's
        // migration efficiency.
        let wear = self.flashvisor.data_block_wear();
        let se_stats = self.storengine.stats();
        let reclaimed_bytes = se_stats.groups_reclaimed * self.config.page_group_bytes;
        let gc_migrated_bytes_per_reclaimed_byte = if reclaimed_bytes == 0 {
            0.0
        } else {
            (se_stats.pages_migrated * self.config.flash_geometry.page_bytes as u64) as f64
                / reclaimed_bytes as f64
        };
        let fv_stats = self.flashvisor.stats();

        RunOutcome {
            scheduler: self.config.scheduler,
            finished_at,
            kernel_latencies,
            bytes_processed,
            energy: EnergySummary { breakdown },
            worker_utilization: self
                .workers
                .iter()
                .map(|w| w.utilization(finished_at))
                .collect(),
            flashvisor_utilization: self.flashvisor.cpu_utilization(finished_at),
            storengine_utilization: self.storengine.cpu_utilization(finished_at),
            fu_timeline,
            power_timeline,
            flash_group_reads: self.flashvisor.stats().group_reads,
            flash_group_writes: self.flashvisor.stats().group_writes,
            gc_passes: self.gc_passes,
            journal_dumps: self.storengine.stats().journal_dumps,
            flash_owner_stats,
            foreground_read_p99_s,
            wear_min_erases: wear.min_erases,
            wear_max_erases: wear.max_erases,
            wear_stddev_erases: wear.stddev_erases,
            gc_migrated_bytes_per_reclaimed_byte,
            hot_group_writes: fv_stats.hot_group_writes,
            cold_group_writes: fv_stats.cold_group_writes,
            hot_steer_rate: fv_stats.hot_steer_rate(),
            tenants_arrived: 0,
            tenants_admitted: 0,
            tenants_queued: 0,
            tenants_shed: 0,
            tenant_sojourn_p50_s: 0.0,
            tenant_sojourn_p99_s: 0.0,
            tenant_sojourn_p999_s: 0.0,
            tenant_fairness_index: 0.0,
            governor_updates: 0,
        }
    }
}

/// Assigns each screen its slice of the kernel's input and output regions.
/// Slices are laid out in (microblock, screen) order, which mirrors how the
/// input vectors are partitioned across screens in the paper's FDTD example
/// (Figure 6b).
fn compute_screen_slices(apps: &[Application]) -> HashMap<ScreenRef, ScreenSlice> {
    let mut map = HashMap::new();
    for (ai, app) in apps.iter().enumerate() {
        for (ki, kernel) in app.kernels.iter().enumerate() {
            let mut in_cursor = 0u64;
            let mut out_cursor = kernel.data_section.input_bytes;
            for (mi, mblock) in kernel.microblocks.iter().enumerate() {
                for (si, screen) in mblock.screens.iter().enumerate() {
                    let sref = ScreenRef {
                        app: ai,
                        kernel: ki,
                        microblock: mi,
                        screen: si,
                    };
                    // Clamp so rounding in the workload builders can never
                    // walk outside the data section.
                    let input_len = screen
                        .input_bytes
                        .min(kernel.data_section.input_bytes.saturating_sub(in_cursor));
                    let output_len = screen.output_bytes.min(
                        (kernel.data_section.input_bytes + kernel.data_section.output_bytes)
                            .saturating_sub(out_cursor),
                    );
                    map.insert(
                        sref,
                        ScreenSlice {
                            input_start: in_cursor,
                            input_len,
                            output_start: out_cursor,
                            output_len,
                        },
                    );
                    in_cursor += input_len;
                    out_cursor += output_len;
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_flash::OwnerId;
    use fa_kernel::instance::{instantiate_many, InstancePlan};
    use fa_sim::time::SimDuration;
    use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};

    fn small_workload(instances: usize, serial_fraction: f64) -> Vec<Application> {
        let template = synthetic_app(
            "unit",
            &SyntheticSpec {
                instructions: 400_000,
                serial_fraction,
                input_bytes: 256 * 1024,
                output_bytes: 32 * 1024,
                ldst_ratio: 0.4,
                mul_ratio: 0.1,
                parallel_screens: 4,
            },
        );
        instantiate_many(
            &[template],
            &InstancePlan {
                instances_per_app: instances,
                ..Default::default()
            },
        )
    }

    fn run(policy: SchedulerPolicy, apps: &[Application]) -> RunOutcome {
        let mut system = FlashAbacusSystem::new(FlashAbacusConfig::tiny_for_tests(policy));
        system.run(apps).expect("run completes")
    }

    #[test]
    fn all_policies_complete_and_report_consistent_metrics() {
        let apps = small_workload(3, 0.2);
        for policy in SchedulerPolicy::all() {
            let out = run(policy, &apps);
            assert_eq!(out.kernel_latencies.len(), 3, "{policy:?}");
            assert!(out.finished_at > SimTime::ZERO);
            assert!(out.throughput_mb_s() > 0.0);
            assert!(out.bytes_processed > 0);
            assert_eq!(out.worker_utilization.len(), 6);
            assert!(out.energy.total_j() > 0.0);
            assert!(out.flash_group_reads > 0, "{policy:?} read no data");
            // Every kernel completes no earlier than it was offloaded.
            for k in &out.kernel_latencies {
                assert!(k.completed_at >= k.offloaded_at);
            }
        }
    }

    #[test]
    fn dynamic_inter_kernel_beats_static_on_imbalanced_batches() {
        // Static pins every instance of the same application index to the
        // same worker when app indices collide modulo the worker count;
        // with 7 instances one worker gets two kernels while others idle.
        let apps = small_workload(7, 0.0);
        let st = run(SchedulerPolicy::InterSt, &apps);
        let dy = run(SchedulerPolicy::InterDy, &apps);
        assert!(
            dy.finished_at <= st.finished_at,
            "InterDy {:?} should not be slower than InterSt {:?}",
            dy.finished_at,
            st.finished_at
        );
    }

    #[test]
    fn out_of_order_tolerates_serial_microblocks_better_than_in_order() {
        // A workload whose kernels are half serial: in-order intra-kernel
        // scheduling leaves workers idle during every serial microblock,
        // while out-of-order borrows screens from other instances.
        let apps = small_workload(6, 0.5);
        let io = run(SchedulerPolicy::IntraIo, &apps);
        let o3 = run(SchedulerPolicy::IntraO3, &apps);
        assert!(
            o3.finished_at < io.finished_at,
            "IntraO3 {:?} should beat IntraIo {:?}",
            o3.finished_at,
            io.finished_at
        );
        assert!(o3.mean_worker_utilization() >= io.mean_worker_utilization());
    }

    #[test]
    fn intra_scheduling_shortens_single_kernel_latency_versus_inter() {
        // One compute-heavy kernel: inter-kernel policies execute it on a
        // single LWP, intra-kernel policies spread its screens over all six
        // workers.
        let template = synthetic_app(
            "wide",
            &SyntheticSpec {
                instructions: 6_000_000,
                serial_fraction: 0.0,
                input_bytes: 128 * 1024,
                output_bytes: 16 * 1024,
                ldst_ratio: 0.3,
                mul_ratio: 0.1,
                parallel_screens: 6,
            },
        );
        let apps = instantiate_many(
            &[template],
            &InstancePlan {
                instances_per_app: 1,
                ..Default::default()
            },
        );
        let inter = run(SchedulerPolicy::InterDy, &apps);
        let intra = run(SchedulerPolicy::IntraO3, &apps);
        let (_, inter_avg, _) = inter.latency_stats();
        let (_, intra_avg, _) = intra.latency_stats();
        assert!(
            intra_avg < inter_avg,
            "intra {intra_avg} should beat inter {inter_avg}"
        );
    }

    /// A config whose flash is small enough that the test workload trips
    /// the GC watermark mid-run, with unbuffered writes so flushes (and
    /// therefore storage management) overlap remaining foreground screens.
    /// Journaling is quiesced so its background traffic does not muddy
    /// what this config isolates: GC-vs-foreground channel contention.
    /// (The journal's metadata row is reserved in the allocator now, so
    /// the old cursor-collision hazard is gone either way.)
    fn gc_pressure_config(policy: SchedulerPolicy) -> FlashAbacusConfig {
        let mut config = FlashAbacusConfig::tiny_for_tests(policy);
        config.flash_geometry.blocks_per_plane = 16; // 4 MiB, 512 groups
                                                     // The 12-kernel workload keeps ~40% of the groups allocated; a
                                                     // watermark above that keeps Storengine reclaiming for the whole
                                                     // run, which is exactly the sustained contention the QoS tests
                                                     // need.
        config.gc_low_watermark = 0.65;
        config.buffered_writes = false;
        config.journal_interval = SimDuration::from_ms(10_000);
        config
    }

    /// Twelve small kernels over six workers: the first wave's flushes trip
    /// the watermark while the second wave still stages inputs, so GC
    /// migration traffic and foreground reads genuinely share the channels.
    fn gc_pressure_workload() -> Vec<Application> {
        let template = synthetic_app(
            "pressure",
            &SyntheticSpec {
                instructions: 400_000,
                serial_fraction: 0.0,
                input_bytes: 128 * 1024,
                output_bytes: 16 * 1024,
                ldst_ratio: 0.4,
                mul_ratio: 0.1,
                parallel_screens: 4,
            },
        );
        instantiate_many(
            &[template],
            &InstancePlan {
                instances_per_app: 12,
                ..Default::default()
            },
        )
    }

    #[test]
    fn background_gc_contends_and_completes() {
        let apps = gc_pressure_workload();
        let sync_config = gc_pressure_config(SchedulerPolicy::InterDy);
        let mut bg_config = sync_config;
        bg_config.qos.background_gc = true;
        let sync_out = FlashAbacusSystem::new(sync_config)
            .run(&apps)
            .expect("synchronous-GC run completes");
        let bg_out = FlashAbacusSystem::new(bg_config)
            .run(&apps)
            .expect("background-GC run completes");
        // The watermark tripped in both modes and GC traffic is owner-tagged.
        assert!(sync_out.gc_passes > 0, "watermark never tripped");
        assert!(bg_out.gc_passes > 0);
        let gc_row = bg_out
            .flash_owner_stats
            .iter()
            .find(|o| o.owner == "gc")
            .expect("gc owner appears in the stats");
        assert!(gc_row.programs > 0 && gc_row.erases > 0);
        // Foreground traffic is attributed to kernels, and both modes moved
        // the same foreground data.
        let fg_reads = |out: &RunOutcome| {
            out.flash_owner_stats
                .iter()
                .filter(|o| o.owner.starts_with("kernel"))
                .map(|o| o.reads)
                .sum::<u64>()
        };
        assert_eq!(fg_reads(&sync_out), fg_reads(&bg_out));
        assert!(bg_out.foreground_read_p99_s > 0.0);
    }

    #[test]
    fn gc_budget_improves_foreground_read_tail_under_contention() {
        // Background GC on in both runs; the only difference is the GC
        // stream's per-channel tag budget. Bounding GC's outstanding
        // commands must not hurt — and under contention should help — the
        // kernels' p99 read latency. Deterministic simulation makes this an
        // exact, repeatable comparison, which fig12's ablation and
        // BENCH_PR4.json record at larger scale.
        let apps = gc_pressure_workload();
        let mut unbudgeted = gc_pressure_config(SchedulerPolicy::InterDy);
        unbudgeted.qos.background_gc = true;
        let mut budgeted = unbudgeted;
        budgeted.qos.gc_budget = Some(1);
        let free_run = FlashAbacusSystem::new(unbudgeted)
            .run(&apps)
            .expect("unbudgeted run completes");
        let capped_run = FlashAbacusSystem::new(budgeted)
            .run(&apps)
            .expect("budgeted run completes");
        assert!(free_run.gc_passes > 0);
        assert!(
            capped_run.foreground_read_p99_s < free_run.foreground_read_p99_s,
            "budgeted p99 {} should beat unbudgeted p99 {}",
            capped_run.foreground_read_p99_s,
            free_run.foreground_read_p99_s
        );
        // The budget was actually enforced at the tag queues.
        let gc_peak = |out: &RunOutcome| {
            out.flash_owner_stats
                .iter()
                .find(|o| o.owner == "gc")
                .map(|o| o.peak_channel_tags)
                .unwrap_or(0)
        };
        assert!(gc_peak(&capped_run) <= 1);
        assert!(gc_peak(&free_run) >= gc_peak(&capped_run));
    }

    #[test]
    fn default_config_is_deterministic_with_owner_tagging() {
        // Owner tagging and the QoS stats collection are pure accounting
        // under the default config (budgets unlimited, synchronous GC):
        // two identical runs must agree bit for bit, including the new
        // latency quantiles. Equivalence to the recorded pre-QoS physics
        // is pinned separately by tests/results_golden.rs.
        let apps = small_workload(3, 0.2);
        let a = run(SchedulerPolicy::IntraO3, &apps);
        let b = run(SchedulerPolicy::IntraO3, &apps);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(
            a.foreground_read_p99_s.to_bits(),
            b.foreground_read_p99_s.to_bits()
        );
    }

    #[test]
    fn injected_faults_are_absorbed_and_reproducible() {
        // Acceptance: with a seeded fault plan, the same seed reproduces
        // the identical fault trace and end state twice. Two plans:
        //
        // * Write faults: light probabilistic faults plus a scripted pair
        //   of program failures on one block, so exactly that block is
        //   condemned (retire_after=2) and its row deterministically
        //   retires while the run still completes. Aggressive plans that
        //   retire a large slice of this deliberately tight config
        //   legitimately end in device death (OutOfFlashSpace), which the
        //   endurance bench exercises.
        // * Read-disturb: every section read retries disturbed pages and
        //   then relocates their groups, on a run with no GC pass — so
        //   every GC-owned program is a relocation.
        let write_faults = FaultPlan::parse(
            "seed=7,program=0.0002,erase=0.0001,retire_after=2,\
             script=program@c0.d0.b3.n1,script=program@c0.d0.b3.n2",
        )
        .unwrap();
        let read_disturb = FaultPlan::parse("seed=11,read_disturb=0.02").unwrap();
        #[derive(Debug, PartialEq)]
        struct FaultyRun {
            finished: SimTime,
            gc_passes: u64,
            gc_programs: u64,
            faults: fa_flash::FaultStats,
            retired: Vec<u64>,
            mapped: Vec<(u64, u64)>,
        }
        let run_faulty = |config: FlashAbacusConfig, apps: &[Application], plan: &FaultPlan| {
            let mut system = FlashAbacusSystem::new(config);
            system.install_fault_plan(Arc::new(plan.clone()));
            let out = system.run(apps).expect("faulty run completes");
            let flashvisor = system.flashvisor();
            FaultyRun {
                finished: out.finished_at,
                gc_passes: out.gc_passes,
                gc_programs: flashvisor
                    .backbone()
                    .owner_stats()
                    .get(&OwnerId::Gc)
                    .map_or(0, |s| s.programs),
                faults: flashvisor.backbone().fault_stats(),
                retired: flashvisor.retired_rows().to_vec(),
                mapped: flashvisor.mapped_groups().collect(),
            }
        };

        let apps = gc_pressure_workload();
        let config = gc_pressure_config(SchedulerPolicy::InterDy);
        let a = run_faulty(config, &apps, &write_faults);
        assert!(
            a.faults.injected_program_failures >= 2,
            "scripted faults missed"
        );
        assert!(
            a.retired.contains(&3),
            "scripted block row not retired: {:?}",
            a.retired
        );
        assert_eq!(a, run_faulty(config, &apps, &write_faults));

        let apps = small_workload(3, 0.2);
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        let a = run_faulty(config, &apps, &read_disturb);
        assert!(a.faults.read_disturbs > 0, "no read was disturbed");
        assert_eq!(a.gc_passes, 0, "GC ran, so relocations are not isolated");
        assert!(a.gc_programs > 0, "no disturbed group was relocated");
        assert_eq!(a, run_faulty(config, &apps, &read_disturb));
    }

    #[test]
    fn power_loss_recovery_preserves_the_logical_content_and_continues() {
        let apps = small_workload(3, 0.2);
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        let mut reference = FlashAbacusSystem::new(config);
        let ref_out = reference.run(&apps).expect("reference run completes");
        // Crash roughly mid-run: the supercap-backed final dump persists
        // every commit, recovery replays the journal, and the run finishes
        // with the same logical groups mapped as the fault-free reference.
        let crash_ns = ref_out.finished_at.as_ns() / 2;
        let plan = FaultPlan::parse(&format!("power_loss_ns={crash_ns}")).unwrap();
        let mut crashing = FlashAbacusSystem::new(config);
        crashing.install_fault_plan(Arc::new(plan));
        crashing.run(&apps).expect("crashing run completes");
        assert_eq!(crashing.recoveries(), 1);
        assert!(crashing.power_loss_clock().tripped());
        let logical = |s: &FlashAbacusSystem| {
            let mut v: Vec<u64> = s.flashvisor().mapped_groups().map(|(lg, _)| lg).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(logical(&reference), logical(&crashing));
    }

    #[test]
    fn empty_workload_is_rejected() {
        let mut system =
            FlashAbacusSystem::new(FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3));
        assert!(matches!(system.run(&[]), Err(FaError::InvalidWorkload(_))));
    }

    #[test]
    fn energy_breakdown_contains_compute_and_storage() {
        let apps = small_workload(2, 0.1);
        let out = run(SchedulerPolicy::IntraO3, &apps);
        assert!(out.energy.breakdown.computation_j > 0.0);
        assert!(out.energy.breakdown.storage_access_j > 0.0);
        // FlashAbacus has no host in the loop during execution, so data
        // movement is only the one-time PCIe offload — it must be a small
        // share of the total.
        let dm_fraction = out.energy.breakdown.data_movement_j / out.energy.total_j();
        assert!(dm_fraction < 0.25, "data movement fraction {dm_fraction}");
    }

    #[test]
    fn timelines_cover_the_run() {
        let apps = small_workload(2, 0.0);
        let out = run(SchedulerPolicy::IntraO3, &apps);
        assert!(!out.fu_timeline.is_empty());
        assert!(!out.power_timeline.is_empty());
        // Peak busy FU count cannot exceed 8 FUs × 6 workers.
        let peak = out
            .fu_timeline
            .points()
            .iter()
            .map(|p| p.1)
            .fold(0.0, f64::max);
        assert!(peak > 0.0 && peak <= 48.0, "peak {peak}");
    }

    #[test]
    fn completion_cdf_is_monotone() {
        let apps = small_workload(5, 0.3);
        let out = run(SchedulerPolicy::InterDy, &apps);
        let cdf = out.completion_cdf();
        assert_eq!(cdf.len(), 5);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 < pair[1].1);
        }
    }

    #[test]
    fn parallel_instances_overlap_on_workers() {
        // Six compute-heavy instances on six workers should finish far
        // sooner than six times a single instance's span under any parallel
        // policy.
        fn compute_heavy(instances: usize) -> Vec<Application> {
            let template = synthetic_app(
                "heavy",
                &SyntheticSpec {
                    instructions: 4_000_000,
                    serial_fraction: 0.0,
                    input_bytes: 128 * 1024,
                    output_bytes: 16 * 1024,
                    ldst_ratio: 0.35,
                    mul_ratio: 0.1,
                    parallel_screens: 1,
                },
            );
            instantiate_many(
                &[template],
                &InstancePlan {
                    instances_per_app: instances,
                    ..Default::default()
                },
            )
        }
        let one = run(SchedulerPolicy::InterDy, &compute_heavy(1));
        let six = run(SchedulerPolicy::InterDy, &compute_heavy(6));
        let one_exec = one
            .finished_at
            .saturating_since(one.kernel_latencies[0].offloaded_at);
        let six_exec = six
            .finished_at
            .saturating_since(six.kernel_latencies[0].offloaded_at);
        assert!(
            six_exec.as_ns() < one_exec.as_ns() * 4,
            "six instances took {six_exec} vs one instance {one_exec}"
        );
    }

    #[test]
    fn screen_slices_partition_the_data_section() {
        let apps = small_workload(1, 0.4);
        let slices = compute_screen_slices(&apps);
        let kernel = &apps[0].kernels[0];
        let total_in: u64 = slices.values().map(|s| s.input_len).sum();
        let total_out: u64 = slices.values().map(|s| s.output_len).sum();
        assert!(total_in <= kernel.data_section.input_bytes);
        assert!(total_in >= kernel.data_section.input_bytes - 64);
        assert!(total_out <= kernel.data_section.output_bytes);
        // Slices are disjoint within the input region.
        let mut ranges: Vec<(u64, u64)> = slices
            .values()
            .filter(|s| s.input_len > 0)
            .map(|s| (s.input_start, s.input_start + s.input_len))
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0);
        }
    }
}
