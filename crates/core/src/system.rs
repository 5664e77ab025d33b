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
//! "request at time t → completion at time t'" semantics, and one run
//! driver (`FlashAbacusSystem::drive`) pops every simulation event from
//! one queue in time order, so that every shared resource sees its
//! requests in non-decreasing simulated time (output write-back is
//! deferred to the retire step for the same reason). A closed-loop batch
//! and an open-loop campaign (`openloop.rs`) are two foregrounds of that
//! driver; deferred storage tasks share its queue. The ordering rules of
//! the multi-app execution chain are enforced by `fa_kernel::chain` and
//! violations panic, so scheduler bugs cannot silently produce wrong
//! timings.

use crate::config::FlashAbacusConfig;
use crate::error::FaError;
use crate::flashvisor::Flashvisor;
use crate::metrics::{OwnerFlashStats, RunOutcome};
use crate::rangelock::{LockId, LockMode};
use crate::scheduler::{
    all_kernels, intra_next_ready, static_assignment, KernelRef, SchedulerPolicy,
};
use crate::storengine::{GcPassProgress, GcPlan, Storengine};
use fa_energy::{ActivityCategory, Component, EnergyAccountant};
use fa_flash::{FaultPlan, FlashError};
use fa_kernel::chain::{ExecutionChain, ScreenRef};
use fa_kernel::descriptor::KernelDescriptionTable;
use fa_kernel::model::{Application, Kernel, Screen};
use fa_kernel::KernelLatency;
use fa_platform::lwp::{LwpCore, LwpSpec};
use fa_platform::mem::MemorySystem;
use fa_platform::noc::{Crossbar, MessageQueue, PcieLink};
use fa_sim::crash::PowerLossClock;
use fa_sim::event::EventQueue;
use fa_sim::time::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// An injected media failure is an event the storage stack absorbs
/// (remap, retire, retry) — never a reason to abort the run.
fn is_injected_fault(e: &FaError) -> bool {
    matches!(
        e,
        FaError::Flash(FlashError::InjectedProgramFailure(_) | FlashError::InjectedEraseFailure(_))
    )
}

/// Passes one GC campaign may run: the bound a tripped watermark puts on
/// the reclamation one flush starts.
const GC_CAMPAIGN_PASSES: u32 = 64;

/// One step of a GC campaign. Each step returns the next one and the
/// instant it is due. In background mode (`qos.background_gc`) that step
/// becomes a deferred event on the run driver's queue, so the campaign
/// contends with foreground traffic; in synchronous mode the flush that
/// started the campaign runs every step at once, at its own instant.
#[derive(Debug, Clone)]
pub(crate) enum StorageTask {
    /// Start a new Storengine reclamation pass. `remaining` counts this
    /// pass and those the campaign may still run after it.
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

impl ScreenSlice {
    /// A kernel's whole output region: what its completion flushes.
    pub(crate) fn kernel_output(kernel: &Kernel) -> ScreenSlice {
        ScreenSlice {
            input_start: 0,
            input_len: 0,
            output_start: kernel.data_section.input_bytes,
            output_len: kernel.data_section.output_bytes,
        }
    }
}

/// A simulation event on the run driver's one queue.
#[derive(Debug)]
pub(crate) enum Event {
    /// A closed-loop screen finished computing on worker `worker`.
    Screen { screen: ScreenRef, worker: usize },
    /// An open-loop tenant finished computing.
    Tenant(u32),
    /// The open-loop QoS governor's next tick.
    GovernorTick,
    /// The open-loop campaign's next arrival.
    Arrival,
    /// Deferred storage management, scheduled in recovery epoch `epoch`
    /// (the system's recovery count): a power loss ends the epoch, and
    /// every task still pending dies with the power.
    Storage { task: StorageTask, epoch: u64 },
}

/// The order of events due at one instant, from the variant order:
/// foreground events before storage tasks ("foreground wins ties");
/// closed-loop completions by ascending screen; open-loop completions by
/// tenant, then the governor tick, then the arrival. Storage tasks share
/// one rank, so they keep insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    Screen(ScreenRef),
    Tenant(u32),
    GovernorTick,
    Arrival,
    Storage,
}

impl Event {
    fn rank(&self) -> Rank {
        match self {
            Event::Screen { screen, .. } => Rank::Screen(*screen),
            Event::Tenant(tenant) => Rank::Tenant(*tenant),
            Event::GovernorTick => Rank::GovernorTick,
            Event::Arrival => Rank::Arrival,
            Event::Storage { .. } => Rank::Storage,
        }
    }
}

/// The foreground of a run: a closed-loop [`Batch`] or an open-loop
/// campaign (`openloop.rs`). The driver hands each foreground event to
/// `handle`, which also starts whatever work the event makes ready, and
/// calls `finish` once, when `done` first holds.
pub(crate) trait Foreground {
    /// True once the foreground can produce no further event.
    fn done(&self) -> bool;

    /// Handles one foreground event due at `at`.
    fn handle(
        &mut self,
        sys: &mut FlashAbacusSystem,
        at: SimTime,
        event: Event,
    ) -> Result<(), FaError>;

    /// Ends the foreground and returns the instant its activity ended.
    fn finish(&mut self, sys: &mut FlashAbacusSystem) -> Result<SimTime, FaError>;
}

/// Maximum screens in flight per worker: one executing plus one whose input
/// is being prefetched, so data transfers overlap execution (§5's
/// methodology notes that accelerator latency overlaps with DMA time).
const WORKER_QUEUE_DEPTH: usize = 2;

/// Per-worker scheduling state of a closed-loop batch.
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
    storengine: Storengine,
    pub(crate) workers: Vec<LwpCore>,
    memory: MemorySystem,
    pcie: PcieLink,
    tier1: Crossbar,
    pub(crate) msgq: MessageQueue,
    energy: EnergyAccountant,
    gc_passes: u64,
    /// The run driver's event queue: foreground events and deferred
    /// storage tasks (background-GC mode only).
    events: EventQueue<Event, Rank>,
    /// A background GC campaign is in flight: the watermark check at flush
    /// time must not start a second one.
    gc_campaign_active: bool,
    /// One-shot power-loss trigger, armed from the fault plan's
    /// `power_loss_ns`. Disarmed (and free) on fault-free runs.
    power_loss: PowerLossClock,
    /// Crash/recovery cycles executed so far; also the epoch that tags
    /// storage tasks.
    recoveries: u64,
    /// A run has started: the system simulates one run only.
    ran: bool,
}

impl FlashAbacusSystem {
    /// Builds a fault-free system from its configuration. The result
    /// depends on `config` alone; a fault plan is installed afterwards with
    /// [`FlashAbacusSystem::install_fault_plan`].
    pub fn new(config: FlashAbacusConfig) -> Self {
        let lwp_spec = LwpSpec::from_platform(&config.platform);
        let workers = vec![LwpCore::new(lwp_spec); config.platform.worker_lwps()];
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
            gc_passes: 0,
            events: EventQueue::new(),
            gc_campaign_active: false,
            power_loss: PowerLossClock::disarmed(),
            recoveries: 0,
            ran: false,
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
    /// the measured outcome. A system runs once; a second call fails.
    pub fn run(&mut self, apps: &[Application]) -> Result<RunOutcome, FaError> {
        if apps.is_empty() || apps.iter().all(|a| a.kernels.is_empty()) {
            return Err(FaError::InvalidWorkload(
                "no applications or kernels to run".into(),
            ));
        }
        self.begin_run()?;

        // Phase 1: offload every kernel description table over PCIe.
        let (offload_times, offload_end) = self.offload(apps);

        // Phase 2: the input data already resides in the flash backbone;
        // map the data sections (range locks).
        let mut locks = Vec::new();
        for app in apps {
            for kernel in &app.kernels {
                locks.extend(self.map_kernel(kernel, app.id.0)?.into_iter().flatten());
            }
        }

        // Phase 3: schedule.
        let mut batch = Batch::new(apps, self, offload_times, offload_end);
        batch.dispatch(self)?;
        self.drive(&mut batch)?;

        // Phase 4: release every mapping.
        for lock in locks {
            self.flashvisor.unmap_section(lock);
        }

        // Phase 5: collect metrics.
        Ok(self.build_outcome(apps, &batch.chain, &batch.offload_times))
    }

    /// Marks the system as run, or fails if it already has: a second run
    /// would start from the first one's clocks, counters and energy.
    pub(crate) fn begin_run(&mut self) -> Result<(), FaError> {
        if std::mem::replace(&mut self.ran, true) {
            return Err(FaError::InvalidWorkload(
                "this system has already run; build a new one for each run".into(),
            ));
        }
        Ok(())
    }

    /// Places a kernel's input in flash (preloading takes no simulated
    /// time) and maps its input and output sections under `owner`.
    /// Returns the locks of the non-empty sections.
    pub(crate) fn map_kernel(
        &mut self,
        kernel: &Kernel,
        owner: u32,
    ) -> Result<[Option<LockId>; 2], FaError> {
        let ds = kernel.data_section;
        self.flashvisor
            .preload_range(ds.flash_base, ds.input_bytes)?;
        let mut map = |start, len, mode| match len {
            0 => Ok(None),
            _ => self
                .flashvisor
                .map_section(start, len, mode, owner)
                .map(Some),
        };
        let input = map(ds.flash_base, ds.input_bytes, LockMode::Read)?;
        let output = map(
            ds.flash_base + ds.input_bytes,
            ds.output_bytes,
            LockMode::Write,
        )?;
        Ok([input, output])
    }

    /// Schedules `event` on the driver's queue at `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        self.events.push(at, event.rank(), event);
    }

    /// Schedules a storage task in the current recovery epoch.
    fn schedule_storage(&mut self, at: SimTime, task: StorageTask) {
        let epoch = self.recoveries;
        self.schedule(at, Event::Storage { task, epoch });
    }

    /// The run driver: the one loop that pops simulation events, in
    /// (time, [`Rank`], insertion) order. Once the foreground is done it
    /// finishes, and the loop drains the storage tasks that are left. A
    /// power loss armed past the end of all activity fires last.
    pub(crate) fn drive(&mut self, fg: &mut impl Foreground) -> Result<(), FaError> {
        let mut ended = None;
        loop {
            if ended.is_none() && fg.done() {
                ended = Some(fg.finish(self)?);
            }
            let Some((at, event)) = self.events.pop() else {
                break;
            };
            match event {
                // A task scheduled before a power loss died with the power.
                Event::Storage { task, epoch } => {
                    if epoch == self.recoveries {
                        if let Some((next_at, next)) = self.run_storage_task(at, task)? {
                            self.schedule_storage(next_at, next);
                        }
                        self.maybe_power_loss(at)?;
                    }
                }
                event => fg.handle(self, at, event)?,
            }
        }
        let ended = ended.expect("a foreground is done before its events run out");
        // A power loss armed past the end of all activity still fires
        // before the run reports: the crash experiment must not silently
        // degenerate into a fault-free run because the workload was short.
        if self.power_loss.armed() {
            let at = self.power_loss.at().expect("armed clock has an instant");
            self.maybe_power_loss(ended.max(at))?;
        }
        Ok(())
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
                let ddr = self.memory.ddr3l.reserve(xbar.end, bytes);
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
        let ddr = self.memory.ddr3l.reserve(xbar.end, slice.input_len);
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
        let ddr = self.memory.ddr3l.reserve(now, slice.output_len);
        let t = self.flashvisor.write_section(
            ddr.end,
            flash_base + slice.output_start,
            slice.output_len,
            &mut self.memory.scratchpad,
        )?;
        self.housekeeping(t.finished)?;
        if self.config.buffered_writes {
            Ok(ddr.end)
        } else {
            Ok(t.finished)
        }
    }

    /// Storengine housekeeping after a flush at `now`: dump the journal
    /// when it is due, retire the block rows the fault model condemned, and
    /// start a GC campaign when the free-space watermark trips and none is
    /// active. Background mode schedules the campaign's first pass at
    /// `now`; synchronous mode (the default) runs every pass here, at `now`.
    fn housekeeping(&mut self, now: SimTime) -> Result<(), FaError> {
        if self.storengine.journal_due(now) {
            self.dump_journal(now)?;
        }
        if self.flashvisor.fault_plan().is_some() {
            self.flashvisor.process_retirements(now)?;
        }
        if self.gc_campaign_active || !self.storengine.gc_needed(&self.flashvisor) {
            return Ok(());
        }
        self.gc_campaign_active = true;
        let mut task = StorageTask::GcPass {
            remaining: GC_CAMPAIGN_PASSES,
        };
        if self.config.qos.background_gc {
            self.schedule_storage(now, task);
            return Ok(());
        }
        while let Some((_, next)) = self.run_storage_task(now, task)? {
            task = next;
        }
        Ok(())
    }

    /// Dumps the metadata journal at `now`. A dump that hits an injected
    /// failure stays volatile: the next period retries it, and a power
    /// loss loses its redo records, exactly what a real crash would lose.
    fn dump_journal(&mut self, now: SimTime) -> Result<(), FaError> {
        match self.storengine.journal(now, &mut self.flashvisor) {
            Err(e) if !is_injected_fault(&e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Runs one step of a GC campaign at `at` and returns the next step
    /// with the instant it is due, or `None` once the campaign has ended.
    /// An injected media failure ends the campaign (its plan may reference
    /// blocks the failure condemned), the condemned rows retire, and the
    /// next flush re-evaluates the watermark to start a fresh campaign.
    fn run_storage_task(
        &mut self,
        at: SimTime,
        task: StorageTask,
    ) -> Result<Option<(SimTime, StorageTask)>, FaError> {
        let next = match task {
            // The watermark is checked again before every pass: foreground
            // reclamation (overwrite releases, journal drains) may have
            // refilled the pool since this pass was scheduled, and then the
            // pass must not run at all.
            StorageTask::GcPass { remaining } if self.storengine.gc_needed(&self.flashvisor) => {
                let plan = self.storengine.plan_gc(at, &self.flashvisor);
                let progress = self.storengine.begin_gc_pass(at);
                self.advance_gc_pass(plan, progress, remaining)
            }
            StorageTask::GcPass { .. } => Ok(None),
            StorageTask::GcSlice {
                plan,
                progress,
                remaining,
            } => self.advance_gc_pass(plan, progress, remaining),
        };
        let next = match next {
            Err(e) if is_injected_fault(&e) => {
                self.flashvisor.process_retirements(at)?;
                None
            }
            next => next?,
        };
        if next.is_none() {
            self.gc_campaign_active = false;
        }
        Ok(next)
    }

    /// Polls the power-loss clock at `now`; when it trips, runs the crash
    /// protocol: a final supercap-backed journal dump persists the redo
    /// records accumulated since the last periodic dump, volatile state is
    /// lost (pending storage tasks die with the power: the recovery ends
    /// their epoch), and the mapping is rebuilt by journal replay before
    /// the run continues — the restart-after-power-loss experiment inside
    /// one simulated timeline.
    pub(crate) fn maybe_power_loss(&mut self, now: SimTime) -> Result<(), FaError> {
        if !self.power_loss.check(now) {
            return Ok(());
        }
        self.dump_journal(now)?;
        self.gc_campaign_active = false;
        self.flashvisor.recover();
        self.recoveries += 1;
        Ok(())
    }

    /// Migrates the next budget-bounded slice of a pass. An unfinished pass
    /// continues with its next slice, due when this slice's traffic
    /// completes; a finished pass erases and reclaims its row and is
    /// followed by the campaign's next pass while the watermark stays
    /// tripped.
    fn advance_gc_pass(
        &mut self,
        plan: GcPlan,
        mut progress: GcPassProgress,
        remaining: u32,
    ) -> Result<Option<(SimTime, StorageTask)>, FaError> {
        let slice = self
            .config
            .qos
            .gc_budget
            .map(|b| b.max(1))
            .unwrap_or(usize::MAX);
        self.storengine
            .migrate_gc_groups(&mut self.flashvisor, &plan, &mut progress, slice)?;
        if progress.next_victim < plan.victims.len() {
            return Ok(Some((
                progress.finished,
                StorageTask::GcSlice {
                    plan,
                    progress,
                    remaining,
                },
            )));
        }
        let out = self
            .storengine
            .finish_gc_pass(&mut self.flashvisor, &plan, &progress)?;
        self.gc_passes += 1;
        if out.groups_reclaimed == 0 && self.flashvisor.freespace().available() == 0 {
            return Err(FaError::OutOfFlashSpace {
                requested: 1,
                available: 0,
            });
        }
        Ok(
            (remaining > 1 && self.storengine.gc_needed(&self.flashvisor)).then_some((
                out.finished,
                StorageTask::GcPass {
                    remaining: remaining - 1,
                },
            )),
        )
    }

    /// Computes `screen` on worker `worker` once its data is ready at
    /// `ready`, charging its energy and recording its busy functional
    /// units. Returns the compute end.
    pub(crate) fn compute_screen(
        &mut self,
        worker: usize,
        screen: &Screen,
        ready: SimTime,
    ) -> SimTime {
        let lwp = &mut self.workers[worker];
        let est = lwp.estimate(&screen.mix, screen.bytes_touched());
        let res = lwp.execute(ready, &est);
        let busy_fus = est.occupancy.mean_busy_fus(lwp.spec(), est.cycles);
        self.energy.record_compute(res.start, res.end, busy_fus);
        res.end
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
    /// run's device-active and storage-stack energy, summarises the energy,
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

        // Per-owner flash traffic and read tails, in deterministic owner
        // order (kernels ascending, then GC, journal, unattributed).
        let (tails, foreground_p99) = self.flashvisor.backbone().read_tails(0.99);
        let flash_owner_stats = tails
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
        let foreground_read_p99_s = foreground_p99.map_or(0.0, |d| d.as_secs_f64());

        // GC's migration efficiency.
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
            energy: self.energy.summary(finished_at),
            worker_utilization: self
                .workers
                .iter()
                .map(|w| w.utilization(finished_at))
                .collect(),
            flashvisor_utilization: self.flashvisor.cpu_utilization(finished_at),
            storengine_utilization: self.storengine.cpu_utilization(finished_at),
            flash_group_reads: self.flashvisor.stats().group_reads,
            flash_group_writes: self.flashvisor.stats().group_writes,
            gc_passes: self.gc_passes,
            journal_dumps: self.storengine.stats().journal_dumps,
            flash_owner_stats,
            foreground_read_p99_s,
            wear: self.flashvisor.data_block_wear(),
            gc_migrated_bytes_per_reclaimed_byte,
            hot_group_writes: fv_stats.hot_group_writes,
            cold_group_writes: fv_stats.cold_group_writes,
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

/// A closed-loop batch as the driver's foreground. When the batch starts
/// and after each screen completion retires its screen, the configured
/// policy dispatches ready screens onto workers with a free queue slot. With
/// buffered writes a finished kernel's output waits in the DDR3L write
/// buffer, and the finish step flushes it at the retire frontier.
struct Batch<'a> {
    apps: &'a [Application],
    policy: SchedulerPolicy,
    chain: ExecutionChain,
    slices: HashMap<ScreenRef, ScreenSlice>,
    offload_times: HashMap<(usize, usize), SimTime>,
    offload_end: SimTime,
    kernel_list: Vec<KernelRef>,
    kernel_taken: Vec<bool>,
    /// Each application instance's "application number": the first
    /// instance of every distinct benchmark defines the number, and all
    /// later instances of the same benchmark share it.
    template_of_app: Vec<usize>,
    workers: Vec<WorkerState>,
    /// Output flushes deferred until the batch completes (the DDR3L write
    /// buffer absorbs them during execution, §2.2).
    deferred_flushes: Vec<(u64, ScreenSlice)>,
    /// The retire frontier: dispatches (and therefore resource
    /// reservations) never go backwards past this point, which keeps the
    /// FIFO resource models causal.
    frontier: SimTime,
    /// Workers with a free queue slot in dispatch order, one buffer reused
    /// by every dispatch pass.
    worker_order: Vec<usize>,
}

impl<'a> Batch<'a> {
    fn new(
        apps: &'a [Application],
        sys: &FlashAbacusSystem,
        offload_times: HashMap<(usize, usize), SimTime>,
        offload_end: SimTime,
    ) -> Self {
        let kernel_list = all_kernels(apps);
        let mut seen: Vec<&str> = Vec::new();
        let template_of_app = apps
            .iter()
            .map(|a| {
                seen.iter().position(|n| *n == a.name).unwrap_or_else(|| {
                    seen.push(&a.name);
                    seen.len() - 1
                })
            })
            .collect();
        Batch {
            apps,
            policy: sys.config.scheduler,
            chain: ExecutionChain::new(apps),
            slices: compute_screen_slices(apps),
            offload_times,
            offload_end,
            kernel_taken: vec![false; kernel_list.len()],
            kernel_list,
            template_of_app,
            workers: vec![
                WorkerState {
                    free_at: offload_end,
                    in_flight: 0,
                    booted: false,
                    current_kernel: None,
                };
                sys.workers.len()
            ],
            deferred_flushes: Vec::new(),
            frontier: offload_end,
            worker_order: Vec::with_capacity(sys.workers.len()),
        }
    }

    /// Gives every worker with a free queue slot (fewest-in-flight,
    /// earliest-free first) one screen if the policy has one for it,
    /// repeating until no such worker can be matched with a ready screen.
    /// The second slot prefetches the next screen's input while the first
    /// computes. Runs once when the batch starts and after every retire:
    /// nothing else changes what the policy can pick, so a pass at any
    /// other instant would start nothing.
    fn dispatch(&mut self, sys: &mut FlashAbacusSystem) -> Result<(), FaError> {
        if self.done() {
            return Ok(());
        }
        let mut order = std::mem::take(&mut self.worker_order);
        loop {
            order.clear();
            order.extend(
                (0..self.workers.len()).filter(|&w| self.workers[w].in_flight < WORKER_QUEUE_DEPTH),
            );
            order
                .sort_unstable_by_key(|&w| (self.workers[w].in_flight, self.workers[w].free_at, w));
            let picked = order
                .iter()
                .find_map(|&w| self.pick_screen(w).map(|(sref, ipc)| (w, sref, ipc)));
            let Some((worker, sref, needs_ipc)) = picked else {
                self.worker_order = order;
                // Nothing in flight and nothing ready: no event can ever
                // unlock the rest of the chain.
                if self.workers.iter().all(|w| w.in_flight == 0) {
                    return Err(FaError::SchedulerStalled(format!(
                        "{} screens completed of {}",
                        self.chain.completed_screens(),
                        self.chain.total_screens()
                    )));
                }
                return Ok(());
            };
            self.chain.mark_running(sref, worker);
            // A screen may not start before its kernel was offloaded, and
            // dispatches never precede the retire frontier.
            let kernel_offloaded = self
                .offload_times
                .get(&(sref.app, sref.kernel))
                .copied()
                .unwrap_or(self.offload_end);
            let mut dispatch_at = self.frontier.max(kernel_offloaded);
            if needs_ipc && !self.workers[worker].booted {
                // First use of the worker: PSC sleep/boot sequence.
                dispatch_at = sys.workers[worker].boot_kernel(dispatch_at);
                self.workers[worker].booted = true;
            }
            // Dispatch overhead: a scheduling decision on Flashvisor plus
            // a message-queue hop to the worker. Then stage the screen's
            // input and compute; the output flushes at retire time, so
            // shared resources see requests in non-decreasing time order.
            if needs_ipc {
                let decided = sys.flashvisor.charge_scheduling_decision(dispatch_at);
                dispatch_at = sys.msgq.send(decided);
            }
            let kernel = &self.apps[sref.app].kernels[sref.kernel];
            let slice = &self.slices[&sref];
            let data_ready = sys.stage_input(dispatch_at, kernel.data_section.flash_base, slice)?;
            let screen = &kernel.microblocks[sref.microblock].screens[sref.screen];
            let end = sys.compute_screen(worker, screen, data_ready);
            self.workers[worker].in_flight += 1;
            sys.schedule(
                end,
                Event::Screen {
                    screen: sref,
                    worker,
                },
            );
        }
    }

    /// Picks the screen an idle worker should run next under the policy,
    /// together with whether the dispatch must pay kernel-boot and IPC
    /// costs. Returns `None` when this worker has nothing to do right now.
    /// Every arm is a frontier lookup on the chain — no policy rescans the
    /// batch, so a whole schedule of S screens does O(S) frontier work.
    fn pick_screen(&mut self, worker: usize) -> Option<(ScreenRef, bool)> {
        match self.policy {
            SchedulerPolicy::IntraIo | SchedulerPolicy::IntraO3 => {
                intra_next_ready(self.policy, &self.chain).map(|s| (s, true))
            }
            SchedulerPolicy::InterSt | SchedulerPolicy::InterDy => {
                // Continue the worker's current kernel if it still has work.
                if let Some(kidx) = self.workers[worker].current_kernel {
                    let kref = self.kernel_list[kidx];
                    if self
                        .chain
                        .kernel_completion(kref.app, kref.kernel)
                        .is_none()
                    {
                        // The kernel runs as a single instruction stream: no
                        // per-screen IPC once the kernel is bootstrapped.
                        return self
                            .chain
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
                let workers = self.workers.len();
                for (kidx, kref) in self.kernel_list.iter().enumerate() {
                    if self.kernel_taken[kidx] {
                        continue;
                    }
                    if self.policy == SchedulerPolicy::InterSt
                        && static_assignment(self.template_of_app[kref.app], workers) != worker
                    {
                        continue;
                    }
                    self.kernel_taken[kidx] = true;
                    self.workers[worker].current_kernel = Some(kidx);
                    // A freshly adopted kernel pays boot + IPC.
                    return self
                        .chain
                        .next_ready_of_kernel(kref.app, kref.kernel)
                        .map(|s| (s, true));
                }
                None
            }
        }
    }
}

impl Foreground for Batch<'_> {
    fn done(&self) -> bool {
        self.chain.is_complete()
    }

    /// Retires a screen: frees its worker and unlocks successor
    /// microblocks. When the screen finishes a kernel, the kernel's whole
    /// output region (accumulated in the DDR3L write buffer during
    /// execution, §2.2) is flushed to flash in one log-structured write.
    fn handle(
        &mut self,
        sys: &mut FlashAbacusSystem,
        at: SimTime,
        event: Event,
    ) -> Result<(), FaError> {
        let Event::Screen { screen, worker } = event else {
            unreachable!("a batch schedules only screen completions");
        };
        let kernel = &self.apps[screen.app].kernels[screen.kernel];
        // The retiring screen is the last incomplete one of its kernel
        // exactly when one screen remains (itself) — an O(1) counter
        // lookup, not a per-retire kernel scan.
        let finishes_kernel = self
            .chain
            .kernel_screens_remaining(screen.app, screen.kernel)
            == 1;
        let done_at = if finishes_kernel {
            let output = ScreenSlice::kernel_output(kernel);
            if sys.config.buffered_writes {
                // The DDR3L write buffer holds the output; the flash
                // programs happen once the batch is done so they do not
                // block other kernels' reads.
                self.deferred_flushes
                    .push((kernel.data_section.flash_base, output));
                at
            } else {
                sys.flush_output(at, kernel.data_section.flash_base, &output)?
            }
        } else {
            at
        };
        self.chain.mark_done(screen, done_at);
        let state = &mut self.workers[worker];
        state.in_flight = state.in_flight.saturating_sub(1);
        state.free_at = done_at.max(state.free_at);
        self.frontier = self.frontier.max(at);
        sys.maybe_power_loss(at)?;
        self.dispatch(sys)
    }

    /// Drains the DDR3L write buffer: every deferred output region is
    /// written back log-structured at the frontier.
    fn finish(&mut self, sys: &mut FlashAbacusSystem) -> Result<SimTime, FaError> {
        for (flash_base, slice) in std::mem::take(&mut self.deferred_flushes) {
            sys.flush_output(self.frontier, flash_base, &slice)?;
        }
        Ok(self.frontier)
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
    use fa_kernel::latency::{completion_cdf, latency_stats, throughput_mb_s};
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
            assert!(throughput_mb_s(out.bytes_processed, out.finished_at) > 0.0);
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
        let (_, inter_avg, _) = latency_stats(&inter.kernel_latencies);
        let (_, intra_avg, _) = latency_stats(&intra.kernel_latencies);
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

    /// The foreground of a driver call that only drains storage tasks.
    struct NoForeground;

    impl Foreground for NoForeground {
        fn done(&self) -> bool {
            true
        }

        fn handle(
            &mut self,
            _: &mut FlashAbacusSystem,
            _: SimTime,
            _: Event,
        ) -> Result<(), FaError> {
            unreachable!("no foreground event is ever scheduled")
        }

        fn finish(&mut self, _: &mut FlashAbacusSystem) -> Result<SimTime, FaError> {
            Ok(SimTime::ZERO)
        }
    }

    #[test]
    fn both_gc_modes_absorb_an_injected_erase_failure_alike() {
        // Row 0 is the round-robin walk's first victim, and the first erase
        // of its channel-0 block fails and condemns the block. Both modes
        // run one campaign rule: the pass absorbs the failure, the campaign
        // goes on, and the condemned row retires at the next flush, before
        // that flush's campaign. Returns, after each of two flushes, the
        // passes run so far, the condemned blocks and the retired rows.
        let after_each_flush = |background_gc: bool| {
            let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
            config.flash_geometry.blocks_per_plane = 8; // 7 data rows of 32 groups
            config.gc_low_watermark = 0.75;
            config.journal_interval = SimDuration::from_ms(10_000);
            config.qos.background_gc = background_gc;
            let mut system = FlashAbacusSystem::new(config);
            system.install_fault_plan(Arc::new(
                FaultPlan::parse("retire_after=1,script=erase@c0.d0.b0.n1").unwrap(),
            ));
            // Fill row 0, then overwrite half of it: row 0 holds garbage and
            // the free fraction (176 of 256 groups) is under the watermark.
            let group = config.page_group_bytes;
            let scratchpad = &mut system.memory.scratchpad;
            for (at, len) in [(1, 32), (2, 16)] {
                system
                    .flashvisor
                    .write_section(SimTime::from_ms(at), 0, len * group, scratchpad)
                    .unwrap();
            }
            let slice = ScreenSlice {
                input_start: 0,
                input_len: 0,
                output_start: 100 * group,
                output_len: group,
            };
            let mut states = Vec::new();
            for at in [3, 4] {
                system
                    .flush_output(SimTime::from_ms(at), 0, &slice)
                    .unwrap();
                system.drive(&mut NoForeground).unwrap();
                states.push((
                    system.gc_passes,
                    system.flashvisor.backbone().fault_stats().blocks_retired,
                    system.flashvisor.retired_rows().to_vec(),
                ));
            }
            states
        };
        let sync = after_each_flush(false);
        assert!(sync[0].0 > 1, "the campaign stopped at the failure");
        assert_eq!(sync[0].1, 1, "the scripted erase failure was missed");
        assert!(sync[0].2.is_empty(), "a row retired inside the campaign");
        assert_eq!(sync[1].2, [0], "the condemned row did not retire");
        assert_eq!(sync, after_each_flush(true));
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
    fn events_at_one_instant_pop_in_tie_order() {
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        let mut system = FlashAbacusSystem::new(config);
        let screen = |app| ScreenRef {
            app,
            kernel: 0,
            microblock: 0,
            screen: 0,
        };
        let gc = |remaining| StorageTask::GcPass { remaining };
        let now = SimTime::from_ns(5);
        // Pushed in the reverse of the tie order, with an earlier storage
        // task last.
        system.schedule_storage(now, gc(1));
        system.schedule(now, Event::Arrival);
        system.schedule(now, Event::GovernorTick);
        system.schedule(now, Event::Tenant(2));
        system.schedule(now, Event::Tenant(1));
        system.schedule(
            now,
            Event::Screen {
                screen: screen(1),
                worker: 0,
            },
        );
        system.schedule(
            now,
            Event::Screen {
                screen: screen(0),
                worker: 5,
            },
        );
        system.schedule_storage(now, gc(2));
        system.schedule_storage(SimTime::from_ns(4), gc(3));
        let order: Vec<String> = std::iter::from_fn(|| system.events.pop())
            .map(|(at, event)| match event {
                Event::Screen { screen, worker } => format!("{at} screen {} w{worker}", screen.app),
                Event::Tenant(tenant) => format!("{at} tenant {tenant}"),
                Event::GovernorTick => format!("{at} tick"),
                Event::Arrival => format!("{at} arrival"),
                Event::Storage {
                    task: StorageTask::GcPass { remaining },
                    ..
                } => {
                    format!("{at} gc {remaining}")
                }
                Event::Storage { .. } => unreachable!("only passes were scheduled"),
            })
            .collect();
        let t = |s: &str| format!("{now} {s}");
        assert_eq!(
            order,
            [
                format!("{} gc 3", SimTime::from_ns(4)),
                t("screen 0 w5"),
                t("screen 1 w0"),
                t("tenant 1"),
                t("tenant 2"),
                t("tick"),
                t("arrival"),
                t("gc 1"),
                t("gc 2"),
            ]
        );
    }

    #[test]
    fn a_system_runs_one_batch() {
        let apps = small_workload(2, 0.1);
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        let mut system = FlashAbacusSystem::new(config);
        let first = system.run(&apps).expect("first run completes");
        // A second run would sum both runs' time and energy; it fails and
        // leaves the first run's state alone.
        let reads = system.flashvisor().stats().group_reads;
        assert!(
            matches!(system.run(&apps), Err(FaError::InvalidWorkload(m)) if m.contains("already run"))
        );
        assert_eq!(system.flashvisor().stats().group_reads, reads);
        assert_eq!(
            first.finished_at,
            run(SchedulerPolicy::IntraO3, &apps).finished_at
        );
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
        assert!(!out.energy.fu_timeline.is_empty());
        assert!(!out.energy.power_timeline.is_empty());
        // Peak busy FU count cannot exceed 8 FUs × 6 workers.
        let peak = out
            .energy
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
        let cdf = completion_cdf(&out.kernel_latencies);
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
