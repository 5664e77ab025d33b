//! Open-loop multi-tenant traffic: seeded arrivals, admission control, and
//! the online QoS governor.
//!
//! The closed-loop driver in [`crate::system`] runs a fixed batch to
//! completion; this module runs *production-shaped load*: an
//! [`ArrivalPlan`] (`FA_ARRIVALS`) injects tenants over simulated time,
//! an [`AdmissionController`] bounds how many run at once (queueing or
//! shedding the overflow), and an optional [`QosGovernor`] periodically
//! recomputes per-tenant flash tag budgets from a sliding window over
//! [`fa_flash::FlashBackbone::owner_commands`] — replacing the static
//! [`crate::config::QosConfig`] budgets while tenants run. A tick reads
//! only the active tenants' counters, so its cost does not grow with the
//! number of tenants the campaign has served.
//!
//! # Execution model
//!
//! A campaign is one foreground of the system's run driver
//! (`FlashAbacusSystem::drive`): its arrivals, tenant completions and
//! governor ticks are events on the driver's one queue, beside the
//! storage tasks of background GC. It keeps one arrival queued at a time
//! (each arrival schedules the next) and one governor tick (each tick
//! schedules the next while the campaign is live; a tick that pops after
//! the campaign has ended is dropped).
//!
//! Each admitted tenant occupies one of `max_in_flight` flash *slots*
//! (equal-sized, group-aligned regions, reused as tenants retire — reuse
//! makes long campaigns overwrite-heavy, which is exactly the churn the
//! allocator and GC invariants are tested under). A tenant is one
//! lightweight flow: at dispatch its input is staged from flash and its
//! screens execute serially on the least-loaded worker LWP, through the
//! same per-screen compute step a closed-loop batch uses; its output is
//! flushed at its completion event. All flash traffic is issued at
//! event-processing instants, which the driver visits in non-decreasing
//! time order — the same causality contract the closed-loop frontier
//! enforces, so the FIFO resource models stay valid.
//!
//! # Determinism contract
//!
//! The arrival schedule is a pure function of the `FA_ARRIVALS` seed;
//! admission decisions are a pure function of the schedule and completion
//! times; completion times come from the deterministic simulation. Events
//! at one instant pop in a fixed order: completions by tenant id, then
//! the governor tick, then the arrival, then storage tasks. Nothing
//! depends on host thread scheduling or map iteration order, so the
//! per-tenant report and admission trace are byte-identical across
//! repeats (pinned by `tests/scaleout_determinism.rs`).

use crate::config::{GovernorConfig, ScaleoutConfig};
use crate::error::FaError;
use crate::metrics::RunOutcome;
use crate::system::{Event, FlashAbacusSystem, Foreground, ScreenSlice};
use fa_flash::{FlashBackbone, OwnerId};
use fa_kernel::model::{AppId, Application};
use fa_kernel::KernelLatency;
use fa_sim::arrivals::{Arrival, ArrivalPlan};
use fa_sim::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// What the admission controller decided for one arrival (or, for
/// `Promoted`, for the head of the queue when a slot freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// A slot was free: the tenant dispatched at its arrival instant.
    Admitted,
    /// Slots full, queue had room: the tenant waits in arrival order.
    Queued,
    /// Slots and queue both full: the tenant is dropped.
    Shed,
    /// A queued tenant moved into the slot a completion freed.
    Promoted,
}

impl AdmissionDecision {
    /// Stable label used in the admission trace digest.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            AdmissionDecision::Admitted => "admitted",
            AdmissionDecision::Queued => "queued",
            AdmissionDecision::Shed => "shed",
            AdmissionDecision::Promoted => "promoted",
        }
    }
}

/// One entry of the admission trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// Instant of the decision.
    pub at: SimTime,
    /// The tenant decided about.
    pub tenant: u32,
    /// The decision.
    pub decision: AdmissionDecision,
}

/// Bounds in-flight tenants and queues or sheds the overflow.
///
/// Invariants (property-tested below): in-flight never exceeds the cap,
/// `admitted + queued + shed == arrivals` at every instant, and queued
/// tenants promote in arrival (FIFO) order.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cap: usize,
    queue_limit: usize,
    in_flight: usize,
    queue: VecDeque<u32>,
    arrivals: u64,
    admitted: u64,
    queued: u64,
    shed: u64,
    promoted: u64,
}

impl AdmissionController {
    /// A controller admitting at most `cap` tenants with `queue_limit`
    /// waiting slots. A cap of zero would deadlock every arrival, so it is
    /// clamped to one.
    pub(crate) fn new(cap: usize, queue_limit: usize) -> Self {
        AdmissionController {
            cap: cap.max(1),
            queue_limit,
            in_flight: 0,
            queue: VecDeque::new(),
            arrivals: 0,
            admitted: 0,
            queued: 0,
            shed: 0,
            promoted: 0,
        }
    }

    /// Decides one arrival. `Admitted` takes a slot immediately.
    pub(crate) fn arrive(&mut self, tenant: u32) -> AdmissionDecision {
        self.arrivals += 1;
        if self.in_flight < self.cap {
            self.in_flight += 1;
            self.admitted += 1;
            AdmissionDecision::Admitted
        } else if self.queue.len() < self.queue_limit {
            self.queue.push_back(tenant);
            self.queued += 1;
            AdmissionDecision::Queued
        } else {
            self.shed += 1;
            AdmissionDecision::Shed
        }
    }

    /// Retires one in-flight tenant; the queue head (if any) takes the
    /// freed slot and is returned for dispatch.
    pub(crate) fn complete(&mut self) -> Option<u32> {
        self.in_flight = self.in_flight.saturating_sub(1);
        let promoted = self.queue.pop_front();
        if promoted.is_some() {
            self.in_flight += 1;
            self.promoted += 1;
        }
        promoted
    }

    /// Tenants currently holding slots.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Tenants currently waiting.
    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The admission cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// `(arrivals, admitted, queued, shed, promoted)` counters.
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.arrivals,
            self.admitted,
            self.queued,
            self.shed,
            self.promoted,
        )
    }
}

/// The online QoS governor: every `window` it diffs each active tenant's
/// flash command count against the previous tick and installs per-owner
/// tag-budget overrides — the window's heaviest tenant is squeezed to
/// `min_budget`, the lightest gets `max_budget`, the rest interpolate
/// linearly over the window's delta *spread* (integer arithmetic, so the
/// schedule is exact). A window with no spread — every active tenant
/// equally busy or equally idle — installs `max_budget` for everyone:
/// without a noisy neighbour to isolate there is nothing to squeeze, and
/// throttling a uniform mix would only slow slot turnover. Overrides are
/// cleared when a tenant retires.
#[derive(Debug, Clone)]
pub struct QosGovernor {
    config: GovernorConfig,
    next_tick: SimTime,
    /// Command count per tenant at the previous tick (the sliding window's
    /// trailing edge). `BTreeMap` for deterministic iteration.
    last_commands: BTreeMap<u32, u64>,
    updates: u64,
}

impl QosGovernor {
    /// A governor whose first tick fires one window after `start`.
    pub fn new(config: GovernorConfig, start: SimTime) -> Self {
        QosGovernor {
            config,
            next_tick: start + config.window,
            last_commands: BTreeMap::new(),
            updates: 0,
        }
    }

    /// The next tick instant.
    fn next_tick(&self) -> SimTime {
        self.next_tick
    }

    /// Budget-recomputation ticks executed.
    pub(crate) fn updates(&self) -> u64 {
        self.updates
    }

    /// Runs one tick at `now`: recomputes and installs every active
    /// tenant's budget override from its command delta over the window.
    /// `active` yields the active tenants in ascending order (a campaign
    /// passes its in-flight map's keys). Costs O(active tenants ×
    /// channels), independent of how many owners the backbone has ever
    /// seen.
    pub fn rebalance<'a>(
        &mut self,
        active: impl IntoIterator<Item = &'a u32>,
        backbone: &mut FlashBackbone,
    ) {
        let active = active.into_iter();
        let mut deltas: Vec<(u32, u64)> = Vec::with_capacity(active.size_hint().0);
        for &tenant in active {
            let commands = backbone.owner_commands(OwnerId::Kernel(tenant));
            let last = self.last_commands.get(&tenant).copied().unwrap_or(0);
            deltas.push((tenant, commands.saturating_sub(last)));
            self.last_commands.insert(tenant, commands);
        }
        let max_delta = deltas.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let min_delta = deltas.iter().map(|&(_, d)| d).min().unwrap_or(0);
        let spread = max_delta - min_delta;
        let (lo, hi) = (self.config.min_budget.max(1), self.config.max_budget.max(1));
        for (tenant, delta) in deltas {
            // Linear interpolation with round-to-nearest over the spread:
            // delta == min_delta → hi, delta == max_delta → lo. No spread
            // means no noisy neighbour, so nobody is squeezed.
            let budget = if spread == 0 {
                hi
            } else {
                let above = delta - min_delta;
                hi - ((hi - lo) as u64 * above + spread / 2).div_euclid(spread) as usize
            };
            backbone.set_owner_budget_override(OwnerId::Kernel(tenant), Some(budget));
        }
        self.updates += 1;
        self.next_tick += self.config.window;
    }

    /// Clears a retiring tenant's override and window state.
    pub fn retire(&mut self, tenant: u32, backbone: &mut FlashBackbone) {
        backbone.set_owner_budget_override(OwnerId::Kernel(tenant), None);
        self.last_commands.remove(&tenant);
    }
}

/// Per-tenant outcome of an open-loop campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantOutcome {
    /// Dense tenant id (arrival order).
    pub tenant: u32,
    /// Template index this tenant instantiated.
    pub template: usize,
    /// Arrival instant (from the seeded schedule).
    pub arrived_at: SimTime,
    /// Dispatch instant; `None` for shed tenants.
    pub admitted_at: Option<SimTime>,
    /// Completion instant (output flushed); `None` for shed tenants.
    pub completed_at: Option<SimTime>,
    /// Flash pages this tenant read.
    pub reads: u64,
    /// Flash pages this tenant programmed.
    pub programs: u64,
    /// Flash payload bytes this tenant moved.
    pub bytes: u64,
}

impl TenantOutcome {
    /// Arrival-to-completion sojourn (queueing included), if completed.
    pub fn sojourn(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|c| c.saturating_since(self.arrived_at))
    }
}

/// Everything an open-loop campaign produced: the standard [`RunOutcome`]
/// (with the tenant fields populated), the per-tenant records, and the
/// admission trace.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The standard run outcome (energy, timelines, owner stats, plus the
    /// tenant aggregates).
    pub outcome: RunOutcome,
    /// One record per tenant the arrival plan injected, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Every admission decision, in decision order.
    pub admissions: Vec<AdmissionRecord>,
}

impl OpenLoopReport {
    /// Nearest-rank quantile of completed tenants' sojourn times, in
    /// seconds; 0 when nothing completed.
    pub fn sojourn_quantile(&self, q: f64) -> f64 {
        self.sojourn_quantiles([q])[0]
    }

    /// Several nearest-rank quantiles of completed tenants' sojourn times,
    /// in seconds, from one collection sorted once; all 0 when nothing
    /// completed.
    fn sojourn_quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut sojourns: Vec<SimDuration> = self
            .tenants
            .iter()
            .filter_map(TenantOutcome::sojourn)
            .collect();
        if sojourns.is_empty() {
            return [0.0; N];
        }
        sojourns.sort_unstable();
        qs.map(|q| {
            let idx = ((sojourns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
            sojourns[idx].as_secs_f64()
        })
    }

    /// Fraction of *arrived* tenants whose sojourn met `limit` — shed and
    /// never-completed tenants count as SLO violations, which is what
    /// makes shedding a visible trade on the capacity curve.
    pub fn slo_attainment(&self, limit: SimDuration) -> f64 {
        if self.tenants.is_empty() {
            return 0.0;
        }
        let met = self
            .tenants
            .iter()
            .filter(|t| t.sojourn().is_some_and(|s| s <= limit))
            .count();
        met as f64 / self.tenants.len() as f64
    }

    /// A canonical byte-comparable digest of the whole campaign: every
    /// per-tenant record, every admission decision, and the aggregate
    /// counters. Two runs agree exactly iff their digests are equal.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            let adm = t.admitted_at.map(|a| a.as_ns() as i128).unwrap_or(-1);
            let done = t.completed_at.map(|c| c.as_ns() as i128).unwrap_or(-1);
            out.push_str(&format!(
                "tenant {} tpl {} arr {} adm {} done {} reads {} programs {} bytes {}\n",
                t.tenant,
                t.template,
                t.arrived_at.as_ns(),
                adm,
                done,
                t.reads,
                t.programs,
                t.bytes,
            ));
        }
        for a in &self.admissions {
            out.push_str(&format!(
                "adm {} tenant {} {}\n",
                a.at.as_ns(),
                a.tenant,
                a.decision.label()
            ));
        }
        out.push_str(&format!(
            "summary finished {} arrived {} admitted {} queued {} shed {} \
             p50 {:016x} p99 {:016x} p999 {:016x} fairness {:016x} governor {}\n",
            self.outcome.finished_at.as_ns(),
            self.outcome.tenants_arrived,
            self.outcome.tenants_admitted,
            self.outcome.tenants_queued,
            self.outcome.tenants_shed,
            self.outcome.tenant_sojourn_p50_s.to_bits(),
            self.outcome.tenant_sojourn_p99_s.to_bits(),
            self.outcome.tenant_sojourn_p999_s.to_bits(),
            self.outcome.tenant_fairness_index.to_bits(),
            self.outcome.governor_updates,
        ));
        out
    }
}

/// Jain's fairness index over per-tenant service: `(Σx)² / (n·Σx²)`.
fn jain_fairness(service: &[u64]) -> f64 {
    if service.is_empty() {
        return 0.0;
    }
    let sum: f64 = service.iter().map(|&x| x as f64).sum();
    let sq: f64 = service.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq == 0.0 {
        return 0.0;
    }
    sum * sum / (service.len() as f64 * sq)
}

/// A tenant dispatched and computing in flash slot `slot`.
struct InFlightTenant {
    app: Application,
    slot: usize,
}

/// An open-loop campaign as the driver's foreground: seeded arrivals pass
/// admission control into flash slots, each admitted tenant runs as one
/// serial flow, and the optional governor ticks while the campaign is
/// live.
struct Campaign<'a> {
    templates: &'a [Application],
    schedule: Vec<Arrival>,
    /// Bytes per flash slot: the largest template, group-aligned.
    slot_bytes: u64,
    tenants: Vec<TenantOutcome>,
    admission: AdmissionController,
    governor: Option<QosGovernor>,
    admissions: Vec<AdmissionRecord>,
    /// Lowest-numbered free slot first: a pure function of the admission
    /// sequence, so slot assignment is deterministic.
    free_slots: BinaryHeap<Reverse<usize>>,
    /// The in-flight tenants by id; the governor reads the keys.
    in_flight: BTreeMap<u32, InFlightTenant>,
    worker_booted: Vec<bool>,
    next_arrival: usize,
    finished_at: SimTime,
}

impl Campaign<'_> {
    /// Decides the arrival due at `at`, dispatching it when admitted, and
    /// schedules the next arrival.
    fn arrive(&mut self, sys: &mut FlashAbacusSystem, at: SimTime) -> Result<(), FaError> {
        let arrival = self.schedule[self.next_arrival];
        self.next_arrival += 1;
        if let Some(next) = self.schedule.get(self.next_arrival) {
            sys.schedule(next.at, Event::Arrival);
        }
        let decision = self.admission.arrive(arrival.tenant);
        self.admissions.push(AdmissionRecord {
            at,
            tenant: arrival.tenant,
            decision,
        });
        if decision == AdmissionDecision::Admitted {
            self.admit(sys, arrival.tenant, at)?;
        }
        Ok(())
    }

    /// Completes the tenant whose compute ends at `at`: flushes its
    /// output, releases its slot and locks, clears its governor override,
    /// and dispatches the promoted queue head (if any) now.
    fn complete(
        &mut self,
        sys: &mut FlashAbacusSystem,
        tenant: u32,
        at: SimTime,
    ) -> Result<(), FaError> {
        let flight = self
            .in_flight
            .remove(&tenant)
            .expect("completing tenant in flight");
        let mut done = at;
        for kernel in &flight.app.kernels {
            let output = ScreenSlice::kernel_output(kernel);
            done = sys.flush_output(done, kernel.data_section.flash_base, &output)?;
        }
        sys.flashvisor.unmap_owner(tenant);
        if let Some(g) = self.governor.as_mut() {
            g.retire(tenant, sys.flashvisor.backbone_mut());
        }
        self.free_slots.push(Reverse(flight.slot));
        self.tenants[tenant as usize].completed_at = Some(done);
        self.finished_at = self.finished_at.max(done);
        sys.maybe_power_loss(at)?;
        if let Some(promoted) = self.admission.complete() {
            self.admissions.push(AdmissionRecord {
                at,
                tenant: promoted,
                decision: AdmissionDecision::Promoted,
            });
            self.admit(sys, promoted, at)?;
        }
        Ok(())
    }

    /// Gives an admitted tenant the lowest free slot, dispatches it at
    /// `at`, and schedules its completion.
    fn admit(
        &mut self,
        sys: &mut FlashAbacusSystem,
        tenant: u32,
        at: SimTime,
    ) -> Result<(), FaError> {
        let Reverse(slot) = self.free_slots.pop().expect("admission implies free slot");
        self.tenants[tenant as usize].admitted_at = Some(at);
        let end = self.dispatch_tenant(sys, tenant, slot, at)?;
        sys.schedule(end, Event::Tenant(tenant));
        Ok(())
    }

    /// Dispatches one tenant at `at`: instantiates its template in the
    /// slot, maps its data sections under its owner id, stages the input,
    /// and runs every screen serially on the least-loaded worker. Returns
    /// the compute-end instant (the output flushes at the completion
    /// event, keeping flash requests in non-decreasing time order).
    fn dispatch_tenant(
        &mut self,
        sys: &mut FlashAbacusSystem,
        tenant: u32,
        slot: usize,
        at: SimTime,
    ) -> Result<SimTime, FaError> {
        let template = &self.templates[self.tenants[tenant as usize].template];
        let app = template.instantiate(AppId(tenant), slot as u64 * self.slot_bytes);

        // The tenant's input already resides in flash (preload maps any
        // groups a previous slot occupant did not leave mapped). Its
        // locks are released by owner at completion.
        for kernel in &app.kernels {
            sys.map_kernel(kernel, tenant)?;
        }

        // Scheduling decision on Flashvisor plus the message-queue hop.
        let decided = sys.flashvisor.charge_scheduling_decision(at);
        let mut dispatched = sys.msgq.send(decided);

        // Least-loaded worker: earliest effective start, lowest index on
        // ties — a pure function of simulated state.
        let worker = (0..sys.workers.len())
            .min_by_key(|&w| (sys.workers[w].next_free().max(dispatched), w))
            .expect("at least one worker LWP");
        if !self.worker_booted[worker] {
            dispatched = sys.workers[worker].boot_kernel(dispatched);
            self.worker_booted[worker] = true;
        }

        // Serial flow: stage each kernel's whole input, then run its
        // screens back to back on the chosen worker.
        let mut cursor = dispatched;
        for kernel in &app.kernels {
            let input_slice = ScreenSlice {
                input_start: 0,
                input_len: kernel.data_section.input_bytes,
                output_start: kernel.data_section.input_bytes,
                output_len: 0,
            };
            let data_ready =
                sys.stage_input(cursor, kernel.data_section.flash_base, &input_slice)?;
            cursor = cursor.max(data_ready);
            for screen in kernel.microblocks.iter().flat_map(|m| &m.screens) {
                cursor = sys.compute_screen(worker, screen, cursor);
            }
        }
        self.in_flight.insert(tenant, InFlightTenant { app, slot });
        Ok(cursor)
    }
}

impl Foreground for Campaign<'_> {
    /// The campaign is live while arrivals remain, tenants run, or
    /// tenants wait in the admission queue.
    fn done(&self) -> bool {
        self.next_arrival == self.schedule.len()
            && self.in_flight.is_empty()
            && self.admission.queue_len() == 0
    }

    fn handle(
        &mut self,
        sys: &mut FlashAbacusSystem,
        at: SimTime,
        event: Event,
    ) -> Result<(), FaError> {
        match event {
            Event::Tenant(tenant) => self.complete(sys, tenant, at),
            Event::Arrival => self.arrive(sys, at),
            Event::GovernorTick => {
                // A tick after the campaign ends is dropped, not re-armed.
                if !self.done() {
                    let g = self
                        .governor
                        .as_mut()
                        .expect("governor tick without governor");
                    g.rebalance(self.in_flight.keys(), sys.flashvisor.backbone_mut());
                    sys.schedule(g.next_tick(), Event::GovernorTick);
                }
                Ok(())
            }
            Event::Screen { .. } | Event::Storage { .. } => {
                unreachable!("a campaign schedules only tenant, tick and arrival events")
            }
        }
    }

    fn finish(&mut self, _sys: &mut FlashAbacusSystem) -> Result<SimTime, FaError> {
        Ok(self.finished_at)
    }
}

impl FlashAbacusSystem {
    /// Runs a seeded open-loop campaign: `plan` injects tenants (each an
    /// instance of one of `templates`, placed in a reusable flash slot),
    /// `scaleout` bounds concurrency and optionally enables the online
    /// QoS governor. Returns the per-tenant report; see the module docs
    /// for the execution model and determinism contract. A system runs
    /// once; a second call fails.
    pub fn run_open_loop(
        &mut self,
        templates: &[Application],
        plan: &ArrivalPlan,
        scaleout: &ScaleoutConfig,
    ) -> Result<OpenLoopReport, FaError> {
        if templates.is_empty() || templates.iter().any(|t| t.kernels.is_empty()) {
            return Err(FaError::InvalidWorkload(
                "open-loop campaign needs non-empty tenant templates".into(),
            ));
        }
        if plan.templates > templates.len() {
            return Err(FaError::InvalidWorkload(format!(
                "arrival plan draws from {} templates but only {} were supplied",
                plan.templates,
                templates.len()
            )));
        }
        // A zero cap admits no tenant, so every arrival would queue forever.
        if scaleout.max_in_flight == 0 {
            return Err(FaError::InvalidWorkload(
                "admission cap max_in_flight must be positive".into(),
            ));
        }
        if let Some(g) = scaleout.governor {
            // A zero window never advances the tick, so ticks would fill
            // one instant forever.
            if g.window == SimDuration::ZERO {
                return Err(FaError::InvalidWorkload(
                    "QoS governor window must be positive".into(),
                ));
            }
            if g.min_budget.max(1) > g.max_budget.max(1) {
                return Err(FaError::InvalidWorkload(format!(
                    "QoS governor min_budget {} exceeds max_budget {}",
                    g.min_budget, g.max_budget
                )));
            }
        }
        self.begin_run()?;

        // Carve out the slots: one group-aligned region per in-flight
        // tenant, sized for the largest template. Slots are reused as
        // tenants retire, so the campaign's logical footprint is bounded
        // by the admission cap, not the tenant count.
        let group_bytes = self.config().page_group_bytes;
        let slot_bytes = templates
            .iter()
            .map(Application::flash_bytes)
            .max()
            .unwrap_or(0)
            .div_ceil(group_bytes)
            .max(1)
            * group_bytes;
        let slot_count = scaleout.max_in_flight;
        let required_groups = slot_count as u64 * (slot_bytes / group_bytes);
        let available = self.flashvisor.freespace().available();
        if required_groups > available {
            return Err(FaError::OutOfFlashSpace {
                requested: required_groups,
                available,
            });
        }

        let schedule = plan.schedule();
        let tenants = schedule
            .iter()
            .map(|a| TenantOutcome {
                tenant: a.tenant,
                template: a.template,
                arrived_at: a.at,
                admitted_at: None,
                completed_at: None,
                reads: 0,
                programs: 0,
                bytes: 0,
            })
            .collect();
        if let Some(first) = schedule.first() {
            self.schedule(first.at, Event::Arrival);
        }
        let governor = scaleout.governor.map(|g| QosGovernor::new(g, plan.start));
        if let Some(g) = &governor {
            self.schedule(g.next_tick(), Event::GovernorTick);
        }
        let mut campaign = Campaign {
            templates,
            admissions: Vec::with_capacity(schedule.len()),
            schedule,
            slot_bytes,
            tenants,
            admission: AdmissionController::new(slot_count, scaleout.queue_limit),
            governor,
            free_slots: (0..slot_count).map(Reverse).collect(),
            in_flight: BTreeMap::new(),
            worker_booted: vec![false; self.workers.len()],
            next_arrival: 0,
            finished_at: SimTime::ZERO,
        };
        self.drive(&mut campaign)?;
        let mut tenants = campaign.tenants;

        // Per-tenant flash service from the owner stats: every tenant has
        // a unique owner id, so the cumulative stats are per-tenant totals.
        {
            let stats = self.flashvisor.backbone().owner_stats();
            for t in tenants.iter_mut() {
                if let Some(s) = stats.get(&OwnerId::Kernel(t.tenant)) {
                    t.reads = s.reads;
                    t.programs = s.programs;
                    t.bytes = s.bytes;
                }
            }
        }

        // The standard outcome: one latency record per completed tenant
        // (arrival plays the role offload plays in closed-loop runs).
        let mut kernel_latencies = Vec::new();
        let mut bytes_processed = 0u64;
        for t in &tenants {
            if let Some(done) = t.completed_at {
                kernel_latencies.push(KernelLatency {
                    app_name: templates[t.template].name.clone(),
                    app_index: t.tenant as usize,
                    kernel_index: 0,
                    offloaded_at: t.arrived_at,
                    completed_at: done,
                });
                bytes_processed += templates[t.template].flash_bytes();
            }
        }
        let mut outcome =
            self.collect_common_outcome(campaign.finished_at, kernel_latencies, bytes_processed);
        let (arrivals, admitted, queued, shed, _) = campaign.admission.counters();
        outcome.tenants_arrived = arrivals;
        outcome.tenants_admitted = admitted;
        outcome.tenants_queued = queued;
        outcome.tenants_shed = shed;
        outcome.governor_updates = campaign.governor.map_or(0, |g| g.updates());
        let service: Vec<u64> = tenants
            .iter()
            .filter(|t| t.completed_at.is_some())
            .map(|t| t.bytes)
            .collect();
        outcome.tenant_fairness_index = jain_fairness(&service);

        let mut report = OpenLoopReport {
            outcome,
            tenants,
            admissions: campaign.admissions,
        };
        let [p50, p99, p999] = report.sojourn_quantiles([0.50, 0.99, 0.999]);
        report.outcome.tenant_sojourn_p50_s = p50;
        report.outcome.tenant_sojourn_p99_s = p99;
        report.outcome.tenant_sojourn_p999_s = p999;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn admission_basic_lifecycle() {
        let mut a = AdmissionController::new(2, 1);
        assert_eq!(a.arrive(0), AdmissionDecision::Admitted);
        assert_eq!(a.arrive(1), AdmissionDecision::Admitted);
        assert_eq!(a.arrive(2), AdmissionDecision::Queued);
        assert_eq!(a.arrive(3), AdmissionDecision::Shed);
        assert_eq!(a.in_flight(), 2);
        assert_eq!(a.complete(), Some(2));
        assert_eq!(a.in_flight(), 2);
        assert_eq!(a.complete(), None);
        assert_eq!(a.in_flight(), 1);
        let (arrivals, admitted, queued, shed, promoted) = a.counters();
        assert_eq!(
            (arrivals, admitted, queued, shed, promoted),
            (4, 2, 1, 1, 1)
        );
    }

    #[test]
    fn governor_squeezes_the_heavy_tenant() {
        use fa_flash::{FlashCommand, FlashGeometry, FlashTiming, GroupLayout, PhysicalPageAddr};
        let layout = GroupLayout {
            geometry: FlashGeometry::tiny_for_tests(),
            pages_per_group: 2,
        };
        let mut backbone =
            FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000);
        // Tenant 7 moves traffic; tenant 9 stays idle.
        for p in 0..8 {
            backbone
                .submit_tagged(
                    SimTime::ZERO,
                    FlashCommand::program(PhysicalPageAddr::new(0, 0, 0, p)),
                    OwnerId::Kernel(7),
                )
                .unwrap();
        }
        let config = GovernorConfig {
            window: SimDuration::from_ms(1),
            min_budget: 1,
            max_budget: 8,
        };
        let mut g = QosGovernor::new(config, SimTime::ZERO);
        let active: BTreeSet<u32> = [7, 9].into_iter().collect();
        g.rebalance(&active, &mut backbone);
        assert_eq!(g.updates(), 1);
        let over = |b: &FlashBackbone, t: u32| b.owner_budget_override(OwnerId::Kernel(t));
        assert_eq!(over(&backbone, 7), Some(1));
        assert_eq!(over(&backbone, 9), Some(8));
        // A quiet second window relaxes the heavy tenant back to the cap.
        g.rebalance(&active, &mut backbone);
        assert_eq!(over(&backbone, 7), Some(8));
        // Retirement clears the override entirely.
        g.retire(7, &mut backbone);
        assert_eq!(over(&backbone, 7), None);
    }

    /// The map-based tick the governor used before `owner_commands`: diff
    /// each active tenant's `owner_stats()` command count against the
    /// previous tick and interpolate budgets over the delta spread.
    fn oracle_tick(
        backbone: &FlashBackbone,
        active: &BTreeSet<u32>,
        last: &mut BTreeMap<u32, u64>,
        config: GovernorConfig,
    ) -> Vec<(u32, usize)> {
        let stats = backbone.owner_stats();
        let deltas: Vec<(u32, u64)> = active
            .iter()
            .map(|&t| {
                let now = stats
                    .get(&OwnerId::Kernel(t))
                    .map(|s| s.commands())
                    .unwrap_or(0);
                let prev = last.insert(t, now).unwrap_or(0);
                (t, now.saturating_sub(prev))
            })
            .collect();
        let max = deltas.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let min = deltas.iter().map(|&(_, d)| d).min().unwrap_or(0);
        let (lo, hi) = (config.min_budget.max(1), config.max_budget.max(1));
        deltas
            .into_iter()
            .map(|(t, d)| {
                let budget = if max == min {
                    hi
                } else {
                    let scaled = (hi - lo) as u64 * (d - min) + (max - min) / 2;
                    hi - (scaled / (max - min)) as usize
                };
                (t, budget)
            })
            .collect()
    }

    #[test]
    fn owner_commands_tick_installs_what_the_owner_stats_tick_did() {
        use fa_flash::{FlashCommand, FlashGeometry, FlashTiming, GroupLayout, PhysicalPageAddr};
        const OWNERS: u32 = 1200;
        // Inside the dense vectors but never submitted, and past their end.
        const IDLE: u32 = 600;
        const BEYOND: u32 = OWNERS + 50;
        let layout = GroupLayout {
            geometry: FlashGeometry::tiny_for_tests(),
            pages_per_group: 2,
        };
        let mut backbone =
            FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000);
        let submit = |b: &mut FlashBackbone, at: SimTime, cmd: FlashCommand, owner: OwnerId| {
            b.submit_tagged(at, cmd, owner).expect("command succeeds");
        };
        // Kernel data on channel 1, journal pages on channel 0; GC erases a
        // spare block. Then every owner but IDLE reads one page.
        for p in 0..16 {
            let at = SimTime::ZERO;
            let kernel = FlashCommand::program(PhysicalPageAddr::new(1, 0, 0, p));
            submit(&mut backbone, at, kernel, OwnerId::Kernel(p as u32));
            let journal = FlashCommand::program(PhysicalPageAddr::new(0, 0, 0, p));
            submit(&mut backbone, at, journal, OwnerId::Journal);
        }
        let erase = FlashCommand::erase(PhysicalPageAddr::new(0, 0, 1, 0));
        submit(&mut backbone, SimTime::ZERO, erase, OwnerId::Gc);
        let read = |k: u32| {
            FlashCommand::read(PhysicalPageAddr::new(k as usize % 2, 0, 0, k as usize % 16))
        };
        for k in (0..OWNERS).filter(|&k| k != IDLE) {
            submit(
                &mut backbone,
                SimTime::from_us(1),
                read(k),
                OwnerId::Kernel(k),
            );
        }

        let stats = backbone.owner_stats();
        assert!(stats.len() > 1000);
        for (&owner, s) in &stats {
            assert_eq!(backbone.owner_commands(owner), s.commands(), "{owner}");
        }
        for untouched in [IDLE, BEYOND, u32::MAX] {
            assert!(!stats.contains_key(&OwnerId::Kernel(untouched)));
            assert_eq!(backbone.owner_commands(OwnerId::Kernel(untouched)), 0);
        }

        let config = GovernorConfig {
            window: SimDuration::from_ms(1),
            min_budget: 2,
            max_budget: 8,
        };
        let mut governor = QosGovernor::new(config, SimTime::ZERO);
        let mut last = BTreeMap::new();
        let mut squeezed = false;
        let mut active: BTreeSet<u32> = [3, 17, 42, 999, IDLE, BEYOND].into_iter().collect();
        for tick in 1..=6u32 {
            // Uneven per-tenant traffic each window, plus background and
            // inactive-owner traffic the governor must ignore.
            let at = SimTime::from_ms(tick as u64);
            for &t in active.iter().filter(|&&t| t < OWNERS && t != IDLE) {
                for _ in 0..(t * tick) % 7 {
                    submit(&mut backbone, at, read(t), OwnerId::Kernel(t));
                }
            }
            submit(&mut backbone, at, read(tick), OwnerId::Gc);
            submit(
                &mut backbone,
                at,
                read(500 + tick),
                OwnerId::Kernel(500 + tick),
            );

            let expected = oracle_tick(&backbone, &active, &mut last, config);
            governor.rebalance(&active, &mut backbone);
            squeezed |= expected.iter().any(|&(_, b)| b < config.max_budget);
            for (tenant, budget) in expected {
                let installed = backbone.owner_budget_override(OwnerId::Kernel(tenant));
                assert_eq!(installed, Some(budget), "tick {tick} tenant {tenant}");
            }
            if tick == 3 {
                governor.retire(17, &mut backbone);
                last.remove(&17);
                active.remove(&17);
            }
        }
        assert!(squeezed, "no window had a delta spread");
        assert_eq!(governor.updates(), 6);
    }

    fn tiny_system() -> FlashAbacusSystem {
        use crate::config::FlashAbacusConfig;
        use crate::scheduler::SchedulerPolicy;
        FlashAbacusSystem::new(FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::InterDy))
    }

    /// A three-tenant campaign on the tiny test device, at most
    /// `max_in_flight` tenants at once, under `governor`.
    fn three_tenant_campaign(
        max_in_flight: usize,
        governor: GovernorConfig,
    ) -> Result<OpenLoopReport, FaError> {
        three_tenant_campaign_on(&mut tiny_system(), max_in_flight, governor)
    }

    fn three_tenant_campaign_on(
        system: &mut FlashAbacusSystem,
        max_in_flight: usize,
        governor: GovernorConfig,
    ) -> Result<OpenLoopReport, FaError> {
        let plan = ArrivalPlan {
            seed: 1,
            rate_per_s: 20_000.0,
            tenants: 3,
            templates: 3,
            ..ArrivalPlan::default()
        };
        let scaleout = ScaleoutConfig {
            max_in_flight,
            queue_limit: 4,
            governor: Some(governor),
        };
        system.run_open_loop(
            &fa_workloads::tenants::tenant_templates(1024),
            &plan,
            &scaleout,
        )
    }

    #[test]
    fn a_system_runs_one_campaign() {
        let mut system = tiny_system();
        let first = three_tenant_campaign_on(&mut system, 2, GovernorConfig::default());
        assert!(first.is_ok());
        let again = three_tenant_campaign_on(&mut system, 2, GovernorConfig::default());
        assert!(matches!(again, Err(FaError::InvalidWorkload(m)) if m.contains("already run")));
        // Nor may a closed-loop batch follow the campaign.
        let batch = fa_workloads::tenants::tenant_templates(1024);
        let after = system.run(&batch);
        assert!(matches!(after, Err(FaError::InvalidWorkload(m)) if m.contains("already run")));
        // A fresh system runs the same campaign again, identically.
        let fresh = three_tenant_campaign(2, GovernorConfig::default()).unwrap();
        assert_eq!(first.unwrap().digest(), fresh.digest());
    }

    #[test]
    fn zero_governor_window_is_rejected() {
        let result = three_tenant_campaign(
            2,
            GovernorConfig {
                window: SimDuration::ZERO,
                ..GovernorConfig::default()
            },
        );
        assert!(matches!(result, Err(FaError::InvalidWorkload(m)) if m.contains("window")));
    }

    #[test]
    fn zero_admission_cap_is_rejected() {
        let result = three_tenant_campaign(0, GovernorConfig::default());
        assert!(matches!(result, Err(FaError::InvalidWorkload(m)) if m.contains("max_in_flight")));
    }

    #[test]
    fn governor_min_budget_above_max_is_rejected() {
        let result = three_tenant_campaign(
            2,
            GovernorConfig {
                window: SimDuration::from_us(10),
                min_budget: 8,
                max_budget: 2,
            },
        );
        assert!(matches!(result, Err(FaError::InvalidWorkload(m)) if m.contains("min_budget")));
    }

    #[test]
    fn sojourn_quantiles_are_nearest_ranks_of_the_completed_tenants() {
        let mut report = three_tenant_campaign(2, GovernorConfig::default()).unwrap();
        let mut sorted: Vec<SimDuration> = report
            .tenants
            .iter()
            .filter_map(TenantOutcome::sojourn)
            .collect();
        sorted.sort_unstable();
        assert_eq!(sorted.len(), 3);
        let qs = [0.0, 0.5, 0.99, 0.999, 1.0];
        let want = [0, 1, 2, 2, 2].map(|rank| sorted[rank].as_secs_f64());
        assert_eq!(report.sojourn_quantiles(qs), want);
        assert_eq!(report.sojourn_quantile(0.5), want[1]);
        assert_eq!(report.outcome.tenant_sojourn_p999_s, want[3]);
        report.tenants.clear();
        assert_eq!(report.sojourn_quantiles(qs), [0.0; 5]);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[]), 0.0);
        assert_eq!(jain_fairness(&[0, 0]), 0.0);
        assert!((jain_fairness(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything → 1/n.
        assert!((jain_fairness(&[10, 0, 0, 0]) - 0.25).abs() < 1e-12);
    }

    proptest! {
        /// Satellite: under any arrival burst interleaved with completions,
        /// in-flight never exceeds the cap, the arrival-time decisions
        /// always partition the arrivals (shed + admitted + queued ==
        /// arrivals), and queued tenants admit in arrival order.
        #[test]
        fn admission_controller_invariants(
            cap in 1usize..8,
            queue_limit in 0usize..8,
            // true = arrival, false = completion (ignored when idle).
            ops in prop::collection::vec(prop::bool::ANY, 1..200),
        ) {
            let mut a = AdmissionController::new(cap, queue_limit);
            let mut next_tenant = 0u32;
            let mut queued_order: VecDeque<u32> = VecDeque::new();
            let mut live = 0usize;
            for op in ops {
                if op {
                    let t = next_tenant;
                    next_tenant += 1;
                    match a.arrive(t) {
                        AdmissionDecision::Admitted => { live += 1; }
                        AdmissionDecision::Queued => queued_order.push_back(t),
                        AdmissionDecision::Shed => {}
                        AdmissionDecision::Promoted => {
                            prop_assert!(false, "arrive() never promotes");
                        }
                    }
                } else if live > 0 {
                    let promoted = a.complete();
                    if let Some(p) = promoted {
                        // FIFO promotion order; the freed slot is refilled,
                        // so the live count is unchanged.
                        prop_assert_eq!(Some(p), queued_order.pop_front());
                    } else {
                        live -= 1;
                    }
                }
                // In-flight never exceeds the cap...
                prop_assert!(a.in_flight() <= a.cap());
                // ...and the shadow model agrees with the controller.
                prop_assert_eq!(a.in_flight(), live);
                let (arrivals, admitted, queued, shed, _) = a.counters();
                // The arrival-time decisions partition the arrivals.
                prop_assert_eq!(admitted + queued + shed, arrivals);
                // The queue can never outgrow its limit.
                prop_assert!(a.queue_len() <= queue_limit);
            }
        }
    }
}
