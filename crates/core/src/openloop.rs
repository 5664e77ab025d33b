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
//! Each admitted tenant occupies one of `max_in_flight` flash *slots*
//! (equal-sized, group-aligned regions, reused as tenants retire — reuse
//! makes long campaigns overwrite-heavy, which is exactly the churn the
//! allocator and GC invariants are tested under). A tenant is one
//! lightweight flow: its screens execute serially on the least-loaded
//! worker LWP, its input is staged from flash at dispatch, and its output
//! is flushed at completion. All flash traffic is issued at
//! event-processing instants, which the event loop visits in
//! non-decreasing time order — the same causality contract the
//! closed-loop frontier enforces, so the FIFO resource models stay valid.
//!
//! # Determinism contract
//!
//! The arrival schedule is a pure function of the `FA_ARRIVALS` seed;
//! admission decisions are a pure function of the schedule and completion
//! times; completion times come from the deterministic simulation. Ties
//! are broken by fixed priority (completions, then governor ticks, then
//! arrivals) and tenant id. Nothing depends on host thread scheduling or
//! map iteration order, so the per-tenant report and admission trace are
//! byte-identical across repeats (pinned by
//! `tests/scaleout_determinism.rs`).

use crate::config::{GovernorConfig, ScaleoutConfig};
use crate::error::FaError;
use crate::metrics::KernelLatency;
use crate::metrics::RunOutcome;
use crate::rangelock::LockMode;
use crate::system::{ComputeInterval, FlashAbacusSystem, ScreenSlice};
use fa_flash::{FlashBackbone, OwnerId};
use fa_kernel::model::{AppId, Application};
use fa_sim::arrivals::ArrivalPlan;
use fa_sim::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

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
    pub fn label(&self) -> &'static str {
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
    pub fn new(cap: usize, queue_limit: usize) -> Self {
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
    pub fn arrive(&mut self, tenant: u32) -> AdmissionDecision {
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
    pub fn complete(&mut self) -> Option<u32> {
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
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The admission cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// `(arrivals, admitted, queued, shed, promoted)` counters.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
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
    pub fn next_tick(&self) -> SimTime {
        self.next_tick
    }

    /// Budget-recomputation ticks executed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Runs one tick at `now`: recomputes and installs every active
    /// tenant's budget override from its command delta over the window.
    /// Costs O(active tenants × channels), independent of how many owners
    /// the backbone has ever seen.
    pub fn rebalance(&mut self, active: &BTreeSet<u32>, backbone: &mut FlashBackbone) {
        let mut deltas: Vec<(u32, u64)> = Vec::with_capacity(active.len());
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
    pub fn sojourn_quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
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

/// A tenant dispatched and computing; its output flushes at `done`.
struct InFlightTenant {
    app: Application,
    compute_end: SimTime,
}

impl FlashAbacusSystem {
    /// Runs a seeded open-loop campaign: `plan` injects tenants (each an
    /// instance of one of `templates`, placed in a reusable flash slot),
    /// `scaleout` bounds concurrency and optionally enables the online
    /// QoS governor. Returns the per-tenant report; see the module docs
    /// for the execution model and determinism contract.
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
            // A zero window never advances the tick, so the tick would win
            // the event selection at the same instant forever.
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
        let available = self.flashvisor.available_groups();
        if required_groups > available {
            return Err(FaError::OutOfFlashSpace {
                requested: required_groups,
                available,
            });
        }

        let schedule = plan.schedule();
        let mut tenants: Vec<TenantOutcome> = schedule
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

        let mut admission = AdmissionController::new(slot_count, scaleout.queue_limit);
        let mut governor = scaleout.governor.map(|g| QosGovernor::new(g, plan.start));
        let mut admissions: Vec<AdmissionRecord> = Vec::with_capacity(schedule.len());
        // Lowest-numbered free slot first: a pure function of the
        // admission sequence, so slot assignment is deterministic.
        let mut free_slots: BinaryHeap<Reverse<usize>> = (0..slot_count).map(Reverse).collect();
        let mut slot_of_tenant: BTreeMap<u32, usize> = BTreeMap::new();
        let mut in_flight: BTreeMap<u32, InFlightTenant> = BTreeMap::new();
        let mut active: BTreeSet<u32> = BTreeSet::new();
        // Completion events, earliest first; ties break by tenant id.
        let mut completions: BinaryHeap<Reverse<(SimTime, u32)>> = BinaryHeap::new();
        let mut worker_booted = vec![false; self.workers.len()];
        let mut next_arrival = 0usize;
        let mut finished_at = SimTime::ZERO;

        loop {
            // Candidate events, with tie priority completion < governor
            // tick < arrival (a completion at t frees the slot a same-t
            // arrival may take; a governor tick at t sees the post-retire
            // active set).
            let completion_at = completions.peek().map(|Reverse((t, _))| *t);
            let campaign_live =
                next_arrival < schedule.len() || !in_flight.is_empty() || admission.queue_len() > 0;
            let governor_at = match (&governor, campaign_live) {
                (Some(g), true) => Some(g.next_tick()),
                _ => None,
            };
            let arrival_at = schedule.get(next_arrival).map(|a| a.at);
            let next_event = [(completion_at, 0u8), (governor_at, 1u8), (arrival_at, 2u8)]
                .into_iter()
                .filter_map(|(t, pri)| t.map(|t| (t, pri)))
                .min();
            let Some((now, priority)) = next_event else {
                break;
            };

            // Background storage tasks strictly earlier than the next
            // event run first (foreground wins ties), mirroring the
            // closed-loop loop's interleaving.
            if self.background.peek_time().is_some_and(|t| t < now) {
                let (at, task) = self.background.pop().expect("peeked task vanished");
                self.run_storage_task_tolerant(at, task)?;
                self.maybe_power_loss(at)?;
                continue;
            }

            match priority {
                0 => {
                    // Completion: flush the tenant's output, release its
                    // slot and locks, clear its governor override, and
                    // dispatch the promoted queue head (if any) now.
                    let Reverse((_, tenant)) = completions.pop().expect("peeked completion");
                    let flight = in_flight
                        .remove(&tenant)
                        .expect("completing tenant in flight");
                    let mut done = flight.compute_end;
                    for kernel in &flight.app.kernels {
                        let slice = ScreenSlice {
                            input_start: 0,
                            input_len: 0,
                            output_start: kernel.data_section.input_bytes,
                            output_len: kernel.data_section.output_bytes,
                        };
                        if slice.output_len > 0 {
                            done =
                                self.flush_output(done, kernel.data_section.flash_base, &slice)?;
                        }
                    }
                    self.flashvisor.unmap_owner(tenant);
                    active.remove(&tenant);
                    if let Some(g) = governor.as_mut() {
                        g.retire(tenant, self.flashvisor.backbone_mut());
                    }
                    let slot = slot_of_tenant
                        .remove(&tenant)
                        .expect("completing tenant holds a slot");
                    free_slots.push(Reverse(slot));
                    tenants[tenant as usize].completed_at = Some(done);
                    finished_at = finished_at.max(done);
                    self.maybe_power_loss(flight.compute_end)?;
                    if let Some(promoted) = admission.complete() {
                        admissions.push(AdmissionRecord {
                            at: flight.compute_end,
                            tenant: promoted,
                            decision: AdmissionDecision::Promoted,
                        });
                        let Reverse(slot) = free_slots.pop().expect("freed slot available");
                        slot_of_tenant.insert(promoted, slot);
                        tenants[promoted as usize].admitted_at = Some(flight.compute_end);
                        let template = tenants[promoted as usize].template;
                        let end = self.dispatch_tenant(
                            &templates[template],
                            promoted,
                            slot as u64 * slot_bytes,
                            flight.compute_end,
                            &mut worker_booted,
                            &mut in_flight,
                        )?;
                        active.insert(promoted);
                        completions.push(Reverse((end, promoted)));
                    }
                }
                1 => {
                    let g = governor.as_mut().expect("governor tick without governor");
                    g.rebalance(&active, self.flashvisor.backbone_mut());
                }
                _ => {
                    let arrival = schedule[next_arrival];
                    next_arrival += 1;
                    let decision = admission.arrive(arrival.tenant);
                    admissions.push(AdmissionRecord {
                        at: arrival.at,
                        tenant: arrival.tenant,
                        decision,
                    });
                    if decision == AdmissionDecision::Admitted {
                        let Reverse(slot) = free_slots.pop().expect("admission implies free slot");
                        slot_of_tenant.insert(arrival.tenant, slot);
                        tenants[arrival.tenant as usize].admitted_at = Some(arrival.at);
                        let end = self.dispatch_tenant(
                            &templates[arrival.template],
                            arrival.tenant,
                            slot as u64 * slot_bytes,
                            arrival.at,
                            &mut worker_booted,
                            &mut in_flight,
                        )?;
                        active.insert(arrival.tenant);
                        completions.push(Reverse((end, arrival.tenant)));
                    }
                }
            }
        }

        // Drain remaining background storage campaigns to quiescence, and
        // fire a power loss armed past the end of all activity, exactly
        // like the closed-loop driver.
        while let Some((at, task)) = self.background.pop() {
            self.run_storage_task_tolerant(at, task)?;
            self.maybe_power_loss(at)?;
        }
        if self.power_loss_clock().armed() {
            let at = self
                .power_loss_clock()
                .at()
                .expect("armed clock has an instant");
            self.maybe_power_loss(finished_at.max(at))?;
        }

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
            self.collect_common_outcome(finished_at, kernel_latencies, bytes_processed);
        let (arrivals, admitted, queued, shed, _) = admission.counters();
        outcome.tenants_arrived = arrivals;
        outcome.tenants_admitted = admitted;
        outcome.tenants_queued = queued;
        outcome.tenants_shed = shed;
        outcome.governor_updates = governor.as_ref().map(|g| g.updates()).unwrap_or(0);
        let service: Vec<u64> = tenants
            .iter()
            .filter(|t| t.completed_at.is_some())
            .map(|t| t.bytes)
            .collect();
        outcome.tenant_fairness_index = jain_fairness(&service);

        let mut report = OpenLoopReport {
            outcome,
            tenants,
            admissions,
        };
        let [p50, p99, p999] = report.sojourn_quantiles([0.50, 0.99, 0.999]);
        report.outcome.tenant_sojourn_p50_s = p50;
        report.outcome.tenant_sojourn_p99_s = p99;
        report.outcome.tenant_sojourn_p999_s = p999;
        Ok(report)
    }

    /// Dispatches one tenant at `at`: instantiates its template in the
    /// slot, maps its data sections under its owner id, stages the input,
    /// and runs every screen serially on the least-loaded worker. Returns
    /// the compute-end instant (the output flushes at the completion
    /// event, keeping flash requests in non-decreasing time order).
    fn dispatch_tenant(
        &mut self,
        template: &Application,
        tenant: u32,
        slot_base: u64,
        at: SimTime,
        worker_booted: &mut [bool],
        in_flight: &mut BTreeMap<u32, InFlightTenant>,
    ) -> Result<SimTime, FaError> {
        let app = template.instantiate(AppId(tenant), slot_base);

        // The tenant's input already resides in flash (preload maps any
        // groups a previous slot occupant did not leave mapped; it
        // consumes no simulated time).
        for kernel in &app.kernels {
            self.flashvisor.preload_range(
                kernel.data_section.flash_base,
                kernel.data_section.input_bytes,
            )?;
        }
        for kernel in &app.kernels {
            let ds = kernel.data_section;
            if ds.input_bytes > 0 {
                self.flashvisor.map_section(
                    ds.flash_base,
                    ds.input_bytes,
                    LockMode::Read,
                    tenant,
                )?;
            }
            if ds.output_bytes > 0 {
                self.flashvisor.map_section(
                    ds.flash_base + ds.input_bytes,
                    ds.output_bytes,
                    LockMode::Write,
                    tenant,
                )?;
            }
        }

        // Scheduling decision on Flashvisor plus the message-queue hop.
        let decided = self.flashvisor.charge_scheduling_decision(at);
        let mut dispatched = self.msgq.send(decided);

        // Least-loaded worker: earliest effective start, lowest index on
        // ties — a pure function of simulated state.
        let worker = (0..self.workers.len())
            .min_by_key(|&w| (self.workers[w].next_free().max(dispatched), w))
            .expect("at least one worker LWP");
        if !worker_booted[worker] {
            dispatched = self.workers[worker]
                .boot_kernel(dispatched, 0x1000_0000 + worker as u64 * 0x10_0000);
            worker_booted[worker] = true;
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
                self.stage_input(cursor, kernel.data_section.flash_base, &input_slice)?;
            cursor = cursor.max(data_ready);
            for mblock in &kernel.microblocks {
                for screen in &mblock.screens {
                    let est = self.workers[worker].estimate(&screen.mix, screen.bytes_touched());
                    let start = cursor.max(self.workers[worker].next_free());
                    let res = self.workers[worker].execute(start, &est);
                    self.energy.record(
                        fa_energy::Component::Lwp,
                        fa_energy::ActivityCategory::Computation,
                        res.start,
                        res.end,
                    );
                    let spec = *self.workers[worker].spec();
                    self.compute_intervals.push(ComputeInterval {
                        start: res.start,
                        end: res.end,
                        busy_fus: est.occupancy.mean_busy_fus(&spec, est.cycles),
                    });
                    cursor = res.end;
                }
            }
        }
        in_flight.insert(
            tenant,
            InFlightTenant {
                app,
                compute_end: cursor,
            },
        );
        Ok(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        use fa_flash::{FlashCommand, FlashGeometry, FlashTiming, PhysicalPageAddr};
        let geometry = FlashGeometry::tiny_for_tests();
        let mut backbone =
            FlashBackbone::new(geometry, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000);
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
        let over = |b: &FlashBackbone, t: u32| {
            b.channel(0)
                .expect("channel 0 exists")
                .owner_budget_override(OwnerId::Kernel(t))
        };
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
        use fa_flash::{FlashCommand, FlashGeometry, FlashTiming, PhysicalPageAddr};
        const OWNERS: u32 = 1200;
        // Inside the dense vectors but never submitted, and past their end.
        const IDLE: u32 = 600;
        const BEYOND: u32 = OWNERS + 50;
        let geometry = FlashGeometry::tiny_for_tests();
        let mut backbone =
            FlashBackbone::new(geometry, FlashTiming::fast_for_tests(), 2.5e9, 8, 1_000);
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
                for c in 0..geometry.channels {
                    let installed = backbone
                        .channel(c)
                        .expect("channel exists")
                        .owner_budget_override(OwnerId::Kernel(tenant));
                    assert_eq!(installed, Some(budget), "tick {tick} tenant {tenant}");
                }
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

    /// A three-tenant campaign on the tiny test device, at most
    /// `max_in_flight` tenants at once, under `governor`.
    fn three_tenant_campaign(
        max_in_flight: usize,
        governor: GovernorConfig,
    ) -> Result<OpenLoopReport, FaError> {
        use crate::config::FlashAbacusConfig;
        use crate::scheduler::SchedulerPolicy;
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::InterDy);
        let mut system = FlashAbacusSystem::new(config);
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
