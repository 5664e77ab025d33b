//! `openloop`: `run_open_loop` with thousands of tenants arriving as a
//! seeded Poisson stream at half the measured capacity, with the online QoS
//! governor on. Arrivals are precomputed from the seed in simulated time,
//! so the generator can never run late.

use crate::measure::{median, Digest};
use crate::trace::Meter;
use crate::workload::{record_energy, sharded_counts, FlashTally, PassOut};
use fa_bench::experiments::scaleout::{scaleout_bounds, scaleout_config};
use fa_bench::perf::preloaded_hot_path_backbone;
use fa_flash::{FlashBackbone, FlashCommand, OwnerId};
use fa_sim::arrivals::{ArrivalPlan, ArrivalShape};
use fa_sim::time::{SimDuration, SimTime};
use fa_workloads::tenants::tenant_templates;
use flashabacus::openloop::QosGovernor;
use flashabacus::{FlashAbacusSystem, GovernorConfig};
use std::collections::BTreeSet;
use std::time::Instant;

/// Sojourn limit behind `openloop.slo_attainment`.
const SLO_MS: u64 = 10;
/// Offered load, tenants per simulated second: half the capacity the
/// scale-out experiment measured.
const RATE_PER_S: f64 = 228.0;

/// Number of tenants (kernel owners) that ever touched `backbone`.
fn kernel_owners(backbone: &FlashBackbone) -> usize {
    backbone
        .owner_stats()
        .keys()
        .filter(|o| matches!(o, OwnerId::Kernel(_)))
        .count()
}

/// Size of the campaign, offered at [`RATE_PER_S`].
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Tenants injected.
    pub tenants: u32,
    /// Divisor applied to the tenant templates' data sizes.
    pub data_scale: u64,
}

impl OpenLoop {
    /// 4000 tenants: enough owners that per-owner bookkeeping dominates
    /// host time.
    pub fn full() -> Self {
        OpenLoop {
            tenants: 4000,
            data_scale: 16,
        }
    }

    /// The arrival plan for `seed`.
    pub fn plan(&self, seed: u64, templates: usize) -> ArrivalPlan {
        ArrivalPlan {
            seed,
            rate_per_s: RATE_PER_S,
            tenants: self.tenants,
            shape: ArrivalShape::Poisson,
            templates,
            ..ArrivalPlan::default()
        }
    }

    /// One pass: a fresh accelerator, the whole arrival stream.
    pub fn pass(&self, m: &mut Meter, seed: u64) -> PassOut {
        let (templates, plan) = m.setup("workload.gen", |_| {
            let templates = tenant_templates(self.data_scale);
            let plan = self.plan(seed, templates.len());
            (templates, plan)
        });
        let mut sys = m.setup("system.new", |_| {
            FlashAbacusSystem::without_env_faults(scaleout_config())
        });
        let run = m.call("openloop.run", |_| {
            sys.run_open_loop(&templates, &plan, &scaleout_bounds(true))
        });
        let mut out = PassOut {
            attempted: u64::from(self.tenants),
            ..PassOut::default()
        };
        let report = match run {
            Ok(r) => r,
            Err(e) => {
                out.failed = out.attempted;
                out.violation(format!("open-loop campaign failed: {e}"));
                m.call("system.drop", |_| drop(sys));
                return out;
            }
        };
        let o = &report.outcome;
        if o.tenants_admitted + o.tenants_queued + o.tenants_shed != o.tenants_arrived
            || o.tenants_arrived != u64::from(self.tenants)
        {
            out.violation(format!(
                "admitted {} + queued {} + shed {} != arrived {} (planned {})",
                o.tenants_admitted,
                o.tenants_queued,
                o.tenants_shed,
                o.tenants_arrived,
                self.tenants
            ));
        }
        // A shed or unfinished tenant misses every latency limit.
        let sojourns: Vec<u64> = report
            .tenants
            .iter()
            .map(|t| t.sojourn().map_or(u64::MAX, |s| s.as_ns()))
            .collect();
        out.failed = sojourns.iter().filter(|&&s| s == u64::MAX).count() as u64;

        let mut digest = Digest::default();
        digest.bytes(report.digest().as_bytes());

        let v = sys.flashvisor();
        let se = sys.storengine().stats();
        let c = &mut out.counters;
        c.insert("openloop.owners", kernel_owners(v.backbone()) as f64);
        c.insert("openloop.governor_updates", o.governor_updates as f64);
        c.insert("openloop.admitted", o.tenants_admitted as f64);
        c.insert("openloop.queued", o.tenants_queued as f64);
        c.insert("openloop.shed", o.tenants_shed as f64);
        c.insert(
            "openloop.slo_attainment",
            report.slo_attainment(SimDuration::from_ms(SLO_MS)),
        );
        c.insert("flashvisor.group_reads", o.flash_group_reads as f64);
        c.insert("flashvisor.group_writes", o.flash_group_writes as f64);
        c.insert("flashvisor.lwp_util", o.flashvisor_utilization);
        c.extend(sharded_counts(o));
        c.insert("rangelock.grants", v.locks().grants() as f64);
        c.insert("rangelock.denials", v.locks().denials() as f64);
        c.insert("freespace.free_groups_end", v.free_physical_groups() as f64);
        c.insert("freespace.wear_spread", v.data_block_wear().spread() as f64);
        c.insert("flash.fg_read_p99_us", o.foreground_read_p99_s * 1e6);
        c.insert("storengine.pages_migrated", se.pages_migrated as f64);
        c.insert("storengine.groups_reclaimed", se.groups_reclaimed as f64);
        c.insert("storengine.gc_passes", o.gc_passes as f64);
        c.insert("storengine.journal_dumps", o.journal_dumps as f64);
        c.insert("storengine.lwp_util", o.storengine_utilization);
        c.insert("worker.lwp_util", o.mean_worker_utilization());
        record_energy(c, &o.energy.breakdown);
        let flash = FlashTally::of(v.backbone());
        out.record_sim(
            &sojourns,
            o.bytes_processed,
            o.finished_at.as_secs_f64(),
            &flash,
        );
        out.seal(digest);
        m.call("system.drop", |_| drop(sys));
        out
    }
}

/// Host microseconds per `QosGovernor::rebalance` call on a backbone that
/// `owners` tenants have touched, with the in-flight cap's worth of tenants
/// active. Median of five batches of 40 calls.
pub fn rebalance_probe(owners: usize) -> f64 {
    let mut backbone = preloaded_hot_path_backbone();
    let geometry = *backbone.geometry();
    let mut now = SimTime::ZERO;
    for tenant in 0..owners as u32 {
        let addr = geometry.flat_to_addr(u64::from(tenant) % geometry.total_pages());
        now = backbone
            .submit_tagged(now, FlashCommand::read(addr), OwnerId::Kernel(tenant))
            .expect("read of a preloaded page")
            .finished;
    }
    let owners = u32::try_from(owners).expect("tenant ids fit in u32");
    let in_flight = scaleout_bounds(true).max_in_flight as u32;
    let active: BTreeSet<u32> = (owners.saturating_sub(in_flight)..owners).collect();
    let mut governor = QosGovernor::new(GovernorConfig::default(), SimTime::ZERO);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..40 {
                governor.rebalance(&active, &mut backbone);
            }
            start.elapsed().as_secs_f64() * 1e6 / 40.0
        })
        .collect();
    median(&samples)
}
