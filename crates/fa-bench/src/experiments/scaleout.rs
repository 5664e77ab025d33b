//! Open-loop scale-out capacity curve and online-QoS-governor ablation.
//!
//! This experiment drives the open-loop multi-tenant traffic engine
//! (`flashabacus::openloop`) with seeded Poisson arrivals over the three
//! tenant templates and sweeps the offered load around the accelerator's
//! measured capacity:
//!
//! 1. A **saturation probe** floods the admission queue (every tenant
//!    arrives at once) and measures the drain throughput — the pipeline's
//!    real capacity, which the flash program tail dominates rather than
//!    the compute time an isolated tenant would suggest. That measured
//!    capacity anchors the sweep's base rate.
//! 2. The **capacity curve** sweeps offered load from well under to well
//!    over that base rate, recording completed-tenant throughput, tail-SLO
//!    attainment, sojourn quantiles, admission/shed counts, and Jain's
//!    fairness — the tenants/sec-vs-attainment trade the paper's scale-out
//!    story turns on. The lightest point's p99 sojourn defines the tail
//!    SLO (`SLO_FACTOR ×` light-load p99) every point is judged against.
//! 3. The **governor ablation** repeats the overload point with the online
//!    QoS governor disabled (static `QosConfig` budgets), isolating what
//!    the per-tenant budget retuning buys at the tail.
//!
//! Everything here is simulated time and exactly reproducible: the same
//! seed produces byte-identical reports (see `tests/scaleout_determinism`).

use crate::runner::ExperimentScale;
use fa_kernel::model::Application;
use fa_sim::arrivals::{ArrivalPlan, ArrivalShape};
use fa_sim::time::SimDuration;
use fa_workloads::tenants::tenant_templates;
use flashabacus::config::{FlashAbacusConfig, GovernorConfig, ScaleoutConfig};
use flashabacus::openloop::OpenLoopReport;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::system::FlashAbacusSystem;
use std::fmt::Write as _;

/// Seed every scale-out campaign derives from.
pub const SCALEOUT_SEED: u64 = 0xFA10;

/// The tail SLO is this multiple of the light-load p99 sojourn.
pub const SLO_FACTOR: f64 = 3.0;

/// Offered-load multipliers of the capacity sweep, relative to the
/// calibrated base rate.
pub const RATE_MULTIPLIERS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// One campaign's aggregate outcome at a given offered load.
#[derive(Debug, Clone)]
pub struct ScaleoutStat {
    /// Offered load as a multiple of the calibrated base rate.
    pub rate_multiplier: f64,
    /// Offered load in tenants per simulated second.
    pub rate_per_s: f64,
    /// Tenants the arrival plan injected.
    pub arrived: u64,
    /// Tenants admitted straight into a free slot.
    pub admitted: u64,
    /// Tenants that waited in the admission queue first.
    pub queued: u64,
    /// Tenants shed at a full queue.
    pub shed: u64,
    /// Tenants that ran to completion.
    pub completed: u64,
    /// Completed-tenant throughput in tenants per simulated second.
    pub completed_tenants_per_s: f64,
    /// Fraction of arrived tenants whose sojourn met the tail SLO.
    pub slo_attainment: f64,
    /// Sojourn quantiles over completed tenants, in seconds.
    pub sojourn_p50_s: f64,
    /// 99th-percentile sojourn in seconds.
    pub sojourn_p99_s: f64,
    /// 99.9th-percentile sojourn in seconds.
    pub sojourn_p999_s: f64,
    /// Jain's fairness index over per-tenant flash service.
    pub fairness: f64,
    /// Online budget recomputations the governor performed.
    pub governor_updates: u64,
    /// p99 sojourn per template index (seconds); the ablation reads this
    /// to show what budget retuning does to each tenant shape.
    pub per_template_p99_s: Vec<(usize, f64)>,
}

/// The overload point run with and without the online QoS governor.
#[derive(Debug, Clone)]
pub struct GovernorAblation {
    /// Offered load of the ablation point, tenants per simulated second.
    pub rate_per_s: f64,
    /// The governed run (online per-tenant budget retuning).
    pub governed: ScaleoutStat,
    /// The same campaign under the static `QosConfig` budgets.
    pub static_budgets: ScaleoutStat,
}

/// Everything the scale-out experiment produces.
#[derive(Debug, Clone)]
pub struct ScaleoutReport {
    /// Tenants injected per campaign.
    pub tenants: u32,
    /// Measured capacity: the saturation probe's completed-tenant drain
    /// throughput, tenants per simulated second.
    pub base_rate_per_s: f64,
    /// The tail SLO in seconds ([`SLO_FACTOR`] × light-load p99).
    pub slo_limit_s: f64,
    /// One point per [`RATE_MULTIPLIERS`] entry, governor on.
    pub curve: Vec<ScaleoutStat>,
    /// Governor-on vs static-budget comparison at the 4× overload point.
    pub ablation: GovernorAblation,
}

/// Tenants per campaign at the given data scale: 1000 at the default
/// `FA_DATA_SCALE=16`, clamped so CI smokes stay small and full-scale runs
/// stay bounded.
pub fn scaleout_tenants(scale: ExperimentScale) -> u32 {
    (16_000 / scale.data_scale.max(1)).clamp(64, 2000) as u32
}

/// The accelerator configuration every scale-out campaign runs on: the
/// paper prototype with background GC enabled (so the governor shares the
/// channels with reclamation, as in deployment).
pub fn scaleout_config() -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::InterDy);
    config.qos.background_gc = true;
    config
}

/// The concurrency bounds shared by every campaign; `governed` toggles the
/// online QoS governor.
pub fn scaleout_bounds(governed: bool) -> ScaleoutConfig {
    ScaleoutConfig {
        max_in_flight: 6,
        queue_limit: 64,
        governor: governed.then(GovernorConfig::default),
    }
}

/// Runs one open-loop campaign over the tenant templates.
pub fn run_scaleout_campaign(
    templates: &[Application],
    plan: &ArrivalPlan,
    governed: bool,
) -> OpenLoopReport {
    let mut system = FlashAbacusSystem::new(scaleout_config());
    system
        .run_open_loop(templates, plan, &scaleout_bounds(governed))
        .unwrap_or_else(|e| panic!("open-loop campaign failed: {e}"))
}

fn plan_at(rate_per_s: f64, tenants: u32, templates: usize) -> ArrivalPlan {
    ArrivalPlan {
        seed: SCALEOUT_SEED,
        rate_per_s,
        tenants,
        shape: ArrivalShape::Poisson,
        templates,
        ..Default::default()
    }
}

fn stat_of(report: &OpenLoopReport, multiplier: f64, rate_per_s: f64, slo_s: f64) -> ScaleoutStat {
    let completed = report
        .tenants
        .iter()
        .filter(|t| t.completed_at.is_some())
        .count() as u64;
    let finished_s = report.outcome.finished_at.as_secs_f64();
    let mut by_template: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for t in &report.tenants {
        if let Some(s) = t.sojourn() {
            by_template
                .entry(t.template)
                .or_default()
                .push(s.as_secs_f64());
        }
    }
    let per_template_p99_s: Vec<(usize, f64)> = by_template
        .into_iter()
        .map(|(tpl, mut sojourns)| {
            sojourns.sort_by(f64::total_cmp);
            let idx = ((sojourns.len() - 1) as f64 * 0.99).round() as usize;
            (tpl, sojourns[idx])
        })
        .collect();
    ScaleoutStat {
        rate_multiplier: multiplier,
        rate_per_s,
        arrived: report.outcome.tenants_arrived,
        admitted: report.outcome.tenants_admitted,
        queued: report.outcome.tenants_queued,
        shed: report.outcome.tenants_shed,
        completed,
        completed_tenants_per_s: completed as f64 / finished_s.max(1e-12),
        slo_attainment: report.slo_attainment(SimDuration::from_ns((slo_s * 1e9) as u64)),
        sojourn_p50_s: report.outcome.tenant_sojourn_p50_s,
        sojourn_p99_s: report.outcome.tenant_sojourn_p99_s,
        sojourn_p999_s: report.outcome.tenant_sojourn_p999_s,
        fairness: report.outcome.tenant_fairness_index,
        governor_updates: report.outcome.governor_updates,
        per_template_p99_s,
    }
}

/// Runs the whole experiment: calibration probe, capacity curve, and the
/// governor ablation at the 4× overload point.
pub fn scaleout_report(scale: ExperimentScale) -> ScaleoutReport {
    let templates = tenant_templates(scale.data_scale);
    let tenants = scaleout_tenants(scale);

    // Saturation probe: every tenant arrives within microseconds, the
    // queue fills instantly, and the completion rate of the drain is the
    // pipeline's measured capacity (the flash program tail, not the
    // isolated compute time, sets the cadence).
    let probe = run_scaleout_campaign(&templates, &plan_at(1e7, tenants, templates.len()), true);
    let probe_completed = probe
        .tenants
        .iter()
        .filter(|t| t.completed_at.is_some())
        .count();
    assert!(probe_completed > 0, "saturation probe completed no tenants");
    let base_rate_per_s =
        probe_completed as f64 / probe.outcome.finished_at.as_secs_f64().max(1e-12);

    // The sweep, governor on throughout. The lightest point defines the
    // tail SLO, so attainment is computed once all campaigns have run.
    let reports: Vec<(f64, f64, OpenLoopReport)> = RATE_MULTIPLIERS
        .iter()
        .map(|&m| {
            let rate = base_rate_per_s * m;
            let report =
                run_scaleout_campaign(&templates, &plan_at(rate, tenants, templates.len()), true);
            (m, rate, report)
        })
        .collect();
    let slo_limit_s = SLO_FACTOR * reports[0].2.sojourn_quantile(0.99);
    let curve: Vec<ScaleoutStat> = reports
        .iter()
        .map(|(m, rate, report)| stat_of(report, *m, *rate, slo_limit_s))
        .collect();

    // The ablation reuses the curve's own deepest overload point as the
    // governed side — identical seed and rate, so the comparison isolates
    // the governor exactly where queue pressure and the template mix give
    // it a noisy neighbour to act on.
    let overload_multiplier = 4.0;
    let overload_rate = base_rate_per_s * overload_multiplier;
    let governed = curve
        .iter()
        .find(|s| s.rate_multiplier == overload_multiplier)
        .expect("capacity curve covers the 4x point")
        .clone();
    let static_report = run_scaleout_campaign(
        &templates,
        &plan_at(overload_rate, tenants, templates.len()),
        false,
    );
    let static_budgets = stat_of(
        &static_report,
        overload_multiplier,
        overload_rate,
        slo_limit_s,
    );

    ScaleoutReport {
        tenants,
        base_rate_per_s,
        slo_limit_s,
        curve,
        ablation: GovernorAblation {
            rate_per_s: overload_rate,
            governed,
            static_budgets,
        },
    }
}

/// Renders the report as the plain-text tables the `scaleout` binary
/// prints.
pub fn render_scaleout(report: &ScaleoutReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Open-loop scale-out: {} tenants/campaign, base rate {:.0}/s, tail SLO {:.3} ms",
        report.tenants,
        report.base_rate_per_s,
        report.slo_limit_s * 1e3
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>8} {:>8} {:>7} {:>6} {:>10} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "load",
        "rate/s",
        "admit",
        "queued",
        "shed",
        "done",
        "done/s",
        "SLO-attain",
        "p50 ms",
        "p99 ms",
        "fairness",
        "gov-upd"
    );
    for s in &report.curve {
        let _ = writeln!(
            out,
            "{:>5.2}x {:>12.0} {:>8} {:>8} {:>7} {:>6} {:>10.0} {:>11.1}% {:>10.4} {:>10.4} {:>9.4} {:>9}",
            s.rate_multiplier,
            s.rate_per_s,
            s.admitted,
            s.queued,
            s.shed,
            s.completed,
            s.completed_tenants_per_s,
            s.slo_attainment * 100.0,
            s.sojourn_p50_s * 1e3,
            s.sojourn_p99_s * 1e3,
            s.fairness,
            s.governor_updates
        );
    }
    let a = &report.ablation;
    let _ = writeln!(
        out,
        "\nGovernor ablation at {:.0} tenants/s (4x overload):",
        a.rate_per_s
    );
    for (label, s) in [
        ("online governor", &a.governed),
        ("static budgets", &a.static_budgets),
    ] {
        let _ = writeln!(
            out,
            "  {label:<16} done {:>5}  SLO-attain {:>5.1}%  p99 {:>9.4} ms  p999 {:>9.4} ms  fairness {:.4}",
            s.completed,
            s.slo_attainment * 100.0,
            s.sojourn_p99_s * 1e3,
            s.sojourn_p999_s * 1e3,
            s.fairness
        );
        let per_tpl: Vec<String> = s
            .per_template_p99_s
            .iter()
            .map(|(tpl, p99)| format!("tpl{} {:.4} ms", tpl, p99 * 1e3))
            .collect();
        let _ = writeln!(out, "  {:<16} per-template p99: {}", "", per_tpl.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaleout_tenants_tracks_the_data_scale() {
        assert_eq!(scaleout_tenants(ExperimentScale { data_scale: 16 }), 1000);
        assert_eq!(scaleout_tenants(ExperimentScale { data_scale: 256 }), 64);
        assert_eq!(scaleout_tenants(ExperimentScale { data_scale: 1 }), 2000);
    }

    #[test]
    fn small_scale_report_is_complete_and_deterministic() {
        let scale = ExperimentScale { data_scale: 1024 };
        let a = scaleout_report(scale);
        assert_eq!(a.curve.len(), RATE_MULTIPLIERS.len());
        assert!(a.base_rate_per_s > 0.0);
        assert!(a.slo_limit_s > 0.0);
        // Light load meets the SLO by construction; every point completes
        // someone and the rendering mentions the attainment column.
        assert!(a.curve[0].slo_attainment > 0.9, "{:?}", a.curve[0]);
        assert!(a.curve.iter().all(|s| s.completed > 0));
        let text = render_scaleout(&a);
        assert!(text.contains("SLO-attain"));
        assert!(text.contains("Governor ablation"));

        let b = scaleout_report(scale);
        for (x, y) in a.curve.iter().zip(&b.curve) {
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.slo_attainment.to_bits(), y.slo_attainment.to_bits());
            assert_eq!(x.sojourn_p99_s.to_bits(), y.sojourn_p99_s.to_bits());
        }
    }
}
