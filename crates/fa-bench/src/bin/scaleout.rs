//! Open-loop scale-out smoke: capacity curve + governor ablation.
//!
//! Runs the seeded multi-tenant traffic experiment at `FA_DATA_SCALE`
//! (CI uses 256 for a small tenant count) with the online QoS governor
//! enabled, prints the capacity curve and the governor-vs-static-budget
//! ablation, and exits nonzero if the SLO report comes back empty or
//! malformed.
//!
//! When `FA_ARRIVALS` is set, the binary instead runs that single arrival
//! plan over the tenant templates (governor on) and prints its stats and
//! campaign digest — the same spec → same digest, byte for byte.
//!
//! Every campaign here runs fault-free: `FA_FAULTS` does not reach them.

use fa_bench::experiments::scaleout::{
    render_scaleout, run_scaleout_campaign, scaleout_report, scaleout_tenants,
};
use fa_bench::runner::RunSpec;
use fa_workloads::tenants::tenant_templates;

fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let scale = spec.scale;

    if let Some(plan) = &spec.arrivals {
        let templates = tenant_templates(scale.data_scale);
        assert!(
            plan.templates <= templates.len(),
            "FA_ARRIVALS draws from {} templates but only {} exist",
            plan.templates,
            templates.len()
        );
        eprintln!(
            "scaleout: FA_ARRIVALS campaign, {} tenants at {:.0}/s",
            plan.tenants, plan.rate_per_s
        );
        let report = run_scaleout_campaign(&templates, plan, true);
        println!(
            "arrived {} admitted {} queued {} shed {} completed {} governor_updates {}",
            report.outcome.tenants_arrived,
            report.outcome.tenants_admitted,
            report.outcome.tenants_queued,
            report.outcome.tenants_shed,
            report
                .tenants
                .iter()
                .filter(|t| t.completed_at.is_some())
                .count(),
            report.outcome.governor_updates,
        );
        let digest = report.digest();
        println!(
            "digest: {} lines, {} bytes",
            digest.lines().count(),
            digest.len()
        );
        eprintln!("scaleout: OK");
        return;
    }

    eprintln!(
        "scaleout: data scale 1/{}, {} tenants per campaign, governor on",
        scale.data_scale,
        scaleout_tenants(scale)
    );
    let report = scaleout_report(scale);
    println!("{}", render_scaleout(&report));

    // The CI gate: the SLO report must be non-empty and well-formed.
    assert!(!report.curve.is_empty(), "capacity curve is empty");
    assert!(report.slo_limit_s > 0.0, "tail SLO never calibrated");
    for point in &report.curve {
        assert!(point.arrived > 0, "a curve point saw no arrivals");
        assert!(point.completed > 0, "a curve point completed no tenants");
        assert!(
            (0.0..=1.0).contains(&point.slo_attainment),
            "SLO attainment out of range: {}",
            point.slo_attainment
        );
    }
    // Light load must meet the tail SLO it defined.
    assert!(
        report.curve[0].slo_attainment > 0.9,
        "light-load SLO attainment {:.3} — calibration broken",
        report.curve[0].slo_attainment
    );
    assert!(
        report.ablation.governed.governor_updates > 0,
        "governor never retuned budgets at the overload point"
    );
    assert_eq!(
        report.ablation.static_budgets.governor_updates, 0,
        "static-budget ablation ran the governor"
    );
    eprintln!("scaleout: OK");
}
