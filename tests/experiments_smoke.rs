//! Smoke tests for the experiment harness: every figure's report generates
//! at a coarse data scale and contains the rows the paper's figures have.
//!
//! These are the integration-level guarantee that `cargo run -p fa-bench
//! --bin <figure>` will produce the expected output shape; the full-scale
//! numbers live in `EXPERIMENTS.md`.

use fa_bench::experiments::{
    fig10_throughput, fig11_latency, fig13_energy, fig14_utilization, fig16_bigdata, tables,
    Campaign,
};
use fa_bench::runner::{
    heterogeneous_workload, homogeneous_workload, run_on, ExperimentScale, RunSpec, SystemKind,
    UnifiedOutcome,
};
use fa_workloads::polybench::PolyBench;
use flashabacus::SchedulerPolicy;

/// Coarse scale for smoke testing.
const SCALE: ExperimentScale = ExperimentScale { data_scale: 512 };

#[test]
fn static_tables_render() {
    let t1 = tables::table1();
    assert!(t1.contains("LWP"));
    assert!(t1.contains("Flash backbone"));
    let t2 = tables::table2();
    assert!(t2.contains("ATAX"));
    assert!(t2.contains("MX14"));
}

#[test]
fn figure_reports_render_from_a_small_campaign() {
    // One homogeneous workload across all five systems is enough to check
    // that every figure module renders consistent tables.
    let apps = homogeneous_workload(PolyBench::Mvt, SCALE);
    let outcomes: Vec<UnifiedOutcome> = SystemKind::all()
        .iter()
        .map(|s| run_on(&RunSpec::at(SCALE), *s, "MVT", &apps))
        .collect();
    let campaign = Campaign {
        outcomes,
        workloads: vec!["MVT".to_string()],
    };

    let throughput = fig10_throughput::report_homogeneous(&campaign);
    assert!(throughput.contains("MVT"));
    assert!(throughput.contains("IntraO3"));

    let latency = fig11_latency::report_homogeneous(&campaign);
    assert!(latency.contains("1.00/1.00/1.00"));

    let energy = fig13_energy::report_homogeneous(&campaign);
    assert!(energy.contains("(1.00)"));

    let utilization = fig14_utilization::report_homogeneous(&campaign);
    assert!(utilization.contains('%'));

    // The headline direction holds even at the coarse smoke-test scale.
    let saving = fig13_energy::mean_energy_saving(
        &campaign,
        SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
    );
    assert!(saving > 0.0, "expected an energy saving, got {saving}");
}

#[test]
fn heterogeneous_mix_runs_across_all_systems() {
    let spec = RunSpec::at(ExperimentScale { data_scale: 1024 });
    let apps = heterogeneous_workload(1, spec.scale);
    assert_eq!(apps.len(), 24);
    for system in [
        SystemKind::Simd,
        SystemKind::FlashAbacus(SchedulerPolicy::InterSt),
        SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
    ] {
        let out = run_on(&spec, system, "MX1", &apps);
        assert_eq!(out.completion_times.len(), 24, "{}", system.label());
        assert!(out.throughput_mb_s > 0.0, "{}", system.label());
    }
}

#[test]
fn bigdata_figure_renders_for_all_five_apps() {
    let campaign = Campaign::bigdata(&RunSpec::at(ExperimentScale { data_scale: 1024 }));
    let report = fig16_bigdata::report(&campaign);
    for app in ["bfs", "wc", "nn", "nw", "path"] {
        assert!(report.contains(app), "missing {app}");
    }
}
