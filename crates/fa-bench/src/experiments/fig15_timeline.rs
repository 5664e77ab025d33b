//! Figure 15: functional-unit utilization and power over time.
//!
//! The paper plots these time series for a heterogeneous workload, comparing
//! `SIMD` with `IntraO3`.

use crate::report::render_series;
use crate::runner::{heterogeneous_workload, run_on, RunSpec, SystemKind};
use flashabacus::SchedulerPolicy;

/// Number of points printed per series.
const POINTS: usize = 40;

/// Renders Figure 15a (busy functional units over time) and Figure 15b
/// (power over time) for the MX1 heterogeneous workload.
pub fn report(spec: &RunSpec) -> String {
    let apps = heterogeneous_workload(1, spec.scale);
    let simd = run_on(spec, SystemKind::Simd, "MX1", &apps);
    let o3 = run_on(
        spec,
        SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
        "MX1",
        &apps,
    );

    let to_secs = |series: &fa_sim::stats::TimeSeries| -> Vec<(f64, f64)> {
        series
            .points()
            .iter()
            .map(|(t, v)| (t.as_secs_f64(), *v))
            .collect()
    };

    let mut out = String::from("Figure 15: resource utilization and power over time (MX1)\n\n");
    out.push_str(&render_series(
        "Figure 15a / SIMD: busy functional units",
        &to_secs(&simd.fu_timeline),
        POINTS,
    ));
    out.push_str(&render_series(
        "Figure 15a / IntraO3: busy functional units",
        &to_secs(&o3.fu_timeline),
        POINTS,
    ));
    out.push_str(&render_series(
        "Figure 15b / SIMD: power (W)",
        &to_secs(&simd.power_timeline),
        POINTS,
    ));
    out.push_str(&render_series(
        "Figure 15b / IntraO3: power (W)",
        &to_secs(&o3.power_timeline),
        POINTS,
    ));
    out.push_str(&format!(
        "\nSummary: SIMD finishes at {:.4}s, IntraO3 at {:.4}s; peak SIMD power {:.1} W vs IntraO3 {:.1} W\n",
        simd.total_seconds,
        o3.total_seconds,
        peak(&simd.power_timeline),
        peak(&o3.power_timeline),
    ));
    out
}

fn peak(series: &fa_sim::stats::TimeSeries) -> f64 {
    series.points().iter().map(|p| p.1).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentScale;

    #[test]
    fn timeline_report_contains_all_four_series() {
        let r = report(&RunSpec::at(ExperimentScale { data_scale: 1024 }));
        assert!(r.contains("Figure 15a / SIMD"));
        assert!(r.contains("Figure 15a / IntraO3"));
        assert!(r.contains("Figure 15b / SIMD"));
        assert!(r.contains("Figure 15b / IntraO3"));
        assert!(r.contains("Summary"));
    }
}
