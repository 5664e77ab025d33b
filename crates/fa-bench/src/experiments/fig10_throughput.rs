//! Figure 10: data-processing throughput of the five accelerated systems.

use crate::experiments::campaign::Campaign;
use crate::report::{f1, Table};
use crate::runner::SystemKind;

/// Renders Figure 10a (homogeneous workloads) from a homogeneous campaign.
pub fn report_homogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 10a: throughput (MB/s), homogeneous workloads (6 instances per kernel)",
    )
}

/// Renders Figure 10b (heterogeneous workloads) from a heterogeneous
/// campaign.
pub fn report_heterogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 10b: throughput (MB/s), heterogeneous workloads (24 instances per mix)",
    )
}

fn render(campaign: &Campaign, title: &str) -> String {
    let mut headers = vec!["Workload"];
    let labels: Vec<&str> = SystemKind::all().iter().map(|s| s.label()).collect();
    headers.extend(labels.iter().copied());
    headers.push("IntraO3/SIMD");
    let mut table = Table::new(title, &headers);
    for workload in &campaign.workloads {
        let mut row = vec![workload.clone()];
        let mut simd = 0.0;
        let mut o3 = 0.0;
        for system in SystemKind::all() {
            let out = campaign.expect(workload, system);
            row.push(f1(out.throughput_mb_s));
            match system {
                SystemKind::Simd => simd = out.throughput_mb_s,
                SystemKind::FlashAbacus(flashabacus::SchedulerPolicy::IntraO3) => {
                    o3 = out.throughput_mb_s
                }
                _ => {}
            }
        }
        row.push(if simd > 0.0 {
            format!("{:.2}x", o3 / simd)
        } else {
            "n/a".into()
        });
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{bigdata_workload, run_on, ExperimentScale, RunSpec, UnifiedOutcome};
    use fa_workloads::bigdata::BigDataBench;

    /// Builds a one-workload campaign quickly for rendering tests.
    fn tiny_campaign() -> Campaign {
        let spec = RunSpec::at(ExperimentScale { data_scale: 1024 });
        let apps = bigdata_workload(BigDataBench::Path, spec.scale);
        let outcomes: Vec<UnifiedOutcome> = SystemKind::all()
            .iter()
            .map(|s| run_on(&spec, *s, "path", &apps))
            .collect();
        Campaign {
            outcomes,
            workloads: vec!["path".to_string()],
        }
    }

    #[test]
    fn throughput_table_has_all_five_systems() {
        let c = tiny_campaign();
        let r = report_homogeneous(&c);
        for label in ["SIMD", "InterSt", "IntraIo", "InterDy", "IntraO3"] {
            assert!(r.contains(label), "missing {label}");
        }
        assert!(r.contains("path"));
        assert!(r.contains('x'));
    }
}
