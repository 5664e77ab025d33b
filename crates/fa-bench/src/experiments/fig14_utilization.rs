//! Figure 14: processor (LWP) utilization.

use crate::experiments::campaign::Campaign;
use crate::report::{pct, Table};
use crate::runner::SystemKind;

/// Renders Figure 14a (homogeneous workloads).
pub fn report_homogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 14a: LWP utilization, homogeneous workloads",
    )
}

/// Renders Figure 14b (heterogeneous workloads).
pub fn report_heterogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 14b: LWP utilization, heterogeneous workloads",
    )
}

fn render(campaign: &Campaign, title: &str) -> String {
    let mut headers = vec!["Workload"];
    let labels: Vec<&str> = SystemKind::all().iter().map(|s| s.label()).collect();
    headers.extend(labels.iter().copied());
    let mut table = Table::new(title, &headers);
    for workload in &campaign.workloads {
        let mut row = vec![workload.clone()];
        for system in SystemKind::all() {
            row.push(pct(campaign.expect(workload, system).mean_lwp_utilization));
        }
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{bigdata_workload, run_on, ExperimentScale, RunSpec, UnifiedOutcome};
    use fa_workloads::bigdata::BigDataBench;

    #[test]
    fn utilization_report_renders_percentages() {
        let spec = RunSpec::at(ExperimentScale { data_scale: 1024 });
        let apps = bigdata_workload(BigDataBench::Nn, spec.scale);
        let outcomes: Vec<UnifiedOutcome> = SystemKind::all()
            .iter()
            .map(|s| run_on(&spec, *s, "nn", &apps))
            .collect();
        let c = Campaign {
            outcomes,
            workloads: vec!["nn".to_string()],
        };
        let r = report_homogeneous(&c);
        assert!(r.contains('%'));
        assert!(r.contains("nn"));
    }
}
