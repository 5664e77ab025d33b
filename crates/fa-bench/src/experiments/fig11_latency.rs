//! Figure 11: kernel latency (min / average / max) normalized to SIMD.

use crate::experiments::campaign::Campaign;
use crate::report::{normalized, Table};
use crate::runner::SystemKind;

/// Renders Figure 11a (homogeneous workloads).
pub fn report_homogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 11a: kernel latency normalized to SIMD (min/avg/max), homogeneous workloads",
    )
}

/// Renders Figure 11b (heterogeneous workloads).
pub fn report_heterogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 11b: kernel latency normalized to SIMD (min/avg/max), heterogeneous workloads",
    )
}

fn render(campaign: &Campaign, title: &str) -> String {
    let mut headers = vec!["Workload"];
    let labels: Vec<String> = SystemKind::all()
        .iter()
        .map(|s| format!("{} min/avg/max", s.label()))
        .collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(title, &headers);
    for workload in &campaign.workloads {
        let simd = campaign.expect(workload, SystemKind::Simd);
        let (s_min, s_avg, s_max) = simd.latency_min_avg_max;
        let mut row = vec![workload.clone()];
        for system in SystemKind::all() {
            let out = campaign.expect(workload, system);
            let (min, avg, max) = out.latency_min_avg_max;
            row.push(format!(
                "{}/{}/{}",
                normalized(min, s_min),
                normalized(avg, s_avg),
                normalized(max, s_max)
            ));
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
    fn latency_table_normalizes_simd_to_one() {
        let spec = RunSpec::at(ExperimentScale { data_scale: 1024 });
        let apps = bigdata_workload(BigDataBench::Nw, spec.scale);
        let outcomes: Vec<UnifiedOutcome> = SystemKind::all()
            .iter()
            .map(|s| run_on(&spec, *s, "nw", &apps))
            .collect();
        let c = Campaign {
            outcomes,
            workloads: vec!["nw".to_string()],
        };
        let r = report_homogeneous(&c);
        assert!(
            r.contains("1.00/1.00/1.00"),
            "SIMD column should be 1.0:\n{r}"
        );
    }
}
