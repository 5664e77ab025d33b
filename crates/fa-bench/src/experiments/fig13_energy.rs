//! Figure 13: energy decomposition normalized to SIMD.

use crate::experiments::campaign::Campaign;
use crate::report::Table;
use crate::runner::SystemKind;

/// Renders Figure 13a (homogeneous workloads).
pub fn report_homogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 13a: energy (data movement / computation / storage access) normalized to SIMD, homogeneous",
    )
}

/// Renders Figure 13b (heterogeneous workloads).
pub fn report_heterogeneous(campaign: &Campaign) -> String {
    render(
        campaign,
        "Figure 13b: energy (data movement / computation / storage access) normalized to SIMD, heterogeneous",
    )
}

fn render(campaign: &Campaign, title: &str) -> String {
    let mut headers = vec!["Workload"];
    let labels: Vec<String> = SystemKind::all()
        .iter()
        .map(|s| format!("{} dm/comp/st (total)", s.label()))
        .collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(title, &headers);
    for workload in &campaign.workloads {
        let simd_total = campaign
            .expect(workload, SystemKind::Simd)
            .total_energy_j()
            .max(f64::EPSILON);
        let mut row = vec![workload.clone()];
        for system in SystemKind::all() {
            let e = &campaign.expect(workload, system).energy.breakdown;
            row.push(format!(
                "{:.2}/{:.2}/{:.2} ({:.2})",
                e.data_movement_j / simd_total,
                e.computation_j / simd_total,
                e.storage_access_j / simd_total,
                e.total_j() / simd_total,
            ));
        }
        table.row(row);
    }
    table.render()
}

/// Average energy saving of a FlashAbacus policy relative to SIMD across a
/// campaign (the paper's headline 78.4 % number uses `IntraO3`).
pub fn mean_energy_saving(campaign: &Campaign, system: SystemKind) -> f64 {
    let mut ratios = Vec::new();
    for workload in &campaign.workloads {
        let simd = campaign.expect(workload, SystemKind::Simd).total_energy_j();
        let other = campaign.expect(workload, system).total_energy_j();
        if simd > 0.0 {
            ratios.push(1.0 - other / simd);
        }
    }
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{bigdata_workload, run_on, ExperimentScale, RunSpec, UnifiedOutcome};
    use fa_workloads::bigdata::BigDataBench;
    use flashabacus::SchedulerPolicy;

    #[test]
    fn energy_report_normalizes_and_saving_is_positive() {
        let spec = RunSpec::at(ExperimentScale { data_scale: 1024 });
        let apps = bigdata_workload(BigDataBench::Bfs, spec.scale);
        let outcomes: Vec<UnifiedOutcome> = SystemKind::all()
            .iter()
            .map(|s| run_on(&spec, *s, "bfs", &apps))
            .collect();
        let c = Campaign {
            outcomes,
            workloads: vec!["bfs".to_string()],
        };
        let r = report_homogeneous(&c);
        assert!(r.contains("bfs"));
        // The SIMD column's parenthesised total is exactly 1.00.
        assert!(r.contains("(1.00)"));
        let saving = mean_energy_saving(&c, SystemKind::FlashAbacus(SchedulerPolicy::IntraO3));
        assert!(saving > 0.0, "expected an energy saving, got {saving}");
    }
}
