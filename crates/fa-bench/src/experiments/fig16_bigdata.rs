//! Figure 16: graph and big-data applications (§5.6).

use crate::experiments::campaign::Campaign;
use crate::report::{f1, Table};
use crate::runner::SystemKind;

/// Renders Figure 16a (throughput) and Figure 16b (energy breakdown
/// normalized to SIMD) from a big-data campaign.
pub fn report(campaign: &Campaign) -> String {
    let mut headers = vec!["Workload"];
    let labels: Vec<&str> = SystemKind::all().iter().map(|s| s.label()).collect();
    headers.extend(labels.iter().copied());
    let mut throughput = Table::new(
        "Figure 16a: throughput (MB/s), graph / big-data applications",
        &headers,
    );
    for workload in &campaign.workloads {
        let mut row = vec![workload.clone()];
        for system in SystemKind::all() {
            row.push(f1(campaign.expect(workload, system).throughput_mb_s));
        }
        throughput.row(row);
    }

    let mut energy_headers = vec!["Workload"];
    let energy_labels: Vec<String> = SystemKind::all()
        .iter()
        .map(|s| format!("{} dm/comp/st (total)", s.label()))
        .collect();
    energy_headers.extend(energy_labels.iter().map(String::as_str));
    let mut energy = Table::new(
        "Figure 16b: energy breakdown normalized to SIMD, graph / big-data applications",
        &energy_headers,
    );
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
        energy.row(row);
    }
    format!("{}\n{}", throughput.render(), energy.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ExperimentScale, RunSpec};

    #[test]
    fn bigdata_report_covers_all_five_apps() {
        let campaign = Campaign::bigdata(&RunSpec::at(ExperimentScale { data_scale: 1024 }));
        let r = report(&campaign);
        for app in ["bfs", "wc", "nn", "nw", "path"] {
            assert!(r.contains(app), "missing {app}");
        }
        assert!(r.contains("Figure 16a"));
        assert!(r.contains("Figure 16b"));
    }
}
