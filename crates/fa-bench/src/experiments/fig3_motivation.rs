//! Figure 3: the motivation study on the conventional system.
//!
//! * Figures 3b/3c sweep the fraction of serialized execution (0–50 %) and
//!   the number of active LWPs (1–8) and report throughput and core
//!   utilization of the conventional accelerator.
//! * Figures 3d/3e run the PolyBench applications on the conventional
//!   system and decompose execution time (accelerator / SSD / host storage
//!   stack) and energy (data movement / computation / storage access).

use crate::report::{f1, pct, Table};
use crate::runner::ExperimentScale;
use fa_baseline::{BaselineConfig, ConventionalSystem};
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_kernel::latency::throughput_mb_s;
use fa_workloads::polybench::{polybench_app, polybench_table2};
use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};

/// Applications shown in Figures 3d/3e, in the paper's order.
pub const FIG3_APPS: [&str; 11] = [
    "ATAX", "BICG", "2DCONV", "MVT", "SYRK", "3MM", "GESUM", "ADI", "COVAR", "FDTD", "GEMM",
];

/// Renders the Figure 3b/3c sensitivity study.
pub fn report_sensitivity(scale: ExperimentScale) -> String {
    let serial_fractions = SyntheticSpec::figure3_serial_fractions();
    let mut throughput = Table::new(
        "Figure 3b: conventional-accelerator throughput (MB/s) vs. cores and serial fraction",
        &["Cores", "0%", "10%", "20%", "30%", "40%", "50%"],
    );
    let mut utilization = Table::new(
        "Figure 3c: conventional-accelerator core utilization vs. cores and serial fraction",
        &["Cores", "0%", "10%", "20%", "30%", "40%", "50%"],
    );
    for cores in 1..=8usize {
        let mut tput_row = vec![cores.to_string()];
        let mut util_row = vec![cores.to_string()];
        for &serial in &serial_fractions {
            // A kernel whose execution is compute-bound once its data is on
            // the accelerator, so the sweep isolates the effect of serial
            // code and core count exactly as the paper's §3.1 study does.
            let spec = SyntheticSpec {
                instructions: 6_000_000_000 / scale.data_scale.max(1),
                serial_fraction: serial,
                input_bytes: (256 << 20) / scale.data_scale.max(1),
                output_bytes: (32 << 20) / scale.data_scale.max(1),
                ldst_ratio: 0.40,
                mul_ratio: 0.10,
                parallel_screens: 8,
            };
            let apps = instantiate_many(
                &[synthetic_app("SWEEP", &spec)],
                &InstancePlan {
                    instances_per_app: 2,
                    ..Default::default()
                },
            );
            let mut system =
                ConventionalSystem::new(BaselineConfig::paper_baseline().with_active_lwps(cores));
            let out = system.run(&apps);
            tput_row.push(f1(throughput_mb_s(out.bytes_processed, out.finished_at)));
            util_row.push(pct(out.mean_lwp_utilization()));
        }
        throughput.row(tput_row);
        utilization.row(util_row);
    }
    format!("{}\n{}", throughput.render(), utilization.render())
}

/// Renders the Figure 3d/3e breakdowns.
pub fn report_breakdown(scale: ExperimentScale) -> String {
    let rows = polybench_table2();
    let mut time_table = Table::new(
        "Figure 3d: execution-time breakdown on the conventional system",
        &["App", "Accelerator", "SSD", "Host storage stack"],
    );
    let mut energy_table = Table::new(
        "Figure 3e: energy breakdown on the conventional system",
        &["App", "Data movement", "Computation", "Storage access"],
    );
    for name in FIG3_APPS {
        let row = rows
            .iter()
            .find(|r| r.name == name)
            .expect("Figure 3 app exists in Table 2");
        let apps = vec![polybench_app(row.bench, scale.data_scale)];
        let mut system = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let out = system.run(&apps);
        let (accel, ssd, stack) = out.time_breakdown.fractions();
        time_table.row(vec![name.to_string(), pct(accel), pct(ssd), pct(stack)]);
        let total = out.energy.total_j().max(f64::EPSILON);
        energy_table.row(vec![
            name.to_string(),
            pct(out.energy.breakdown.data_movement_j / total),
            pct(out.energy.breakdown.computation_j / total),
            pct(out.energy.breakdown.storage_access_j / total),
        ]);
    }
    format!("{}\n{}", time_table.render(), energy_table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_report_has_all_core_counts() {
        let r = report_sensitivity(ExperimentScale { data_scale: 512 });
        assert!(r.contains("Figure 3b"));
        assert!(r.contains("Figure 3c"));
        // Eight rows per table plus headers.
        assert!(r.lines().filter(|l| l.starts_with('8')).count() >= 2);
    }

    #[test]
    fn breakdown_report_covers_the_eleven_apps() {
        let r = report_breakdown(ExperimentScale { data_scale: 512 });
        for app in FIG3_APPS {
            assert!(r.contains(app), "missing {app}");
        }
        assert!(r.contains("Figure 3d"));
        assert!(r.contains("Figure 3e"));
    }
}
