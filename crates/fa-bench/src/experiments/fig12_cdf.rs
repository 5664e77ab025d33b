//! Figure 12: CDFs of kernel completion times (ATAX and MX1), plus the
//! background-GC / per-owner-QoS ablation: per-kernel flash read-latency
//! CDFs (p50/p99/max per owner) under a GC-pressure workload, with storage
//! management synchronous, backgrounded, and backgrounded-with-budget.

use crate::report::Table;
use crate::runner::{heterogeneous_workload, homogeneous_workload, run_on, RunSpec, SystemKind};
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_kernel::model::Application;
use fa_sim::time::SimDuration;
use fa_workloads::polybench::PolyBench;
use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};
use flashabacus::{FlashAbacusConfig, RunOutcome, SchedulerPolicy};

/// Renders the Figure 12a CDF (ATAX, homogeneous), the Figure 12b CDF
/// (MX1, heterogeneous), and the Figure 12c QoS ablation.
pub fn report(spec: &RunSpec) -> String {
    let atax = homogeneous_workload(PolyBench::Atax, spec.scale);
    let mx1 = heterogeneous_workload(1, spec.scale);
    let mut out = render_one(spec, "Figure 12a: completed kernels over time, ATAX", &atax);
    out.push('\n');
    out.push_str(&render_one(
        spec,
        "Figure 12b: completed kernels over time, MX1",
        &mx1,
    ));
    out.push('\n');
    out.push_str(&qos_ablation_report(spec));
    out
}

fn render_one(spec: &RunSpec, title: &str, apps: &[Application]) -> String {
    let mut table = Table::new(
        title,
        &["System", "Completion times of successive kernels (s)"],
    );
    for system in SystemKind::all() {
        let out = run_on(spec, system, title, apps);
        let times: Vec<String> = out
            .completion_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect();
        table.row(vec![system.label().to_string(), times.join(", ")]);
    }
    table.render()
}

/// The GC-pressure workload of the ablation: twelve small kernels over six
/// workers, so the first wave's output flushes trip the watermark while
/// the second wave still stages inputs — GC and foreground reads share the
/// channels for real.
pub fn gc_pressure_workload() -> Vec<Application> {
    let template = synthetic_app(
        "pressure",
        &SyntheticSpec {
            instructions: 400_000,
            serial_fraction: 0.0,
            input_bytes: 128 * 1024,
            output_bytes: 16 * 1024,
            ldst_ratio: 0.4,
            mul_ratio: 0.1,
            parallel_screens: 4,
        },
    );
    instantiate_many(
        &[template],
        &InstancePlan {
            instances_per_app: 12,
            ..Default::default()
        },
    )
}

/// The GC-pressure device of the ablation: a 4 MiB backbone whose
/// watermark sits above the workload's footprint, so Storengine reclaims
/// for the whole run; writes are unbuffered so flushes (and therefore GC)
/// overlap the remaining foreground screens. Journaling is quiesced so
/// its background traffic does not confound the GC-contention signal
/// (the metadata row itself is reserved in the allocator now, so the old
/// cursor-collision hazard is gone either way).
pub fn gc_pressure_config(policy: SchedulerPolicy) -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::tiny_for_tests(policy);
    config.flash_geometry.blocks_per_plane = 16;
    config.gc_low_watermark = 0.65;
    config.buffered_writes = false;
    config.journal_interval = SimDuration::from_ms(10_000);
    config
}

/// The three storage-management modes the ablation compares.
pub fn qos_ablation_modes() -> [(&'static str, FlashAbacusConfig); 3] {
    let sync = gc_pressure_config(SchedulerPolicy::InterDy);
    let mut background = sync;
    background.qos.background_gc = true;
    let mut budgeted = background;
    budgeted.qos.gc_budget = Some(1);
    budgeted.qos.per_owner_tag_budget = Some(4);
    [
        ("sync-gc", sync),
        ("bg-unbudgeted", background),
        ("bg-budgeted", budgeted),
    ]
}

/// Runs one ablation mode under `spec`'s fault plan and returns its
/// outcome.
pub fn run_qos_mode(spec: &RunSpec, config: FlashAbacusConfig, apps: &[Application]) -> RunOutcome {
    spec.system(config)
        .run(apps)
        .expect("QoS ablation run completes")
}

/// Figure 12c: per-kernel flash read-latency quantiles per mode, plus the
/// foreground-tail summary the QoS budgets exist to protect.
pub fn qos_ablation_report(spec: &RunSpec) -> String {
    let apps = gc_pressure_workload();
    let mut per_owner = Table::new(
        "Figure 12c: per-kernel flash read-latency CDF under concurrent GC",
        &[
            "Mode",
            "Owner",
            "reads",
            "p50 (ms)",
            "p99 (ms)",
            "max (ms)",
            "peak tags",
        ],
    );
    let mut summary = Table::new(
        "Figure 12c summary: foreground read tail vs storage-management mode",
        &["Mode", "fg read p99 (ms)", "GC passes", "batch finish (ms)"],
    );
    for (label, config) in qos_ablation_modes() {
        let out = run_qos_mode(spec, config, &apps);
        for o in &out.flash_owner_stats {
            if o.reads == 0 {
                continue;
            }
            per_owner.row(vec![
                label.to_string(),
                o.owner.clone(),
                o.reads.to_string(),
                format!("{:.4}", o.read_p50_s * 1e3),
                format!("{:.4}", o.read_p99_s * 1e3),
                format!("{:.4}", o.read_max_s * 1e3),
                o.peak_channel_tags.to_string(),
            ]);
        }
        summary.row(vec![
            label.to_string(),
            format!("{:.4}", out.foreground_read_p99_s * 1e3),
            out.gc_passes.to_string(),
            format!("{:.3}", out.finished_at.as_secs_f64() * 1e3),
        ]);
    }
    let mut rendered = per_owner.render();
    rendered.push('\n');
    rendered.push_str(&summary.render());
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentScale;

    #[test]
    fn cdf_report_lists_both_workloads_and_all_systems() {
        let r = report(&RunSpec::at(ExperimentScale { data_scale: 512 }));
        assert!(r.contains("Figure 12a"));
        assert!(r.contains("Figure 12b"));
        assert!(r.contains("IntraO3"));
        assert!(r.contains("SIMD"));
        assert!(r.contains("Figure 12c"));
    }

    #[test]
    fn qos_ablation_shows_budgeted_tail_winning() {
        let apps = gc_pressure_workload();
        let [(_, sync), (_, background), (_, budgeted)] = qos_ablation_modes();
        let spec = RunSpec::at(ExperimentScale::default());
        let bg = run_qos_mode(&spec, background, &apps);
        let capped = run_qos_mode(&spec, budgeted, &apps);
        assert!(bg.gc_passes > 0, "watermark never tripped");
        assert!(
            capped.foreground_read_p99_s < bg.foreground_read_p99_s,
            "budgeted p99 {} should beat unbudgeted {}",
            capped.foreground_read_p99_s,
            bg.foreground_read_p99_s
        );
        // The report renders rows for kernels and the GC stream.
        let r = qos_ablation_report(&spec);
        assert!(r.contains("bg-budgeted"));
        assert!(r.contains("gc"));
        assert!(r.contains("kernel0"));
        let _ = sync;
    }
}
