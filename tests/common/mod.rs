//! The pinned small campaign shared by the golden and determinism tests:
//! its workloads, its rendering, and the committed golden files.

use fa_bench::report::Table;
use fa_bench::runner::{homogeneous_workload, ExperimentScale, UnifiedOutcome};
use fa_kernel::model::Application;
use fa_workloads::polybench::PolyBench;
use std::path::PathBuf;

/// The pinned campaign: two homogeneous PolyBench workloads at a fixed
/// explicit scale (never read from the environment, so the test result
/// does not depend on `FA_DATA_SCALE`).
pub fn workloads() -> Vec<(String, Vec<Application>)> {
    let scale = ExperimentScale { data_scale: 512 };
    vec![
        (
            "GEMM".to_string(),
            homogeneous_workload(PolyBench::Gemm, scale),
        ),
        (
            "ATAX".to_string(),
            homogeneous_workload(PolyBench::Atax, scale),
        ),
    ]
}

/// Renders the campaign with enough digits that any drift in simulated
/// physics — an allocation handed out in a different order, a page landing
/// on a different die, a GC pass running at a different instant — shows up
/// as a byte difference.
pub fn render(outcomes: &[UnifiedOutcome]) -> String {
    let mut table = Table::new(
        "Golden campaign: homogeneous GEMM + ATAX at 1/512 scale",
        &[
            "Workload",
            "System",
            "total_s",
            "throughput_mb_s",
            "energy_j",
            "latency_avg_s",
            "completions",
        ],
    );
    for out in outcomes {
        table.row(vec![
            out.workload.clone(),
            out.system.label().to_string(),
            format!("{:.9}", out.total_seconds),
            format!("{:.6}", out.throughput_mb_s),
            format!("{:.6}", out.total_energy_j()),
            format!("{:.9}", out.latency_min_avg_max.1),
            format!("{}", out.completion_times.len()),
        ]);
    }
    table.render()
}

/// The path of `tests/golden/<name>`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// The committed contents of `tests/golden/<name>`.
pub fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it first",
            path.display()
        )
    })
}
