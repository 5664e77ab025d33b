//! Guard that a stale `FA_SHARDS` setting cannot change simulated results.
//!
//! Every section read, program sweep and GC erase row has one serial
//! implementation, and no library constructor reads `FA_SHARDS`. Scripts
//! written for older builds may still export the variable, so these tests
//! run the same small campaign as `results_golden.rs` under several values
//! of it: fault-free, every rendering must match the committed golden
//! bytes; under a read-disturb fault plan, every rendering must match the
//! others and differ from the fault-free golden (so the plan really took
//! effect). `FA_SHARDS`/`FA_FAULTS` are set via the process environment;
//! the tests serialize on `ENV_LOCK` (they share one test process) and
//! `run_pairs_with_threads(.., 1)` keeps each campaign single-threaded
//! while the variables change.

use fa_bench::report::Table;
use fa_bench::runner::{
    homogeneous_workload, run_pairs_with_threads, ExperimentScale, UnifiedOutcome,
};
use fa_kernel::model::Application;
use fa_workloads::polybench::PolyBench;
use std::path::PathBuf;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn workloads() -> Vec<(String, Vec<Application>)> {
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

fn render(outcomes: &[UnifiedOutcome]) -> String {
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

fn golden() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("small_campaign.txt");
    std::fs::read_to_string(path).expect("golden file must exist; this test never blesses it")
}

#[test]
fn report_is_byte_identical_for_every_shard_count() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let golden = golden();
    let w = workloads();
    for shards in ["1", "2", "4", "7"] {
        std::env::set_var("FA_SHARDS", shards);
        let rendered = render(&run_pairs_with_threads(&w, 1));
        assert_eq!(
            rendered, golden,
            "FA_SHARDS={shards} campaign report diverged from the golden \
             bytes — something reads the variable again"
        );
    }
    std::env::remove_var("FA_SHARDS");
}

#[test]
fn fault_plan_serial_fallback_is_shard_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A read-affecting fault plan (read-disturb retries plus relocation)
    // changes the physics, so the campaign no longer matches the fault-free
    // golden; it must still reproduce exactly whatever `FA_SHARDS` says.
    std::env::set_var("FA_FAULTS", "seed=11,read_disturb=0.02");
    let w = workloads();
    let mut rendered = Vec::new();
    for shards in ["1", "4"] {
        std::env::set_var("FA_SHARDS", shards);
        rendered.push(render(&run_pairs_with_threads(&w, 1)));
    }
    std::env::remove_var("FA_FAULTS");
    std::env::remove_var("FA_SHARDS");
    assert_ne!(
        rendered[0],
        golden(),
        "the read-disturb plan left the campaign fault-free — FA_FAULTS was \
         not installed"
    );
    assert_eq!(
        rendered[0], rendered[1],
        "a fault-afflicted campaign diverged between FA_SHARDS=1 and \
         FA_SHARDS=4"
    );
}
