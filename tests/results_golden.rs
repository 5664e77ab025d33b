//! End-to-end results-invariance guard for the data path.
//!
//! The free-space / GC subsystem is a pure data-structure speedup: under the
//! default `FirstFree` placement policy the simulated physics — allocation
//! order, page addresses, command timing — must be exactly what the
//! scan-era code produced. This test pins a small campaign's rendered
//! report, byte for byte, against a golden file generated before the
//! refactor, and additionally checks that the rendering is identical when
//! the campaign is fanned across worker threads. A second golden pins a
//! churn round driven straight through the write and GC paths.
//!
//! Regenerate the golden files (only when an *intentional* physics change
//! lands) with:
//! ```text
//! FA_BLESS_GOLDEN=1 cargo test --test results_golden
//! ```

use fa_bench::report::Table;
use fa_bench::runner::{
    homogeneous_workload, run_pairs_with_threads, ExperimentScale, UnifiedOutcome,
};
use fa_kernel::model::Application;
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::time::SimTime;
use fa_workloads::polybench::PolyBench;
use flashabacus::config::FlashAbacusConfig;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::Storengine;
use flashabacus::Flashvisor;
use std::path::PathBuf;

/// The pinned campaign: two homogeneous PolyBench workloads, every system,
/// at a fixed explicit scale (never read from the environment, so the test
/// result does not depend on `FA_DATA_SCALE`).
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

/// Renders the campaign with enough digits that any drift in simulated
/// physics — an allocation handed out in a different order, a page landing
/// on a different die, a GC pass running at a different instant — shows up
/// as a byte difference.
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

/// Compares `rendered` with `tests/golden/<name>`, or overwrites that file
/// when `FA_BLESS_GOLDEN` is set.
fn assert_matches_golden(name: &str, rendered: &str, drift: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    if std::env::var("FA_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it first",
            path.display()
        )
    });
    assert_eq!(rendered, golden, "{drift}");
}

#[test]
fn default_policy_report_is_byte_identical_to_golden() {
    assert_matches_golden(
        "small_campaign.txt",
        &render(&run_pairs_with_threads(&workloads(), 1)),
        "campaign report drifted from the golden bytes — the default \
         FirstFree data path is no longer reproducing the recorded physics",
    );
}

#[test]
fn report_is_deterministic_across_thread_counts() {
    let w = workloads();
    let serial = render(&run_pairs_with_threads(&w, 1));
    let parallel = render(&run_pairs_with_threads(&w, 4));
    assert_eq!(serial, parallel, "FA_THREADS=1 vs 4 rendering diverged");
}

/// One churn round on a small device, driven straight through Flashvisor
/// and Storengine: repeated overwrites of a narrow logical window (with
/// hot/cold separation live) interleaved with GC passes whenever the
/// allocator runs low. The digest captures every completion instant plus
/// the full bookkeeping totals, so a single reordered write, migration or
/// erase diverges the bytes.
fn churn_digest() -> String {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.gc_low_watermark = 0.88;
    config.hot_overwrite_threshold = Some(3);
    let mut v = Flashvisor::new(config);
    let mut s = Storengine::new(config);
    let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
    let group_bytes = config.page_group_bytes;
    let mut now_us = 1u64;
    let mut digest = String::new();
    for round in 0..300u64 {
        let lg = round % 14;
        let groups = 1 + round % 3;
        now_us += 53;
        let c = v
            .write_section(
                SimTime::from_us(now_us),
                lg * group_bytes,
                groups * group_bytes,
                &mut sp,
            )
            .unwrap_or_else(|e| panic!("churn write round {round}: {e:?}"));
        digest.push_str(&format!("w {lg} {groups} {}\n", c.finished.as_ns()));
        while s.gc_needed(&v) {
            now_us += 211;
            let out = s
                .collect_garbage(SimTime::from_us(now_us), &mut v)
                .expect("churn gc");
            digest.push_str(&format!(
                "gc {} {} {}\n",
                out.groups_reclaimed,
                out.pages_migrated,
                out.finished.as_ns()
            ));
        }
    }
    let fv = v.stats();
    let se = s.stats();
    assert!(se.erases > 0, "churn never erased a row");
    digest.push_str(&format!(
        "stats {} {} {} {} {} {} {} {}\n",
        fv.group_writes,
        fv.overwritten_groups,
        fv.hot_group_writes,
        fv.cold_group_writes,
        fv.hot_steered_writes,
        se.erases,
        se.groups_reclaimed,
        se.pages_migrated,
    ));
    digest.push_str(&format!(
        "valid {} free {}\n",
        v.backbone().total_valid_pages(),
        v.free_physical_groups()
    ));
    digest
}

#[test]
fn churn_round_is_byte_identical_to_golden() {
    assert_matches_golden(
        "churn_digest.txt",
        &churn_digest(),
        "churn digest drifted from the golden bytes — the write/GC path is \
         no longer reproducing the recorded physics",
    );
}
