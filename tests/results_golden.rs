//! End-to-end results-invariance guard for the data path.
//!
//! The free-space / GC subsystem is a pure data-structure speedup: under the
//! default `FirstFree` placement policy the simulated physics — allocation
//! order, page addresses, command timing — must be exactly what the
//! scan-era code produced. This test pins a small campaign's rendered
//! report, byte for byte, against a golden file generated before the
//! refactor (`tests/shard_determinism.rs` checks the same bytes when the
//! campaign is fanned across worker threads). A second golden pins a
//! churn round driven straight through the write and GC paths, a third
//! the simulated ablations: QoS, storage policy, endurance and open-loop
//! scale-out, and a fourth the work counts of the campaign's FlashAbacus
//! runs and of the churn round, so a change that adds flash commands,
//! admission scans, lock traffic or GC work fails on any machine.
//!
//! Regenerate the golden files (only when an *intentional* physics change
//! lands) with:
//! ```text
//! FA_BLESS_GOLDEN=1 cargo test --test results_golden
//! ```

use fa_bench::experiments::endurance::endurance_grid;
use fa_bench::experiments::scaleout::{render_scaleout, scaleout_report};
use fa_bench::experiments::{fig12_cdf, policy_ablation};
mod common;

use common::{golden_path, read_golden, render, workloads};
use fa_bench::report::Table;
use fa_bench::runner::{run_pairs, ExperimentScale, RunSpec};
use fa_flash::FlashBackbone;
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::time::SimTime;
use flashabacus::config::FlashAbacusConfig;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::Storengine;
use flashabacus::{FlashAbacusSystem, Flashvisor};

/// Compares `rendered` with `tests/golden/<name>`, or overwrites that file
/// when `FA_BLESS_GOLDEN` is set.
fn assert_matches_golden(name: &str, rendered: &str, drift: &str) {
    if std::env::var("FA_BLESS_GOLDEN").is_ok() {
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    assert_eq!(rendered, read_golden(name), "{drift}");
}

/// A fault-free, single-threaded spec (the pinned workloads fix their own
/// scale).
fn serial() -> RunSpec {
    RunSpec {
        threads: 1,
        ..RunSpec::at(ExperimentScale::default())
    }
}

#[test]
fn default_policy_report_is_byte_identical_to_golden() {
    assert_matches_golden(
        "small_campaign.txt",
        &render(&run_pairs(&serial(), &workloads())),
        "campaign report drifted from the golden bytes — the default \
         FirstFree data path is no longer reproducing the recorded physics",
    );
}

/// The work the small campaign's FlashAbacus runs do, layer by layer:
/// backbone page commands, controller admission scans, Flashvisor group
/// reads and writes, range-lock traffic, and Storengine GC and journal
/// work; then the same layers' work in the churn round, where GC and
/// erases run. Exact counts, independent of the host's speed.
fn work_counts() -> String {
    let mut table = Table::new(
        "Work counts: FlashAbacus runs of the golden campaign",
        &[
            "Workload",
            "Scheduler",
            "reads",
            "programs",
            "erases",
            "admission_scans",
            "group_reads",
            "group_writes",
            "lock_grants",
            "lock_denials",
            "gc_passes",
            "journal_dumps",
            "pages_migrated",
        ],
    );
    for (workload, apps) in workloads() {
        for policy in SchedulerPolicy::all() {
            let mut system = FlashAbacusSystem::new(FlashAbacusConfig::paper_prototype(policy));
            let out = system
                .run(&apps)
                .unwrap_or_else(|e| panic!("{workload} under {policy:?}: {e}"));
            let visor = system.flashvisor();
            let backbone = visor.backbone();
            let flash = backbone.stats();
            let fv = visor.stats();
            table.row(vec![
                workload.clone(),
                policy.label().to_string(),
                flash.reads.to_string(),
                flash.programs.to_string(),
                flash.erases.to_string(),
                admission_scans(backbone).to_string(),
                fv.group_reads.to_string(),
                fv.group_writes.to_string(),
                visor.locks().grants().to_string(),
                visor.locks().denials().to_string(),
                out.gc_passes.to_string(),
                out.journal_dumps.to_string(),
                system.storengine().stats().pages_migrated.to_string(),
            ]);
        }
    }
    let churn = churn_round();
    let backbone = churn.visor.backbone();
    let flash = backbone.stats();
    let fv = churn.visor.stats();
    let se = churn.storengine.stats();
    let mut churn_table = Table::new(
        "Work counts: the churn round",
        &[
            "reads",
            "programs",
            "erases",
            "admission_scans",
            "group_reads",
            "group_writes",
            "gc_passes",
            "pages_migrated",
            "groups_reclaimed",
        ],
    );
    churn_table.row(vec![
        flash.reads.to_string(),
        flash.programs.to_string(),
        flash.erases.to_string(),
        admission_scans(backbone).to_string(),
        fv.group_reads.to_string(),
        fv.group_writes.to_string(),
        churn.gc_passes.to_string(),
        se.pages_migrated.to_string(),
        se.groups_reclaimed.to_string(),
    ]);
    [table.render(), churn_table.render()].join("\n")
}

/// Σ tag-queue admission scans over every channel controller.
fn admission_scans(backbone: &FlashBackbone) -> u64 {
    backbone
        .channel_stats()
        .iter()
        .map(|c| c.admission_scans)
        .sum()
}

#[test]
fn work_counts_are_identical_to_golden() {
    assert_matches_golden(
        "work_counts.txt",
        &work_counts(),
        "work counts drifted from the golden — a layer now does more (or \
         less) work for the same campaign",
    );
}

/// The state one churn round leaves behind, for its digest and its work
/// counts.
struct ChurnRound {
    digest: String,
    visor: Flashvisor,
    storengine: Storengine,
    gc_passes: u64,
}

/// One churn round on a small device, driven straight through Flashvisor
/// and Storengine: repeated overwrites of a narrow logical window (with
/// hot/cold separation live) interleaved with GC passes whenever the
/// allocator runs low. The digest captures every completion instant plus
/// the full bookkeeping totals, so a single reordered write, migration or
/// erase diverges the bytes.
fn churn_round() -> ChurnRound {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.gc_low_watermark = 0.88;
    config.hot_overwrite_threshold = Some(3);
    let mut v = Flashvisor::new(config);
    let mut s = Storengine::new(config);
    let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
    let group_bytes = config.page_group_bytes;
    let mut now_us = 1u64;
    let mut digest = String::new();
    let mut gc_passes = 0u64;
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
            gc_passes += 1;
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
    ChurnRound {
        digest,
        visor: v,
        storengine: s,
        gc_passes,
    }
}

#[test]
fn churn_round_is_byte_identical_to_golden() {
    assert_matches_golden(
        "churn_digest.txt",
        &churn_round().digest,
        "churn digest drifted from the golden bytes — the write/GC path is \
         no longer reproducing the recorded physics",
    );
}

/// The simulated ablations rendered one after another: Figure 12c's QoS
/// ablation, the placement × GC-victim policy grid, every placement
/// policy's endurance-to-death row, and the open-loop scale-out capacity
/// curve with its governor ablation. All are simulated time at fixed
/// explicit scales, so any drift is a physics change.
fn ablations() -> String {
    let spec = RunSpec::at(ExperimentScale { data_scale: 256 });
    let mut endurance = Table::new(
        "Endurance to death under the seeded wear-out fault plan",
        &[
            "Placement",
            "died",
            "host_bytes_written",
            "rounds_completed",
            "rows_retired",
            "blocks_condemned",
            "program_failures",
            "erase_failures",
        ],
    );
    for e in endurance_grid() {
        endurance.row(vec![
            e.placement.to_string(),
            e.died.to_string(),
            e.host_bytes_written.to_string(),
            e.rounds_completed.to_string(),
            e.rows_retired.to_string(),
            e.blocks_condemned.to_string(),
            e.program_failures.to_string(),
            e.erase_failures.to_string(),
        ]);
    }
    [
        fig12_cdf::qos_ablation_report(&spec),
        policy_ablation::report(&spec),
        endurance.render(),
        render_scaleout(&scaleout_report(spec.scale)),
    ]
    .join("\n")
}

#[test]
fn simulated_ablations_are_byte_identical_to_golden() {
    assert_matches_golden(
        "ablations.txt",
        &ablations(),
        "ablation report drifted from the golden bytes — a QoS, policy, \
         endurance or scale-out result changed",
    );
}
