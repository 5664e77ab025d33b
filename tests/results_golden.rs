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
//! admission scans, lock traffic or GC work fails on any machine. A fifth
//! pins the run driver's edge paths: a closed-loop batch under background
//! GC with injected media faults and a mid-run power loss, and an
//! open-loop campaign under a mid-run power loss. A sixth pins the SIMD
//! baseline's outcome on the campaign's workloads in full: energy,
//! per-kernel instants and both timelines.
//!
//! Regenerate the golden files (only when an *intentional* physics change
//! lands) with:
//! ```text
//! FA_BLESS_GOLDEN=1 cargo test --test results_golden
//! ```

use fa_bench::experiments::endurance::endurance_grid;
use fa_bench::experiments::scaleout::{
    render_scaleout, scaleout_bounds, scaleout_config, scaleout_report,
};
use fa_bench::experiments::{fig12_cdf, policy_ablation};
mod common;

use common::{golden_path, read_golden, render, workloads};
use fa_baseline::{BaselineConfig, ConventionalSystem};
use fa_bench::report::Table;
use fa_bench::runner::{run_pairs, ExperimentScale, RunSpec};
use fa_flash::{FaultPlan, FlashBackbone};
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::arrivals::ArrivalPlan;
use fa_sim::stats::TimeSeries;
use fa_sim::time::{SimDuration, SimTime};
use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};
use fa_workloads::tenants::tenant_templates;
use flashabacus::config::FlashAbacusConfig;
use flashabacus::metrics::RunOutcome;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::Storengine;
use flashabacus::{FlashAbacusSystem, Flashvisor};
use std::sync::Arc;

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
        "stats {} {} {} {} {} {} {}\n",
        fv.group_writes,
        fv.overwritten_groups,
        fv.hot_group_writes,
        fv.cold_group_writes,
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

/// A timeline as its length plus an FNV-1a hash of its samples' bits.
fn timeline(series: &TimeSeries) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &(at, value) in series.points() {
        for word in [at.as_ns(), value.to_bits()] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    format!("{} samples, fnv {hash:016x}", series.len())
}

/// One line per scalar of `out`, then its kernel latencies and per-owner
/// flash rows; each timeline as in [`timeline`]. `{:?}` prints every `f64`
/// in its exact shortest form.
fn outcome_text(out: &RunOutcome) -> String {
    let mut text = format!(
        "scheduler {:?}\nfinished_ns {}\nbytes_processed {}\nenergy {:?}\n\
         worker_utilization {:?}\nflashvisor_utilization {:?}\n\
         storengine_utilization {:?}\nfu_timeline {}\npower_timeline {}\n\
         flash_group_reads {}\nflash_group_writes {}\ngc_passes {}\n\
         journal_dumps {}\nforeground_read_p99_s {:?}\nwear {} {} {:?}\n\
         gc_migrated_bytes_per_reclaimed_byte {:?}\nhot_cold {} {}\n",
        out.scheduler,
        out.finished_at.as_ns(),
        out.bytes_processed,
        out.energy.breakdown,
        out.worker_utilization,
        out.flashvisor_utilization,
        out.storengine_utilization,
        timeline(&out.energy.fu_timeline),
        timeline(&out.energy.power_timeline),
        out.flash_group_reads,
        out.flash_group_writes,
        out.gc_passes,
        out.journal_dumps,
        out.foreground_read_p99_s,
        out.wear.min_erases,
        out.wear.max_erases,
        out.wear.stddev_erases,
        out.gc_migrated_bytes_per_reclaimed_byte,
        out.hot_group_writes,
        out.cold_group_writes,
    );
    for k in &out.kernel_latencies {
        text.push_str(&format!(
            "kernel {} {} {} offloaded {} completed {}\n",
            k.app_name,
            k.app_index,
            k.kernel_index,
            k.offloaded_at.as_ns(),
            k.completed_at.as_ns()
        ));
    }
    for o in &out.flash_owner_stats {
        text.push_str(&format!("{o:?}\n"));
    }
    text
}

/// The SIMD baseline's outcome on each workload of the pinned campaign:
/// one line per scalar, then every kernel's start and completion instant;
/// each timeline as in [`timeline`]. `small_campaign.txt` prints only a
/// few digits of the same runs.
fn baseline_outcomes() -> String {
    let mut text = String::new();
    for (workload, apps) in workloads() {
        let out = ConventionalSystem::new(BaselineConfig::paper_baseline()).run(&apps);
        text.push_str(&format!(
            "workload {workload}\nfinished_ns {}\nbytes_processed {}\nenergy {:?}\n\
             lwp_utilization {:?}\ntime_breakdown {:?}\nhost_cpu_utilization {:?}\n\
             fu_timeline {}\npower_timeline {}\n",
            out.finished_at.as_ns(),
            out.bytes_processed,
            out.energy.breakdown,
            out.lwp_utilization,
            out.time_breakdown,
            out.host_cpu_utilization,
            timeline(&out.energy.fu_timeline),
            timeline(&out.energy.power_timeline),
        ));
        for k in &out.kernel_latencies {
            text.push_str(&format!(
                "kernel {} {} {} start {} completed {}\n",
                k.app_name,
                k.app_index,
                k.kernel_index,
                k.offloaded_at.as_ns(),
                k.completed_at.as_ns()
            ));
        }
    }
    text
}

#[test]
fn baseline_outcome_is_byte_identical_to_golden() {
    assert_matches_golden(
        "baseline_outcome.txt",
        &baseline_outcomes(),
        "SIMD baseline outcome drifted from the golden bytes — the \
         conventional system's timing, energy or timelines changed",
    );
}

/// The run driver's edge paths, which no other golden reaches: background
/// GC sliced by a one-tag budget, probabilistic program and erase faults,
/// and a power loss that lands mid-run, in a closed-loop batch; then an
/// open-loop campaign with the governor on, also losing power mid-run.
/// Each run also reports its recovery count and injected-fault totals.
fn driver_edges() -> String {
    // Twelve small kernels on a 4 MiB device whose GC watermark stays
    // tripped, with unbuffered writes, so reclamation overlaps the
    // kernels' reads for most of the run.
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::InterDy);
    config.flash_geometry.blocks_per_plane = 16;
    config.gc_low_watermark = 0.65;
    config.buffered_writes = false;
    config.journal_interval = SimDuration::from_ms(10_000);
    config.qos.background_gc = true;
    config.qos.gc_budget = Some(1);
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
    let apps = instantiate_many(
        &[template],
        &InstancePlan {
            instances_per_app: 12,
            ..Default::default()
        },
    );
    let plan = FaultPlan::parse(&format!(
        "seed=3,program=0.002,erase=0.01,power_loss_ns={CLOSED_LOOP_POWER_LOSS_NS}"
    ))
    .expect("closed-loop fault plan parses");
    let mut system = FlashAbacusSystem::new(config);
    system.install_fault_plan(Arc::new(plan));
    let out = system.run(&apps).expect("closed-loop edge run completes");
    let mut text = format!(
        "closed loop: recoveries {} faults {:?}\n",
        system.recoveries(),
        system.flashvisor().backbone().fault_stats()
    );
    text.push_str(&outcome_text(&out));

    let plan =
        ArrivalPlan::parse("seed=9,rate=4000,tenants=24,templates=3").expect("arrival spec parses");
    let faults = FaultPlan::parse(&format!("power_loss_ns={OPEN_LOOP_POWER_LOSS_NS}"))
        .expect("open-loop fault plan parses");
    // A 512 MiB device whose GC watermark trips once slot reuse has
    // written a tenth of it, so reclamation storms through the campaign.
    let mut config = scaleout_config();
    config.flash_geometry.blocks_per_plane = 4;
    config.gc_low_watermark = 0.9;
    let mut system = FlashAbacusSystem::new(config);
    system.install_fault_plan(Arc::new(faults));
    let report = system
        .run_open_loop(&tenant_templates(1024), &plan, &scaleout_bounds(true))
        .expect("open-loop edge campaign completes");
    text.push_str(&format!(
        "open loop: recoveries {} gc_passes {} journal_dumps {}\n",
        system.recoveries(),
        report.outcome.gc_passes,
        report.outcome.journal_dumps
    ));
    text.push_str(&report.digest());
    text
}

/// Mid-run instant of the closed-loop power loss: the run without it
/// finishes at about twice this, and a GC pass is pending when it fires.
const CLOSED_LOOP_POWER_LOSS_NS: u64 = 727_000;
/// Mid-run instant of the open-loop power loss, chosen the same way.
const OPEN_LOOP_POWER_LOSS_NS: u64 = 93_000_000;

#[test]
fn driver_edge_paths_are_byte_identical_to_golden() {
    assert_matches_golden(
        "driver_edges.txt",
        &driver_edges(),
        "driver edge report drifted from the golden bytes — background GC, \
         fault absorption or power-loss recovery now runs differently",
    );
}
