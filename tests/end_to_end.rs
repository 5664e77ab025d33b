//! End-to-end integration tests spanning the whole workspace: workloads are
//! built from Table 2, run on both the FlashAbacus device and the
//! conventional baseline, and the headline comparisons of the paper are
//! checked in direction (who wins), not in absolute numbers.

use flashabacus_suite::prelude::*;

/// Data-scale divisor used by these tests (coarse, to keep CI fast).
const SCALE: u64 = 256;

fn homogeneous(bench: PolyBench, instances: usize) -> Vec<Application> {
    instantiate_many(
        &[polybench_app(bench, SCALE)],
        &InstancePlan {
            instances_per_app: instances,
            ..Default::default()
        },
    )
}

fn run_flashabacus(policy: SchedulerPolicy, apps: &[Application]) -> RunOutcome {
    let mut system = FlashAbacusSystem::new(FlashAbacusConfig::paper_prototype(policy));
    system.run(apps).expect("FlashAbacus run completes")
}

#[test]
fn flashabacus_outperforms_simd_on_data_intensive_workloads() {
    // The paper's headline: for data-intensive kernels the self-governing
    // accelerator both processes data faster and uses less energy than the
    // conventional system (Figures 10a and 13a).
    for bench in [PolyBench::Atax, PolyBench::Mvt, PolyBench::Gesum] {
        let apps = homogeneous(bench, 6);
        let mut simd = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let base = simd.run(&apps);
        let fa = run_flashabacus(SchedulerPolicy::IntraO3, &apps);
        let fa_mb_s = throughput_mb_s(fa.bytes_processed, fa.finished_at);
        let base_mb_s = throughput_mb_s(base.bytes_processed, base.finished_at);
        assert!(
            fa_mb_s > base_mb_s,
            "{bench:?}: FlashAbacus {fa_mb_s:.1} MB/s vs SIMD {base_mb_s:.1} MB/s"
        );
        assert!(
            fa.energy.total_j() < base.energy.total_j(),
            "{bench:?}: FlashAbacus {:.2} J vs SIMD {:.2} J",
            fa.energy.total_j(),
            base.energy.total_j()
        );
    }
}

#[test]
fn all_four_schedulers_process_the_same_data() {
    let apps = homogeneous(PolyBench::Fdtd, 4);
    let expected_bytes: u64 = apps.iter().map(|a| a.flash_bytes()).sum();
    for policy in SchedulerPolicy::all() {
        let out = run_flashabacus(policy, &apps);
        assert_eq!(out.bytes_processed, expected_bytes, "{policy:?}");
        assert_eq!(out.kernel_latencies.len(), 4, "{policy:?}");
        assert!(out.flash_group_reads > 0, "{policy:?}");
    }
}

#[test]
fn dynamic_scheduling_improves_on_static_for_unbalanced_batches() {
    // Seven instances over six workers: the static policy must double up on
    // one worker while the dynamic one rebalances (Figure 10 discussion).
    let apps = homogeneous(PolyBench::TwoDConv, 7);
    let st = run_flashabacus(SchedulerPolicy::InterSt, &apps);
    let dy = run_flashabacus(SchedulerPolicy::InterDy, &apps);
    assert!(
        dy.finished_at <= st.finished_at,
        "InterDy {:?} should not be slower than InterSt {:?}",
        dy.finished_at,
        st.finished_at
    );
}

#[test]
fn out_of_order_scheduling_tolerates_serial_microblocks() {
    // ADI and FDTD carry serial microblocks; the out-of-order scheduler
    // hides them behind other kernels' screens (§5.1).
    for bench in [PolyBench::Adi, PolyBench::Fdtd] {
        let apps = homogeneous(bench, 6);
        let io = run_flashabacus(SchedulerPolicy::IntraIo, &apps);
        let o3 = run_flashabacus(SchedulerPolicy::IntraO3, &apps);
        assert!(
            o3.finished_at <= io.finished_at,
            "{bench:?}: IntraO3 {:?} vs IntraIo {:?}",
            o3.finished_at,
            io.finished_at
        );
        assert!(o3.mean_worker_utilization() + 1e-9 >= io.mean_worker_utilization());
    }
}

#[test]
fn compute_intensive_workloads_show_small_simd_gap() {
    // For compute-intensive kernels the data-movement advantage shrinks
    // (Figure 10a's right half): FlashAbacus should not lose badly, and the
    // gap must be far smaller than for data-intensive kernels.
    let apps = homogeneous(PolyBench::Gemm, 6);
    let mut simd = ConventionalSystem::new(BaselineConfig::paper_baseline());
    let base = simd.run(&apps);
    let fa = run_flashabacus(SchedulerPolicy::InterDy, &apps);
    let ratio = fa.finished_at.as_secs_f64() / base.finished_at.as_secs_f64();
    assert!(
        ratio < 2.0,
        "FlashAbacus should stay within 2x of SIMD on GEMM, ratio {ratio:.2}"
    );
}

#[test]
fn graph_workloads_run_on_both_systems() {
    // §5.6: the graph/big-data applications are data-intensive and favour
    // the near-flash design.
    let apps = instantiate_many(
        &[bigdata_app(BigDataBench::Bfs, SCALE)],
        &InstancePlan {
            instances_per_app: 4,
            ..Default::default()
        },
    );
    let mut simd = ConventionalSystem::new(BaselineConfig::paper_baseline());
    let base = simd.run(&apps);
    let fa = run_flashabacus(SchedulerPolicy::IntraO3, &apps);
    assert!(
        throughput_mb_s(fa.bytes_processed, fa.finished_at)
            > throughput_mb_s(base.bytes_processed, base.finished_at)
    );
    assert!(fa.energy.total_j() < base.energy.total_j());
}

#[test]
fn storengine_journals_on_long_runs_without_affecting_correctness() {
    // A batch large enough to cross several journal intervals still
    // completes and reports monotone completion times.
    let apps = homogeneous(PolyBench::Adi, 8);
    let out = run_flashabacus(SchedulerPolicy::InterDy, &apps);
    let cdf = completion_cdf(&out.kernel_latencies);
    for pair in cdf.windows(2) {
        assert!(pair[0].0 <= pair[1].0);
    }
    assert_eq!(cdf.len(), 8);
}
