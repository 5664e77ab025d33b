//! Guard that how a campaign is split up cannot change simulated results.
//!
//! Every section read, program sweep and GC erase row has one serial
//! implementation, so the pinned small campaign must render the committed
//! golden bytes however many worker threads run it, and a read-affecting
//! fault plan must reproduce exactly from run to run. Neither test reads
//! or writes the process environment.

mod common;

use common::{read_golden, render, workloads};
use fa_bench::runner::{run_pairs, ExperimentScale, RunSpec};
use fa_flash::FaultPlan;
use fa_kernel::model::Application;
use flashabacus::config::FlashAbacusConfig;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::FlashAbacusSystem;
use std::sync::Arc;

#[test]
fn report_is_byte_identical_for_every_shard_count() {
    let golden = read_golden("small_campaign.txt");
    let w = workloads();
    for threads in [1, 2, 4, 7] {
        let spec = RunSpec {
            threads,
            ..RunSpec::at(ExperimentScale::default())
        };
        assert_eq!(
            render(&run_pairs(&spec, &w)),
            golden,
            "campaign report on {threads} threads diverged from the golden bytes"
        );
    }
}

/// One FlashAbacus run of `apps` under `policy`, with `plan` installed,
/// rendered in full.
fn run_with(
    policy: SchedulerPolicy,
    apps: &[Application],
    plan: Option<&Arc<FaultPlan>>,
) -> String {
    let config = FlashAbacusConfig::paper_prototype(policy);
    let mut system = FlashAbacusSystem::new(config);
    if let Some(plan) = plan {
        system.install_fault_plan(Arc::clone(plan));
    }
    format!("{:?}", system.run(apps).unwrap())
}

#[test]
fn fault_plan_serial_fallback_is_shard_count_invariant() {
    // A read-affecting fault plan (read-disturb retries plus relocation)
    // changes the physics, so every run must differ from its fault-free
    // twin; it must still reproduce exactly.
    let plan = Arc::new(FaultPlan::parse("seed=11,read_disturb=0.02").unwrap());
    for (workload, apps) in workloads() {
        for policy in SchedulerPolicy::all() {
            let first = run_with(policy, &apps, Some(&plan));
            assert_eq!(
                first,
                run_with(policy, &apps, Some(&plan)),
                "{workload} under {policy:?} diverged between two runs of one fault plan"
            );
            assert_ne!(
                first,
                run_with(policy, &apps, None),
                "{workload} under {policy:?}: the read-disturb plan left the run fault-free"
            );
        }
    }
}
