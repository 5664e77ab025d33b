//! Fault-injection smoke: the CI gate for PR 8's fault model.
//!
//! Three checks, all deterministic:
//!
//! 1. **Campaign under faults** — the fig10 homogeneous campaign runs to
//!    completion under `FA_FAULTS`, by default a seeded probabilistic
//!    fault plan plus a mid-run power loss (every simulated run absorbs
//!    its injected failures, crashes once, replays its journal, and
//!    finishes).
//! 2. **Seeded reproducibility** — the GC-pressure workload runs twice
//!    under the same scripted-plus-probabilistic plan; fault trace,
//!    retirement table, final mapping, and finish time must be
//!    bit-identical.
//! 3. **Power-loss replay** — a crash at half the fault-free finish time
//!    must recover exactly the reference run's logical content.
//!
//! Checks 2 and 3 install their own plans; `FA_FAULTS` does not reach
//! them. Scale via `FA_DATA_SCALE` (CI uses 256). Exits nonzero on any
//! violation.

use fa_bench::experiments::fig12_cdf::{gc_pressure_config, gc_pressure_workload};
use fa_bench::experiments::{fig10_throughput, Campaign};
use fa_bench::runner::RunSpec;
use fa_flash::FaultPlan;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::FlashAbacusSystem;
use std::sync::Arc;

/// The campaign's fault plan when `FA_FAULTS` is unset.
const DEFAULT_FAULTS: &str =
    "seed=23,program=0.00005,erase=0.00002,retire_after=4,power_loss_ns=2000000";

fn main() {
    // 1. The fig10 campaign with faults and one power loss per run, under
    // the caller's plan or the default one.
    let mut spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let campaign_plan = spec.faults.get_or_insert_with(|| {
        Arc::new(FaultPlan::parse(DEFAULT_FAULTS).expect("default plan parses"))
    });
    eprintln!(
        "fault-smoke: campaign at data scale 1/{} under {campaign_plan:?}",
        spec.scale.data_scale
    );
    let homogeneous = Campaign::homogeneous(&spec);
    println!("{}", fig10_throughput::report_homogeneous(&homogeneous));

    // 2. Seeded reproducibility: identical fault trace and end state
    // twice (the PR 8 acceptance criterion, at CI scale).
    let apps = gc_pressure_workload();
    let plan = FaultPlan::parse(
        "seed=7,program=0.0002,erase=0.0001,retire_after=2,\
         script=program@c0.d0.b3.n1,script=program@c0.d0.b3.n2",
    )
    .expect("smoke plan parses");
    let run_faulty = || {
        let mut system = FlashAbacusSystem::new(gc_pressure_config(SchedulerPolicy::InterDy));
        system.install_fault_plan(Arc::new(plan.clone()));
        let out = system.run(&apps).expect("faulty run completes");
        let stats = system.flashvisor().backbone().fault_stats();
        let retired = system.flashvisor().retired_rows().to_vec();
        let mapped: Vec<(u64, u64)> = system.flashvisor().mapped_groups().collect();
        (out.finished_at, stats, retired, mapped)
    };
    let (t1, s1, r1, m1) = run_faulty();
    let (t2, s2, r2, m2) = run_faulty();
    assert!(s1.injected_program_failures >= 2, "scripted faults missed");
    assert!(r1.contains(&3), "scripted block row not retired: {r1:?}");
    assert_eq!(t1, t2, "finish time not reproducible");
    assert_eq!(s1, s2, "fault trace not reproducible");
    assert_eq!(r1, r2, "retirement table not reproducible");
    assert_eq!(m1, m2, "post-fault mapping not reproducible");
    eprintln!(
        "fault-smoke: reproducible fault trace ({} program / {} erase failures, rows {:?} retired)",
        s1.injected_program_failures, s1.injected_erase_failures, r1
    );

    // 3. Power-loss replay reproduces the fault-free logical content.
    let apps = gc_pressure_workload();
    let config = gc_pressure_config(SchedulerPolicy::InterDy);
    let mut reference = FlashAbacusSystem::new(config);
    let ref_out = reference.run(&apps).expect("reference run completes");
    let crash_ns = ref_out.finished_at.as_ns() / 2;
    let crash_plan =
        FaultPlan::parse(&format!("power_loss_ns={crash_ns}")).expect("crash plan parses");
    let mut crashing = FlashAbacusSystem::new(config);
    crashing.install_fault_plan(Arc::new(crash_plan));
    crashing.run(&apps).expect("crashing run completes");
    assert_eq!(crashing.recoveries(), 1, "power loss did not fire");
    let logical = |s: &FlashAbacusSystem| {
        let mut v: Vec<u64> = s.flashvisor().mapped_groups().map(|(lg, _)| lg).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        logical(&reference),
        logical(&crashing),
        "journal replay lost logical content"
    );
    eprintln!(
        "fault-smoke: power loss at {} ns recovered {} logical groups exactly",
        crash_ns,
        logical(&crashing).len()
    );
    eprintln!("fault-smoke: OK");
}
