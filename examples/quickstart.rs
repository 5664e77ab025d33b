//! Quickstart: offload a small application batch to FlashAbacus and print
//! the outcome.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use flashabacus_suite::prelude::*;

fn main() {
    // 1. Describe an application: one kernel with a serial set-up
    //    microblock followed by a parallel microblock split into screens.
    let mix = InstructionMix::new(8_000_000, 0.40, 0.12);
    let app = ApplicationBuilder::new("quickstart")
        .kernel(
            "quickstart-k0",
            DataSection {
                flash_base: 0,
                input_bytes: 8 << 20,
                output_bytes: 1 << 20,
            },
            &[
                (1, InstructionMix::new(800_000, 0.40, 0.12), 1 << 20, 0),
                (8, mix, 7 << 20, 1 << 20),
            ],
        )
        .build(AppId(0));

    // 2. Stamp out four instances, laying their flash data sections out
    //    contiguously in the backbone's logical address space.
    let apps = instantiate_many(
        &[app],
        &InstancePlan {
            instances_per_app: 4,
            ..Default::default()
        },
    );

    // 3. Build the paper's prototype accelerator with the out-of-order
    //    intra-kernel scheduler and run the batch.
    let config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
    let mut accelerator = FlashAbacusSystem::new(config);
    let outcome = accelerator.run(&apps).expect("workload runs to completion");

    // 4. Inspect the results.
    println!("FlashAbacus quickstart");
    println!("  scheduler            : {:?}", outcome.scheduler);
    println!(
        "  kernels completed    : {}",
        outcome.kernel_latencies.len()
    );
    println!(
        "  total time           : {:.3} ms",
        outcome.finished_at.as_secs_f64() * 1e3
    );
    println!(
        "  throughput           : {:.1} MB/s",
        throughput_mb_s(outcome.bytes_processed, outcome.finished_at)
    );
    let (min, avg, max) = latency_stats(&outcome.kernel_latencies);
    println!(
        "  kernel latency        : min {:.3} ms / avg {:.3} ms / max {:.3} ms",
        min * 1e3,
        avg * 1e3,
        max * 1e3
    );
    println!(
        "  worker utilization   : {:.1} %",
        outcome.mean_worker_utilization() * 100.0
    );
    println!(
        "  energy               : {:.3} J (compute {:.3} J, storage {:.3} J, movement {:.3} J)",
        outcome.energy.total_j(),
        outcome.energy.breakdown.computation_j,
        outcome.energy.breakdown.storage_access_j,
        outcome.energy.breakdown.data_movement_j,
    );
    println!(
        "  flash traffic        : {} page-group reads, {} page-group writes",
        outcome.flash_group_reads, outcome.flash_group_writes
    );
}
