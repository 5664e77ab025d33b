//! Compare the four FlashAbacus schedulers and the conventional SIMD
//! baseline on the same mixed batch — a miniature version of Figure 10b.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scheduler_comparison
//! ```

use flashabacus_suite::prelude::*;

/// Builds a small heterogeneous batch: two data-intensive and two
/// compute-intensive PolyBench applications, two instances each.
fn mixed_batch() -> Vec<Application> {
    let scale = 128; // divide the paper's input sizes for a fast demo
    let templates = vec![
        polybench_app(PolyBench::Atax, scale),
        polybench_app(PolyBench::Mvt, scale),
        polybench_app(PolyBench::Gemm, scale),
        polybench_app(PolyBench::ThreeMm, scale),
    ];
    instantiate_many(
        &templates,
        &InstancePlan {
            instances_per_app: 2,
            ..Default::default()
        },
    )
}

fn main() {
    let apps = mixed_batch();
    println!(
        "Mixed batch: {} kernel instances, {:.1} MB of flash-resident data\n",
        apps.len(),
        apps.iter().map(|a| a.flash_bytes()).sum::<u64>() as f64 / 1e6
    );
    println!(
        "{:<10}  {:>12}  {:>12}  {:>14}  {:>10}",
        "system", "time (ms)", "MB/s", "avg lat (ms)", "energy (J)"
    );

    // The conventional baseline first.
    let mut simd = ConventionalSystem::new(BaselineConfig::paper_baseline());
    let base = simd.run(&apps);
    let (_, base_avg, _) = latency_stats(&base.kernel_latencies);
    println!(
        "{:<10}  {:>12.2}  {:>12.1}  {:>14.2}  {:>10.3}",
        "SIMD",
        base.finished_at.as_secs_f64() * 1e3,
        throughput_mb_s(base.bytes_processed, base.finished_at),
        base_avg * 1e3,
        base.energy.total_j()
    );

    // All four FlashAbacus policies.
    for policy in SchedulerPolicy::all() {
        let mut system = FlashAbacusSystem::new(FlashAbacusConfig::paper_prototype(policy));
        let out = system.run(&apps).expect("run completes");
        let (_, avg, _) = latency_stats(&out.kernel_latencies);
        println!(
            "{:<10}  {:>12.2}  {:>12.1}  {:>14.2}  {:>10.3}",
            policy.label(),
            out.finished_at.as_secs_f64() * 1e3,
            throughput_mb_s(out.bytes_processed, out.finished_at),
            avg * 1e3,
            out.energy.total_j()
        );
    }

    println!("\nExpected shape (paper §5.1): the intra-kernel out-of-order scheduler");
    println!("wins on mixed batches because it borrows screens across kernels when a");
    println!("straggler would otherwise idle the workers; SIMD pays for every byte it");
    println!("moves through the host storage stack.");
}
