//! Graph and big-data analytics near flash — a miniature of the paper's
//! §5.6 extended evaluation.
//!
//! Runs breadth-first search, k-nearest neighbours, and grid path-finding
//! on FlashAbacus (out-of-order intra-kernel scheduling) and on the
//! conventional system, then reports throughput and the energy split.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use flashabacus_suite::prelude::*;

fn batch(bench: BigDataBench, instances: usize) -> Vec<Application> {
    let scale = 128; // divide the paper's input sizes for a fast demo
    instantiate_many(
        &[bigdata_app(bench, scale)],
        &InstancePlan {
            instances_per_app: instances,
            ..Default::default()
        },
    )
}

fn main() {
    println!("Graph / big-data analytics near flash (bfs, nn, path)\n");
    println!(
        "{:<6}  {:<12}  {:>12}  {:>12}  {:>18}",
        "app", "system", "time (ms)", "MB/s", "energy (J, dm/comp/st)"
    );

    for (name, bench) in [
        ("bfs", BigDataBench::Bfs),
        ("nn", BigDataBench::Nn),
        ("path", BigDataBench::Path),
    ] {
        let apps = batch(bench, 4);

        let mut conventional = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let simd = conventional.run(&apps);
        println!(
            "{:<6}  {:<12}  {:>12.2}  {:>12.1}  {:>6.2}/{:>4.2}/{:>4.2}",
            name,
            "SIMD",
            simd.finished_at.as_secs_f64() * 1e3,
            throughput_mb_s(simd.bytes_processed, simd.finished_at),
            simd.energy.breakdown.data_movement_j,
            simd.energy.breakdown.computation_j,
            simd.energy.breakdown.storage_access_j,
        );

        let mut accelerator =
            FlashAbacusSystem::new(FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3));
        let fa = accelerator.run(&apps).expect("run completes");
        println!(
            "{:<6}  {:<12}  {:>12.2}  {:>12.1}  {:>6.2}/{:>4.2}/{:>4.2}",
            name,
            "IntraO3",
            fa.finished_at.as_secs_f64() * 1e3,
            throughput_mb_s(fa.bytes_processed, fa.finished_at),
            fa.energy.breakdown.data_movement_j,
            fa.energy.breakdown.computation_j,
            fa.energy.breakdown.storage_access_j,
        );
    }

    println!("\nThe conventional system spends most of its energy shuttling the graph");
    println!("between the SSD and the accelerator; FlashAbacus reads it straight out of");
    println!("the flash backbone into DDR3L and spends its energy computing instead.");
}
