//! Ablation benchmarks for three design choices of the simulator:
//! page-group size, channel tag-queue depth, and buffered output writes.
//! `docs/ARCHITECTURE.md` describes the simulator; its "Heterogeneous mix
//! generator" section records how the workloads depart from the paper's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};
use flashabacus::config::FlashAbacusConfig;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::system::FlashAbacusSystem;

fn batch() -> Vec<fa_kernel::model::Application> {
    let template = synthetic_app(
        "ablate",
        &SyntheticSpec {
            instructions: 300_000,
            serial_fraction: 0.2,
            input_bytes: 512 * 1024,
            output_bytes: 64 * 1024,
            ldst_ratio: 0.4,
            mul_ratio: 0.1,
            parallel_screens: 6,
        },
    );
    instantiate_many(
        &[template],
        &InstancePlan {
            instances_per_app: 4,
            ..Default::default()
        },
    )
}

fn run_with(config: FlashAbacusConfig, apps: &[fa_kernel::model::Application]) -> f64 {
    let mut system = FlashAbacusSystem::new(config);
    system.run(apps).unwrap().finished_at.as_secs_f64()
}

fn ablation_pagegroup(c: &mut Criterion) {
    let apps = batch();
    let mut group = c.benchmark_group("ablation/page_group_bytes");
    for kb in [16u64, 64, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kb}KiB")),
            &kb,
            |b, kb| {
                let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
                config.page_group_bytes = kb * 1024;
                b.iter(|| criterion::black_box(run_with(config, &apps)))
            },
        );
    }
    group.finish();
}

fn ablation_tag_queue(c: &mut Criterion) {
    let apps = batch();
    let mut group = c.benchmark_group("ablation/channel_tag_queue");
    for depth in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, depth| {
            let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
            config.channel_tag_queue = *depth;
            b.iter(|| criterion::black_box(run_with(config, &apps)))
        });
    }
    group.finish();
}

fn ablation_buffered_writes(c: &mut Criterion) {
    let apps = batch();
    let mut group = c.benchmark_group("ablation/buffered_writes");
    for buffered in [true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(buffered),
            &buffered,
            |b, buffered| {
                let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
                config.buffered_writes = *buffered;
                b.iter(|| criterion::black_box(run_with(config, &apps)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_pagegroup,
    ablation_tag_queue,
    ablation_buffered_writes
);
criterion_main!(benches);
