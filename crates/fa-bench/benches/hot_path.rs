//! Criterion benchmark of the data-path hot loop: per-command cost of
//! `submit_group` stripes with the full campaign feature set live —
//! per-owner QoS tag admission, dense owner accounting, and valid-page
//! group tracking. The per-command `submit_tagged` sweep rides along as
//! the comparison; `perfstat` records the same numbers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fa_bench::perf::{hot_path_backbone, hot_path_sweep, hot_path_sweep_tagged};
use fa_sim::time::SimTime;

fn bench_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path");
    // One sweep programs, reads, and erases the whole device; report
    // per-sweep time so the two paths are directly comparable.
    group.bench_function("submit_group/device_sweep", |b| {
        b.iter_batched(
            hot_path_backbone,
            |mut backbone| criterion::black_box(hot_path_sweep(&mut backbone, SimTime::ZERO)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("submit_tagged/device_sweep", |b| {
        b.iter_batched(
            hot_path_backbone,
            |mut backbone| {
                criterion::black_box(hot_path_sweep_tagged(&mut backbone, SimTime::ZERO))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
