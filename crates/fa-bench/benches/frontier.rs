//! Dispatch-loop throughput of the incrementally maintained ready frontier
//! versus a naive full-batch rescan, at small / medium / large screen
//! counts.
//!
//! The frontier drain does O(S) total work for a batch of S screens; the
//! rescan drain recomputes the whole ready list per dispatch — O(S²) — which
//! is what `ExecutionChain::ready_screens`-based scheduling used to cost.
//! The gap between the two rows at `large` is the tentpole win recorded in
//! `BENCH_PR2.json`. Batch shape and baseline walk come from
//! `fa_bench::perf`, whose tests check the walk against the frontier; the
//! `perfbench` benchmark tracks the frontier inside full runs as
//! `chain.drain_ns_per_screen`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fa_bench::perf::{naive_ready_screens, screen_batch};
use fa_kernel::chain::ExecutionChain;
use fa_kernel::model::Application;
use fa_sim::time::SimTime;

/// Drains the chain taking the first ready screen off the incremental
/// frontier each step — the new per-dispatch path.
fn drain_frontier(mut chain: ExecutionChain) -> usize {
    let mut dispatched = 0;
    let mut t = 0u64;
    while let Some(s) = chain.first_ready() {
        chain.mark_running(s, 0);
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
        dispatched += 1;
    }
    assert!(chain.is_complete());
    dispatched
}

/// Drains the chain rebuilding the full ready list per dispatch — the old
/// O(S²) behaviour, kept as the comparison baseline.
fn drain_rescan(mut chain: ExecutionChain, apps: &[Application]) -> usize {
    let mut dispatched = 0;
    let mut t = 0u64;
    loop {
        let ready = naive_ready_screens(&chain, apps);
        let Some(&s) = ready.first() else { break };
        chain.mark_running(s, 0);
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
        dispatched += 1;
    }
    assert!(chain.is_complete());
    dispatched
}

fn bench_dispatch_loop(c: &mut Criterion) {
    let sizes = [("small", 128usize), ("medium", 1024), ("large", 8192)];
    let mut group = c.benchmark_group("frontier/dispatch_drain");
    for (label, total) in sizes {
        let apps = screen_batch(total);
        let chain = ExecutionChain::new(&apps);
        let screens = chain.total_screens();
        group.bench_with_input(
            BenchmarkId::new("incremental", format!("{label}_{screens}")),
            &chain,
            |b, chain| b.iter_batched(|| chain.clone(), drain_frontier, BatchSize::LargeInput),
        );
        let input = (chain, apps);
        group.bench_with_input(
            BenchmarkId::new("full_rescan", format!("{label}_{screens}")),
            &input,
            |b, (chain, apps)| {
                b.iter_batched(
                    || chain.clone(),
                    |c| drain_rescan(c, apps),
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_loop);
criterion_main!(benches);
