//! Records the harness's own performance — campaign wall-clock (serial vs
//! parallel), per-policy dispatch throughput, the incremental allocator /
//! GC-discovery speedups — plus two *simulated* ablations: the QoS
//! ablation (foreground read p99 under concurrent GC, synchronous vs
//! backgrounded vs budgeted) and the storage-policy ablation (placement ×
//! GC-victim × hot/cold wear spread and migration efficiency). Written to
//! `BENCH_PR10.json`, together with the `endurance` section (each
//! placement policy churned under the identical seeded wear-out fault plan
//! until injected failures retire enough block rows to kill the device,
//! recording the host bytes that landed first) and the `scaleout` section:
//! the open-loop multi-tenant capacity curve (offered load vs
//! completed-tenant throughput and tail-SLO attainment) plus the
//! online-QoS-governor vs static-budget ablation at the deepest overload
//! point.
//!
//! The wall-clock sections measure the simulator, not the simulated
//! hardware; the `qos_ablation`, `policy_ablation`, and `endurance`
//! sections are simulated time and exactly reproducible. Knobs:
//! `FA_DATA_SCALE` (workload size divisor), `FA_THREADS` (parallel
//! campaign width), `FA_BENCH_OUT` (output path, default
//! `BENCH_PR10.json` in the working directory).
//!
//! Regenerate with:
//! ```text
//! cargo run --release -p fa-bench --bin perfstat
//! ```

use fa_bench::experiments::endurance::endurance_grid;
use fa_bench::experiments::fig12_cdf::{gc_pressure_workload, qos_ablation_modes, run_qos_mode};
use fa_bench::experiments::policy_ablation::{churn_grid, churn_rounds, hot_cold_on_rows};
use fa_bench::experiments::scaleout::{scaleout_report, ScaleoutStat};
use fa_bench::experiments::Campaign;
use fa_bench::perf::{
    hot_path_backbone, hot_path_sweep, hot_path_sweep_tagged, naive_ready_first,
    naive_victim_groups, populated_flashvisor, screen_batch, NaiveScanAllocator,
};
use fa_bench::runner::{campaign_threads, run_pairs_with_threads, ExperimentScale};
use fa_kernel::chain::ExecutionChain;
use fa_kernel::model::Application;
use fa_sim::time::SimTime;
use flashabacus::freespace::{FreeSpaceManager, PlacementPolicy};
use flashabacus::scheduler::{intra_next_ready, SchedulerPolicy};
use std::fmt::Write as _;
use std::time::Instant;

/// One campaign's serial-vs-parallel timing.
struct CampaignStat {
    name: &'static str,
    pairs: usize,
    serial_seconds: f64,
    parallel_seconds: f64,
}

/// One dispatch-loop throughput measurement.
struct DispatchStat {
    policy: SchedulerPolicy,
    screens: usize,
    seconds: f64,
}

/// Incremental-frontier vs full-rescan drain timing at one batch size.
struct FrontierStat {
    screens: usize,
    incremental_seconds: f64,
    rescan_seconds: f64,
}

/// Free-space drain timing: incremental pop vs scan-based allocation.
struct AllocatorStat {
    groups: u64,
    incremental_seconds: f64,
    scan_seconds: f64,
}

/// GC victim-discovery timing: reverse index vs full mapping-table scan.
struct GcDiscoveryStat {
    mapped_groups: u64,
    passes: u64,
    incremental_seconds: f64,
    rescan_seconds: f64,
}

/// One QoS-ablation mode's simulated outcome.
struct QosStat {
    mode: &'static str,
    gc_passes: u64,
    foreground_read_p99_s: f64,
    finish_s: f64,
}

/// Times a full drain of `groups` page groups through the incremental
/// free-space manager and through the old scan-based allocator. Both
/// drains end exhausted; the results are asserted identical.
fn time_allocator(groups: u64) -> AllocatorStat {
    let mut incremental = FreeSpaceManager::new(groups, 8, 4, 8, 256, PlacementPolicy::FirstFree);
    let start = Instant::now();
    let mut popped = 0u64;
    while incremental.allocate().is_some() {
        popped += 1;
    }
    let incremental_seconds = start.elapsed().as_secs_f64();
    assert_eq!(popped, groups);

    let mut naive = NaiveScanAllocator::new(groups);
    let start = Instant::now();
    let mut scanned = 0u64;
    while naive.allocate().is_some() {
        scanned += 1;
    }
    let scan_seconds = start.elapsed().as_secs_f64();
    assert_eq!(scanned, groups);

    AllocatorStat {
        groups,
        incremental_seconds,
        scan_seconds,
    }
}

/// Times `passes` GC victim discoveries over a Flashvisor with
/// `mapped_groups` groups mapped: the reverse-index walk of one block's
/// group range vs the full mapping-table rescan. A separate untimed sweep
/// asserts both sides return the identical victim list for every pass, so
/// the recorded speedup always compares equivalent work.
fn time_gc_discovery(mapped_groups: u64, passes: u64) -> GcDiscoveryStat {
    let v = populated_flashvisor(mapped_groups);
    let config = *v.config();
    let total_blocks = config.flash_geometry.total_blocks();
    // The exact range production GC scans per pass (one shared definition
    // in FlashAbacusConfig — see gc_scan_group_range).
    let range_of = |block: u64| config.gc_scan_group_range(block % total_blocks);

    let start = Instant::now();
    let mut incremental_found = 0u64;
    for pass in 0..passes {
        let (low, high) = range_of(pass);
        incremental_found += v.victim_groups(low, high).len() as u64;
    }
    let incremental_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut rescan_found = 0u64;
    for pass in 0..passes {
        let (low, high) = range_of(pass);
        rescan_found += naive_victim_groups(&v, low, high).len() as u64;
    }
    let rescan_seconds = start.elapsed().as_secs_f64();
    assert_eq!(incremental_found, rescan_found);
    for pass in 0..passes {
        let (low, high) = range_of(pass);
        assert_eq!(
            v.victim_groups(low, high),
            naive_victim_groups(&v, low, high),
            "victim discovery diverged on pass {pass}"
        );
    }

    GcDiscoveryStat {
        mapped_groups,
        passes,
        incremental_seconds,
        rescan_seconds,
    }
}

/// Drains a chain through one policy's frontier-based decision path,
/// mimicking the system dispatch loop (pick → mark_running → mark_done)
/// with a bounded number of screens in flight. Returns screens dispatched.
fn drain_chain(policy: SchedulerPolicy, apps: &[Application]) -> usize {
    let mut chain = ExecutionChain::new(apps);
    let kernels: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, a)| (0..a.kernels.len()).map(move |ki| (ai, ki)))
        .collect();
    let mut in_flight: Vec<fa_kernel::chain::ScreenRef> = Vec::with_capacity(12);
    let mut dispatched = 0usize;
    let mut t = 0u64;
    while !chain.is_complete() {
        while in_flight.len() < 12 {
            let pick = match policy {
                SchedulerPolicy::IntraIo | SchedulerPolicy::IntraO3 => {
                    intra_next_ready(policy, &chain)
                }
                SchedulerPolicy::InterSt | SchedulerPolicy::InterDy => kernels
                    .iter()
                    .find_map(|&(ai, ki)| chain.next_ready_of_kernel(ai, ki)),
            };
            let Some(s) = pick else { break };
            chain.mark_running(s, in_flight.len());
            in_flight.push(s);
            dispatched += 1;
        }
        let Some(s) = in_flight.pop() else {
            panic!("scheduler stalled with nothing in flight");
        };
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
    }
    dispatched
}

/// Times a full drain of `apps` through the incremental frontier and
/// through the old full-rescan walk.
fn time_frontier(apps: &[Application]) -> FrontierStat {
    let template = ExecutionChain::new(apps);
    let screens = template.total_screens();

    let mut chain = template.clone();
    let start = Instant::now();
    let mut t = 0u64;
    while let Some(s) = chain.first_ready() {
        chain.mark_running(s, 0);
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
    }
    let incremental_seconds = start.elapsed().as_secs_f64();
    assert!(chain.is_complete());

    let mut chain = template;
    let start = Instant::now();
    let mut t = 0u64;
    while let Some(s) = naive_ready_first(&chain, apps) {
        chain.mark_running(s, 0);
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
    }
    let rescan_seconds = start.elapsed().as_secs_f64();
    assert!(chain.is_complete());

    FrontierStat {
        screens,
        incremental_seconds,
        rescan_seconds,
    }
}

fn time_campaign(
    name: &'static str,
    workloads: Vec<(String, Vec<Application>)>,
    threads: usize,
) -> CampaignStat {
    let pairs = workloads.len() * 5;
    let start = Instant::now();
    let serial = run_pairs_with_threads(&workloads, 1);
    let serial_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel = run_pairs_with_threads(&workloads, threads);
    let parallel_seconds = start.elapsed().as_secs_f64();
    // The determinism contract, enforced on every perfstat run.
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.total_seconds.to_bits(),
            p.total_seconds.to_bits(),
            "parallel campaign diverged from serial on {} / {}",
            s.workload,
            s.system.label()
        );
    }
    CampaignStat {
        name,
        pairs,
        serial_seconds,
        parallel_seconds,
    }
}

fn main() {
    let scale = ExperimentScale::from_env();
    let threads = campaign_threads();
    eprintln!(
        "perfstat: data scale 1/{}, {threads} thread(s)",
        scale.data_scale
    );

    let campaigns = [
        time_campaign(
            "homogeneous",
            Campaign::homogeneous_workloads(scale),
            threads,
        ),
        time_campaign(
            "heterogeneous",
            Campaign::heterogeneous_workloads(scale),
            threads,
        ),
        time_campaign("bigdata", Campaign::bigdata_workloads(scale), threads),
    ];

    // Frontier dispatch throughput: how many scheduling decisions per
    // second the incremental ready set sustains, at three batch sizes.
    let mut dispatch = Vec::new();
    let mut frontier = Vec::new();
    for &total in &[128usize, 1024, 8192] {
        let apps = screen_batch(total);
        frontier.push(time_frontier(&apps));
        for policy in SchedulerPolicy::all() {
            // Warm pass (first touch of the allocator), then the timed one.
            let screens = drain_chain(policy, &apps);
            let start = Instant::now();
            let again = drain_chain(policy, &apps);
            let seconds = start.elapsed().as_secs_f64();
            assert_eq!(screens, again);
            dispatch.push(DispatchStat {
                policy,
                screens,
                seconds,
            });
        }
    }

    // Free-space drain: scan-based allocation is O(n²) per drain, so the
    // baseline sizes are capped; the incremental structure also runs the
    // full device to show it stays linear.
    let allocator: Vec<AllocatorStat> = [16_384u64, 65_536, 131_072]
        .iter()
        .map(|&g| time_allocator(g))
        .collect();

    // GC victim discovery at campaign-sized mapping populations.
    let gc_discovery: Vec<GcDiscoveryStat> = [(65_536u64, 512u64), (262_144, 512)]
        .iter()
        .map(|&(groups, passes)| time_gc_discovery(groups, passes))
        .collect();

    // Hot-path per-command cost: the same whole-device program → read →
    // erase sweep with QoS admission and group accounting live on every
    // command, through the per-command submit path and the stripe one.
    let hot_sweeps = 8u64;
    let time_sweeps = |sweep: fn(&mut fa_flash::FlashBackbone, SimTime) -> (u64, SimTime)| {
        let mut backbone = hot_path_backbone();
        // Warm pass (first touch of the arenas), then the timed ones.
        let (_, mut t) = sweep(&mut backbone, SimTime::ZERO);
        let start = Instant::now();
        let mut commands = 0u64;
        for _ in 0..hot_sweeps {
            let (c, next) = sweep(&mut backbone, t);
            commands += c;
            t = next;
        }
        (commands, start.elapsed().as_secs_f64())
    };
    let (tagged_commands, tagged_seconds) = time_sweeps(hot_path_sweep_tagged);
    let (group_commands, group_seconds) = time_sweeps(hot_path_sweep);

    // The QoS ablation (simulated time, deterministic): foreground read
    // p99 under concurrent GC, synchronous vs background vs budgeted.
    let qos_apps = gc_pressure_workload();
    let qos: Vec<QosStat> = qos_ablation_modes()
        .into_iter()
        .map(|(mode, config)| {
            let out = run_qos_mode(config, &qos_apps);
            QosStat {
                mode,
                gc_passes: out.gc_passes,
                foreground_read_p99_s: out.foreground_read_p99_s,
                finish_s: out.finished_at.as_secs_f64(),
            }
        })
        .collect();

    // The storage-policy ablation (simulated, deterministic): placement ×
    // GC-victim wear spread and migration efficiency, plus the hot/cold
    // separation-on rows (the separation-off partners are the grid's own
    // rows — not re-simulated).
    let rounds = churn_rounds(scale);
    let policy_outcomes: Vec<_> = churn_grid(rounds)
        .into_iter()
        .chain(hot_cold_on_rows(rounds))
        .collect();

    // Endurance-to-death (simulated, deterministic): each placement
    // policy churned under the identical seeded wear-out fault plan until
    // the bad-block remap table strangles the allocator.
    let endurance = endurance_grid();

    // Open-loop scale-out (simulated, deterministic): the multi-tenant
    // capacity curve plus the governor ablation. The wall-clock of the
    // whole experiment is what the perf gate budgets.
    let start = Instant::now();
    let scaleout = scaleout_report(scale);
    let scaleout_seconds = start.elapsed().as_secs_f64();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"pr\": 10,");
    let _ = writeln!(json, "  \"data_scale\": {},", scale.data_scale);
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"campaigns\": [\n");
    for (i, c) in campaigns.iter().enumerate() {
        let speedup = if c.parallel_seconds > 0.0 {
            c.serial_seconds / c.parallel_seconds
        } else {
            1.0
        };
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"pairs\": {}, \"serial_seconds\": {:.4}, \"parallel_seconds\": {:.4}, \"speedup\": {:.3}}}",
            c.name, c.pairs, c.serial_seconds, c.parallel_seconds, speedup
        );
        json.push_str(if i + 1 < campaigns.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // The PR6 recovery table: the heterogeneous campaign on the pre-PR6
    // tree (same machine, same scale — measured at the parent commit
    // before the data-path rework) against this run, plus the hot-path
    // per-command cost through both submit paths. The stripe path
    // (`submit_group`) is the one the campaigns use; the per-command path
    // (`submit_tagged`) serves GC, the journal, and open-loop reads.
    const BEFORE_HETEROGENEOUS_SERIAL_S: f64 = 8.0055;
    let after = campaigns
        .iter()
        .find(|c| c.name == "heterogeneous")
        .expect("heterogeneous campaign present");
    json.push_str("  \"data_path_recovery\": {\n");
    let _ = writeln!(
        json,
        "    \"heterogeneous_serial_seconds_before\": {BEFORE_HETEROGENEOUS_SERIAL_S:.4},"
    );
    let _ = writeln!(
        json,
        "    \"heterogeneous_serial_seconds_after\": {:.4},",
        after.serial_seconds
    );
    let _ = writeln!(
        json,
        "    \"speedup\": {:.3},",
        BEFORE_HETEROGENEOUS_SERIAL_S / after.serial_seconds.max(1e-9)
    );
    let _ = writeln!(
        json,
        "    \"ms_per_pair_before\": {:.3},",
        BEFORE_HETEROGENEOUS_SERIAL_S * 1e3 / after.pairs as f64
    );
    let _ = writeln!(
        json,
        "    \"ms_per_pair_after\": {:.3}",
        after.serial_seconds * 1e3 / after.pairs as f64
    );
    json.push_str("  },\n");
    json.push_str("  \"hot_path\": {\n");
    let _ = writeln!(json, "    \"sweeps\": {hot_sweeps},");
    let _ = writeln!(
        json,
        "    \"submit_tagged\": {{\"commands\": {}, \"seconds\": {:.4}, \"ns_per_command\": {:.1}}},",
        tagged_commands,
        tagged_seconds,
        tagged_seconds * 1e9 / tagged_commands as f64
    );
    let _ = writeln!(
        json,
        "    \"submit_group\": {{\"commands\": {}, \"seconds\": {:.4}, \"ns_per_command\": {:.1}}}",
        group_commands,
        group_seconds,
        group_seconds * 1e9 / group_commands as f64
    );
    json.push_str("  },\n");
    json.push_str("  \"frontier_vs_rescan\": [\n");
    for (i, f) in frontier.iter().enumerate() {
        // Clamp the denominator: a sub-resolution timing must not emit an
        // `inf` token, which would make the JSON document unparseable.
        let speedup = f.rescan_seconds / f.incremental_seconds.max(1e-9);
        let _ = write!(
            json,
            "    {{\"screens\": {}, \"incremental_seconds\": {:.6}, \"rescan_seconds\": {:.6}, \"speedup\": {:.1}}}",
            f.screens, f.incremental_seconds, f.rescan_seconds, speedup
        );
        json.push_str(if i + 1 < frontier.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"dispatch_throughput\": [\n");
    for (i, d) in dispatch.iter().enumerate() {
        let rate = d.screens as f64 / d.seconds.max(1e-9);
        let _ = write!(
            json,
            "    {{\"policy\": \"{}\", \"screens\": {}, \"seconds\": {:.6}, \"screens_per_sec\": {:.0}}}",
            d.policy.label(),
            d.screens,
            d.seconds,
            rate
        );
        json.push_str(if i + 1 < dispatch.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"allocator_drain\": [\n");
    for (i, a) in allocator.iter().enumerate() {
        // Clamp the denominator: a sub-resolution timing must not emit an
        // `inf` token, which would make the JSON document unparseable.
        let speedup = a.scan_seconds / a.incremental_seconds.max(1e-9);
        let _ = write!(
            json,
            "    {{\"groups\": {}, \"incremental_seconds\": {:.6}, \"scan_seconds\": {:.6}, \"speedup\": {:.1}}}",
            a.groups, a.incremental_seconds, a.scan_seconds, speedup
        );
        json.push_str(if i + 1 < allocator.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"gc_discovery\": [\n");
    for (i, g) in gc_discovery.iter().enumerate() {
        let speedup = g.rescan_seconds / g.incremental_seconds.max(1e-9);
        let _ = write!(
            json,
            "    {{\"mapped_groups\": {}, \"passes\": {}, \"incremental_seconds\": {:.6}, \"rescan_seconds\": {:.6}, \"speedup\": {:.1}}}",
            g.mapped_groups, g.passes, g.incremental_seconds, g.rescan_seconds, speedup
        );
        json.push_str(if i + 1 < gc_discovery.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    // Simulated (deterministic) foreground tail under concurrent GC; the
    // final field is the unbudgeted-over-budgeted p99 ratio — the isolation
    // win the per-owner budgets buy.
    json.push_str("  \"qos_ablation\": [\n");
    for (i, q) in qos.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"gc_passes\": {}, \"foreground_read_p99_ms\": {:.6}, \"batch_finish_ms\": {:.6}}}",
            q.mode,
            q.gc_passes,
            q.foreground_read_p99_s * 1e3,
            q.finish_s * 1e3
        );
        json.push_str(if i + 1 < qos.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Placement × GC-victim × hot/cold: wear spread over the data blocks
    // and GC migration efficiency, identical churn per combination.
    let _ = writeln!(json, "  \"policy_ablation_rounds\": {rounds},");
    json.push_str("  \"policy_ablation\": [\n");
    for (i, p) in policy_outcomes.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"placement\": \"{}\", \"gc_victim\": \"{}\", \"hot_threshold\": {}, \"wear_min\": {}, \"wear_max\": {}, \"wear_spread\": {}, \"wear_stddev\": {:.4}, \"migrated_bytes_per_reclaimed_byte\": {:.5}, \"hot_steer_rate\": {:.4}}}",
            p.placement,
            p.gc_victim,
            // Disabled is `null`, never 0 — threshold 0 is a legal config
            // (every write hot) and must stay distinguishable.
            p.hot_threshold
                .map_or("null".to_string(), |t| t.to_string()),
            p.wear_min,
            p.wear_max,
            p.wear_spread(),
            p.wear_stddev,
            p.migrated_per_reclaimed,
            p.hot_steer_rate
        );
        json.push_str(if i + 1 < policy_outcomes.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    // Bytes-to-death per placement policy under the shared seeded
    // wear-out fault plan (injected program/erase failures condemn
    // blocks; condemned blocks retire whole rows).
    json.push_str("  \"endurance\": [\n");
    for (i, e) in endurance.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"placement\": \"{}\", \"died\": {}, \"host_bytes_written\": {}, \"rounds_completed\": {}, \"rows_retired\": {}, \"blocks_condemned\": {}, \"program_failures\": {}, \"erase_failures\": {}}}",
            e.placement,
            e.died,
            e.host_bytes_written,
            e.rounds_completed,
            e.rows_retired,
            e.blocks_condemned,
            e.program_failures,
            e.erase_failures
        );
        json.push_str(if i + 1 < endurance.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Open-loop scale-out: the capacity curve (offered load vs completed
    // throughput and tail-SLO attainment) and the governor-vs-static
    // ablation at the deepest overload point — all simulated time, plus
    // the harness wall-clock the perf gate budgets.
    let stat_json = |s: &ScaleoutStat| {
        format!(
            "{{\"rate_multiplier\": {:.2}, \"rate_per_s\": {:.1}, \"arrived\": {}, \
             \"admitted\": {}, \"queued\": {}, \"shed\": {}, \"completed\": {}, \
             \"completed_tenants_per_s\": {:.1}, \"slo_attainment\": {:.4}, \
             \"sojourn_p50_ms\": {:.4}, \"sojourn_p99_ms\": {:.4}, \"sojourn_p999_ms\": {:.4}, \
             \"fairness\": {:.4}, \"governor_updates\": {}}}",
            s.rate_multiplier,
            s.rate_per_s,
            s.arrived,
            s.admitted,
            s.queued,
            s.shed,
            s.completed,
            s.completed_tenants_per_s,
            s.slo_attainment,
            s.sojourn_p50_s * 1e3,
            s.sojourn_p99_s * 1e3,
            s.sojourn_p999_s * 1e3,
            s.fairness,
            s.governor_updates
        )
    };
    json.push_str("  \"scaleout\": {\n");
    let _ = writeln!(json, "    \"tenants_per_campaign\": {},", scaleout.tenants);
    let _ = writeln!(
        json,
        "    \"measured_capacity_tenants_per_s\": {:.1},",
        scaleout.base_rate_per_s
    );
    let _ = writeln!(
        json,
        "    \"tail_slo_ms\": {:.4},",
        scaleout.slo_limit_s * 1e3
    );
    json.push_str("    \"capacity_curve\": [\n");
    for (i, s) in scaleout.curve.iter().enumerate() {
        let _ = write!(json, "      {}", stat_json(s));
        json.push_str(if i + 1 < scaleout.curve.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    json.push_str("    \"governor_ablation\": {\n");
    let _ = writeln!(
        json,
        "      \"rate_per_s\": {:.1},",
        scaleout.ablation.rate_per_s
    );
    let _ = writeln!(
        json,
        "      \"governed\": {},",
        stat_json(&scaleout.ablation.governed)
    );
    let _ = writeln!(
        json,
        "      \"static_budgets\": {}",
        stat_json(&scaleout.ablation.static_budgets)
    );
    json.push_str("    },\n");
    let _ = writeln!(json, "    \"scaleout_seconds\": {scaleout_seconds:.4}");
    json.push_str("  },\n");
    // Headline ratios: how much LeastWorn narrows the erase spread vs
    // FirstFree (same greedy victims), and how much the smartest victim
    // policy cuts migrated-bytes-per-reclaimed-byte vs round-robin.
    let find = |placement: &str, gc: &str| {
        policy_outcomes
            .iter()
            .find(|p| p.placement == placement && p.gc_victim == gc && p.hot_threshold.is_none())
            .expect("grid covers the combination")
    };
    let ff_spread = find("FirstFree", "GreedyMinValid").wear_spread() as f64;
    let lw_spread = find("LeastWorn", "GreedyMinValid").wear_spread() as f64;
    let rr_eff = find("FirstFree", "RoundRobin").migrated_per_reclaimed;
    let best_eff = find("FirstFree", "GreedyMinValid")
        .migrated_per_reclaimed
        .min(find("FirstFree", "CostBenefit").migrated_per_reclaimed);
    let _ = writeln!(
        json,
        "  \"wear_spread_narrowing\": {:.3},",
        ff_spread / lw_spread.max(1.0)
    );
    let _ = writeln!(
        json,
        "  \"gc_migration_efficiency_improvement\": {:.3},",
        rr_eff / best_eff.max(1e-12)
    );
    let unbudgeted = qos
        .iter()
        .find(|q| q.mode == "bg-unbudgeted")
        .map(|q| q.foreground_read_p99_s)
        .unwrap_or(0.0);
    let budgeted = qos
        .iter()
        .find(|q| q.mode == "bg-budgeted")
        .map(|q| q.foreground_read_p99_s)
        .unwrap_or(0.0);
    let _ = writeln!(
        json,
        "  \"qos_p99_improvement\": {:.3}",
        unbudgeted / budgeted.max(1e-12)
    );
    json.push_str("}\n");

    let out_path = std::env::var("FA_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("perfstat: wrote {out_path}");
}
