//! `hetero`: the §5.1 heterogeneous campaign. MX1–MX14, 24 instances each,
//! run serially on SIMD and on all four FlashAbacus schedulers. The seed
//! permutes the offload order of the instances within each mix.

use crate::measure::{median, Digest};
use crate::trace::Meter;
use crate::workload::{record_energy, sharded_counts, FlashTally, PassOut};
use fa_baseline::{BaselineConfig, ConventionalSystem};
use fa_bench::perf::{hot_path_backbone, hot_path_sweep, hot_path_sweep_tagged};
use fa_energy::EnergyBreakdown;
use fa_flash::FlashBackbone;
use fa_kernel::chain::{ExecutionChain, ScreenRef};
use fa_kernel::model::Application;
use fa_sim::rng::DeterministicRng;
use fa_sim::time::SimTime;
use fa_workloads::mixes::{mix_apps, MIX_COUNT};
use flashabacus::scheduler::{intra_next_ready, SchedulerPolicy};
use flashabacus::{FlashAbacusConfig, FlashAbacusSystem};
use std::collections::BTreeMap;
use std::time::Instant;

/// Size of the campaign: every mix, MX1–MX14.
#[derive(Debug, Clone, Copy)]
pub struct Hetero {
    /// Divisor applied to Table 2's input sizes.
    pub data_scale: u64,
}

impl Hetero {
    /// The paper's campaign at the repository's default scale.
    pub fn full() -> Self {
        Hetero { data_scale: 16 }
    }
}

/// The campaign's inputs for `seed`: each mix's 24 instances, in an offload
/// order drawn from the seed.
pub fn generate(seed: u64, data_scale: u64, mixes: usize) -> Vec<Vec<Application>> {
    let mut rng = DeterministicRng::seed_from(seed);
    (1..=mixes)
        .map(|mix| {
            let mut apps = mix_apps(mix, data_scale);
            rng.fork(mix as u64).shuffle(&mut apps);
            apps
        })
        .collect()
}

fn add_energy(a: &mut EnergyBreakdown, b: &EnergyBreakdown) {
    a.data_movement_j += b.data_movement_j;
    a.computation_j += b.computation_j;
    a.storage_access_j += b.storage_access_j;
    a.idle_j += b.idle_j;
}

fn add(c: &mut BTreeMap<&'static str, f64>, key: &'static str, v: f64) {
    *c.entry(key).or_default() += v;
}

/// Span name of one scheduler's runs.
fn run_span(policy: SchedulerPolicy) -> &'static str {
    match policy {
        SchedulerPolicy::InterSt => "system.run.InterSt",
        SchedulerPolicy::InterDy => "system.run.InterDy",
        SchedulerPolicy::IntraIo => "system.run.IntraIo",
        SchedulerPolicy::IntraO3 => "system.run.IntraO3",
    }
}

/// Maps span names to the per-layer metrics summing them per pass.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("system.run.InterSt", "system.run_s.InterSt"),
    ("system.run.InterDy", "system.run_s.InterDy"),
    ("system.run.IntraIo", "system.run_s.IntraIo"),
    ("system.run.IntraO3", "system.run_s.IntraO3"),
    ("baseline.run", "baseline.run_s"),
];

impl Hetero {
    /// One pass: every mix on SIMD, then on each scheduler.
    pub fn pass(&self, m: &mut Meter, seed: u64) -> PassOut {
        let mixes = m.setup("workload.gen", |_| {
            generate(seed, self.data_scale, MIX_COUNT)
        });
        let mut out = PassOut::default();
        let mut digest = Digest::default();
        let mut flash = FlashTally::default();
        let mut energy = EnergyBreakdown::default();
        let mut sojourns: Vec<u64> = Vec::new();
        let (mut bytes, mut sim_seconds) = (0u64, 0.0f64);
        let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut runs = 0u32;
        let mut fg_p99_max = 0.0f64;
        let mut wear_spread = 0u64;
        for (mi, apps) in mixes.iter().enumerate() {
            let kernels: usize = apps.iter().map(|a| a.kernels.len()).sum();
            add(
                &mut c,
                "kernel.screens",
                apps.iter().map(Application::screen_count).sum::<usize>() as f64,
            );

            let mut simd = m.setup("baseline.new", |_| {
                ConventionalSystem::new(BaselineConfig::paper_baseline())
            });
            let b = m.call("baseline.run", |_| simd.run(apps));
            m.call("baseline.drop", |_| drop(simd));
            out.attempted += 1;
            digest.u64(mi as u64);
            digest.u64(b.finished_at.as_ns());
            digest.f64(b.energy.total_j());
            if b.kernel_latencies.len() != kernels {
                out.violation(format!(
                    "MX{} on SIMD completed {} of {kernels} kernels",
                    mi + 1,
                    b.kernel_latencies.len()
                ));
            }

            for policy in SchedulerPolicy::all() {
                let mut sys = m.setup("system.new", |_| {
                    FlashAbacusSystem::without_env_faults(FlashAbacusConfig::paper_prototype(
                        policy,
                    ))
                });
                let run = m.call(run_span(policy), |_| sys.run(apps));
                out.attempted += 1;
                let o = match run {
                    Ok(o) => o,
                    Err(e) => {
                        out.failed += 1;
                        out.violation(format!("MX{} on {}: {e}", mi + 1, policy.label()));
                        m.call("system.drop", |_| drop(sys));
                        continue;
                    }
                };
                runs += 1;
                let done = o
                    .kernel_latencies
                    .iter()
                    .filter(|k| k.completed_at >= k.offloaded_at && k.completed_at > SimTime::ZERO)
                    .count();
                if o.kernel_latencies.len() != kernels || done != kernels {
                    out.violation(format!(
                        "MX{} on {} completed {done} of {kernels} kernels",
                        mi + 1,
                        policy.label()
                    ));
                }
                digest.bytes(policy.label().as_bytes());
                digest.u64(o.finished_at.as_ns());
                digest.f64(o.energy.total_j());
                for k in &o.kernel_latencies {
                    digest.u64(k.completed_at.as_ns());
                    sojourns.push(k.latency().as_ns());
                }
                bytes += o.bytes_processed;
                sim_seconds += o.finished_at.as_secs_f64();
                add_energy(&mut energy, &o.energy.breakdown);
                add(&mut c, "worker.lwp_util", o.mean_worker_utilization());
                add(&mut c, "flashvisor.lwp_util", o.flashvisor_utilization);
                add(&mut c, "storengine.lwp_util", o.storengine_utilization);
                add(&mut c, "flashvisor.group_reads", o.flash_group_reads as f64);
                add(
                    &mut c,
                    "flashvisor.group_writes",
                    o.flash_group_writes as f64,
                );
                add(&mut c, "storengine.gc_passes", o.gc_passes as f64);
                add(&mut c, "storengine.journal_dumps", o.journal_dumps as f64);
                for (key, count) in sharded_counts(&o) {
                    add(&mut c, key, count);
                }
                fg_p99_max = fg_p99_max.max(o.foreground_read_p99_s * 1e6);

                let v = sys.flashvisor();
                flash.add(FlashTally::of(v.backbone()));
                add(&mut c, "rangelock.grants", v.locks().grants() as f64);
                add(&mut c, "rangelock.denials", v.locks().denials() as f64);
                add(
                    &mut c,
                    "freespace.free_groups_end",
                    v.free_physical_groups() as f64,
                );
                wear_spread = wear_spread.max(v.data_block_wear().spread());
                let se = sys.storengine().stats();
                add(
                    &mut c,
                    "storengine.pages_migrated",
                    se.pages_migrated as f64,
                );
                add(
                    &mut c,
                    "storengine.groups_reclaimed",
                    se.groups_reclaimed as f64,
                );
                m.call("system.drop", |_| drop(sys));
            }
        }
        // Utilizations and the end-of-run free space are means over runs.
        let runs = f64::from(runs.max(1));
        for key in [
            "worker.lwp_util",
            "flashvisor.lwp_util",
            "storengine.lwp_util",
            "freespace.free_groups_end",
        ] {
            if let Some(v) = c.get_mut(key) {
                *v /= runs;
            }
        }
        c.insert("flash.fg_read_p99_us", fg_p99_max);
        c.insert("freespace.wear_spread", wear_spread as f64);
        record_energy(&mut c, &energy);
        out.counters = c;
        out.record_sim(&sojourns, bytes, sim_seconds, &flash);
        out.seal(digest);
        out
    }

    /// Host nanoseconds per screen to drain every mix's execution chain
    /// through each scheduler's ready-screen query, with no simulation
    /// around it. Median of three sweeps.
    pub fn drain_probe(&self, seed: u64) -> f64 {
        let mixes = generate(seed, self.data_scale, MIX_COUNT);
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let mut screens = 0usize;
                for apps in &mixes {
                    for policy in SchedulerPolicy::all() {
                        screens += drain_chain(policy, apps);
                    }
                }
                start.elapsed().as_nanos() as f64 / screens.max(1) as f64
            })
            .collect();
        median(&samples)
    }
}

/// Drains `apps`' chain the way the dispatch loop picks screens (inter-
/// kernel policies walk kernels in order, intra-kernel ones ask the
/// frontier), with up to twelve screens in flight. Returns screens drained.
pub fn drain_chain(policy: SchedulerPolicy, apps: &[Application]) -> usize {
    let mut chain = ExecutionChain::new(apps);
    let kernels: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, a)| (0..a.kernels.len()).map(move |ki| (ai, ki)))
        .collect();
    let mut in_flight: Vec<ScreenRef> = Vec::with_capacity(12);
    let mut drained = 0usize;
    let mut t = 0u64;
    while !chain.is_complete() {
        while in_flight.len() < 12 {
            let pick = if policy.is_intra_kernel() {
                intra_next_ready(policy, &chain)
            } else {
                kernels
                    .iter()
                    .find_map(|&(ai, ki)| chain.next_ready_of_kernel(ai, ki))
            };
            let Some(s) = pick else { break };
            chain.mark_running(s, in_flight.len());
            in_flight.push(s);
        }
        let s = in_flight
            .pop()
            .expect("a chain with work left has a ready screen");
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
        drained += 1;
    }
    drained
}

/// Host nanoseconds per flash command through the batched and the
/// per-command submit paths, on the same whole-device program → read →
/// erase sweep. Sweeps alternate between the paths; each figure is the
/// median over its sweeps.
pub fn submit_probe() -> (f64, f64) {
    type Sweep = fn(&mut FlashBackbone, SimTime) -> (u64, SimTime);
    let mut sides: [(Sweep, FlashBackbone, SimTime, Vec<f64>); 2] = [
        (
            hot_path_sweep,
            hot_path_backbone(),
            SimTime::ZERO,
            Vec::new(),
        ),
        (
            hot_path_sweep_tagged,
            hot_path_backbone(),
            SimTime::ZERO,
            Vec::new(),
        ),
    ];
    for round in 0..17 {
        for (sweep, backbone, now, samples) in sides.iter_mut() {
            let start = Instant::now();
            let (commands, next) = sweep(backbone, *now);
            let ns = start.elapsed().as_nanos() as f64;
            *now = next;
            // The first sweep of each path warms its arenas.
            if round > 0 {
                samples.push(ns / commands as f64);
            }
        }
    }
    (median(&sides[0].3), median(&sides[1].3))
}
