//! `churn`: an overwrite stream driven straight through
//! `Flashvisor::write_section` and Storengine (watermark GC after every
//! write, a journal dump whenever one is due) on the policy-ablation churn
//! device. No scheduler, energy model or multi-owner accounting runs.

use crate::measure::Digest;
use crate::trace::Meter;
use crate::workload::{sharded_counts, FlashTally, PassOut};
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::rng::DeterministicRng;
use fa_sim::time::SimTime;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::Storengine;
use flashabacus::{FlashAbacusConfig, Flashvisor};

/// Logical groups written rarely.
const COLD_GROUPS: u64 = 96;
/// Logical groups overwritten constantly.
const HOT_GROUPS: u64 = 32;
/// Simulated gap between two section writes.
const WRITE_GAP_US: u64 = 41;
/// Simulated gap before each GC pass.
const GC_GAP_US: u64 = 173;
/// Most GC passes after one write (the policy ablation's guard).
const GC_GUARD: u32 = 64;

/// Length of the overwrite stream.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Overwrite rounds after the initial fill.
    pub rounds: u64,
}

impl Churn {
    /// The benchmark's stream length.
    pub fn full() -> Self {
        Churn { rounds: 40_000 }
    }
}

/// The churn device: 2 channels × 32 blocks × 16 pages of 4 KiB, 8 KiB
/// groups (512 groups, one block row reserved for the journal), GC below
/// 50 % free.
pub fn config() -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.flash_geometry.blocks_per_plane = 32;
    config.flash_geometry.pages_per_block = 16;
    config.page_group_bytes = 8 * 1024;
    config.gc_low_watermark = 0.50;
    config
}

/// The logical groups written, in order, for `seed`: one fill of every
/// group, then per round one write to a random hot group and, one round in
/// four on average, a rewrite of a random cold group.
pub fn generate(seed: u64, rounds: u64) -> Vec<u64> {
    let mut rng = DeterministicRng::seed_from(seed);
    let mut ops: Vec<u64> = (0..COLD_GROUPS + HOT_GROUPS).collect();
    for _ in 0..rounds {
        ops.push(COLD_GROUPS + rng.gen_range_u64(0, HOT_GROUPS));
        if rng.gen_bool(0.25) {
            ops.push(rng.gen_range_u64(0, COLD_GROUPS));
        }
    }
    ops
}

/// Maps span names to the per-layer metrics summing them per pass.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("flashvisor.write_section", "flashvisor.write_section_s"),
    ("storengine.collect_garbage", "storengine.collect_garbage_s"),
    ("storengine.journal", "storengine.journal_s"),
];

/// What the drive loop observed.
#[derive(Debug, Default)]
struct Drive {
    now_us: u64,
    last: SimTime,
    sojourns: Vec<u64>,
    attempted: u64,
    writes_ok: u64,
    gc_passes: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Churn {
    /// One pass: a fresh device, the whole stream.
    pub fn pass(&self, m: &mut Meter, seed: u64) -> PassOut {
        let ops = m.setup("workload.gen", |_| generate(seed, self.rounds));
        let config = config();
        let group_bytes = config.page_group_bytes;
        let (mut v, mut s, mut sp) = m.setup("system.new", |_| {
            (
                Flashvisor::new(config),
                Storengine::new(config),
                Scratchpad::new(&PlatformSpec::paper_prototype()),
            )
        });
        let d = m.call("churn.drive", |m| {
            let mut d = Drive {
                sojourns: Vec::with_capacity(ops.len()),
                ..Drive::default()
            };
            for &lg in &ops {
                d.now_us += WRITE_GAP_US;
                let at = SimTime::from_us(d.now_us);
                d.attempted += 1;
                match m.span("flashvisor.write_section", |_| {
                    v.write_section(at, lg * group_bytes, group_bytes, &mut sp)
                }) {
                    Ok(done) => {
                        d.sojourns.push(done.finished.saturating_since(at).as_ns());
                        d.last = d.last.max(done.finished);
                        d.writes_ok += 1;
                    }
                    Err(e) => {
                        d.sojourns.push(u64::MAX);
                        d.failed += 1;
                        d.errors.push(format!("write of group {lg}: {e}"));
                    }
                }
                let mut guard = 0;
                while s.gc_needed(&v) && guard < GC_GUARD {
                    d.now_us += GC_GAP_US;
                    let at = SimTime::from_us(d.now_us);
                    d.attempted += 1;
                    match m.span("storengine.collect_garbage", |_| {
                        s.collect_garbage(at, &mut v)
                    }) {
                        Ok(gc) => {
                            d.gc_passes += 1;
                            d.last = d.last.max(gc.finished);
                        }
                        Err(e) => {
                            d.failed += 1;
                            d.errors.push(format!("GC at {at:?}: {e}"));
                            break;
                        }
                    }
                    guard += 1;
                }
                let at = SimTime::from_us(d.now_us);
                if s.journal_due(at) {
                    d.attempted += 1;
                    match m.span("storengine.journal", |_| s.journal(at, &mut v)) {
                        Ok(done) => d.last = d.last.max(done),
                        Err(e) => {
                            d.failed += 1;
                            d.errors.push(format!("journal at {at:?}: {e}"));
                        }
                    }
                }
            }
            d
        });

        let mut out = PassOut {
            attempted: d.attempted,
            failed: d.failed,
            ..PassOut::default()
        };
        for e in d.errors.iter().take(5) {
            out.violation(e.clone());
        }
        let mut digest = Digest::default();
        for lg in 0..COLD_GROUPS + HOT_GROUPS {
            digest.u64(v.physical_group_of(lg).unwrap_or(u64::MAX));
        }
        let se = s.stats();
        for x in [
            se.journal_dumps,
            se.journal_pages,
            se.blocks_reclaimed,
            se.pages_migrated,
            se.erases,
            se.groups_reclaimed,
            d.last.as_ns(),
        ] {
            digest.u64(x);
        }

        let c = &mut out.counters;
        let fv = v.stats();
        c.insert("flashvisor.group_reads", fv.group_reads as f64);
        c.insert("flashvisor.group_writes", fv.group_writes as f64);
        c.insert("flashvisor.lwp_util", v.cpu_utilization(d.last));
        c.extend(sharded_counts(&(fv, v.backbone())));
        c.insert("rangelock.grants", v.locks().grants() as f64);
        c.insert("rangelock.denials", v.locks().denials() as f64);
        c.insert("freespace.free_groups_end", v.free_physical_groups() as f64);
        c.insert("freespace.wear_spread", v.data_block_wear().spread() as f64);
        c.insert(
            "flash.fg_read_p99_us",
            v.backbone()
                .foreground_read_latency_quantile(0.99)
                .map_or(0.0, |d| d.as_us_f64()),
        );
        c.insert("storengine.pages_migrated", se.pages_migrated as f64);
        c.insert("storengine.groups_reclaimed", se.groups_reclaimed as f64);
        c.insert("storengine.gc_passes", d.gc_passes as f64);
        c.insert("storengine.journal_dumps", se.journal_dumps as f64);
        c.insert("storengine.lwp_util", s.cpu_utilization(d.last));
        let flash = FlashTally::of(v.backbone());
        out.record_sim(
            &d.sojourns,
            d.writes_ok * group_bytes,
            d.last.as_secs_f64(),
            &flash,
        );
        out.seal(digest);
        m.call("system.drop", |_| drop((v, s, sp)));
        out
    }
}
