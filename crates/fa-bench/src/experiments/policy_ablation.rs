//! Policy ablation: placement × GC-victim × hot/cold separation.
//!
//! PR 3's free-space subsystem and PR 4's owner-tagged data path exist so
//! richer storage policies can be compared under identical churn. This
//! figure does exactly that, on two levels:
//!
//! * **Churn harness** — a deterministic overwrite workload driven straight
//!   through Flashvisor + Storengine: a cold region written rarely, a hot
//!   window overwritten constantly, GC reclaiming whenever the watermark
//!   trips. Every `PlacementPolicy` × `GcVictimPolicy` combination runs the
//!   identical operation sequence, so differences in wear spread and
//!   migration efficiency are pure policy effects.
//! * **Full-system endurance** — the fig12 GC-pressure workload run through
//!   [`flashabacus::FlashAbacusSystem`] per placement policy, reporting the
//!   endurance metrics now threaded through `RunOutcome` (wear spread,
//!   migrated-bytes-per-reclaimed-byte).
//!
//! The headline numbers: `LeastWorn` narrows the erase-count spread,
//! `GreedyMinValid`/`CostBenefit` cut the bytes migrated per byte
//! reclaimed, and hot/cold separation concentrates churn garbage so GC
//! passes migrate almost nothing.

use crate::experiments::fig12_cdf::{gc_pressure_config, gc_pressure_workload};
use crate::report::Table;
use crate::runner::{ExperimentScale, RunSpec};
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::time::{SimDuration, SimTime};
use flashabacus::config::FlashAbacusConfig;
use flashabacus::freespace::PlacementPolicy;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::{GcVictimPolicy, Storengine};
use flashabacus::Flashvisor;

/// The churn device: 2 channels × 32 blocks × 16 pages of 4 KB, 8 KB
/// groups → 512 groups in 32 block rows (one reserved for the journal).
/// Small enough that thousands of overwrite rounds run in milliseconds,
/// large enough that placement and victim choice visibly diverge.
fn churn_config(
    placement: PlacementPolicy,
    gc_victim: GcVictimPolicy,
    hot_threshold: Option<u32>,
) -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.flash_geometry.blocks_per_plane = 32;
    config.flash_geometry.pages_per_block = 16;
    config.page_group_bytes = 8 * 1024;
    config.gc_low_watermark = 0.50;
    // Journaling is not under test here; quiesce it so every erase is a
    // policy decision.
    config.journal_interval = SimDuration::from_ms(60_000);
    config.placement = placement;
    config.gc_victim = gc_victim;
    config.hot_overwrite_threshold = hot_threshold;
    config
}

/// One churn run's endurance outcome.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Placement policy label.
    pub placement: &'static str,
    /// GC victim policy label.
    pub gc_victim: &'static str,
    /// Hot/cold separation threshold, if enabled.
    pub hot_threshold: Option<u32>,
    /// Fewest erase cycles on any data block.
    pub wear_min: u64,
    /// Most erase cycles on any data block.
    pub wear_max: u64,
    /// Population standard deviation of data-block erase cycles.
    pub wear_stddev: f64,
    /// Bytes GC migrated per byte reclaimed (lower is better).
    pub migrated_per_reclaimed: f64,
    /// Pages GC migrated in total.
    pub pages_migrated: u64,
    /// Page groups GC returned to the allocator.
    pub groups_reclaimed: u64,
    /// Group writes classified hot by the overwrite-count threshold.
    pub hot_group_writes: u64,
}

impl ChurnOutcome {
    /// `max − min` erase cycles: the endurance-headroom spread.
    pub(crate) fn wear_spread(&self) -> u64 {
        self.wear_max - self.wear_min
    }
}

/// Runs the deterministic churn workload under one policy combination:
/// fill a 128-group logical space, then `rounds` rounds of overwrites —
/// every round hits the 32-group hot window, every fourth round also
/// rewrites one cold group — with watermark-driven GC interleaved. The
/// operation sequence is identical for every combination.
fn run_churn(config: FlashAbacusConfig, rounds: u64) -> ChurnOutcome {
    let mut v = Flashvisor::new(config);
    let mut s = Storengine::new(config);
    let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
    let group_bytes = config.page_group_bytes;
    let (cold_groups, hot_groups) = (96u64, 32u64);
    let mut now_us = 1u64;
    let write =
        |v: &mut Flashvisor, s: &mut Storengine, sp: &mut Scratchpad, now_us: &mut u64, lg: u64| {
            *now_us += 41;
            let _ = v.write_section(SimTime::from_us(*now_us), lg * group_bytes, group_bytes, sp);
            let mut guard = 0;
            while s.gc_needed(v) && guard < 64 {
                *now_us += 173;
                if s.collect_garbage(SimTime::from_us(*now_us), v).is_err() {
                    break;
                }
                guard += 1;
            }
        };
    // Initial fill: the cold region then the hot window, once each.
    for lg in 0..cold_groups + hot_groups {
        write(&mut v, &mut s, &mut sp, &mut now_us, lg);
    }
    for round in 0..rounds {
        let hot_lg = cold_groups + round % hot_groups;
        write(&mut v, &mut s, &mut sp, &mut now_us, hot_lg);
        if round % 4 == 0 {
            let cold_lg = (round / 4) % cold_groups;
            write(&mut v, &mut s, &mut sp, &mut now_us, cold_lg);
        }
    }

    let wear = v.data_block_wear();
    let stats = s.stats();
    let migrated_bytes = stats.pages_migrated * config.flash_geometry.page_bytes as u64;
    let reclaimed_bytes = stats.groups_reclaimed * config.page_group_bytes;
    ChurnOutcome {
        placement: config.placement.label(),
        gc_victim: config.gc_victim.label(),
        hot_threshold: config.hot_overwrite_threshold,
        wear_min: wear.min_erases,
        wear_max: wear.max_erases,
        wear_stddev: wear.stddev_erases,
        migrated_per_reclaimed: if reclaimed_bytes == 0 {
            0.0
        } else {
            migrated_bytes as f64 / reclaimed_bytes as f64
        },
        pages_migrated: stats.pages_migrated,
        groups_reclaimed: stats.groups_reclaimed,
        hot_group_writes: v.stats().hot_group_writes,
    }
}

/// Churn rounds for a given experiment scale: enough rounds at full scale
/// that every block row cycles several times, scaled down for smokes.
fn churn_rounds(scale: ExperimentScale) -> u64 {
    (32_000 / scale.data_scale).max(500)
}

/// The full 3 × 3 grid (hot/cold off), in report order.
fn churn_grid(rounds: u64) -> Vec<ChurnOutcome> {
    let mut out = Vec::new();
    for placement in PlacementPolicy::all() {
        for gc_victim in GcVictimPolicy::all() {
            out.push(run_churn(churn_config(placement, gc_victim, None), rounds));
        }
    }
    out
}

/// Hot/cold ablation: the separation-*on* runs (threshold 8 — hot-window
/// groups absorb dozens of overwrites per run, cold groups only a
/// handful) for the default and wear-aware placements. The matching
/// separation-off rows already exist in [`churn_grid`]; callers pair
/// against those instead of re-running them.
fn hot_cold_on_rows(rounds: u64) -> Vec<ChurnOutcome> {
    [PlacementPolicy::FirstFree, PlacementPolicy::LeastWorn]
        .into_iter()
        .map(|placement| {
            run_churn(
                churn_config(placement, GcVictimPolicy::GreedyMinValid, Some(8)),
                rounds,
            )
        })
        .collect()
}

fn churn_row(o: &ChurnOutcome) -> Vec<String> {
    vec![
        o.placement.to_string(),
        o.gc_victim.to_string(),
        match o.hot_threshold {
            Some(t) => format!("≥{t}"),
            None => "off".to_string(),
        },
        format!("{}..{}", o.wear_min, o.wear_max),
        o.wear_spread().to_string(),
        format!("{:.3}", o.wear_stddev),
        format!("{:.4}", o.migrated_per_reclaimed),
        o.pages_migrated.to_string(),
        o.groups_reclaimed.to_string(),
    ]
}

const CHURN_HEADER: [&str; 9] = [
    "Placement",
    "GC victim",
    "hot/cold",
    "wear min..max",
    "spread",
    "wear σ",
    "migrated B / reclaimed B",
    "pages migrated",
    "groups reclaimed",
];

/// Renders the policy-ablation figure: the churn grid, the hot/cold
/// ablation, and the full-system endurance rows (run under `spec`'s fault
/// plan).
pub fn report(spec: &RunSpec) -> String {
    let rounds = churn_rounds(spec.scale);
    let grid_outcomes = churn_grid(rounds);
    let mut grid = Table::new(
        format!("Policy ablation: placement × GC victim under {rounds} churn rounds"),
        &CHURN_HEADER,
    );
    for outcome in &grid_outcomes {
        grid.row(churn_row(outcome));
    }
    let mut hotcold = Table::new(
        "Hot/cold separation: overwrite-threshold classification, dedicated hot blocks",
        &CHURN_HEADER,
    );
    for on in hot_cold_on_rows(rounds) {
        // The separation-off partner is the grid's matching combination —
        // reused, not re-simulated.
        let off = grid_outcomes
            .iter()
            .find(|o| o.placement == on.placement && o.gc_victim == on.gc_victim)
            .expect("grid covers every combination");
        hotcold.row(churn_row(off));
        hotcold.row(churn_row(&on));
    }

    // Full-system endurance: the GC-pressure workload per placement policy,
    // through the complete run driver, reporting the RunOutcome
    // endurance metrics.
    let mut system = Table::new(
        "Full-system endurance under GC pressure (per placement policy)",
        &[
            "Placement",
            "wear min..max",
            "spread",
            "wear σ",
            "migrated B / reclaimed B",
            "GC passes",
            "fg read p99 (ms)",
        ],
    );
    let apps = gc_pressure_workload();
    for placement in PlacementPolicy::all() {
        let mut config = gc_pressure_config(SchedulerPolicy::InterDy);
        config.placement = placement;
        let out = spec
            .system(config)
            .run(&apps)
            .expect("policy-ablation system run completes");
        system.row(vec![
            placement.label().to_string(),
            format!("{}..{}", out.wear.min_erases, out.wear.max_erases),
            out.wear.spread().to_string(),
            format!("{:.3}", out.wear.stddev_erases),
            format!("{:.4}", out.gc_migrated_bytes_per_reclaimed_byte),
            out.gc_passes.to_string(),
            format!("{:.4}", out.foreground_read_p99_s * 1e3),
        ]);
    }

    let mut rendered = grid.render();
    rendered.push('\n');
    rendered.push_str(&hotcold.render());
    rendered.push('\n');
    rendered.push_str(&system.render());
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_ROUNDS: u64 = 800;

    #[test]
    fn least_worn_narrows_wear_spread() {
        let ff = run_churn(
            churn_config(
                PlacementPolicy::FirstFree,
                GcVictimPolicy::GreedyMinValid,
                None,
            ),
            TEST_ROUNDS,
        );
        let lw = run_churn(
            churn_config(
                PlacementPolicy::LeastWorn,
                GcVictimPolicy::GreedyMinValid,
                None,
            ),
            TEST_ROUNDS,
        );
        assert!(
            lw.wear_spread() < ff.wear_spread(),
            "LeastWorn spread {} should be narrower than FirstFree {}",
            lw.wear_spread(),
            ff.wear_spread()
        );
        assert!(lw.wear_stddev < ff.wear_stddev);
    }

    #[test]
    fn smarter_victims_cut_migration_per_reclaimed_byte() {
        let outcomes: Vec<ChurnOutcome> = GcVictimPolicy::all()
            .into_iter()
            .map(|gc| {
                run_churn(
                    churn_config(PlacementPolicy::FirstFree, gc, None),
                    TEST_ROUNDS,
                )
            })
            .collect();
        let by_label = |label: &str| {
            outcomes
                .iter()
                .find(|o| o.gc_victim == label)
                .expect("grid covers every victim policy")
        };
        let rr = by_label("RoundRobin");
        let greedy = by_label("GreedyMinValid");
        let cb = by_label("CostBenefit");
        assert!(rr.groups_reclaimed > 0);
        assert!(
            greedy.migrated_per_reclaimed < rr.migrated_per_reclaimed,
            "greedy {} should beat round-robin {}",
            greedy.migrated_per_reclaimed,
            rr.migrated_per_reclaimed
        );
        assert!(
            cb.migrated_per_reclaimed < rr.migrated_per_reclaimed,
            "cost-benefit {} should beat round-robin {}",
            cb.migrated_per_reclaimed,
            rr.migrated_per_reclaimed
        );
    }

    #[test]
    fn hot_cold_separation_steers_and_saves_migration() {
        let off = run_churn(
            churn_config(
                PlacementPolicy::FirstFree,
                GcVictimPolicy::GreedyMinValid,
                None,
            ),
            TEST_ROUNDS,
        );
        let on = run_churn(
            churn_config(
                PlacementPolicy::FirstFree,
                GcVictimPolicy::GreedyMinValid,
                Some(8),
            ),
            TEST_ROUNDS,
        );
        assert_eq!(off.hot_threshold, None);
        assert_eq!(on.hot_threshold, Some(8));
        // Separation actually engaged...
        assert!(on.hot_group_writes > 0, "no write was classified hot");
        assert_eq!(off.hot_group_writes, 0);
        // ...and concentrating churn garbage cuts the migration bill.
        assert!(
            on.migrated_per_reclaimed < off.migrated_per_reclaimed,
            "hot/cold on {} should beat off {}",
            on.migrated_per_reclaimed,
            off.migrated_per_reclaimed
        );
    }

    #[test]
    fn report_renders_all_sections() {
        let r = report(&RunSpec::at(ExperimentScale { data_scale: 512 }));
        assert!(r.contains("Policy ablation"));
        assert!(r.contains("Hot/cold separation"));
        assert!(r.contains("Full-system endurance"));
        assert!(r.contains("LeastWorn"));
        assert!(r.contains("CostBenefit"));
    }
}
