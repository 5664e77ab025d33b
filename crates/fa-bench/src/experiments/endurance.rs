//! Endurance-to-death: churn each placement policy under an injected
//! wear-out fault plan until the device dies.
//!
//! PR 8's fault model makes media mortality simulable: probabilistic
//! program/erase failures condemn blocks (`retire_after` repeated
//! failures), condemned blocks drag their whole block row into the
//! bad-block remap table, and every retired row permanently shrinks the
//! allocator. This experiment drives a deterministic overwrite churn —
//! the identical operation sequence and the identical seeded fault plan
//! per placement policy — until writes fail even after garbage
//! collection and retirement processing, and reports how many host bytes
//! landed before that death. Differences between rows are pure placement
//! effects: a policy that spreads erases postpones the moment the fault
//! plan's per-attempt failures cluster enough condemnations to strangle
//! the free pool.

use fa_flash::FaultPlan;
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::time::{SimDuration, SimTime};
use flashabacus::config::FlashAbacusConfig;
use flashabacus::freespace::PlacementPolicy;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::Storengine;
use flashabacus::Flashvisor;
use std::sync::Arc;

/// The mortality device: 2 channels × 8 blocks × 16 pages of 4 KB, 8 KB
/// groups → 128 groups in 8 block rows (one reserved for the journal).
/// Small enough that wear-out death arrives within milliseconds of wall
/// clock, large enough that GC, retirement, and placement all matter.
fn endurance_config(placement: PlacementPolicy) -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.flash_geometry.blocks_per_plane = 8;
    config.flash_geometry.pages_per_block = 16;
    config.page_group_bytes = 8 * 1024;
    config.gc_low_watermark = 0.50;
    // Journaling is not under test; quiesce it so every erase is either
    // churn GC or a fault consequence.
    config.journal_interval = SimDuration::from_ms(60_000);
    config.placement = placement;
    config
}

/// The identical seeded wear-out plan every policy runs under: roughly
/// one program failure per 250 attempts, half that rate for erases, and
/// three failures condemn a block.
const WEAROUT_PLAN: &str = "seed=29,program=0.004,erase=0.002,retire_after=3";

/// Hard cap on churn rounds so a regression that makes the device
/// immortal cannot hang the bench; reaching it is reported as `died =
/// false`, never silently.
const MAX_ROUNDS: u64 = 200_000;

/// One policy's life story under the wear-out plan.
#[derive(Debug, Clone)]
pub struct EnduranceOutcome {
    /// Placement policy label.
    pub placement: &'static str,
    /// Whether the device actually died within the churn-round cap.
    pub died: bool,
    /// Host bytes written before death.
    pub host_bytes_written: u64,
    /// Churn rounds (one group write each) that landed.
    pub rounds_completed: u64,
    /// Block rows in the bad-block remap table at death.
    pub rows_retired: usize,
    /// Individual blocks the fault plan condemned.
    pub blocks_condemned: u64,
    /// Injected program failures absorbed over the lifetime.
    pub program_failures: u64,
    /// Injected erase failures absorbed over the lifetime.
    pub erase_failures: u64,
}

/// Churns one placement policy to death: overwrite a 24-group logical
/// window one group at a time, collect garbage whenever the watermark
/// trips (absorbing injected GC failures exactly like the system driver:
/// retirement processing runs and the churn continues), and declare
/// death when a write still fails after a burst of last-ditch GC.
fn endurance_to_death(placement: PlacementPolicy) -> EnduranceOutcome {
    let config = endurance_config(placement);
    let mut v = Flashvisor::new(config);
    v.install_fault_plan(Arc::new(
        FaultPlan::parse(WEAROUT_PLAN).expect("wear-out plan parses"),
    ));
    let mut s = Storengine::new(config);
    let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
    let group_bytes = config.page_group_bytes;
    let window = 24u64;
    let mut now_us = 1u64;
    let mut written = 0u64;
    let mut rounds = 0u64;
    let mut died = false;

    'life: for round in 0..MAX_ROUNDS {
        let lg = round % window;
        // Keep GC ahead of the watermark, boundedly: a dying device can
        // have passes that reclaim nothing.
        for _ in 0..8 {
            if !s.gc_needed(&v) {
                break;
            }
            now_us += 97;
            let t = SimTime::from_us(now_us);
            if s.collect_garbage(t, &mut v).is_err() {
                let _ = v.process_retirements(t);
            }
        }
        now_us += 41;
        let t = SimTime::from_us(now_us);
        let _ = v.process_retirements(t);
        if v.write_section(t, lg * group_bytes, group_bytes, &mut sp)
            .is_ok()
        {
            written += group_bytes;
            rounds += 1;
            continue;
        }
        // The write failed: one last-ditch reclamation burst, then a
        // single retry decides between a transient shortage and death.
        for _ in 0..16 {
            now_us += 97;
            let t = SimTime::from_us(now_us);
            if s.collect_garbage(t, &mut v).is_err() {
                let _ = v.process_retirements(t);
            }
        }
        now_us += 41;
        let t = SimTime::from_us(now_us);
        let _ = v.process_retirements(t);
        if v.write_section(t, lg * group_bytes, group_bytes, &mut sp)
            .is_ok()
        {
            written += group_bytes;
            rounds += 1;
            continue;
        }
        died = true;
        break 'life;
    }

    let stats = v.backbone().fault_stats();
    EnduranceOutcome {
        placement: placement.label(),
        died,
        host_bytes_written: written,
        rounds_completed: rounds,
        rows_retired: v.retired_rows().len(),
        blocks_condemned: stats.blocks_retired,
        program_failures: stats.injected_program_failures,
        erase_failures: stats.injected_erase_failures,
    }
}

/// Runs the wear-out churn for every placement policy.
pub fn endurance_grid() -> Vec<EnduranceOutcome> {
    PlacementPolicy::all()
        .iter()
        .map(|&p| endurance_to_death(p))
        .collect()
}
