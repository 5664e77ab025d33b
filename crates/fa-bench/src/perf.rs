//! Shared helpers for the harness's self-measurement (the `perfstat`
//! binary and the microbenchmarks): a synthetic dispatch-shaped batch, the
//! old full-rescan readiness walk, the scan-based allocator, and the
//! full-table GC victim scan — each kept as the comparison baseline its
//! incremental replacement is measured against.
//!
//! All consumers must measure the *same* state and the *same* baseline
//! algorithms, or the recorded `BENCH_PR*.json` numbers and the
//! microbenchmarks would silently drift apart — hence one definition here.
//! (The oracle *property tests* deliberately do not use these helpers:
//! their oracles must stay independent of the code under test.)

use fa_flash::{
    FlashBackbone, FlashCommand, FlashGeometry, FlashOp, FlashTiming, OwnerId, PhysicalPageAddr,
    QosBudgets,
};
use fa_kernel::chain::{ExecutionChain, ScreenRef, ScreenState};
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_kernel::model::{AppId, Application, ApplicationBuilder, DataSection};
use fa_platform::lwp::InstructionMix;
use fa_sim::time::SimTime;
use flashabacus::config::FlashAbacusConfig;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::Flashvisor;

/// A synthetic batch totalling roughly `total_screens` screens spread over
/// 8 instances with dependent microblocks — the shape the ready frontier
/// has to chew through, without any simulation around it.
pub fn screen_batch(total_screens: usize) -> Vec<Application> {
    let instances = 8;
    let screens_per_microblock = 4;
    let microblocks = (total_screens / (instances * screens_per_microblock)).max(1);
    let mix = InstructionMix::new(40_000, 0.4, 0.1);
    let blocks: Vec<(usize, InstructionMix, u64, u64)> = (0..microblocks)
        .map(|_| (screens_per_microblock, mix, 4096u64, 512u64))
        .collect();
    let template = ApplicationBuilder::new("perf")
        .kernel(
            "perf-k0",
            DataSection {
                flash_base: 0,
                input_bytes: 4096 * microblocks as u64,
                output_bytes: 512 * microblocks as u64,
            },
            &blocks,
        )
        .build(AppId(0));
    instantiate_many(
        &[template],
        &InstancePlan {
            instances_per_app: instances,
            ..Default::default()
        },
    )
}

/// Rebuilds the ready list the way `ExecutionChain::ready_screens` used
/// to: a walk over every app × kernel × microblock × screen of the batch,
/// checking eligibility and state as it goes. O(S) per call, O(S²) per
/// schedule — the baseline the incremental frontier replaces.
pub fn naive_ready_screens(chain: &ExecutionChain, apps: &[Application]) -> Vec<ScreenRef> {
    let mut ready = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        for (ki, kernel) in app.kernels.iter().enumerate() {
            for (mi, mblock) in kernel.microblocks.iter().enumerate() {
                if !chain.microblock_eligible(ai, ki, mi) {
                    continue;
                }
                for si in 0..mblock.screens.len() {
                    let r = ScreenRef {
                        app: ai,
                        kernel: ki,
                        microblock: mi,
                        screen: si,
                    };
                    if matches!(chain.state(r), Some(ScreenState::Pending)) {
                        ready.push(r);
                    }
                }
            }
        }
    }
    ready
}

/// The head of [`naive_ready_screens`] without materializing the list —
/// still a full walk past every completed screen before the first pending
/// one, so a drain through it stays O(S²).
pub fn naive_ready_first(chain: &ExecutionChain, apps: &[Application]) -> Option<ScreenRef> {
    for (ai, app) in apps.iter().enumerate() {
        for (ki, kernel) in app.kernels.iter().enumerate() {
            for (mi, mblock) in kernel.microblocks.iter().enumerate() {
                if !chain.microblock_eligible(ai, ki, mi) {
                    continue;
                }
                for si in 0..mblock.screens.len() {
                    let r = ScreenRef {
                        app: ai,
                        kernel: ki,
                        microblock: mi,
                        screen: si,
                    };
                    if matches!(chain.state(r), Some(ScreenState::Pending)) {
                        return Some(r);
                    }
                }
            }
        }
    }
    None
}

/// The scan-based allocator shape the free-space subsystem replaces: every
/// allocation walks the used-flags table from the front until it finds a
/// free group. O(n) per pop, O(n²) per drain — the baseline the recorded
/// `BENCH_PR3.json` speedups are measured against.
pub struct NaiveScanAllocator {
    used: Vec<bool>,
}

impl NaiveScanAllocator {
    /// Creates an allocator with `total` free groups.
    pub fn new(total: u64) -> Self {
        NaiveScanAllocator {
            used: vec![false; total as usize],
        }
    }

    /// Scans for the first free group and takes it.
    pub fn allocate(&mut self) -> Option<u64> {
        let g = self.used.iter().position(|u| !u)?;
        self.used[g] = true;
        Some(g as u64)
    }

    /// Returns a group to the pool.
    pub fn recycle(&mut self, g: u64) {
        self.used[g as usize] = false;
    }
}

/// Rebuilds one GC pass's victim view the way `Storengine` used to: a
/// filter over *every* mapped group in the table, per pass — the full
/// rescan the reverse index replaces.
pub fn naive_victim_groups(v: &Flashvisor, group_low: u64, group_high: u64) -> Vec<(u64, u64)> {
    v.mapped_groups()
        .filter(|(_, pg)| *pg >= group_low && *pg < group_high)
        .collect()
}

/// A paper-prototype Flashvisor with the first `groups` logical groups
/// mapped — the mapping-table population a large campaign reaches. Shared
/// by `perfstat` and the microbenchmarks so both measure the same state.
pub fn populated_flashvisor(groups: u64) -> Flashvisor {
    let config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
    let groups = groups.min(config.total_page_groups());
    let mut v = Flashvisor::new(config);
    v.preload_range(0, groups * config.page_group_bytes)
        .expect("preload within capacity");
    v
}

/// A backbone with the PR4/PR5 data-path features a campaign pays for on
/// every command — per-owner QoS tag budgets and valid-page group
/// accounting — shared by `perfstat`'s per-command-cost section and the
/// `hot_path` microbenchmark so both price the same configuration.
pub fn hot_path_backbone() -> FlashBackbone {
    let geometry = FlashGeometry {
        channels: 4,
        packages_per_channel: 1,
        dies_per_package: 2,
        planes_per_die: 1,
        blocks_per_plane: 32,
        pages_per_block: 64,
        page_bytes: 4096,
    };
    let mut backbone = FlashBackbone::new(
        geometry,
        FlashTiming::fast_for_tests(),
        2.5e9,
        16,
        1_000_000,
    );
    backbone.set_qos_budgets(QosBudgets {
        per_owner: Some(8),
        background: Some(2),
    });
    backbone.enable_group_tracking(4);
    backbone
}

/// One full program → read → erase sweep of the device through
/// `submit_group`, in 64-page stripes of consecutive flat pages (the write
/// path's page-group shape) and one erase per block, with owner accounting
/// and QoS admission live on every command. Returns (commands submitted,
/// simulated completion).
pub fn hot_path_sweep(backbone: &mut FlashBackbone, mut now: SimTime) -> (u64, SimTime) {
    let geometry = *backbone.geometry();
    let total_pages = geometry.total_pages();
    let mut commands = 0u64;
    for (op, what) in [
        (FlashOp::ProgramPage, "hot-path program stripe"),
        (FlashOp::ReadPage, "hot-path read stripe"),
    ] {
        for first in (0..total_pages).step_by(64) {
            now = backbone
                .submit_group(now, first, 64, op, OwnerId::Kernel(0))
                .expect(what);
            commands += 64;
        }
    }
    for block in 0..geometry.total_blocks() {
        let (channel, die, block) = geometry.block_index_to_addr(block);
        let flat = geometry.addr_to_flat(PhysicalPageAddr::new(channel, die, block, 0));
        now = backbone
            .submit_group(now, flat, 1, FlashOp::EraseBlock, OwnerId::Gc)
            .expect("hot-path erase");
        commands += 1;
    }
    (commands, now)
}

/// The hot-path backbone with every page preloaded — the fully-programmed
/// steady state section reads run against.
pub fn preloaded_hot_path_backbone() -> FlashBackbone {
    let mut backbone = hot_path_backbone();
    let total = backbone.geometry().total_pages();
    backbone
        .preload_group(0, total)
        .expect("preload whole device");
    backbone
}

/// The same sweep submitted one command at a time through `submit_tagged`
/// — the per-command entry point, priced against the stripe path of
/// [`hot_path_sweep`].
pub fn hot_path_sweep_tagged(backbone: &mut FlashBackbone, mut now: SimTime) -> (u64, SimTime) {
    let geometry = *backbone.geometry();
    let total_pages = geometry.total_pages();
    let mut commands = 0u64;
    for flat in 0..total_pages {
        let addr = geometry.flat_to_addr(flat);
        now = backbone
            .submit_tagged(now, FlashCommand::program(addr), OwnerId::Kernel(0))
            .expect("hot-path program")
            .finished;
        commands += 1;
    }
    for flat in 0..total_pages {
        let addr = geometry.flat_to_addr(flat);
        now = backbone
            .submit_tagged(now, FlashCommand::read(addr), OwnerId::Kernel(0))
            .expect("hot-path read")
            .finished;
        commands += 1;
    }
    for block in 0..geometry.total_blocks() {
        let (channel, die, block) = geometry.block_index_to_addr(block);
        let addr = PhysicalPageAddr::new(channel, die, block, 0);
        now = backbone
            .submit_tagged(now, FlashCommand::erase(addr), OwnerId::Gc)
            .expect("hot-path erase")
            .finished;
        commands += 1;
    }
    (commands, now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_scan_allocator_hands_out_first_free() {
        let mut a = NaiveScanAllocator::new(3);
        assert_eq!(a.allocate(), Some(0));
        assert_eq!(a.allocate(), Some(1));
        a.recycle(0);
        assert_eq!(a.allocate(), Some(0));
        assert_eq!(a.allocate(), Some(2));
        assert_eq!(a.allocate(), None);
    }

    #[test]
    fn naive_victim_scan_agrees_with_the_reverse_index() {
        let v = populated_flashvisor(4096);
        for block in [0u64, 7, 63] {
            let (low, high) = v.config().gc_scan_group_range(block);
            assert_eq!(
                naive_victim_groups(&v, low, high),
                v.victim_groups(low, high)
            );
        }
    }

    #[test]
    fn batch_has_roughly_the_requested_screen_count() {
        let apps = screen_batch(1024);
        let chain = ExecutionChain::new(&apps);
        assert_eq!(chain.total_screens(), 1024);
        assert_eq!(apps.len(), 8);
    }

    #[test]
    fn group_and_tagged_hot_path_sweeps_leave_identical_flash_state() {
        let mut group = hot_path_backbone();
        let (commands, group_done) = hot_path_sweep(&mut group, SimTime::ZERO);
        let (tagged_commands, _) = hot_path_sweep_tagged(&mut hot_path_backbone(), SimTime::ZERO);
        assert_eq!(commands, tagged_commands);
        // The same stripes replayed one `submit_tagged` command at a time,
        // each stripe's commands at the stripe's submission instant.
        let mut tagged = hot_path_backbone();
        let geometry = *tagged.geometry();
        let kernel = OwnerId::Kernel(0);
        let mut now = SimTime::ZERO;
        let makers: [fn(PhysicalPageAddr) -> FlashCommand; 2] =
            [FlashCommand::program, FlashCommand::read];
        for make in makers {
            for first in (0..geometry.total_pages()).step_by(64) {
                let start = now;
                for flat in first..first + 64 {
                    let cmd = make(geometry.flat_to_addr(flat));
                    now = now.max(tagged.submit_tagged(start, cmd, kernel).unwrap().finished);
                }
            }
        }
        for block in 0..geometry.total_blocks() {
            let (channel, die, block) = geometry.block_index_to_addr(block);
            let cmd = FlashCommand::erase(PhysicalPageAddr::new(channel, die, block, 0));
            now = tagged
                .submit_tagged(now, cmd, OwnerId::Gc)
                .unwrap()
                .finished;
        }
        assert_eq!(now, group_done);
        assert_eq!(group.total_valid_pages(), tagged.total_valid_pages());
        assert_eq!(group.stats(), tagged.stats());
        assert_eq!(group.owner_stats(), tagged.owner_stats());
        let qs = [0.0, 0.5, 0.99, 1.0];
        assert!(group.read_latency_quantiles(kernel, &qs).is_some());
        assert_eq!(
            group.read_latency_quantiles(kernel, &qs),
            tagged.read_latency_quantiles(kernel, &qs)
        );
    }

    #[test]
    fn naive_walk_agrees_with_the_frontier() {
        let apps = screen_batch(128);
        let mut chain = ExecutionChain::new(&apps);
        let mut t = 0u64;
        loop {
            assert_eq!(naive_ready_screens(&chain, &apps), chain.ready_screens());
            assert_eq!(naive_ready_first(&chain, &apps), chain.first_ready());
            let Some(s) = chain.first_ready() else { break };
            chain.mark_running(s, 0);
            t += 10;
            chain.mark_done(s, fa_sim::time::SimTime::from_us(t));
        }
        assert!(chain.is_complete());
    }
}
