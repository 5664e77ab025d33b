//! Flash backbone hot-path fixtures for the `perfbench` benchmark: the
//! configured backbone its per-command cost probes submit to, and the
//! program → read → erase sweeps they time, in 64-page stripes
//! (`submit_group`) and one command at a time (`submit_tagged`). Both run
//! the backbone's one stripe routine — a single command is a one-page
//! stripe — so the two probes price its per-page step with and without
//! the per-stripe work (owner slot, tag budget, counts) spread over 64
//! pages.
//!
//! One definition keeps both probes pricing the same device and the
//! same command stream; the test below checks that the two sweeps leave
//! identical flash state and accounting.

use fa_flash::{
    FlashBackbone, FlashCommand, FlashGeometry, FlashOp, FlashTiming, GroupLayout, OwnerId,
    PhysicalPageAddr, QosBudgets,
};
use fa_sim::time::SimTime;

/// A backbone with the data-path features a campaign pays for on every
/// command — per-owner QoS tag budgets and valid-page group accounting in
/// four-page groups — so `perfbench`'s per-command cost metrics price that
/// configuration.
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
    let layout = GroupLayout {
        geometry,
        pages_per_group: 4,
    };
    let mut backbone =
        FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.5e9, 16, 1_000_000);
    backbone.set_qos_budgets(QosBudgets {
        per_owner: Some(8),
        background: Some(2),
    });
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
        let group_tails: Vec<_> = group.owner_read_tails().collect();
        assert!(group_tails.iter().any(|t| t.0 == kernel && t.2.is_some()));
        assert!(group_tails.into_iter().eq(tagged.owner_read_tails()));
    }
}
