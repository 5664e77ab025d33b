//! Oracle for the channel controller's tag-queue admission.
//!
//! The controller answers every admission question — the tag-slot wait,
//! the per-owner budget, the occupancy peaks — from one shared completion
//! queue that keeps only its last queue-depth entries, and skips the peak
//! walk once both peaks have reached the queue depth. The model below is
//! the straightforward two-queue formulation it replaced: an unbounded
//! shared queue plus one completion deque per owner, retired in lockstep,
//! with both peaks recounted on every admission. Random
//! command streams must get identical completion instants and identical
//! peaks from both. The tag budget a command runs under — the static grant
//! or a governor override — is resolved once by the model and handed to
//! both, as the backbone hands it to its controllers.
//!
//! The model reuses a [`ChannelController`] with an unbounded tag queue and
//! no budgets as its die-and-bus service: such a controller admits every
//! command at its submission instant, so submitting at the model's
//! admission instant reproduces the dies and the bus exactly.
//!
//! Case count defaults to 24 and can be raised via `FA_ORACLE_CASES`.

use fa_flash::{
    ChannelController, FlashError, FlashGeometry, FlashOp, FlashTiming, OwnerId, PhysicalPageAddr,
    QosBudgets,
};
use fa_sim::time::SimTime;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

const DIES: usize = 4;
const BLOCKS: usize = 8;
const PAGES: usize = 16;

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(24)
}

fn geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 1,
        packages_per_channel: DIES,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: BLOCKS,
        pages_per_block: PAGES,
        page_bytes: 4096,
    }
}

fn new_controller(inbound_tags: usize) -> ChannelController {
    ChannelController::new(
        0,
        &geometry(),
        FlashTiming::fast_for_tests(),
        u64::MAX,
        inbound_tags,
    )
}

/// Ten owners: both background streams, the unattributed stream, and
/// seven kernels.
fn owner(i: usize) -> OwnerId {
    match i {
        0 => OwnerId::Gc,
        1 => OwnerId::Journal,
        2 => OwnerId::Unattributed,
        k => OwnerId::Kernel(k as u32 - 3),
    }
}

/// Two-queue admission: a shared completion queue plus a per-owner copy.
struct TwoQueueModel {
    inbound_tags: usize,
    budgets: QosBudgets,
    overrides: BTreeMap<OwnerId, usize>,
    outstanding: VecDeque<(SimTime, OwnerId)>,
    per_owner: BTreeMap<OwnerId, VecDeque<SimTime>>,
    peak_inbound_tags: usize,
    owner_peaks: BTreeMap<OwnerId, usize>,
    service: ChannelController,
}

impl TwoQueueModel {
    fn new(inbound_tags: usize, budgets: QosBudgets) -> Self {
        TwoQueueModel {
            inbound_tags,
            budgets,
            overrides: BTreeMap::new(),
            outstanding: VecDeque::new(),
            per_owner: BTreeMap::new(),
            peak_inbound_tags: 0,
            owner_peaks: BTreeMap::new(),
            service: new_controller(usize::MAX),
        }
    }

    fn set_override(&mut self, owner: OwnerId, budget: Option<usize>) {
        match budget {
            Some(b) => self.overrides.insert(owner, b),
            None => self.overrides.remove(&owner),
        };
    }

    /// The tag budget `owner`'s next command runs under.
    fn budget(&self, owner: OwnerId) -> Option<usize> {
        self.overrides
            .get(&owner)
            .copied()
            .or_else(|| self.budgets.budget_for(owner))
    }

    fn admit(&mut self, now: SimTime, owner: OwnerId) -> SimTime {
        while matches!(self.outstanding.front(), Some(&(done, _)) if done <= now) {
            let (done, o) = self.outstanding.pop_front().unwrap();
            let popped = self.per_owner.get_mut(&o).unwrap().pop_front();
            assert_eq!(popped, Some(done), "the two completion queues diverged");
        }
        let occupancy = self.outstanding.len();
        let mut admitted = if occupancy < self.inbound_tags {
            now
        } else {
            self.outstanding[occupancy - self.inbound_tags].0
        };
        let budget = self.budget(owner);
        let own = self.per_owner.entry(owner).or_default();
        if let Some(budget) = budget {
            let budget = budget.max(1);
            let in_flight = own.iter().filter(|&&t| t > admitted).count();
            if in_flight >= budget {
                admitted = own[own.len() - budget];
            }
        }
        let in_flight = self
            .outstanding
            .iter()
            .filter(|&&(t, _)| t > admitted)
            .count();
        self.peak_inbound_tags = self.peak_inbound_tags.max(in_flight + 1);
        let owner_in_flight = own.iter().filter(|&&t| t > admitted).count();
        let peak = self.owner_peaks.entry(owner).or_default();
        *peak = (*peak).max(owner_in_flight + 1);
        admitted
    }

    fn execute(
        &mut self,
        now: SimTime,
        op: FlashOp,
        addr: PhysicalPageAddr,
        owner: OwnerId,
    ) -> Result<SimTime, FlashError> {
        let admitted = self.admit(now, owner);
        let done = self
            .service
            .execute(admitted, op, addr, owner.dense_index(), None)?;
        let clamped = self.outstanding.back().map_or(done, |&(b, _)| done.max(b));
        self.outstanding.push_back((clamped, owner));
        self.per_owner.get_mut(&owner).unwrap().push_back(clamped);
        Ok(done)
    }
}

/// Static budget for one of six modes: none, 0, 1, half the depth, the
/// depth, and above it.
fn static_budget(mode: usize, depth: usize) -> Option<usize> {
    match mode {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3 => Some(depth / 2),
        4 => Some(depth),
        _ => Some(depth + 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn shared_queue_admission_matches_the_two_queue_model(
        setup in (0usize..4, 0usize..6, 0usize..6),
        stream in prop::collection::vec(
            (0usize..16, 0usize..10, -4_000i64..14_000, 0usize..1_000),
            2_200..2_400,
        ),
    ) {
        let (depth_sel, fg_mode, bg_mode) = setup;
        let depth = [1, 2, 4, 16][depth_sel];
        let budgets = QosBudgets {
            per_owner: static_budget(fg_mode, depth),
            background: static_budget(bg_mode, depth),
        };
        let mut real = new_controller(depth);
        let mut model = TwoQueueModel::new(depth, budgets);
        // Block 0 of every die holds readable data; blocks 1.. take
        // sequential programs and erases, tracked by a write cursor.
        for die in 0..DIES {
            for page in 0..PAGES {
                let addr = PhysicalPageAddr::new(0, die, 0, page);
                real.preload(addr).unwrap();
                model.service.preload(addr).unwrap();
            }
        }
        let mut cursor = [[0usize; BLOCKS]; DIES];
        let mut now = 0u64;
        let mut commands = 0usize;
        for (i, &(kind, who, step, aux)) in stream.iter().enumerate() {
            // Submission instants repeat (a quarter of steps) and move
            // backwards (negative steps) as well as forwards.
            if kind % 4 != 0 {
                now = now.saturating_add_signed(step);
            }
            let at = SimTime::from_ns(now);
            let who = owner(who);
            let die = aux % DIES;
            let block = 1 + aux % (BLOCKS - 1);
            let (op, addr) = match kind {
                // Install or clear a governor-style override mid-stream.
                0 | 1 if aux % 5 == 0 => {
                    let budget = (aux % 3 != 0).then_some(aux % (depth + 2));
                    model.set_override(who, budget);
                    continue;
                }
                0..=7 => (
                    FlashOp::ReadPage,
                    PhysicalPageAddr::new(0, die, 0, aux / DIES % PAGES),
                ),
                // Reads that may hit an unwritten page: admitted, then
                // rejected by the die.
                8 | 9 => (
                    FlashOp::ReadPage,
                    PhysicalPageAddr::new(0, die, block, aux / DIES % PAGES),
                ),
                10..=13 if cursor[die][block] < PAGES => {
                    cursor[die][block] += 1;
                    (
                        FlashOp::ProgramPage,
                        PhysicalPageAddr::new(0, die, block, cursor[die][block] - 1),
                    )
                }
                _ => {
                    cursor[die][block] = 0;
                    (FlashOp::EraseBlock, PhysicalPageAddr::new(0, die, block, 0))
                }
            };
            commands += 1;
            let got = real.execute(at, op, addr, who.dense_index(), model.budget(who));
            let want = model.execute(at, op, addr, who);
            prop_assert!(
                got == want,
                "command {i} ({op:?} by {who} at {now} ns): {got:?} != {want:?}"
            );
            prop_assert_eq!(real.stats().peak_inbound_tags, model.peak_inbound_tags);
        }
        prop_assert_eq!(real.owner_peak_tags(), model.owner_peaks);
        prop_assert!(commands >= 2_000, "only {commands} commands");
    }
}
