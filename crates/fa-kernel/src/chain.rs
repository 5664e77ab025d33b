//! The multi-app execution chain.
//!
//! FlashAbacus tracks screen-level progress in a per-application dependency
//! list (§4.2, Figure 8): every application owns a chain of nodes, one per
//! microblock of each of its kernels, and each node records the screens of
//! that microblock together with the LWP executing them and their status.
//! The chain encodes the only ordering rule of the execution model: *no
//! screen of a microblock may start before every screen of the previous
//! microblock of the same kernel has completed*. Kernels of the same
//! application — and of course different applications — are mutually
//! independent.
//!
//! Readiness is maintained *incrementally*: the chain keeps a frontier of
//! every pending screen whose microblock is eligible, ordered by
//! [`ScreenRef`], and updates it in `mark_running`/`mark_done` as screens
//! change state. A screen enters the frontier exactly once (when its
//! microblock becomes eligible) and leaves it exactly once (when it is
//! dispatched), so scheduling a batch of S screens does O(S) total frontier
//! maintenance instead of the O(S²) a per-dispatch rescan would cost — the
//! self-governing scheduler's decision path (§4.1–§4.2) stays off the
//! critical path even for large offloads. All four schedulers consult this
//! structure through [`ExecutionChain::first_ready`],
//! [`ExecutionChain::next_ready_of_kernel`], and
//! [`ExecutionChain::next_ready_of_microblock`]; the out-of-order
//! intra-kernel scheduler additionally borrows screens across kernel and
//! application boundaries.

use crate::model::Application;
use fa_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Position of one screen inside the offloaded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScreenRef {
    /// Index of the application in the offload batch.
    pub app: usize,
    /// Kernel index within the application.
    pub kernel: usize,
    /// Microblock index within the kernel.
    pub microblock: usize,
    /// Screen index within the microblock.
    pub screen: usize,
}

impl ScreenRef {
    /// The smallest possible reference within (app, kernel): the range start
    /// for frontier lookups scoped to one kernel.
    fn kernel_floor(app: usize, kernel: usize) -> ScreenRef {
        ScreenRef {
            app,
            kernel,
            microblock: 0,
            screen: 0,
        }
    }

    /// The smallest possible reference within (app, kernel, microblock).
    fn microblock_floor(app: usize, kernel: usize, microblock: usize) -> ScreenRef {
        ScreenRef {
            app,
            kernel,
            microblock,
            screen: 0,
        }
    }
}

/// Execution status of one screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScreenState {
    /// Not yet dispatched.
    Pending,
    /// Dispatched to an LWP and executing.
    Running {
        /// The LWP executing the screen.
        lwp: usize,
    },
    /// Finished.
    Done,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScreenNode {
    state: ScreenState,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct MicroblockNode {
    screens: Vec<ScreenNode>,
    /// Count of screens in `Done` state, so completion checks are O(1).
    done_screens: usize,
}

impl MicroblockNode {
    fn all_done(&self) -> bool {
        self.done_screens == self.screens.len()
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelNode {
    microblocks: Vec<MicroblockNode>,
    /// Count of done screens across all microblocks (O(1) kernel-completion
    /// checks).
    done_screens: usize,
    /// Total screens across all microblocks.
    total_screens: usize,
    completed_at: Option<SimTime>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AppNode {
    kernels: Vec<KernelNode>,
}

/// Runtime dependency tracker over an offloaded batch of applications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionChain {
    apps: Vec<AppNode>,
    total_screens: usize,
    completed_screens: usize,
    /// The incrementally maintained ready set: every pending screen whose
    /// microblock is eligible, in deterministic (app, kernel, microblock,
    /// screen) order.
    frontier: BTreeSet<ScreenRef>,
    /// Every (app, kernel, microblock) that still has unfinished screens,
    /// ordered lexicographically so the in-order scheduler's head microblock
    /// is a first() lookup.
    incomplete_microblocks: BTreeSet<(usize, usize, usize)>,
}

impl ExecutionChain {
    /// Builds the chain for a batch of applications.
    pub fn new(apps: &[Application]) -> Self {
        let nodes: Vec<AppNode> = apps
            .iter()
            .map(|a| AppNode {
                kernels: a
                    .kernels
                    .iter()
                    .map(|k| {
                        let microblocks: Vec<MicroblockNode> = k
                            .microblocks
                            .iter()
                            .map(|m| MicroblockNode {
                                screens: m
                                    .screens
                                    .iter()
                                    .map(|_| ScreenNode {
                                        state: ScreenState::Pending,
                                    })
                                    .collect(),
                                done_screens: 0,
                            })
                            .collect();
                        let total = microblocks.iter().map(|m| m.screens.len()).sum();
                        KernelNode {
                            microblocks,
                            done_screens: 0,
                            total_screens: total,
                            completed_at: None,
                        }
                    })
                    .collect(),
            })
            .collect();
        let total = nodes
            .iter()
            .flat_map(|a| &a.kernels)
            .map(|k| k.total_screens)
            .sum();
        let mut chain = ExecutionChain {
            apps: nodes,
            total_screens: total,
            completed_screens: 0,
            frontier: BTreeSet::new(),
            incomplete_microblocks: BTreeSet::new(),
        };
        // Seed the bookkeeping sets: every non-empty microblock is
        // incomplete, and each kernel's eligibility cascade starts at its
        // first microblock (skipping degenerate empty ones).
        for (ai, app) in chain.apps.iter().enumerate() {
            for (ki, kernel) in app.kernels.iter().enumerate() {
                for (mi, mblock) in kernel.microblocks.iter().enumerate() {
                    if !mblock.screens.is_empty() {
                        chain.incomplete_microblocks.insert((ai, ki, mi));
                    }
                }
            }
        }
        for ai in 0..chain.apps.len() {
            for ki in 0..chain.apps[ai].kernels.len() {
                chain.unlock_microblocks_from(ai, ki, 0);
            }
        }
        chain
    }

    /// Adds the screens of `microblock` (and of any directly following
    /// empty microblocks' successors) to the frontier. Called when the
    /// preceding microblock completes; every screen of an eligible
    /// microblock is still pending at that instant, so the whole microblock
    /// enters the frontier at once.
    fn unlock_microblocks_from(&mut self, app: usize, kernel: usize, mut microblock: usize) {
        loop {
            let Some(mblock) = self.apps[app].kernels[kernel].microblocks.get(microblock) else {
                return;
            };
            if mblock.screens.is_empty() {
                // Degenerate empty microblock: vacuously complete, so
                // eligibility cascades straight through it.
                microblock += 1;
                continue;
            }
            for si in 0..mblock.screens.len() {
                self.frontier.insert(ScreenRef {
                    app,
                    kernel,
                    microblock,
                    screen: si,
                });
            }
            return;
        }
    }

    /// Total number of screens tracked.
    pub fn total_screens(&self) -> usize {
        self.total_screens
    }

    /// Number of screens that have completed.
    pub fn completed_screens(&self) -> usize {
        self.completed_screens
    }

    /// True once every screen has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_screens == self.total_screens
    }

    /// Returns the state of a screen, or `None` for an invalid reference.
    pub fn state(&self, at: ScreenRef) -> Option<ScreenState> {
        self.apps
            .get(at.app)?
            .kernels
            .get(at.kernel)?
            .microblocks
            .get(at.microblock)?
            .screens
            .get(at.screen)
            .map(|s| s.state)
    }

    /// The earliest (app, kernel, microblock) in offload order that has not
    /// yet completed, if any. The in-order intra-kernel scheduler restricts
    /// dispatch to this microblock. O(1): the incomplete set is maintained
    /// incrementally.
    pub fn earliest_incomplete_microblock(&self) -> Option<(usize, usize, usize)> {
        self.incomplete_microblocks.first().copied()
    }

    /// A microblock is *eligible* when every screen of the preceding
    /// microblock of the same kernel has completed (the first microblock is
    /// always eligible). Degenerate screenless microblocks are skipped when
    /// looking backwards — they are vacuously complete but must not unlock
    /// their successor while real work before them is still outstanding.
    /// This matches the frontier's eligibility cascade exactly, so a screen
    /// passes this check if and only if it can appear in the frontier.
    fn microblock_eligible(&self, app: usize, kernel: usize, microblock: usize) -> bool {
        if microblock == 0 {
            return true;
        }
        let Some(k) = self.apps.get(app).and_then(|a| a.kernels.get(kernel)) else {
            return false;
        };
        let mut mi = microblock;
        while mi > 0 {
            match k.microblocks.get(mi - 1) {
                None => return false,
                Some(prev) if prev.screens.is_empty() => mi -= 1,
                Some(prev) => return prev.all_done(),
            }
        }
        true
    }

    /// The ready frontier: every pending screen whose microblock is
    /// eligible, in deterministic (app, kernel, microblock, screen) order.
    /// The iterator borrows the incrementally maintained set — no scan, no
    /// allocation.
    pub fn frontier(&self) -> impl Iterator<Item = ScreenRef> + '_ {
        self.frontier.iter().copied()
    }

    /// Number of screens currently ready for dispatch. O(1).
    pub fn ready_count(&self) -> usize {
        self.frontier.len()
    }

    /// The first ready screen in (app, kernel, microblock, screen) order,
    /// if any. The out-of-order intra-kernel scheduler's whole decision.
    pub fn first_ready(&self) -> Option<ScreenRef> {
        self.frontier.first().copied()
    }

    /// The first ready screen of one kernel, if any. A range lookup on the
    /// frontier — O(log S), not a batch scan. Inter-kernel policies call
    /// this once per dispatch.
    pub fn next_ready_of_kernel(&self, app: usize, kernel: usize) -> Option<ScreenRef> {
        self.frontier
            .range(ScreenRef::kernel_floor(app, kernel)..)
            .next()
            .copied()
            .filter(|r| r.app == app && r.kernel == kernel)
    }

    /// The first ready screen of one microblock, if any. The in-order
    /// intra-kernel scheduler pairs this with
    /// [`ExecutionChain::earliest_incomplete_microblock`].
    pub fn next_ready_of_microblock(
        &self,
        app: usize,
        kernel: usize,
        microblock: usize,
    ) -> Option<ScreenRef> {
        self.frontier
            .range(ScreenRef::microblock_floor(app, kernel, microblock)..)
            .next()
            .copied()
            .filter(|r| r.app == app && r.kernel == kernel && r.microblock == microblock)
    }

    /// All currently ready screens, materialized. O(ready) per call — kept
    /// for tests, oracles, and whole-frontier consumers; per-dispatch paths
    /// use [`ExecutionChain::first_ready`] and friends instead.
    pub fn ready_screens(&self) -> Vec<ScreenRef> {
        self.frontier().collect()
    }

    /// Ready screens restricted to one kernel (used by the in-order
    /// intra-kernel scheduler). A bounded range copy of the frontier, not a
    /// full-batch scan-and-filter.
    pub fn ready_screens_of_kernel(&self, app: usize, kernel: usize) -> Vec<ScreenRef> {
        self.frontier
            .range(ScreenRef::kernel_floor(app, kernel)..)
            .copied()
            .take_while(|r| r.app == app && r.kernel == kernel)
            .collect()
    }

    /// Number of screens of a kernel that have not yet completed. O(1).
    pub fn kernel_screens_remaining(&self, app: usize, kernel: usize) -> usize {
        self.apps
            .get(app)
            .and_then(|a| a.kernels.get(kernel))
            .map(|k| k.total_screens - k.done_screens)
            .unwrap_or(0)
    }

    /// Marks a screen as running on `lwp`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is invalid, the screen is not pending, or its
    /// microblock is not yet eligible — all of which indicate scheduler bugs.
    pub fn mark_running(&mut self, at: ScreenRef, lwp: usize) {
        assert!(
            self.microblock_eligible(at.app, at.kernel, at.microblock),
            "scheduling violates microblock ordering: {at:?}"
        );
        let node = self.screen_mut(at);
        assert!(
            matches!(node.state, ScreenState::Pending),
            "screen {at:?} dispatched twice"
        );
        node.state = ScreenState::Running { lwp };
        let was_ready = self.frontier.remove(&at);
        debug_assert!(was_ready, "pending eligible screen missing from frontier");
    }

    /// Marks a screen as completed at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the screen was not running.
    pub fn mark_done(&mut self, at: ScreenRef, now: SimTime) {
        {
            let node = self.screen_mut(at);
            assert!(
                matches!(node.state, ScreenState::Running { .. }),
                "screen {at:?} completed without running"
            );
            node.state = ScreenState::Done;
        }
        self.completed_screens += 1;

        let kernel = &mut self.apps[at.app].kernels[at.kernel];
        let mblock = &mut kernel.microblocks[at.microblock];
        mblock.done_screens += 1;
        let microblock_done = mblock.all_done();
        kernel.done_screens += 1;
        let kernel_done = kernel.done_screens == kernel.total_screens;

        if microblock_done {
            self.incomplete_microblocks
                .remove(&(at.app, at.kernel, at.microblock));
            // The next microblock of this kernel becomes eligible; its
            // screens (all still pending) join the frontier.
            self.unlock_microblocks_from(at.app, at.kernel, at.microblock + 1);
        }

        // Roll the completion upward to kernel level.
        if kernel_done {
            let k = &mut self.apps[at.app].kernels[at.kernel];
            if k.completed_at.is_none() {
                k.completed_at = Some(now);
            }
        }
    }

    fn screen_mut(&mut self, at: ScreenRef) -> &mut ScreenNode {
        self.apps
            .get_mut(at.app)
            .and_then(|a| a.kernels.get_mut(at.kernel))
            .and_then(|k| k.microblocks.get_mut(at.microblock))
            .and_then(|m| m.screens.get_mut(at.screen))
            .unwrap_or_else(|| panic!("invalid screen reference {at:?}"))
    }

    /// Completion time of a kernel, if it has finished.
    pub fn kernel_completion(&self, app: usize, kernel: usize) -> Option<SimTime> {
        self.apps.get(app)?.kernels.get(kernel)?.completed_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AppId, ApplicationBuilder, DataSection};
    use fa_platform::lwp::InstructionMix;

    fn two_apps() -> Vec<Application> {
        let mix = InstructionMix::new(10_000, 0.4, 0.1);
        let ds = DataSection {
            flash_base: 0,
            input_bytes: 4096,
            output_bytes: 4096,
        };
        let a0 = ApplicationBuilder::new("A0")
            .kernel("A0-k0", ds, &[(2, mix, 4096, 0), (1, mix, 0, 4096)])
            .kernel("A0-k1", ds, &[(1, mix, 4096, 4096)])
            .build(AppId(0));
        let a1 = ApplicationBuilder::new("A1")
            .kernel("A1-k0", ds, &[(3, mix, 4096, 4096)])
            .build(AppId(1));
        vec![a0, a1]
    }

    #[test]
    fn initial_ready_set_is_first_microblocks_only() {
        let chain = ExecutionChain::new(&two_apps());
        assert_eq!(chain.total_screens(), 2 + 1 + 1 + 3);
        let ready = chain.ready_screens();
        // k0 of app0 exposes 2 screens, k1 of app0 one, k0 of app1 three;
        // the second microblock of app0-k0 is not yet eligible.
        assert_eq!(ready.len(), 6);
        assert_eq!(ready.len(), chain.ready_count());
        assert!(ready.iter().all(|r| r.microblock == 0));
        assert_eq!(chain.first_ready(), Some(ready[0]));
    }

    #[test]
    fn second_microblock_becomes_ready_after_first_completes() {
        let mut chain = ExecutionChain::new(&two_apps());
        let first: Vec<ScreenRef> = chain.ready_screens_of_kernel(0, 0).into_iter().collect();
        assert_eq!(first.len(), 2);
        assert!(!chain.microblock_eligible(0, 0, 1));
        for (i, r) in first.iter().enumerate() {
            chain.mark_running(*r, i);
        }
        chain.mark_done(first[0], SimTime::from_us(5));
        assert!(!chain.microblock_eligible(0, 0, 1));
        chain.mark_done(first[1], SimTime::from_us(7));
        assert!(chain.microblock_eligible(0, 0, 1));
        let ready = chain.ready_screens_of_kernel(0, 0);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].microblock, 1);
        assert_eq!(chain.next_ready_of_kernel(0, 0), Some(ready[0]));
    }

    #[test]
    fn kernel_and_app_completion_propagate() {
        let mut chain = ExecutionChain::new(&two_apps());
        // Drive everything to completion in ready order.
        let mut t = 0u64;
        while !chain.is_complete() {
            let ready = chain.ready_screens();
            assert!(!ready.is_empty(), "livelock: nothing ready");
            for r in ready {
                chain.mark_running(r, 0);
                t += 10;
                chain.mark_done(r, SimTime::from_us(t));
            }
        }
        // Each kernel completes with its last screen: app 0's first kernel
        // waits for its second microblock (the seventh screen done), after
        // its second kernel and app 1's kernel have finished.
        assert_eq!(chain.kernel_completion(0, 0), Some(SimTime::from_us(70)));
        assert_eq!(chain.kernel_completion(0, 1), Some(SimTime::from_us(30)));
        assert_eq!(chain.kernel_completion(1, 0), Some(SimTime::from_us(60)));
        assert_eq!(chain.kernel_completion(1, 1), None);
        assert_eq!(chain.completed_screens(), chain.total_screens());
        // Everything drained: no ready screens, no incomplete microblocks.
        assert_eq!(chain.ready_count(), 0);
        assert_eq!(chain.earliest_incomplete_microblock(), None);
        assert_eq!(chain.kernel_screens_remaining(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "dispatched twice")]
    fn double_dispatch_panics() {
        let mut chain = ExecutionChain::new(&two_apps());
        let r = chain.ready_screens()[0];
        chain.mark_running(r, 0);
        chain.mark_running(r, 1);
    }

    #[test]
    #[should_panic(expected = "violates microblock ordering")]
    fn scheduling_ineligible_microblock_panics() {
        let mut chain = ExecutionChain::new(&two_apps());
        chain.mark_running(
            ScreenRef {
                app: 0,
                kernel: 0,
                microblock: 1,
                screen: 0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "completed without running")]
    fn completing_pending_screen_panics() {
        let mut chain = ExecutionChain::new(&two_apps());
        let r = chain.ready_screens()[0];
        chain.mark_done(r, SimTime::ZERO);
    }

    #[test]
    fn running_screens_reports_assignments() {
        let mut chain = ExecutionChain::new(&two_apps());
        let ready = chain.ready_screens();
        chain.mark_running(ready[0], 3);
        chain.mark_running(ready[1], 5);
        assert_eq!(chain.state(ready[0]), Some(ScreenState::Running { lwp: 3 }));
        assert_eq!(chain.state(ready[1]), Some(ScreenState::Running { lwp: 5 }));
        assert_eq!(chain.state(ready[2]), Some(ScreenState::Pending));
        assert_eq!(chain.ready_count(), ready.len() - 2);
    }

    #[test]
    fn empty_microblock_cascades_eligibility_without_unlocking_early() {
        // A degenerate screenless microblock between two real ones (only
        // constructible by hand — the builder clamps screen counts to ≥ 1)
        // must behave as pure pass-through: the third microblock becomes
        // eligible when the *first* completes, not immediately.
        let mix = InstructionMix::new(10_000, 0.4, 0.1);
        let ds = DataSection {
            flash_base: 0,
            input_bytes: 4096,
            output_bytes: 0,
        };
        let mut app = ApplicationBuilder::new("E")
            .kernel(
                "E-k0",
                ds,
                &[(2, mix, 4096, 0), (1, mix, 0, 0), (2, mix, 0, 0)],
            )
            .build(AppId(0));
        app.kernels[0].microblocks[1].screens.clear();
        let mut chain = ExecutionChain::new(&[app]);
        assert_eq!(chain.total_screens(), 4);
        // While the first microblock is incomplete the third is locked,
        // in both the eligibility check and the frontier.
        assert!(!chain.microblock_eligible(0, 0, 2));
        let ready = chain.ready_screens();
        assert_eq!(ready.len(), 2);
        assert!(ready.iter().all(|r| r.microblock == 0));
        // Completing the first microblock cascades through the empty one.
        for r in ready {
            chain.mark_running(r, 0);
            chain.mark_done(r, SimTime::from_us(1));
        }
        assert!(chain.microblock_eligible(0, 0, 2));
        let ready = chain.ready_screens();
        assert_eq!(ready.len(), 2);
        assert!(ready.iter().all(|r| r.microblock == 2));
        for r in ready {
            chain.mark_running(r, 0);
            chain.mark_done(r, SimTime::from_us(2));
        }
        assert!(chain.is_complete());
        assert!(chain.kernel_completion(0, 0).is_some());
    }

    #[test]
    fn frontier_range_lookups_match_the_materialized_sets() {
        let mut chain = ExecutionChain::new(&two_apps());
        // Interleave dispatches across kernels and check every scoped
        // accessor against the materialized frontier at each step.
        loop {
            let ready = chain.ready_screens();
            assert_eq!(ready, chain.frontier().collect::<Vec<_>>());
            assert_eq!(chain.first_ready(), ready.first().copied());
            for ai in 0..2 {
                for ki in 0..2 {
                    let scoped: Vec<ScreenRef> = ready
                        .iter()
                        .copied()
                        .filter(|r| r.app == ai && r.kernel == ki)
                        .collect();
                    assert_eq!(chain.ready_screens_of_kernel(ai, ki), scoped);
                    assert_eq!(chain.next_ready_of_kernel(ai, ki), scoped.first().copied());
                }
            }
            if let Some((ai, ki, mi)) = chain.earliest_incomplete_microblock() {
                let head = chain.next_ready_of_microblock(ai, ki, mi);
                assert_eq!(
                    head,
                    ready
                        .iter()
                        .copied()
                        .find(|r| r.app == ai && r.kernel == ki && r.microblock == mi)
                );
            }
            let Some(r) = chain.first_ready() else { break };
            chain.mark_running(r, 0);
            chain.mark_done(r, SimTime::from_us(1));
        }
        assert!(chain.is_complete());
    }
}
