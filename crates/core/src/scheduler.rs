//! Multi-kernel scheduling policies.
//!
//! FlashAbacus governs kernel execution internally with two families of
//! schedulers (§4.1, §4.2):
//!
//! * **Inter-kernel** schedulers treat a whole kernel as the unit of work.
//!   The *static* variant pins every kernel of an application to the LWP
//!   selected by the application number; the *dynamic* variant hands each
//!   kernel to any free LWP in round-robin order.
//! * **Intra-kernel** schedulers split kernels into microblocks and
//!   screens. The *in-order* variant executes microblocks strictly in
//!   order, fanning the current microblock's screens across the worker
//!   LWPs. The *out-of-order* variant may additionally borrow ready
//!   screens from other microblocks, kernels, and applications whenever
//!   LWPs would otherwise idle, subject only to the dependency rule
//!   enforced by the multi-app execution chain.

use fa_kernel::chain::{ExecutionChain, ScreenRef};
use fa_kernel::model::Application;
use serde::{Deserialize, Serialize};

/// The four scheduling policies evaluated in the paper, plus identifiers
/// used throughout the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Static inter-kernel scheduling (`InterSt`).
    InterSt,
    /// Dynamic inter-kernel scheduling (`InterDy`).
    InterDy,
    /// In-order intra-kernel scheduling (`IntraIo`).
    IntraIo,
    /// Out-of-order intra-kernel scheduling (`IntraO3`).
    IntraO3,
}

impl SchedulerPolicy {
    /// All policies in the order the paper's figures list them.
    pub fn all() -> [SchedulerPolicy; 4] {
        [
            SchedulerPolicy::InterSt,
            SchedulerPolicy::InterDy,
            SchedulerPolicy::IntraIo,
            SchedulerPolicy::IntraO3,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerPolicy::InterSt => "InterSt",
            SchedulerPolicy::InterDy => "InterDy",
            SchedulerPolicy::IntraIo => "IntraIo",
            SchedulerPolicy::IntraO3 => "IntraO3",
        }
    }

    /// True for the policies that schedule whole kernels onto single LWPs.
    fn is_inter_kernel(self) -> bool {
        matches!(self, SchedulerPolicy::InterSt | SchedulerPolicy::InterDy)
    }

    /// True for the policies that split kernels into screens.
    pub fn is_intra_kernel(self) -> bool {
        !self.is_inter_kernel()
    }
}

/// A whole-kernel unit of work used by the inter-kernel policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KernelRef {
    /// Application index in the offload batch.
    pub app: usize,
    /// Kernel index within the application.
    pub kernel: usize,
}

/// Enumerates every kernel of a batch in offload order.
pub(crate) fn all_kernels(apps: &[Application]) -> Vec<KernelRef> {
    apps.iter()
        .enumerate()
        .flat_map(|(ai, a)| {
            (0..a.kernels.len()).map(move |ki| KernelRef {
                app: ai,
                kernel: ki,
            })
        })
        .collect()
}

/// For the static inter-kernel policy: the worker an application's kernels
/// are pinned to (the application number modulo the worker count, §4.1).
pub(crate) fn static_assignment(app_index: usize, workers: usize) -> usize {
    app_index % workers.max(1)
}

/// The next screen an intra-kernel policy would dispatch, without
/// materializing the whole ready set.
///
/// * `IntraIo` restricts dispatch to the earliest incomplete microblock of
///   the earliest incomplete kernel (strict program order); LWPs beyond
///   that microblock's screen count idle, which is exactly the serial-
///   microblock limitation the paper calls out.
/// * `IntraO3` may dispatch any ready screen in the chain.
///
/// Both answers come straight off the chain's incrementally maintained
/// frontier, so the per-dispatch decision is O(log S) rather than a batch
/// rescan.
///
/// # Panics
///
/// Panics if called with an inter-kernel policy.
pub fn intra_next_ready(policy: SchedulerPolicy, chain: &ExecutionChain) -> Option<ScreenRef> {
    match policy {
        SchedulerPolicy::IntraIo => {
            // Strict program order: only the globally earliest *incomplete*
            // microblock may contribute screens. While a serial microblock
            // is still executing, every other LWP idles — exactly the
            // limitation the paper attributes to in-order scheduling.
            let (app, kernel, microblock) = chain.earliest_incomplete_microblock()?;
            chain.next_ready_of_microblock(app, kernel, microblock)
        }
        SchedulerPolicy::IntraO3 => chain.first_ready(),
        other => panic!("{} is not an intra-kernel policy", other.label()),
    }
}

/// Selects the screens an intra-kernel policy may dispatch right now, as a
/// materialized list. Kept for tests, ablations, and oracles; the dispatch
/// loop itself uses [`intra_next_ready`], which never builds the list.
///
/// # Panics
///
/// Panics if called with an inter-kernel policy.
pub fn intra_ready_screens(policy: SchedulerPolicy, chain: &ExecutionChain) -> Vec<ScreenRef> {
    match policy {
        SchedulerPolicy::IntraIo => match chain.earliest_incomplete_microblock() {
            Some((app, kernel, microblock)) => chain
                .ready_screens_of_kernel(app, kernel)
                .into_iter()
                .filter(|r| r.microblock == microblock)
                .collect(),
            None => Vec::new(),
        },
        SchedulerPolicy::IntraO3 => chain.ready_screens(),
        other => panic!("{} is not an intra-kernel policy", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_kernel::model::{AppId, ApplicationBuilder, DataSection};
    use fa_platform::lwp::InstructionMix;
    use fa_sim::time::SimTime;

    fn apps() -> Vec<Application> {
        let mix = InstructionMix::new(10_000, 0.4, 0.1);
        let ds = DataSection {
            flash_base: 0,
            input_bytes: 4096,
            output_bytes: 0,
        };
        let a = ApplicationBuilder::new("A")
            .kernel("A-k0", ds, &[(1, mix, 4096, 0), (4, mix, 0, 0)])
            .build(AppId(0));
        let b = ApplicationBuilder::new("B")
            .kernel("B-k0", ds, &[(2, mix, 4096, 0)])
            .build(AppId(1));
        vec![a, b]
    }

    #[test]
    fn labels_and_classification() {
        assert_eq!(SchedulerPolicy::all().len(), 4);
        assert!(SchedulerPolicy::InterSt.is_inter_kernel());
        assert!(SchedulerPolicy::InterDy.is_inter_kernel());
        assert!(SchedulerPolicy::IntraIo.is_intra_kernel());
        assert!(SchedulerPolicy::IntraO3.is_intra_kernel());
        assert_eq!(SchedulerPolicy::IntraO3.label(), "IntraO3");
    }

    #[test]
    fn all_kernels_enumerates_in_offload_order() {
        let ks = all_kernels(&apps());
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0], KernelRef { app: 0, kernel: 0 });
        assert_eq!(ks[1], KernelRef { app: 1, kernel: 0 });
    }

    #[test]
    fn static_assignment_wraps_around_workers() {
        assert_eq!(static_assignment(0, 6), 0);
        assert_eq!(static_assignment(5, 6), 5);
        assert_eq!(static_assignment(6, 6), 0);
        assert_eq!(static_assignment(3, 0), 0);
    }

    #[test]
    fn inorder_policy_exposes_only_the_head_microblock() {
        let apps = apps();
        let chain = ExecutionChain::new(&apps);
        let io = intra_ready_screens(SchedulerPolicy::IntraIo, &chain);
        // Head is app 0 / kernel 0 / microblock 0, which is serial.
        assert_eq!(io.len(), 1);
        assert_eq!(io[0].app, 0);
        assert_eq!(io[0].microblock, 0);
        let o3 = intra_ready_screens(SchedulerPolicy::IntraO3, &chain);
        // Out-of-order also sees app 1's screens.
        assert_eq!(o3.len(), 3);
    }

    #[test]
    fn o3_borrows_across_kernels_when_head_is_serial() {
        let apps = apps();
        let mut chain = ExecutionChain::new(&apps);
        // Start the serial head screen; in-order now has nothing to offer,
        // out-of-order still exposes app 1's microblock.
        let head = chain.ready_screens_of_kernel(0, 0)[0];
        chain.mark_running(head, 0);
        assert!(intra_ready_screens(SchedulerPolicy::IntraIo, &chain)
            .iter()
            .all(|r| r.app == 1));
        assert_eq!(
            intra_ready_screens(SchedulerPolicy::IntraO3, &chain).len(),
            2
        );
        chain.mark_done(head, SimTime::from_us(1));
        let io = intra_ready_screens(SchedulerPolicy::IntraIo, &chain);
        assert!(io.iter().all(|r| r.app == 0 && r.microblock == 1));
    }

    #[test]
    #[should_panic(expected = "not an intra-kernel policy")]
    fn inter_policy_rejected_by_intra_helper() {
        let chain = ExecutionChain::new(&apps());
        intra_ready_screens(SchedulerPolicy::InterDy, &chain);
    }

    #[test]
    fn intra_next_ready_is_the_head_of_the_materialized_list() {
        let apps = apps();
        let mut chain = ExecutionChain::new(&apps);
        // Walk the whole batch to completion, checking the frontier-based
        // single-screen answer against the materialized list at each step.
        loop {
            for policy in [SchedulerPolicy::IntraIo, SchedulerPolicy::IntraO3] {
                assert_eq!(
                    intra_next_ready(policy, &chain),
                    intra_ready_screens(policy, &chain).first().copied(),
                    "{policy:?}"
                );
            }
            let Some(r) = intra_next_ready(SchedulerPolicy::IntraO3, &chain) else {
                break;
            };
            chain.mark_running(r, 0);
            chain.mark_done(r, SimTime::from_us(1));
        }
        assert!(chain.is_complete());
    }
}
