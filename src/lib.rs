//! Umbrella crate for the FlashAbacus reproduction workspace.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); it simply re-exports the
//! member crates so examples can use one coherent namespace.
//!
//! The interesting code lives in the members:
//!
//! * [`flashabacus`] — the paper's contribution (Flashvisor, Storengine,
//!   the four multi-kernel schedulers, and the full-device simulation).
//! * [`fa_baseline`] — the conventional accelerator + discrete-SSD system
//!   the paper compares against.
//! * [`fa_flash`], [`fa_platform`], [`fa_kernel`], [`fa_energy`],
//!   [`fa_sim`] — the simulated substrates.
//! * [`fa_workloads`] — the PolyBench, mix, and graph/big-data workloads.

pub use fa_baseline;
pub use fa_energy;
pub use fa_flash;
pub use fa_kernel;
pub use fa_platform;
pub use fa_sim;
pub use fa_workloads;
pub use flashabacus;

/// Convenience re-exports used by the examples.
pub mod prelude {
    pub use fa_baseline::{BaselineConfig, ConventionalSystem};
    pub use fa_kernel::instance::{instantiate_many, InstancePlan};
    pub use fa_kernel::latency::{completion_cdf, latency_stats, throughput_mb_s};
    pub use fa_kernel::model::{AppId, Application, ApplicationBuilder, DataSection};
    pub use fa_platform::lwp::InstructionMix;
    pub use fa_workloads::bigdata::{bigdata_app, BigDataBench};
    pub use fa_workloads::polybench::{polybench_app, PolyBench};
    pub use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};
    pub use flashabacus::{FlashAbacusConfig, FlashAbacusSystem, RunOutcome, SchedulerPolicy};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        // Types are nameable and constructible.
        let _ = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        let _ = BaselineConfig::tiny_for_tests();
        let _ = InstancePlan::homogeneous();
    }
}
