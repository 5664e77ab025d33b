//! Experiment harness for the FlashAbacus reproduction.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! entry point here. The harness runs the five accelerated systems (`SIMD`,
//! `InterSt`, `InterDy`, `IntraIo`, `IntraO3`) over the paper's workloads,
//! collects a unified set of metrics per run, and renders the same rows and
//! series the paper reports.
//!
//! * [`runner`] — the unified "run workload X on system Y" entry point,
//!   workload builders, and the [`RunSpec`] every run takes its knobs from.
//! * [`report`] — plain-text table/series rendering shared by all binaries.
//! * [`experiments`] — one module per table/figure, each returning its
//!   formatted report (the `src/bin/*` binaries are thin wrappers).
//!
//! Absolute numbers will not match the paper — the hardware is replaced by
//! the simulator described in `docs/ARCHITECTURE.md`, and the lost Table 2
//! mix compositions by the regeneration its "Heterogeneous mix generator"
//! section describes — but the comparisons the paper
//! draws (who wins, by roughly what factor, where the crossovers are) are
//! expected to hold and are what `EXPERIMENTS.md` records.

pub mod experiments;
pub mod perf;
pub mod report;
pub mod runner;

pub use runner::{
    bigdata_workload, heterogeneous_workload, homogeneous_workload, run_on, run_pairs,
    ExperimentScale, RunSpec, SystemKind, UnifiedOutcome,
};
