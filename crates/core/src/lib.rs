//! FlashAbacus: a self-governing flash-based accelerator.
//!
//! This crate is the paper's primary contribution: the software that lets a
//! low-power multicore accelerator with an integrated flash backbone govern
//! both kernel execution and storage access by itself, with no host OS,
//! file system, or I/O runtime in the loop.
//!
//! * [`rangelock`] — the readers/writer range lock Flashvisor uses to
//!   protect flash-mapped data sections from conflicting kernels (§4.3).
//! * [`flashvisor`] — flash virtualization: the page-group mapping table
//!   held in scratchpad, logical→physical translation, data-section reads
//!   and writes against the flash backbone, and access control.
//! * [`freespace`] — incremental free-space management: the O(1)-pop
//!   free-group structure, one state per page group, and the placement
//!   policies Flashvisor allocates through.
//! * [`storengine`] — the storage-management LWP: metadata journaling,
//!   round-robin block reclamation (garbage collection), valid-page
//!   migration, and wear accounting, all off the critical path (§4.3).
//! * [`scheduler`] — the four multi-kernel scheduling policies: static and
//!   dynamic inter-kernel, in-order and out-of-order intra-kernel (§4.1,
//!   §4.2).
//! * [`system`] — the full-device simulation driver: kernel offload over
//!   PCIe, the PSC boot protocol, scheduling, data staging through
//!   Flashvisor, energy accounting, and metric extraction.
//! * [`openloop`] — open-loop multi-tenant traffic: seeded arrivals
//!   (`FA_ARRIVALS`), admission control with queueing and shedding, and
//!   the online QoS governor that retunes per-tenant flash tag budgets
//!   from a sliding window over the owner statistics.
//! * [`metrics`] — the result types every experiment and figure consumes.
//! * [`config`] — configuration of the whole accelerator.
//!
//! # Quick start
//!
//! ```
//! use flashabacus::config::FlashAbacusConfig;
//! use flashabacus::scheduler::SchedulerPolicy;
//! use flashabacus::system::FlashAbacusSystem;
//! use fa_kernel::instance::{instantiate_many, InstancePlan};
//! use fa_kernel::latency::throughput_mb_s;
//! use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};
//!
//! // Build a small synthetic workload: two instances of a parallel kernel.
//! let template = synthetic_app("demo", &SyntheticSpec {
//!     instructions: 2_000_000,
//!     input_bytes: 2 << 20,
//!     output_bytes: 256 << 10,
//!     ..Default::default()
//! });
//! let apps = instantiate_many(&[template], &InstancePlan {
//!     instances_per_app: 2,
//!     ..Default::default()
//! });
//!
//! // Run it on the out-of-order intra-kernel scheduler.
//! let config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
//! let mut system = FlashAbacusSystem::new(config);
//! let outcome = system.run(&apps).expect("workload runs to completion");
//! assert_eq!(outcome.kernel_latencies.len(), 2);
//! assert!(throughput_mb_s(outcome.bytes_processed, outcome.finished_at) > 0.0);
//! ```

pub mod config;
pub mod error;
pub mod flashvisor;
pub mod freespace;
pub mod metrics;
pub mod openloop;
pub mod rangelock;
pub mod scheduler;
pub mod storengine;
pub mod system;

pub use config::{FlashAbacusConfig, GovernorConfig, QosConfig, ScaleoutConfig};
pub use error::FaError;
pub use flashvisor::Flashvisor;
pub use freespace::{FreeSpaceManager, PlacementPolicy};
pub use metrics::{OwnerFlashStats, RunOutcome};
pub use openloop::{
    AdmissionController, AdmissionDecision, AdmissionRecord, OpenLoopReport, QosGovernor,
    TenantOutcome,
};
pub use rangelock::{LockMode, RangeLockTable};
pub use scheduler::SchedulerPolicy;
pub use storengine::{GcPlan, GcVictimPolicy, Storengine};
pub use system::FlashAbacusSystem;
