//! Flash backbone simulator.
//!
//! The paper's prototype attaches a *flash backbone* — four NV-DDR2
//! channels, each with four TLC packages (two dies per package) behind an
//! FPGA channel controller — to the accelerator's tier-2 network through
//! four SRIO lanes. This crate reproduces that storage complex as a
//! timing-accurate model:
//!
//! * [`geometry`] — channel/package/die/plane/block/page topology,
//!   physical addressing, and the one definition of block rows, lanes and
//!   page groups.
//! * [`timing`] — ONFi-style operation latencies (the paper reports 81 µs
//!   page reads and 2.6 ms page programs for 8 KB pages).
//! * [`die`] — per-die state machine: page program/erase state, erase
//!   counts, busy windows.
//! * [`controller`] — per-channel FPGA controller with inbound/outbound tag
//!   queues and the shared NV-DDR2 channel bus.
//! * [`backbone`] — the whole storage complex with the SRIO front-end; this
//!   is the unit Flashvisor and Storengine talk to.
//! * [`validindex`] — incremental backbone-wide valid-page accounting,
//!   bucketed by valid count, driving O(1)–O(log n) GC victim selection,
//!   plus the page-group accounting complete group reclamation needs.
//! * [`owner`] — owner identity ([`OwnerId`]) threaded from the
//!   translation layer down to the channel tag queues, per-owner QoS
//!   budgets, and per-owner statistics.
//! * [`fault`] — the injectable, deterministic fault model: seedable
//!   program/erase failures, scripted per-block faults, read-disturb, and
//!   the power-loss tick, decided by channel-local hashes so fault traces
//!   reproduce however channels interleave.
//! * [`spec`] — the Table 1 default configuration.
//!
//! The model tracks *page state*, not page contents: what matters for the
//! evaluation is when operations complete, how channels and dies contend,
//! and how much work garbage collection must move.

pub mod backbone;
pub mod controller;
pub mod die;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod owner;
pub mod spec;
pub mod timing;
pub mod validindex;

pub use backbone::{BackboneStats, FlashBackbone, FlashCommand, FlashCompletion, FlashOp};
pub use controller::ChannelController;
pub use die::{BlockCounts, FlashDie, PageState};
pub use error::FlashError;
pub use fault::{FaultOp, FaultPlan, FaultState, FaultStats, ScriptedFault};
pub use geometry::{FlashGeometry, GroupLayout, PhysicalPageAddr};
pub use owner::{OwnerId, OwnerStats, QosBudgets, ReadTail};
pub use spec::backbone_spec_table1;
pub use timing::FlashTiming;
pub use validindex::ValidPageIndex;
