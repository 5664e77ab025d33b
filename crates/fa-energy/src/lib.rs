//! Component power specifications and activity-based energy accounting.
//!
//! The paper's energy evaluation (Figures 3e, 13, 15b, 16b) decomposes
//! system energy into three parts: *data movement* (host CPU and DRAM work
//! spent shuttling data between the SSD and the accelerator), *computation*
//! (the accelerator actually processing data), and *storage access* (the
//! I/O stack and the storage device serving requests). This crate provides:
//!
//! * [`power`] — per-component power figures assembled from Table 1 and the
//!   host platform description (§5).
//! * [`accountant`] — the run recorder both systems share: an activity log
//!   that integrates power over busy intervals and keeps the LWPs' compute
//!   intervals, summarised as an [`EnergySummary`] (the three-way
//!   breakdown with idle power folded by component role, and the
//!   functional-unit and power timelines of Figure 15).

pub mod accountant;
pub mod power;

pub use accountant::{ActivityCategory, EnergyAccountant, EnergyBreakdown, EnergySummary};
pub use power::{Component, PowerSpec};
