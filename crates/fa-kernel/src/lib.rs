//! Multi-kernel execution model.
//!
//! FlashAbacus executes *applications*, each consisting of one or more
//! *kernels*. A kernel is an executable object described by a
//! kernel-description table (an ELF-like format, §4) and is internally
//! organised into *microblocks* — groups of code whose execution must be
//! serialized because of data dependencies — and, within a microblock,
//! *screens* — slices of the iteration space with no write-after-write or
//! read-after-write hazards, which may run on different LWPs in parallel
//! (§4.2).
//!
//! This crate defines that software model:
//!
//! * [`descriptor`] — the kernel description table with its ELF-like
//!   sections.
//! * [`model`] — applications, kernels, microblocks, screens, data
//!   sections, and builders for them.
//! * [`chain`] — the multi-app execution chain: the runtime dependency
//!   structure the schedulers consult to find ready screens and record
//!   progress (§4.2, Figure 8).
//! * [`instance`] — helpers to stamp out the multiple instances of each
//!   application that the evaluation executes.

pub mod chain;
pub mod descriptor;
pub mod instance;
pub mod model;

pub use chain::{ExecutionChain, ScreenRef, ScreenState};
pub use descriptor::{KernelDescriptionTable, Section, SectionKind};
pub use instance::{instantiate_many, InstancePlan};
pub use model::{
    AppId, Application, ApplicationBuilder, DataSection, Kernel, KernelId, Microblock, Screen,
};
