//! Low-power multicore platform model.
//!
//! The paper's compute complex is a commercially available embedded SoC:
//! eight VLIW lightweight processors (LWPs) at 1 GHz, each with eight
//! functional units and private L1/L2 caches, a 4 MB banked scratchpad, 1 GB
//! of DDR3L, a two-tier partial crossbar network, hardware message queues,
//! a PCIe 2.0 x2 host link, and the AMC/SRIO hop toward the flash backbone
//! (Table 1 and §2.2). This crate models each of those pieces:
//!
//! * [`spec`] — the Table 1 hardware specification as typed constants.
//! * [`lwp`] — the VLIW issue model, per-LWP run queue, and the cycles of
//!   the power/sleep controller protocol used to boot kernels.
//! * [`mem`] — DDR3L, the scratchpad handle, and the private-cache model.
//! * [`noc`] — the tier-1 crossbar, hardware message queues, and the PCIe
//!   link.

pub mod lwp;
pub mod mem;
pub mod noc;
pub mod spec;

pub use lwp::{ExecutionEstimate, FuOccupancy, InstructionMix, LwpCore, LwpSpec};
pub use mem::{CacheSpec, Ddr3l, MemorySystem, Scratchpad};
pub use noc::{Crossbar, MessageQueue, PcieLink};
pub use spec::PlatformSpec;
