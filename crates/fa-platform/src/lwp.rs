//! Lightweight processor (LWP) model.
//!
//! Each LWP is a VLIW core with eight functional units: two multipliers,
//! four general-purpose units, and two load/store units (§2.2). The VLIW
//! design relies on the compiler for scheduling, so a simple static issue
//! model is faithful: the cycle count of a code region is determined by the
//! most contended functional-unit class plus memory stalls that the caches
//! cannot hide.
//!
//! The module also charges the power/sleep controller (PSC) protocol that
//! Flashvisor uses to boot a kernel on a worker LWP (§4 "Execution"): the
//! target LWP is put to sleep, its boot-address register is written, an
//! inter-process interrupt forces the jump, and the LWP is woken again.
//! Only the sequence's cycles reach a result, so only they are modelled.

use crate::spec::PlatformSpec;
use fa_sim::resource::{FifoServer, Reservation};
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Static parameters of one LWP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LwpSpec {
    /// Clock frequency in Hz.
    pub freq_hz: u64,
    /// Number of multiplier functional units.
    pub mul_fus: usize,
    /// Number of general-purpose (ALU) functional units.
    pub alu_fus: usize,
    /// Number of load/store functional units.
    pub ldst_fus: usize,
    /// Fraction of load/store instructions that miss the private caches and
    /// pay a DDR3L access.
    pub cache_miss_ratio: f64,
    /// Average DDR3L access penalty for a cache miss, in core cycles.
    pub miss_penalty_cycles: f64,
    /// Cycles needed by the PSC sleep → boot-register write → wake sequence.
    pub boot_cycles: u64,
}

impl LwpSpec {
    /// LWP parameters matching the prototype platform.
    pub fn from_platform(spec: &PlatformSpec) -> Self {
        LwpSpec {
            freq_hz: spec.lwp_freq_hz,
            mul_fus: 2,
            alu_fus: 4,
            ldst_fus: 2,
            // Data sections are staged into DDR3L and streamed through the
            // L1/L2 ahead of use, so only a small share of accesses pays a
            // DRAM round trip.
            cache_miss_ratio: 0.01,
            miss_penalty_cycles: 20.0,
            boot_cycles: 5_000,
        }
    }

    /// Total functional units per LWP.
    fn total_fus(&self) -> usize {
        self.mul_fus + self.alu_fus + self.ldst_fus
    }

    /// Duration of `cycles` clock cycles.
    fn cycles_to_duration(&self, cycles: f64) -> SimDuration {
        SimDuration::from_ns_f64(cycles * 1.0e9 / self.freq_hz as f64)
    }
}

impl Default for LwpSpec {
    fn default() -> Self {
        LwpSpec::from_platform(&PlatformSpec::paper_prototype())
    }
}

/// The instruction mix of a code region (a screen or a serial microblock).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// Total instructions in the region.
    pub instructions: u64,
    /// Fraction of instructions that are loads or stores (Table 2's "LD/ST
    /// ratio").
    pub ldst_ratio: f64,
    /// Fraction of instructions that need a multiplier FU.
    pub mul_ratio: f64,
}

impl InstructionMix {
    /// Creates a mix, clamping the ratios into `[0, 1]` and ensuring their
    /// sum does not exceed 1.
    pub fn new(instructions: u64, ldst_ratio: f64, mul_ratio: f64) -> Self {
        let ldst = ldst_ratio.clamp(0.0, 1.0);
        let mul = mul_ratio.clamp(0.0, 1.0 - ldst);
        InstructionMix {
            instructions,
            ldst_ratio: ldst,
            mul_ratio: mul,
        }
    }

    /// Number of load/store instructions.
    fn ldst_instructions(&self) -> u64 {
        (self.instructions as f64 * self.ldst_ratio).round() as u64
    }

    /// Number of multiply instructions.
    fn mul_instructions(&self) -> u64 {
        (self.instructions as f64 * self.mul_ratio).round() as u64
    }

    /// Number of plain ALU instructions.
    fn alu_instructions(&self) -> u64 {
        self.instructions
            .saturating_sub(self.ldst_instructions())
            .saturating_sub(self.mul_instructions())
    }

    /// Splits the mix into `parts` equal slices (screen partitioning).
    pub fn split(&self, parts: usize) -> InstructionMix {
        let parts = parts.max(1) as u64;
        InstructionMix {
            instructions: self.instructions.div_ceil(parts),
            ldst_ratio: self.ldst_ratio,
            mul_ratio: self.mul_ratio,
        }
    }
}

/// Per-functional-unit-class busy cycles of an execution estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FuOccupancy {
    /// Busy cycles accumulated across the multiplier FUs.
    pub mul_cycles: f64,
    /// Busy cycles accumulated across the general-purpose FUs.
    pub alu_cycles: f64,
    /// Busy cycles accumulated across the load/store FUs.
    pub ldst_cycles: f64,
}

impl FuOccupancy {
    /// Average number of busy functional units over `total_cycles`, given
    /// the FU counts of `spec`. Bounded by the eight units per LWP.
    pub fn mean_busy_fus(&self, spec: &LwpSpec, total_cycles: f64) -> f64 {
        if total_cycles <= 0.0 {
            return 0.0;
        }
        let busy = self.mul_cycles + self.alu_cycles + self.ldst_cycles;
        (busy / total_cycles).min(spec.total_fus() as f64)
    }
}

/// Outcome of the issue model for one code region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionEstimate {
    /// Total core cycles, including memory stalls.
    pub cycles: f64,
    /// Wall-clock duration at the LWP frequency.
    pub duration: SimDuration,
    /// Busy cycles by functional-unit class.
    pub occupancy: FuOccupancy,
    /// Bytes the region reads or writes through the load/store units.
    pub bytes_touched: u64,
}

/// One lightweight processor instance.
#[derive(Debug, Clone)]
pub struct LwpCore {
    spec: LwpSpec,
    run_queue: FifoServer,
}

impl LwpCore {
    /// Creates an idle LWP.
    pub fn new(spec: LwpSpec) -> Self {
        LwpCore {
            spec,
            run_queue: FifoServer::new(),
        }
    }

    /// Static parameters.
    pub fn spec(&self) -> &LwpSpec {
        &self.spec
    }

    /// Estimates the execution of an instruction mix on this LWP's VLIW
    /// pipeline: the bound is the most contended FU class, plus memory
    /// stalls for load/stores that miss the private caches.
    pub fn estimate(&self, mix: &InstructionMix, bytes_touched: u64) -> ExecutionEstimate {
        Self::estimate_with(&self.spec, mix, bytes_touched)
    }

    /// Issue-model estimate for an arbitrary [`LwpSpec`] (usable without a
    /// core instance, e.g. by schedulers planning ahead).
    fn estimate_with(
        spec: &LwpSpec,
        mix: &InstructionMix,
        bytes_touched: u64,
    ) -> ExecutionEstimate {
        let mul = mix.mul_instructions() as f64;
        let alu = mix.alu_instructions() as f64;
        let ldst = mix.ldst_instructions() as f64;
        let issue_cycles = (mul / spec.mul_fus as f64)
            .max(alu / spec.alu_fus as f64)
            .max(ldst / spec.ldst_fus as f64)
            .max(mix.instructions as f64 / spec.total_fus() as f64);
        let stall_cycles = ldst * spec.cache_miss_ratio * spec.miss_penalty_cycles;
        let cycles = issue_cycles + stall_cycles;
        ExecutionEstimate {
            cycles,
            duration: spec.cycles_to_duration(cycles),
            occupancy: FuOccupancy {
                mul_cycles: mul,
                alu_cycles: alu,
                ldst_cycles: ldst,
            },
            bytes_touched,
        }
    }

    /// Runs the PSC boot sequence: sleep, write the boot-address register,
    /// raise the inter-processor interrupt, wake. Returns when the LWP is
    /// ready to fetch the kernel, `boot_cycles` after `now`.
    pub fn boot_kernel(&self, now: SimTime) -> SimTime {
        now + self.spec.cycles_to_duration(self.spec.boot_cycles as f64)
    }

    /// Earliest instant at which new work could start on this LWP.
    pub fn next_free(&self) -> SimTime {
        self.run_queue.next_free()
    }

    /// Enqueues a code region for execution, returning its service window.
    /// Regions queue FIFO behind whatever the LWP is already running.
    pub fn execute(&mut self, now: SimTime, estimate: &ExecutionEstimate) -> Reservation {
        self.run_queue.serve(now, estimate.duration)
    }

    /// Busy fraction over the window ending at `now` (Figure 14's metric).
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.run_queue.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LwpSpec {
        LwpSpec::default()
    }

    #[test]
    fn fu_counts_match_paper() {
        let s = spec();
        assert_eq!(s.mul_fus, 2);
        assert_eq!(s.alu_fus, 4);
        assert_eq!(s.ldst_fus, 2);
        assert_eq!(s.total_fus(), 8);
    }

    #[test]
    fn ldst_heavy_mixes_are_bound_by_ldst_units() {
        let s = spec();
        let balanced = InstructionMix::new(10_000, 0.10, 0.10);
        let ldst_heavy = InstructionMix::new(10_000, 0.60, 0.10);
        let a = LwpCore::estimate_with(&s, &balanced, 0);
        let b = LwpCore::estimate_with(&s, &ldst_heavy, 0);
        assert!(b.cycles > a.cycles, "{} vs {}", b.cycles, a.cycles);
    }

    #[test]
    fn estimate_scales_linearly_with_instructions() {
        let s = spec();
        let small = LwpCore::estimate_with(&s, &InstructionMix::new(1_000, 0.3, 0.1), 0);
        let large = LwpCore::estimate_with(&s, &InstructionMix::new(10_000, 0.3, 0.1), 0);
        let ratio = large.cycles / small.cycles;
        assert!((ratio - 10.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn mix_split_partitions_instructions() {
        let mix = InstructionMix::new(1_000, 0.4, 0.2);
        let part = mix.split(4);
        assert_eq!(part.instructions, 250);
        assert_eq!(part.ldst_ratio, mix.ldst_ratio);
        let whole = mix.split(0);
        assert_eq!(whole.instructions, 1_000);
    }

    #[test]
    fn mix_ratios_are_clamped() {
        let mix = InstructionMix::new(100, 0.8, 0.6);
        assert!(mix.ldst_ratio + mix.mul_ratio <= 1.0 + 1e-12);
        assert_eq!(
            mix.ldst_instructions() + mix.mul_instructions() + mix.alu_instructions(),
            100
        );
    }

    #[test]
    fn execution_serializes_on_the_core() {
        let mut core = LwpCore::new(spec());
        let est = core.estimate(&InstructionMix::new(8_000, 0.3, 0.1), 4096);
        let a = core.execute(SimTime::ZERO, &est);
        let b = core.execute(SimTime::ZERO, &est);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end, a.end + est.duration);
        assert!(core.utilization(b.end) > 0.99);
    }

    #[test]
    fn boot_protocol_takes_boot_cycles() {
        let core = LwpCore::new(spec());
        let ready = core.boot_kernel(SimTime::from_us(10));
        // 5 000 PSC cycles at 1 GHz.
        assert_eq!(ready, SimTime::from_us(15));
        // Booting does not occupy the run queue.
        assert_eq!(core.next_free(), SimTime::ZERO);
    }

    #[test]
    fn mean_busy_fus_is_bounded() {
        let s = spec();
        let est = LwpCore::estimate_with(&s, &InstructionMix::new(100_000, 0.4, 0.2), 0);
        let fus = est.occupancy.mean_busy_fus(&s, est.cycles);
        assert!(fus > 0.0 && fus <= 8.0, "fus = {fus}");
    }

    #[test]
    fn splitting_across_cores_shortens_each_share() {
        let s = spec();
        let mix = InstructionMix::new(400_000, 0.45, 0.1);
        let whole = LwpCore::estimate_with(&s, &mix, 0);
        let quarter = LwpCore::estimate_with(&s, &mix.split(4), 0);
        assert!(quarter.duration.as_ns() * 3 < whole.duration.as_ns());
    }
}
