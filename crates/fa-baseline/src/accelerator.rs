//! The OpenMP/SIMD execution model on the accelerator.
//!
//! The conventional system uses the same eight-LWP silicon as FlashAbacus,
//! but its runtime executes one kernel at a time: parallel regions are
//! split across the active LWPs in single-instruction-multiple-data
//! fashion, and serial regions run on one LWP while the rest idle. There is
//! no Flashvisor or Storengine, so all eight LWPs are available to the
//! OpenMP runtime.

use crate::config::BaselineConfig;
use fa_kernel::model::Kernel;
use fa_platform::lwp::{LwpCore, LwpSpec};
use fa_sim::time::{SimDuration, SimTime};

/// One executed region, reported for FU-utilization timelines.
#[derive(Debug, Clone, Copy)]
pub struct RegionExecution {
    /// When the region started.
    pub start: SimTime,
    /// When the region finished.
    pub end: SimTime,
    /// Mean number of busy functional units across the whole accelerator
    /// during the region.
    pub busy_fus: f64,
}

/// Result of executing one kernel's compute phases.
#[derive(Debug, Clone)]
pub struct KernelExecution {
    /// When the compute finished.
    pub end: SimTime,
    /// Accumulated LWP busy time (across all active LWPs).
    pub lwp_busy: SimDuration,
    /// Per-region records.
    pub regions: Vec<RegionExecution>,
}

/// The SIMD accelerator.
#[derive(Debug, Clone)]
pub struct SimdAccelerator {
    cores: Vec<LwpCore>,
    active: usize,
}

impl SimdAccelerator {
    /// Creates the accelerator with `config.active_lwps` usable cores.
    pub(crate) fn new(config: &BaselineConfig) -> Self {
        let spec = LwpSpec::from_platform(&config.platform);
        SimdAccelerator {
            cores: (0..config.platform.lwp_count)
                .map(|i| LwpCore::new(i, spec))
                .collect(),
            active: config.active_lwps.clamp(1, config.platform.lwp_count),
        }
    }

    /// Executes one kernel's microblocks starting at `now`, with all data
    /// already resident in the accelerator DRAM. Serial microblocks run on
    /// LWP 0; parallel microblocks are split evenly across the active LWPs.
    pub(crate) fn execute_kernel(&mut self, now: SimTime, kernel: &Kernel) -> KernelExecution {
        let mut cursor = now;
        let mut lwp_busy = SimDuration::ZERO;
        let mut regions = Vec::new();
        for mblock in &kernel.microblocks {
            if mblock.is_serial() {
                let screen = &mblock.screens[0];
                let est = self.cores[0].estimate(&screen.mix, screen.bytes_touched());
                let start = cursor.max(self.cores[0].next_free());
                let res = self.cores[0].execute(start, &est);
                lwp_busy += est.duration;
                let spec = *self.cores[0].spec();
                regions.push(RegionExecution {
                    start: res.start,
                    end: res.end,
                    busy_fus: est.occupancy.mean_busy_fus(&spec, est.cycles),
                });
                cursor = res.end;
            } else {
                // OpenMP-style static partitioning: the microblock's whole
                // iteration space is rebalanced across the active LWPs
                // regardless of how many screens the kernel declares.
                let total_instr: u64 = mblock.screens.iter().map(|s| s.mix.instructions).sum();
                let total_bytes: u64 = mblock.screens.iter().map(|s| s.bytes_touched()).sum();
                let proto = mblock.screens[0].mix;
                let per_lwp = fa_platform::lwp::InstructionMix::new(
                    total_instr.div_ceil(self.active as u64),
                    proto.ldst_ratio,
                    proto.mul_ratio,
                );
                let mut slowest = cursor;
                let mut busy_fus_total = 0.0;
                for lwp in 0..self.active {
                    let est = self.cores[lwp].estimate(&per_lwp, total_bytes / self.active as u64);
                    let start = cursor.max(self.cores[lwp].next_free());
                    let res = self.cores[lwp].execute(start, &est);
                    lwp_busy += est.duration;
                    let spec = *self.cores[lwp].spec();
                    busy_fus_total += est.occupancy.mean_busy_fus(&spec, est.cycles);
                    slowest = slowest.max(res.end);
                }
                regions.push(RegionExecution {
                    start: cursor,
                    end: slowest,
                    busy_fus: busy_fus_total,
                });
                cursor = slowest;
            }
        }
        KernelExecution {
            end: cursor,
            lwp_busy,
            regions,
        }
    }

    /// Mean utilization of the active LWPs up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if self.active == 0 {
            return 0.0;
        }
        self.cores[..self.active]
            .iter()
            .map(|c| c.utilization(now))
            .sum::<f64>()
            / self.active as f64
    }

    /// Per-LWP utilization (all eight, including inactive ones) up to `now`.
    pub(crate) fn per_lwp_utilization(&self, now: SimTime) -> Vec<f64> {
        self.cores.iter().map(|c| c.utilization(now)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_kernel::model::{AppId, ApplicationBuilder, DataSection};
    use fa_platform::lwp::InstructionMix;

    fn kernel(serial_first: bool) -> Kernel {
        let mix = InstructionMix::new(800_000, 0.35, 0.1);
        let ds = DataSection {
            flash_base: 0,
            input_bytes: 1 << 20,
            output_bytes: 1 << 17,
        };
        let blocks: Vec<(usize, InstructionMix, u64, u64)> = if serial_first {
            vec![(1, mix, 1 << 19, 0), (8, mix, 1 << 19, 1 << 17)]
        } else {
            vec![(8, mix, 1 << 20, 1 << 17)]
        };
        ApplicationBuilder::new("T")
            .kernel("T-k0", ds, &blocks)
            .build(AppId(0))
            .kernels
            .remove(0)
    }

    #[test]
    fn parallel_regions_scale_with_active_lwps() {
        let k = kernel(false);
        let mut one = SimdAccelerator::new(&BaselineConfig::paper_baseline().with_active_lwps(1));
        let mut eight = SimdAccelerator::new(&BaselineConfig::paper_baseline().with_active_lwps(8));
        let t1 = one.execute_kernel(SimTime::ZERO, &k).end;
        let t8 = eight.execute_kernel(SimTime::ZERO, &k).end;
        let speedup = t1.as_ns() as f64 / t8.as_ns() as f64;
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn serial_regions_limit_scaling() {
        let k = kernel(true);
        let mut one = SimdAccelerator::new(&BaselineConfig::paper_baseline().with_active_lwps(1));
        let mut eight = SimdAccelerator::new(&BaselineConfig::paper_baseline().with_active_lwps(8));
        let t1 = one.execute_kernel(SimTime::ZERO, &k).end;
        let t8 = eight.execute_kernel(SimTime::ZERO, &k).end;
        let speedup = t1.as_ns() as f64 / t8.as_ns() as f64;
        // Amdahl: with half the work serial the speedup is below 2 even on
        // eight cores.
        assert!(speedup < 2.5, "speedup {speedup}");
        assert!(speedup > 1.0);
    }

    #[test]
    fn regions_and_busy_time_are_reported() {
        let k = kernel(true);
        let mut acc = SimdAccelerator::new(&BaselineConfig::paper_baseline());
        let exec = acc.execute_kernel(SimTime::from_us(100), &k);
        assert_eq!(exec.regions.len(), 2);
        assert!(exec.lwp_busy > SimDuration::ZERO);
        assert!(exec.end > SimTime::from_us(100));
        assert!(exec.regions[1].busy_fus > exec.regions[0].busy_fus);
        assert!(acc.utilization(exec.end) > 0.0);
        assert_eq!(acc.per_lwp_utilization(exec.end).len(), 8);
    }
}
