//! The conventional heterogeneous-computing system driver.
//!
//! The execution model follows Figure 3a of the paper. For every kernel,
//! the host opens its input, then iterates a body loop: read a chunk of the
//! file from the SSD through the storage stack, push it over PCIe into the
//! accelerator's DRAM, execute the kernel's microblocks under the SIMD
//! model, pull the results back, and write them to the SSD through the
//! stack again. The accelerator stalls while data is in flight — the core
//! inefficiency FlashAbacus removes.

use crate::accelerator::SimdAccelerator;
use crate::config::BaselineConfig;
use crate::hoststack::HostStorageStack;
use crate::metrics::{BaselineOutcome, TimeBreakdown};
use crate::ssd::NvmeSsd;
use fa_energy::{ActivityCategory, Component, EnergyAccountant};
use fa_kernel::model::Application;
use fa_kernel::KernelLatency;
use fa_platform::noc::PcieLink;
use fa_sim::time::SimTime;

/// The conventional ("SIMD") system.
pub struct ConventionalSystem {
    config: BaselineConfig,
    ssd: NvmeSsd,
    stack: HostStorageStack,
    accelerator: SimdAccelerator,
    pcie: PcieLink,
    energy: EnergyAccountant,
    time_breakdown: TimeBreakdown,
}

impl ConventionalSystem {
    /// Builds the system from its configuration.
    pub fn new(config: BaselineConfig) -> Self {
        let mut energy = EnergyAccountant::new(config.power);
        energy.register_idle(Component::Lwp, config.platform.lwp_count);
        energy.register_idle(Component::Ddr3l, 1);
        energy.register_idle(Component::Fabric, 1);
        energy.register_idle(Component::FlashOrSsd, 1);
        energy.register_idle(Component::Pcie, 1);
        energy.register_idle(Component::HostCpu, 1);
        energy.register_idle(Component::HostDram, 1);
        ConventionalSystem {
            ssd: NvmeSsd::new(config.ssd),
            stack: HostStorageStack::new(config.host),
            accelerator: SimdAccelerator::new(&config),
            pcie: PcieLink::new(&config.platform),
            energy,
            time_breakdown: TimeBreakdown::default(),
            config,
        }
    }

    /// Moves `bytes` from the SSD into the accelerator DRAM (or back when
    /// `to_accelerator` is false), charging every hop. Returns when the data
    /// is in place.
    fn move_data(&mut self, now: SimTime, bytes: u64, to_accelerator: bool) -> SimTime {
        if bytes == 0 {
            return now;
        }
        // Storage device leg.
        let ssd_res = if to_accelerator {
            self.ssd.read(now, bytes)
        } else {
            self.ssd.write(now, bytes)
        };
        self.energy.record(
            Component::FlashOrSsd,
            ActivityCategory::StorageAccess,
            ssd_res.start,
            ssd_res.end,
        );
        self.time_breakdown.ssd += ssd_res.end.saturating_since(ssd_res.start);

        // Host storage stack leg (CPU per request + copies in host DRAM).
        let stack_t = self.stack.transfer(ssd_res.end, bytes);
        self.energy.record(
            Component::HostCpu,
            ActivityCategory::DataMovement,
            stack_t.start,
            stack_t.start + stack_t.cpu_busy,
        );
        self.energy.record(
            Component::HostDram,
            ActivityCategory::DataMovement,
            stack_t.start,
            stack_t.end,
        );
        self.time_breakdown.host_stack += stack_t.end.saturating_since(stack_t.start);

        // Accelerator runtime + PCIe DMA leg.
        let runtime_done = self.stack.runtime_overhead(stack_t.end);
        self.energy.record(
            Component::HostCpu,
            ActivityCategory::DataMovement,
            stack_t.end,
            runtime_done,
        );
        let pcie_res = self.pcie.dma(runtime_done, bytes);
        self.energy.record(
            Component::Pcie,
            ActivityCategory::DataMovement,
            pcie_res.start,
            pcie_res.end,
        );
        self.energy.record(
            Component::Ddr3l,
            ActivityCategory::DataMovement,
            pcie_res.start,
            pcie_res.end,
        );
        self.time_breakdown.host_stack += pcie_res.end.saturating_since(runtime_done);
        pcie_res.end
    }

    /// Runs a batch of applications to completion. Kernels are processed in
    /// offload order, one at a time (the OpenMP runtime owns the whole
    /// accelerator for each kernel).
    pub fn run(&mut self, apps: &[Application]) -> BaselineOutcome {
        let mut kernel_latencies = Vec::new();
        let mut cursor = SimTime::ZERO;
        let mut bytes_processed = 0u64;

        for (ai, app) in apps.iter().enumerate() {
            for (ki, kernel) in app.kernels.iter().enumerate() {
                let started_at = cursor;
                let input = kernel.data_section.input_bytes;
                let output = kernel.data_section.output_bytes;
                bytes_processed += input + output;

                // Prologue: open the file, allocate SSD and accelerator
                // buffers (host CPU work).
                let prologue_end = self.stack.runtime_overhead(cursor);
                self.energy.record(
                    Component::HostCpu,
                    ActivityCategory::DataMovement,
                    cursor,
                    prologue_end,
                );
                cursor = prologue_end;

                // Body loop: chunk the input through the accelerator DRAM.
                let chunk = self.config.accel_buffer_bytes.max(1);
                let mut remaining = input;
                let mut produced = 0u64;
                while remaining > 0 || (input == 0 && produced == 0) {
                    let this_chunk = remaining.min(chunk);
                    // Read the chunk from storage into the accelerator.
                    let data_ready = self.move_data(cursor, this_chunk, true);

                    // Execute the kernel over this chunk. The kernel's
                    // compute cost scales with the fraction of the input the
                    // chunk represents.
                    let fraction = if input == 0 {
                        1.0
                    } else {
                        this_chunk as f64 / input as f64
                    };
                    let scaled = scale_kernel(kernel, fraction);
                    let exec = self.accelerator.execute_kernel(data_ready, &scaled);
                    for r in &exec.regions {
                        self.energy.record_compute(r.start, r.end, r.busy_fus);
                    }
                    self.time_breakdown.accelerator += exec.end.saturating_since(data_ready);

                    // Return the chunk's share of the output to the SSD.
                    let out_bytes = (output as f64 * fraction) as u64;
                    produced += out_bytes;
                    cursor = self.move_data(exec.end, out_bytes, false);

                    if remaining == 0 {
                        break;
                    }
                    remaining -= this_chunk;
                }

                // Epilogue: release file and memory resources.
                let epilogue_end = self.stack.runtime_overhead(cursor);
                self.energy.record(
                    Component::HostCpu,
                    ActivityCategory::DataMovement,
                    cursor,
                    epilogue_end,
                );
                cursor = epilogue_end;

                kernel_latencies.push(KernelLatency {
                    app_name: app.name.clone(),
                    app_index: ai,
                    kernel_index: ki,
                    offloaded_at: started_at,
                    completed_at: cursor,
                });
            }
        }

        let finished_at = cursor;
        BaselineOutcome {
            finished_at,
            kernel_latencies,
            bytes_processed,
            energy: self.energy.summary(finished_at),
            time_breakdown: self.time_breakdown,
            lwp_utilization: self.accelerator.per_lwp_utilization(finished_at),
            host_cpu_utilization: self.stack.cpu_utilization(finished_at),
        }
    }
}

/// Scales a kernel's instruction counts and byte footprints to a fraction
/// of its input (one body-loop chunk).
fn scale_kernel(kernel: &fa_kernel::model::Kernel, fraction: f64) -> fa_kernel::model::Kernel {
    if (fraction - 1.0).abs() < 1e-12 {
        return kernel.clone();
    }
    let mut scaled = kernel.clone();
    for mblock in &mut scaled.microblocks {
        for screen in &mut mblock.screens {
            screen.mix.instructions = (screen.mix.instructions as f64 * fraction).ceil() as u64;
            screen.input_bytes = (screen.input_bytes as f64 * fraction) as u64;
            screen.output_bytes = (screen.output_bytes as f64 * fraction) as u64;
        }
    }
    scaled
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_kernel::instance::{instantiate_many, InstancePlan};
    use fa_kernel::latency::throughput_mb_s;
    use fa_sim::time::SimDuration;
    use fa_workloads::polybench::{polybench_app, PolyBench};
    use fa_workloads::synthetic::{synthetic_app, SyntheticSpec};

    fn synthetic_batch(instances: usize, serial_fraction: f64) -> Vec<Application> {
        let template = synthetic_app(
            "base",
            &SyntheticSpec {
                instructions: 2_000_000,
                serial_fraction,
                input_bytes: 4 << 20,
                output_bytes: 512 << 10,
                ldst_ratio: 0.4,
                mul_ratio: 0.1,
                parallel_screens: 8,
            },
        );
        instantiate_many(
            &[template],
            &InstancePlan {
                instances_per_app: instances,
                ..Default::default()
            },
        )
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let mut system = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let out = system.run(&synthetic_batch(2, 0.2));
        assert_eq!(out.kernel_latencies.len(), 2);
        assert!(out.finished_at > SimTime::ZERO);
        assert!(throughput_mb_s(out.bytes_processed, out.finished_at) > 0.0);
        assert!(out.energy.total_j() > 0.0);
        assert!(out.time_breakdown.ssd > SimDuration::ZERO);
        assert!(out.time_breakdown.host_stack > SimDuration::ZERO);
        assert!(out.time_breakdown.accelerator > SimDuration::ZERO);
        assert_eq!(out.lwp_utilization.len(), 8);
        assert!(!out.energy.fu_timeline.is_empty());
        assert!(!out.energy.power_timeline.is_empty());
    }

    #[test]
    fn data_intensive_workloads_are_transfer_dominated() {
        // The premise of Figure 3d: for data-intensive PolyBench kernels the
        // SSD plus host-stack share of time dominates the accelerator share.
        let apps = vec![polybench_app(PolyBench::Atax, 64)];
        let mut system = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let out = system.run(&apps);
        let (accel, ssd, stack) = out.time_breakdown.fractions();
        assert!(
            ssd + stack > accel,
            "transfer {:.2}+{:.2} should dominate compute {:.2}",
            ssd,
            stack,
            accel
        );
    }

    #[test]
    fn compute_intensive_workloads_are_compute_dominated() {
        let apps = vec![polybench_app(PolyBench::ThreeMm, 64)];
        let mut system = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let out = system.run(&apps);
        let (accel, ssd, stack) = out.time_breakdown.fractions();
        assert!(
            accel > ssd + stack,
            "compute {accel:.2} should dominate transfers {:.2}",
            ssd + stack
        );
    }

    #[test]
    fn storage_energy_dominates_for_data_intensive_kernels() {
        // §3.1: storage-stack accesses consume the large majority of system
        // energy for data-intensive applications.
        let apps = vec![polybench_app(PolyBench::Mvt, 64)];
        let mut system = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let out = system.run(&apps);
        let total = out.energy.total_j();
        let movement_and_storage =
            out.energy.breakdown.data_movement_j + out.energy.breakdown.storage_access_j;
        assert!(
            movement_and_storage / total > 0.5,
            "movement+storage fraction {}",
            movement_and_storage / total
        );
    }

    #[test]
    fn serial_fraction_degrades_throughput_and_utilization() {
        // Figure 3b/3c: increasing the serial share reduces throughput and
        // core utilization.
        let mut parallel = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let mut serial = ConventionalSystem::new(BaselineConfig::paper_baseline());
        let out_p = parallel.run(&synthetic_batch(2, 0.0));
        let out_s = serial.run(&synthetic_batch(2, 0.5));
        assert!(
            throughput_mb_s(out_p.bytes_processed, out_p.finished_at)
                > throughput_mb_s(out_s.bytes_processed, out_s.finished_at)
        );
        assert!(out_p.mean_lwp_utilization() > out_s.mean_lwp_utilization());
    }

    #[test]
    fn more_cores_help_parallel_workloads() {
        let mut one = ConventionalSystem::new(BaselineConfig::paper_baseline().with_active_lwps(1));
        let mut eight =
            ConventionalSystem::new(BaselineConfig::paper_baseline().with_active_lwps(8));
        let out1 = one.run(&synthetic_batch(1, 0.0));
        let out8 = eight.run(&synthetic_batch(1, 0.0));
        assert!(out8.finished_at < out1.finished_at);
    }

    #[test]
    fn chunking_handles_inputs_larger_than_the_buffer() {
        let mut system = ConventionalSystem::new(BaselineConfig::tiny_for_tests());
        // 4 MiB input with a 1 MiB buffer forces four body-loop iterations.
        let out = system.run(&synthetic_batch(1, 0.0));
        assert_eq!(out.kernel_latencies.len(), 1);
        assert!(out.finished_at > SimTime::ZERO);
        // All of the input plus output was eventually moved.
        assert!(out.bytes_processed >= 4 << 20);
    }
}
