//! Applications, kernels, microblocks, screens, and data sections.

use fa_platform::lwp::InstructionMix;
use serde::{Deserialize, Serialize};

/// Identifier of an application instance offloaded to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppId(pub u32);

/// Identifier of a kernel within the offloaded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KernelId {
    /// Owning application.
    pub app: AppId,
    /// Kernel index within the application.
    pub index: u32,
}

/// The flash-mapped data section of a kernel.
///
/// The addresses are *word addresses in the flash backbone's logical
/// space*; Flashvisor translates them to physical pages (§4.3). Inputs are
/// read from flash into DDR3L before the microblocks that consume them run;
/// outputs are flushed back to flash when the kernel completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataSection {
    /// First logical flash byte address mapped by this kernel.
    pub flash_base: u64,
    /// Bytes of input data read from flash.
    pub input_bytes: u64,
    /// Bytes of output data written back to flash.
    pub output_bytes: u64,
}

impl DataSection {
    /// Total bytes of flash traffic this data section generates.
    pub fn total_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes
    }

    /// The logical flash range `[start, end)` occupied by the section.
    pub fn flash_range(&self) -> (u64, u64) {
        (self.flash_base, self.flash_base + self.total_bytes())
    }

    /// Returns a copy of the section rebased at `new_base`.
    fn rebased(&self, new_base: u64) -> DataSection {
        DataSection {
            flash_base: new_base,
            ..*self
        }
    }
}

/// One screen: a hazard-free slice of a microblock's iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Screen {
    /// Index of the screen within its microblock.
    pub index: u32,
    /// Instruction mix executed by this screen.
    pub mix: InstructionMix,
    /// Bytes of the kernel's input this screen consumes.
    pub input_bytes: u64,
    /// Bytes of the kernel's output this screen produces.
    pub output_bytes: u64,
}

impl Screen {
    /// Total bytes the screen touches.
    pub fn bytes_touched(&self) -> u64 {
        self.input_bytes + self.output_bytes
    }
}

/// One microblock: a dependency-ordered group of code within a kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microblock {
    /// Index of the microblock within its kernel (execution order).
    pub index: u32,
    /// Parallel screens; a *serial* microblock has exactly one.
    pub screens: Vec<Screen>,
}

impl Microblock {
    /// True if this microblock cannot be split across LWPs.
    pub fn is_serial(&self) -> bool {
        self.screens.len() <= 1
    }

    /// Total instructions across all screens.
    pub fn instructions(&self) -> u64 {
        self.screens.iter().map(|s| s.mix.instructions).sum()
    }

    /// Total bytes touched across all screens.
    pub fn bytes_touched(&self) -> u64 {
        self.screens.iter().map(Screen::bytes_touched).sum()
    }
}

/// One kernel of an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel identity.
    pub id: KernelId,
    /// Human-readable name (benchmark name, e.g. `ATAX-k0`).
    pub name: String,
    /// Microblocks in dependency order.
    pub microblocks: Vec<Microblock>,
    /// The kernel's flash-mapped data section.
    pub data_section: DataSection,
}

impl Kernel {
    /// Total instructions across all microblocks.
    pub fn instructions(&self) -> u64 {
        self.microblocks.iter().map(Microblock::instructions).sum()
    }

    /// Number of microblocks that are serial (cannot be screened).
    pub fn serial_microblocks(&self) -> usize {
        self.microblocks.iter().filter(|m| m.is_serial()).count()
    }

    /// Total number of screens across all microblocks.
    pub fn screen_count(&self) -> usize {
        self.microblocks.iter().map(|m| m.screens.len()).sum()
    }

    /// Bytes-per-kilo-instruction: the computation-complexity metric of
    /// Table 2 (lower means more compute-intensive).
    pub fn bytes_per_kilo_instruction(&self) -> f64 {
        let instr = self.instructions();
        if instr == 0 {
            return 0.0;
        }
        self.data_section.total_bytes() as f64 / (instr as f64 / 1_000.0)
    }
}

/// One application: a set of kernels offloaded together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Application identity.
    pub id: AppId,
    /// Benchmark name (e.g. `ATAX`).
    pub name: String,
    /// The application's kernels. Kernels of one application are mutually
    /// independent (§4.1); only microblocks inside one kernel are ordered.
    pub kernels: Vec<Kernel>,
}

impl Application {
    /// Total instructions across every kernel.
    pub fn instructions(&self) -> u64 {
        self.kernels.iter().map(Kernel::instructions).sum()
    }

    /// Total flash bytes touched by every kernel.
    pub fn flash_bytes(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.data_section.total_bytes())
            .sum()
    }

    /// Total number of screens across every kernel.
    pub fn screen_count(&self) -> usize {
        self.kernels.iter().map(Kernel::screen_count).sum()
    }

    /// Creates a deep copy with a new application id and data sections
    /// rebased to `flash_base`, laying the kernels' sections out
    /// back-to-back. Used to stamp out workload instances.
    pub fn instantiate(&self, new_id: AppId, flash_base: u64) -> Application {
        let mut cursor = flash_base;
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let section = k.data_section.rebased(cursor);
                cursor += section.total_bytes();
                Kernel {
                    id: KernelId {
                        app: new_id,
                        index: k.id.index,
                    },
                    name: k.name.clone(),
                    microblocks: k.microblocks.clone(),
                    data_section: section,
                }
            })
            .collect();
        Application {
            id: new_id,
            name: self.name.clone(),
            kernels,
        }
    }
}

/// Builder that assembles an [`Application`] from per-microblock
/// descriptions; used heavily by `fa-workloads`.
#[derive(Debug, Clone)]
pub struct ApplicationBuilder {
    name: String,
    kernels: Vec<Kernel>,
    next_kernel_index: u32,
}

impl ApplicationBuilder {
    /// Starts a new application description.
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationBuilder {
            name: name.into(),
            kernels: Vec::new(),
            next_kernel_index: 0,
        }
    }

    /// Adds a kernel built from `(screens_per_microblock, mix, in_bytes,
    /// out_bytes)` tuples, one per microblock. A screen count of one makes
    /// the microblock serial; larger counts split the microblock's
    /// instructions and bytes evenly across the screens.
    pub fn kernel(
        mut self,
        kernel_name: impl Into<String>,
        data_section: DataSection,
        microblocks: &[(usize, InstructionMix, u64, u64)],
    ) -> Self {
        let id = KernelId {
            app: AppId(0),
            index: self.next_kernel_index,
        };
        self.next_kernel_index += 1;
        let blocks = microblocks
            .iter()
            .enumerate()
            .map(|(mi, (screen_count, mix, in_bytes, out_bytes))| {
                let n = (*screen_count).max(1);
                let screens = (0..n)
                    .map(|si| Screen {
                        index: si as u32,
                        mix: mix.split(n),
                        input_bytes: in_bytes / n as u64,
                        output_bytes: out_bytes / n as u64,
                    })
                    .collect();
                Microblock {
                    index: mi as u32,
                    screens,
                }
            })
            .collect();
        self.kernels.push(Kernel {
            id,
            name: kernel_name.into(),
            microblocks: blocks,
            data_section,
        });
        self
    }

    /// Finalizes the application with the given id.
    pub fn build(self, id: AppId) -> Application {
        let kernels = self
            .kernels
            .into_iter()
            .map(|mut k| {
                k.id.app = id;
                k
            })
            .collect();
        Application {
            id,
            name: self.name,
            kernels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_app() -> Application {
        let mix = InstructionMix::new(100_000, 0.4, 0.1);
        ApplicationBuilder::new("SAMPLE")
            .kernel(
                "SAMPLE-k0",
                DataSection {
                    flash_base: 0,
                    input_bytes: 1 << 20,
                    output_bytes: 1 << 18,
                },
                &[(1, mix, 1 << 19, 0), (4, mix, 1 << 19, 1 << 18)],
            )
            .kernel(
                "SAMPLE-k1",
                DataSection {
                    flash_base: 1 << 21,
                    input_bytes: 1 << 19,
                    output_bytes: 1 << 19,
                },
                &[(2, mix, 1 << 19, 1 << 19)],
            )
            .build(AppId(7))
    }

    #[test]
    fn builder_produces_expected_shape() {
        let app = sample_app();
        assert_eq!(app.id, AppId(7));
        assert_eq!(app.kernels.len(), 2);
        assert_eq!(app.kernels[0].microblocks.len(), 2);
        assert!(app.kernels[0].microblocks[0].is_serial());
        assert!(!app.kernels[0].microblocks[1].is_serial());
        assert_eq!(app.kernels[0].serial_microblocks(), 1);
        assert_eq!(app.kernels[0].screen_count(), 5);
        assert_eq!(app.screen_count(), 7);
        assert_eq!(app.kernels[1].id.app, AppId(7));
    }

    #[test]
    fn screens_split_bytes_and_instructions_evenly() {
        let app = sample_app();
        let mb = &app.kernels[0].microblocks[1];
        assert_eq!(mb.screens.len(), 4);
        for s in &mb.screens {
            assert_eq!(s.mix.instructions, 25_000);
            assert_eq!(s.input_bytes, (1 << 19) / 4);
            assert_eq!(s.output_bytes, (1 << 18) / 4);
        }
        assert_eq!(mb.instructions(), 100_000);
    }

    #[test]
    fn bytes_per_kilo_instruction_classifies_workloads() {
        let data_heavy = ApplicationBuilder::new("HEAVY")
            .kernel(
                "HEAVY-k0",
                DataSection {
                    flash_base: 0,
                    input_bytes: 10 << 20,
                    output_bytes: 0,
                },
                &[(1, InstructionMix::new(100_000, 0.45, 0.1), 10 << 20, 0)],
            )
            .build(AppId(0));
        let compute_heavy = ApplicationBuilder::new("COMPUTE")
            .kernel(
                "COMPUTE-k0",
                DataSection {
                    flash_base: 0,
                    input_bytes: 1 << 20,
                    output_bytes: 0,
                },
                &[(1, InstructionMix::new(500_000_000, 0.3, 0.2), 1 << 20, 0)],
            )
            .build(AppId(1));
        // Table 2 calls a kernel data-intensive at 20 bytes per kilo-instruction.
        assert!(data_heavy.kernels[0].bytes_per_kilo_instruction() >= 20.0);
        assert!(compute_heavy.kernels[0].bytes_per_kilo_instruction() < 20.0);
    }

    #[test]
    fn instantiate_rebases_data_sections() {
        let app = sample_app();
        let inst = app.instantiate(AppId(42), 1 << 30);
        assert_eq!(inst.id, AppId(42));
        assert_eq!(inst.kernels[0].id.app, AppId(42));
        assert_eq!(inst.kernels[0].data_section.flash_base, 1 << 30);
        // The second kernel's section follows the first back-to-back.
        let expected = (1u64 << 30) + app.kernels[0].data_section.total_bytes();
        assert_eq!(inst.kernels[1].data_section.flash_base, expected);
        // The original is untouched.
        assert_eq!(app.kernels[0].data_section.flash_base, 0);
    }

    #[test]
    fn data_section_ranges() {
        let d = DataSection {
            flash_base: 100,
            input_bytes: 50,
            output_bytes: 30,
        };
        assert_eq!(d.total_bytes(), 80);
        assert_eq!(d.flash_range(), (100, 180));
        assert_eq!(d.rebased(1000).flash_range(), (1000, 1080));
    }
}
