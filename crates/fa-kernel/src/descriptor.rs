//! Kernel description tables.
//!
//! Kernels are offloaded to the accelerator as executable objects described
//! by a *kernel description table* — a variation of the ELF format (§4)
//! whose sections include the kernel code (`.text`), the flash-mapped data
//! section (`.ddr3_arr`), the heap, and the stack. All sections except the
//! data section resolve to the target LWP's L2 cache; the data section is
//! managed by Flashvisor.

use crate::model::{DataSection, Kernel};
use serde::{Deserialize, Serialize};

/// Kinds of section found in a kernel description table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SectionKind {
    /// Executable code (`.text`), resident in the LWP's L2.
    Text,
    /// Flash-mapped data section (`.ddr3_arr`), managed by Flashvisor.
    DataDdr3,
    /// Heap (`.heap`), resident in the LWP's L2.
    Heap,
    /// Stack (`.stack`), resident in the LWP's L2.
    Stack,
}

impl SectionKind {
    /// The conventional section name.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Text => ".text",
            SectionKind::DataDdr3 => ".ddr3_arr",
            SectionKind::Heap => ".heap",
            SectionKind::Stack => ".stack",
        }
    }

    /// True if the section lives in the LWP's private L2 rather than DDR3L.
    fn is_l2_resident(self) -> bool {
        !matches!(self, SectionKind::DataDdr3)
    }
}

/// One section of a kernel description table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// The section kind.
    pub kind: SectionKind,
    /// Size of the section in bytes.
    pub bytes: u64,
}

/// The executable object a host offloads for one kernel.
///
/// # Examples
///
/// ```
/// use fa_kernel::descriptor::{KernelDescriptionTable, SectionKind};
/// use fa_kernel::model::{AppId, ApplicationBuilder, DataSection};
/// use fa_platform::lwp::InstructionMix;
///
/// let app = ApplicationBuilder::new("DEMO")
///     .kernel(
///         "DEMO-k0",
///         DataSection { flash_base: 0, input_bytes: 4096, output_bytes: 4096 },
///         &[(2, InstructionMix::new(10_000, 0.4, 0.1), 4096, 4096)],
///     )
///     .build(AppId(0));
/// let kdt = KernelDescriptionTable::for_kernel(&app.kernels[0]);
/// assert!(kdt.section(SectionKind::Text).unwrap().bytes > 0);
/// assert_eq!(kdt.section(SectionKind::DataDdr3).unwrap().bytes, 8192);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDescriptionTable {
    /// Name of the kernel this table describes.
    pub kernel_name: String,
    /// Table sections.
    pub sections: Vec<Section>,
    /// The flash-mapped data-section descriptor handed to Flashvisor.
    pub data_section: DataSection,
}

/// Default per-kernel stack reservation.
const STACK_BYTES: u64 = 8 * 1024;
/// Default per-kernel heap reservation.
const HEAP_BYTES: u64 = 16 * 1024;
/// Static code is roughly two orders of magnitude smaller than the dynamic
/// instruction count of these loop-heavy kernels (the loops execute the
/// same VLIW bundles over and over).
const DYNAMIC_TO_STATIC_RATIO: u64 = 128;
/// `.text` is bounded by what fits in the L2 alongside heap and stack.
const MAX_TEXT_BYTES: u64 = 64 * 1024;
/// A kernel image is never smaller than one flash page worth of code.
const MIN_TEXT_BYTES: u64 = 4 * 1024;

impl KernelDescriptionTable {
    /// Builds the description table for a kernel.
    pub fn for_kernel(kernel: &Kernel) -> Self {
        let text =
            (kernel.instructions() / DYNAMIC_TO_STATIC_RATIO).clamp(MIN_TEXT_BYTES, MAX_TEXT_BYTES);
        KernelDescriptionTable {
            kernel_name: kernel.name.clone(),
            sections: vec![
                Section {
                    kind: SectionKind::Text,
                    bytes: text,
                },
                Section {
                    kind: SectionKind::DataDdr3,
                    bytes: kernel.data_section.total_bytes(),
                },
                Section {
                    kind: SectionKind::Heap,
                    bytes: HEAP_BYTES,
                },
                Section {
                    kind: SectionKind::Stack,
                    bytes: STACK_BYTES,
                },
            ],
            data_section: kernel.data_section,
        }
    }

    /// Looks up a section by kind.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// Bytes that must be transferred over PCIe to offload this kernel
    /// (everything except the flash-resident data section).
    pub fn offload_bytes(&self) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.kind.is_l2_resident())
            .map(|s| s.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AppId, ApplicationBuilder};
    use fa_platform::lwp::InstructionMix;

    fn kdt() -> KernelDescriptionTable {
        let app = ApplicationBuilder::new("T")
            .kernel(
                "T-k0",
                DataSection {
                    flash_base: 0,
                    input_bytes: 1 << 20,
                    output_bytes: 1 << 19,
                },
                &[(
                    4,
                    InstructionMix::new(1_000_000, 0.3, 0.1),
                    1 << 20,
                    1 << 19,
                )],
            )
            .build(AppId(0));
        KernelDescriptionTable::for_kernel(&app.kernels[0])
    }

    #[test]
    fn table_contains_all_elf_like_sections() {
        let t = kdt();
        for kind in [
            SectionKind::Text,
            SectionKind::DataDdr3,
            SectionKind::Heap,
            SectionKind::Stack,
        ] {
            assert!(t.section(kind).is_some(), "missing {kind:?}");
        }
        assert_eq!(
            t.section(SectionKind::DataDdr3).unwrap().bytes,
            (1 << 20) + (1 << 19)
        );
    }

    #[test]
    fn text_is_bounded_by_l2_budget() {
        let t = kdt();
        assert!(t.section(SectionKind::Text).unwrap().bytes <= 64 * 1024);
        // The offloaded image must fit the LWP's 512 KB L2.
        assert!(t.offload_bytes() <= 512 * 1024);
        // Offloading a kernel is cheap relative to its data set: the image
        // must stay well under 100 KB.
        assert!(t.offload_bytes() < 100 * 1024);
    }

    #[test]
    fn offload_excludes_data_section() {
        let t = kdt();
        let all: u64 = t.sections.iter().map(|s| s.bytes).sum();
        assert_eq!(
            t.offload_bytes(),
            all - t.section(SectionKind::DataDdr3).unwrap().bytes
        );
    }

    #[test]
    fn section_names_follow_convention() {
        assert_eq!(SectionKind::Text.name(), ".text");
        assert_eq!(SectionKind::DataDdr3.name(), ".ddr3_arr");
        assert!(SectionKind::Heap.is_l2_resident());
        assert!(!SectionKind::DataDdr3.is_l2_resident());
    }
}
