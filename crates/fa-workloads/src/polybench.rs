//! PolyBench-derived analytic workloads (Table 2 of the paper).
//!
//! Each benchmark is modelled from the characteristics the paper reports:
//! number of microblocks, number of *serial* microblocks (those with a
//! single screen), input size per instance, the ratio of load/store
//! instructions, and the data volume processed per thousand instructions
//! (B/KI). The instruction count of an instance follows directly from the
//! input size and B/KI; the microblock/screen structure follows from the
//! microblock counts.
//!
//! The paper runs full-size inputs (hundreds of MB to a few GB per
//! instance). To keep whole-evaluation simulations fast, workloads accept a
//! *data scale divisor*: the default harness uses `scale = 16`, which
//! preserves every ratio the figures depend on (B/KI, LD/ST, microblock
//! structure) while dividing simulated data volume and instruction count by
//! the same factor.

use fa_kernel::model::{AppId, Application, ApplicationBuilder, DataSection};
use fa_platform::lwp::InstructionMix;
use serde::{Deserialize, Serialize};

/// The fourteen PolyBench-derived benchmarks of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum PolyBench {
    Atax,
    Bicg,
    TwoDConv,
    Mvt,
    Adi,
    Fdtd,
    Gesum,
    Syrk,
    ThreeMm,
    Covar,
    Gemm,
    TwoMm,
    Syr2k,
    Corr,
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Which benchmark this row describes.
    pub bench: PolyBench,
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Number of microblocks in the kernel.
    pub microblocks: usize,
    /// Number of microblocks that are serial (single screen).
    pub serial_microblocks: usize,
    /// Input data per instance, in megabytes (unscaled).
    pub input_mb: u64,
    /// Load/store instructions as a fraction of all instructions.
    pub ldst_ratio: f64,
    /// Bytes of data processed per thousand instructions.
    pub bytes_per_kilo_instruction: f64,
}

impl Table2Row {
    /// True if the paper groups this benchmark with the data-intensive set
    /// (high B/KI).
    pub fn is_data_intensive(&self) -> bool {
        self.bytes_per_kilo_instruction >= 20.0
    }
}

/// Fraction of the input volume written back as output (outputs of these
/// kernels — vectors, reduced matrices — are small relative to inputs).
const OUTPUT_FRACTION: f64 = 0.125;
/// Fraction of instructions that use the multiplier FUs in these
/// linear-algebra kernels.
const MUL_RATIO: f64 = 0.15;
/// Screens per parallelizable microblock: enough to spread over every
/// worker LWP with a little slack for load balancing.
const SCREENS_PER_PARALLEL_MICROBLOCK: usize = 8;
/// Relative weight of a serial microblock's work compared to a parallel
/// one. Serial microblocks in these kernels are set-up and reduction steps
/// (e.g. converting `fict` into `ey` in FDTD, §4.2), which touch far fewer
/// iterations than the main parallel loops.
const SERIAL_MICROBLOCK_WEIGHT: f64 = 0.15;

/// Names of all fourteen benchmarks in Table 2 order.
pub fn polybench_names() -> Vec<&'static str> {
    polybench_table2().iter().map(|r| r.name).collect()
}

/// The full Table 2, in the paper's row order.
pub fn polybench_table2() -> Vec<Table2Row> {
    use PolyBench::*;
    vec![
        Table2Row {
            bench: Atax,
            name: "ATAX",
            description: "Matrix transpose and vector multiplication",
            microblocks: 2,
            serial_microblocks: 1,
            input_mb: 640,
            ldst_ratio: 0.4561,
            bytes_per_kilo_instruction: 68.86,
        },
        Table2Row {
            bench: Bicg,
            name: "BICG",
            description: "BiCG sub-kernel of BiCGStab",
            microblocks: 2,
            serial_microblocks: 1,
            input_mb: 640,
            ldst_ratio: 0.46,
            bytes_per_kilo_instruction: 72.3,
        },
        Table2Row {
            bench: TwoDConv,
            name: "2DCONV",
            description: "Two-dimensional convolution",
            microblocks: 1,
            serial_microblocks: 0,
            input_mb: 640,
            ldst_ratio: 0.2396,
            bytes_per_kilo_instruction: 35.59,
        },
        Table2Row {
            bench: Mvt,
            name: "MVT",
            description: "Matrix-vector product and transpose",
            microblocks: 1,
            serial_microblocks: 0,
            input_mb: 640,
            ldst_ratio: 0.451,
            bytes_per_kilo_instruction: 72.05,
        },
        Table2Row {
            bench: Adi,
            name: "ADI",
            description: "Alternating-direction implicit solver",
            microblocks: 3,
            serial_microblocks: 1,
            input_mb: 1920,
            ldst_ratio: 0.2396,
            bytes_per_kilo_instruction: 35.59,
        },
        Table2Row {
            bench: Fdtd,
            name: "FDTD",
            description: "2-D finite-difference time-domain (Yee's method)",
            microblocks: 3,
            serial_microblocks: 1,
            input_mb: 1920,
            ldst_ratio: 0.2727,
            bytes_per_kilo_instruction: 38.52,
        },
        Table2Row {
            bench: Gesum,
            name: "GESUM",
            description: "Scalar, vector and matrix multiplication",
            microblocks: 1,
            serial_microblocks: 0,
            input_mb: 640,
            ldst_ratio: 0.4808,
            bytes_per_kilo_instruction: 72.13,
        },
        Table2Row {
            bench: Syrk,
            name: "SYRK",
            description: "Symmetric rank-k update",
            microblocks: 1,
            serial_microblocks: 0,
            input_mb: 1280,
            ldst_ratio: 0.2821,
            bytes_per_kilo_instruction: 5.29,
        },
        Table2Row {
            bench: ThreeMm,
            name: "3MM",
            description: "Three chained matrix multiplications",
            microblocks: 3,
            serial_microblocks: 1,
            input_mb: 2560,
            ldst_ratio: 0.3368,
            bytes_per_kilo_instruction: 2.48,
        },
        Table2Row {
            bench: Covar,
            name: "COVAR",
            description: "Covariance computation",
            microblocks: 3,
            serial_microblocks: 1,
            input_mb: 640,
            ldst_ratio: 0.3433,
            bytes_per_kilo_instruction: 2.86,
        },
        Table2Row {
            bench: Gemm,
            name: "GEMM",
            description: "General matrix-matrix multiplication",
            microblocks: 1,
            serial_microblocks: 0,
            input_mb: 192,
            ldst_ratio: 0.3077,
            bytes_per_kilo_instruction: 5.29,
        },
        Table2Row {
            bench: TwoMm,
            name: "2MM",
            description: "Two chained matrix multiplications",
            microblocks: 2,
            serial_microblocks: 1,
            input_mb: 2560,
            ldst_ratio: 0.3333,
            bytes_per_kilo_instruction: 3.76,
        },
        Table2Row {
            bench: Syr2k,
            name: "SYR2K",
            description: "Symmetric rank-2k update",
            microblocks: 1,
            serial_microblocks: 0,
            input_mb: 1280,
            ldst_ratio: 0.3019,
            bytes_per_kilo_instruction: 1.85,
        },
        Table2Row {
            bench: Corr,
            name: "CORR",
            description: "Correlation computation",
            microblocks: 4,
            serial_microblocks: 1,
            input_mb: 640,
            ldst_ratio: 0.3304,
            bytes_per_kilo_instruction: 2.79,
        },
    ]
}

/// Looks up the Table 2 row for a benchmark.
fn table2_row(bench: PolyBench) -> Table2Row {
    polybench_table2()
        .into_iter()
        .find(|r| r.bench == bench)
        .expect("every benchmark has a Table 2 row")
}

/// Looks up a benchmark by its printed name (case-insensitive).
pub fn by_name(name: &str) -> Option<PolyBench> {
    polybench_table2()
        .into_iter()
        .find(|r| r.name.eq_ignore_ascii_case(name))
        .map(|r| r.bench)
}

/// Builds the analytic [`Application`] for `bench`, dividing the full-size
/// input by `data_scale` (1 reproduces the paper's sizes).
///
/// # Panics
///
/// Panics if `data_scale` is zero.
pub fn polybench_app(bench: PolyBench, data_scale: u64) -> Application {
    assert!(data_scale > 0, "data_scale must be positive");
    let row = table2_row(bench);
    build_app(&row, data_scale)
}

fn build_app(row: &Table2Row, data_scale: u64) -> Application {
    let input_bytes = (row.input_mb * 1024 * 1024) / data_scale;
    let output_bytes = (input_bytes as f64 * OUTPUT_FRACTION) as u64;
    let total_instructions =
        ((input_bytes + output_bytes) as f64 / row.bytes_per_kilo_instruction * 1_000.0) as u64;

    // Distribute work across microblocks by weight: the first
    // `serial_microblocks` microblocks are serial set-up/reduction steps
    // and carry a small share; the remainder are the parallel main loops
    // and fan out into screens. (FDTD's serial `fict`→`ey` conversion in
    // §4.2 is the motivating example for placing the serial blocks first.)
    let weights: Vec<f64> = (0..row.microblocks)
        .map(|i| {
            if i < row.serial_microblocks {
                SERIAL_MICROBLOCK_WEIGHT
            } else {
                1.0
            }
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let blocks: Vec<(usize, InstructionMix, u64, u64)> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let share = w / weight_sum;
            let screens = if i < row.serial_microblocks {
                1
            } else {
                SCREENS_PER_PARALLEL_MICROBLOCK
            };
            let instr = (total_instructions as f64 * share) as u64;
            let mix = InstructionMix::new(instr, row.ldst_ratio, MUL_RATIO);
            (
                screens,
                mix,
                (input_bytes as f64 * share) as u64,
                (output_bytes as f64 * share) as u64,
            )
        })
        .collect();

    ApplicationBuilder::new(row.name)
        .kernel(
            format!("{}-k0", row.name),
            DataSection {
                flash_base: 0,
                input_bytes,
                output_bytes,
            },
            &blocks,
        )
        .build(AppId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table2_has_fourteen_rows_matching_the_paper() {
        let t = polybench_table2();
        assert_eq!(t.len(), 14);
        let atax = &t[0];
        assert_eq!(atax.name, "ATAX");
        assert_eq!(atax.microblocks, 2);
        assert_eq!(atax.serial_microblocks, 1);
        assert_eq!(atax.input_mb, 640);
        assert!((atax.ldst_ratio - 0.4561).abs() < 1e-9);
        let corr = &t[13];
        assert_eq!(corr.name, "CORR");
        assert_eq!(corr.microblocks, 4);
    }

    #[test]
    fn data_vs_compute_grouping_matches_figure10() {
        // The paper's data-intensive group: ATAX..GESUM (plus ADI/FDTD);
        // compute-intensive: SYRK..CORR.
        for row in polybench_table2() {
            match row.bench {
                PolyBench::Atax
                | PolyBench::Bicg
                | PolyBench::TwoDConv
                | PolyBench::Mvt
                | PolyBench::Adi
                | PolyBench::Fdtd
                | PolyBench::Gesum => assert!(row.is_data_intensive(), "{}", row.name),
                _ => assert!(!row.is_data_intensive(), "{}", row.name),
            }
        }
    }

    #[test]
    fn app_structure_matches_table2_row() {
        for row in polybench_table2() {
            let app = polybench_app(row.bench, 16);
            assert_eq!(app.kernels.len(), 1);
            let k = &app.kernels[0];
            assert_eq!(k.microblocks.len(), row.microblocks, "{}", row.name);
            assert_eq!(
                k.serial_microblocks(),
                row.serial_microblocks,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn bytes_per_kilo_instruction_is_preserved_by_the_model() {
        for row in polybench_table2() {
            let app = polybench_app(row.bench, 16);
            let model_bki = app.kernels[0].bytes_per_kilo_instruction();
            let rel_err =
                (model_bki - row.bytes_per_kilo_instruction).abs() / row.bytes_per_kilo_instruction;
            assert!(
                rel_err < 0.02,
                "{}: model B/KI {model_bki:.2} vs table {:.2}",
                row.name,
                row.bytes_per_kilo_instruction
            );
        }
    }

    #[test]
    fn scaling_divides_data_volume_proportionally() {
        let full = polybench_app(PolyBench::Atax, 1);
        let scaled = polybench_app(PolyBench::Atax, 16);
        let ratio = full.flash_bytes() as f64 / scaled.flash_bytes() as f64;
        assert!((ratio - 16.0).abs() < 0.05, "ratio {ratio}");
        assert_eq!(full.kernels[0].data_section.input_bytes, 640 << 20);
    }

    #[test]
    fn name_lookup_round_trips() {
        for row in polybench_table2() {
            assert_eq!(by_name(row.name), Some(row.bench));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "data_scale")]
    fn zero_scale_panics() {
        polybench_app(PolyBench::Gemm, 0);
    }

    proptest! {
        #[test]
        fn any_scale_preserves_microblock_structure(scale in 1u64..64) {
            for row in polybench_table2() {
                let app = polybench_app(row.bench, scale);
                prop_assert_eq!(app.kernels[0].microblocks.len(), row.microblocks);
                prop_assert!(app.kernels[0].instructions() > 0);
            }
        }
    }
}
