//! Table 1 (hardware specification) and Table 2 (workload characteristics).

use crate::report::{f1, Table};
use fa_flash::{FlashGeometry, FlashTiming};
use fa_platform::PlatformSpec;
use fa_workloads::mixes::{mix_app_names, MIX_COUNT};
use fa_workloads::polybench::polybench_table2;

/// Renders Table 1: the hardware specification of the prototype, with a
/// footnote that the cache and DDR3L capacities are stated, not modelled.
pub fn table1() -> String {
    let p = PlatformSpec::paper_prototype();
    let g = FlashGeometry::paper_prototype();
    let t = FlashTiming::paper_prototype();
    let mut table = Table::new(
        "Table 1: hardware specification of the baseline platform",
        &[
            "Component",
            "Specification",
            "Frequency / rate",
            "Typical power",
            "Est. bandwidth",
        ],
    );
    table.row(vec![
        "LWP".into(),
        format!("{} processors", p.lwp_count),
        format!("{} GHz", p.lwp_freq_hz as f64 / 1e9),
        format!("{} W/core", p.lwp_power_w),
        "16 GB/s".into(),
    ]);
    table.row(vec![
        "L1/L2 cache".into(),
        format!("{} KB / {} KB", p.l1_bytes / 1024, p.l2_bytes / 1024),
        "500 MHz".into(),
        "-".into(),
        "16 GB/s".into(),
    ]);
    table.row(vec![
        "Scratchpad".into(),
        format!(
            "{} MB, {} banks",
            p.scratchpad_bytes >> 20,
            p.scratchpad_banks
        ),
        "500 MHz".into(),
        "-".into(),
        format!("{} GB/s", p.scratchpad_bytes_per_sec / 1e9),
    ]);
    table.row(vec![
        "Memory".into(),
        format!("DDR3L, {} GB", p.ddr3l_bytes >> 30),
        "800 MHz".into(),
        format!("{} W", p.ddr3l_power_w),
        format!("{} GB/s", p.ddr3l_bytes_per_sec / 1e9),
    ]);
    table.row(vec![
        "Flash backbone".into(),
        format!(
            "{} dies, {} GB, {} channels",
            g.total_dies(),
            g.total_bytes() >> 30,
            g.channels
        ),
        format!(
            "read {} us / program {} us",
            t.read_page.as_us_f64(),
            t.program_page.as_us_f64()
        ),
        format!("{} W", p.flash_power_w),
        "3.2 GB/s".into(),
    ]);
    table.row(vec![
        "PCIe".into(),
        "v2.0, 2 lanes".into(),
        "5 GHz".into(),
        format!("{} W", p.pcie_power_w),
        format!("{} GB/s", p.pcie_bytes_per_sec / 1e9),
    ]);
    table.row(vec![
        "Tier-1 crossbar".into(),
        "256 lanes".into(),
        "500 MHz".into(),
        "-".into(),
        format!("{} GB/s", p.tier1_bytes_per_sec / 1e9),
    ]);
    table.row(vec![
        "Tier-2 crossbar".into(),
        "128 lanes".into(),
        "333 MHz".into(),
        "-".into(),
        format!("{} GB/s", p.tier2_bytes_per_sec / 1e9),
    ]);
    let mut out = table.render();
    out.push_str(
        "Note: the L1/L2 cache and DDR3L sizes are the paper's; the simulator models \
         DDR3L bandwidth, not cache or DDR3L capacity.\n",
    );
    out
}

/// Renders Table 2: workload characteristics plus the regenerated mix
/// compositions.
pub fn table2() -> String {
    let mut table = Table::new(
        "Table 2: workload characteristics",
        &[
            "Name",
            "MBLKs",
            "Serial MBLKs",
            "Input (MB)",
            "LD/ST ratio",
            "B/KI",
            "Class",
        ],
    );
    for row in polybench_table2() {
        table.row(vec![
            row.name.to_string(),
            row.microblocks.to_string(),
            row.serial_microblocks.to_string(),
            row.input_mb.to_string(),
            f1(row.ldst_ratio * 100.0),
            format!("{:.2}", row.bytes_per_kilo_instruction),
            if row.is_data_intensive() {
                "data-intensive".into()
            } else {
                "compute-intensive".into()
            },
        ]);
    }
    let mut out = table.render();
    out.push('\n');
    let mut mixes = Table::new(
        "Table 2 (right half): heterogeneous mix compositions (regenerated; see docs/ARCHITECTURE.md, \"Heterogeneous mix generator\")",
        &["Mix", "Applications"],
    );
    for mix in 1..=MIX_COUNT {
        mixes.row(vec![format!("MX{mix}"), mix_app_names(mix).join(", ")]);
    }
    out.push_str(&mixes.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_every_component() {
        let t = table1();
        for needle in [
            "LWP",
            "Scratchpad",
            "DDR3L",
            "Flash backbone",
            "PCIe",
            "Tier-1",
        ] {
            assert!(t.contains(needle), "missing {needle}");
        }
        assert!(t.contains("8 processors"));
        assert!(t.contains("32 GB"));
        assert!(t.contains("not cache or DDR3L capacity"));
    }

    #[test]
    fn table2_lists_all_benchmarks_and_mixes() {
        let t = table2();
        for name in ["ATAX", "BICG", "FDTD", "CORR", "MX1", "MX14"] {
            assert!(t.contains(name), "missing {name}");
        }
    }
}
