//! Regenerates Figures 13a and 13b (energy decomposition normalized to SIMD).
use fa_bench::experiments::{fig13_energy, Campaign};
use fa_bench::runner::{RunSpec, SystemKind};
use flashabacus::SchedulerPolicy;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let homogeneous = Campaign::homogeneous(&spec);
    println!("{}", fig13_energy::report_homogeneous(&homogeneous));
    let heterogeneous = Campaign::heterogeneous(&spec);
    println!("{}", fig13_energy::report_heterogeneous(&heterogeneous));
    let saving_h = fig13_energy::mean_energy_saving(
        &homogeneous,
        SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
    );
    let saving_x = fig13_energy::mean_energy_saving(
        &heterogeneous,
        SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
    );
    println!(
        "Mean IntraO3 energy saving vs SIMD: homogeneous {:.1}%, heterogeneous {:.1}%",
        saving_h * 100.0,
        saving_x * 100.0
    );
}
