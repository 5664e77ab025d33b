//! Regenerates Figures 14a and 14b (LWP utilization).
use fa_bench::experiments::{fig14_utilization, Campaign};
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let homogeneous = Campaign::homogeneous(&spec);
    println!("{}", fig14_utilization::report_homogeneous(&homogeneous));
    let heterogeneous = Campaign::heterogeneous(&spec);
    println!(
        "{}",
        fig14_utilization::report_heterogeneous(&heterogeneous)
    );
}
