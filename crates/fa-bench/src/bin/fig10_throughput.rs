//! Regenerates Figures 10a and 10b (throughput of the five systems).
use fa_bench::experiments::{fig10_throughput, Campaign};
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let homogeneous = Campaign::homogeneous(&spec);
    println!("{}", fig10_throughput::report_homogeneous(&homogeneous));
    let heterogeneous = Campaign::heterogeneous(&spec);
    println!("{}", fig10_throughput::report_heterogeneous(&heterogeneous));
}
