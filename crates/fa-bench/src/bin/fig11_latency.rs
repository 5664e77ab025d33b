//! Regenerates Figures 11a and 11b (latency normalized to SIMD).
use fa_bench::experiments::{fig11_latency, Campaign};
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let homogeneous = Campaign::homogeneous(&spec);
    println!("{}", fig11_latency::report_homogeneous(&homogeneous));
    let heterogeneous = Campaign::heterogeneous(&spec);
    println!("{}", fig11_latency::report_heterogeneous(&heterogeneous));
}
