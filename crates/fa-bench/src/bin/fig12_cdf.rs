//! Regenerates Figures 12a and 12b (completion-time CDFs for ATAX and MX1).
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!("{}", fa_bench::experiments::fig12_cdf::report(&spec));
}
