//! Regenerates Figures 15a and 15b (FU utilization and power over time).
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!("{}", fa_bench::experiments::fig15_timeline::report(&spec));
}
