//! Regenerates Figures 16a and 16b (graph / big-data applications).
use fa_bench::experiments::{fig16_bigdata, Campaign};
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    let campaign = Campaign::bigdata(&spec);
    println!("{}", fig16_bigdata::report(&campaign));
}
