//! Regenerates Figures 3b and 3c (serial-fraction sensitivity study).
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "{}",
        fa_bench::experiments::fig3_motivation::report_sensitivity(spec.scale)
    );
}
