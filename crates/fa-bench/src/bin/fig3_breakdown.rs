//! Regenerates Figures 3d and 3e (time and energy breakdown of the
//! conventional system).
use fa_bench::runner::RunSpec;
fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "{}",
        fa_bench::experiments::fig3_motivation::report_breakdown(spec.scale)
    );
}
