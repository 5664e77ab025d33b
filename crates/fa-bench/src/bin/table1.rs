//! Regenerates Table 1 (hardware specification).
use fa_bench::runner::RunSpec;
fn main() {
    // The table reads no knob, but a malformed one fails every binary alike.
    RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!("{}", fa_bench::experiments::tables::table1());
}
