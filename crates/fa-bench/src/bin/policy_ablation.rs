//! Renders the policy-ablation figure: placement × GC-victim churn grid,
//! hot/cold separation ablation, and full-system endurance rows.
//!
//! ```text
//! cargo run --release -p fa-bench --bin policy_ablation
//! ```
//!
//! `FA_DATA_SCALE` scales the churn depth down for smokes; `FA_FAULTS`
//! reaches the full-system endurance rows.

use fa_bench::experiments::policy_ablation;
use fa_bench::runner::RunSpec;

fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!("{}", policy_ablation::report(&spec));
}
