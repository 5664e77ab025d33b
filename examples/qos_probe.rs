//! Standalone reproduction of the Figure 12c QoS ablation: foreground
//! read p99 under concurrent GC with storage management synchronous,
//! backgrounded, and backgrounded with a per-owner tag budget. Uses the
//! exact workload/configs the figure and `BENCH_PR4.json` record, so the
//! numbers match them.

use fa_bench::experiments::fig12_cdf::{gc_pressure_workload, qos_ablation_modes, run_qos_mode};
use fa_bench::runner::{ExperimentScale, RunSpec};

fn main() {
    let spec = RunSpec::at(ExperimentScale::default());
    let apps = gc_pressure_workload();
    for (label, config) in qos_ablation_modes() {
        let out = run_qos_mode(&spec, config, &apps);
        println!(
            "{label:14} gc_passes {:5}  fg read p99 {:.6} ms  batch finish {:.3} ms",
            out.gc_passes,
            out.foreground_read_p99_s * 1e3,
            out.finished_at.as_secs_f64() * 1e3,
        );
    }
}
