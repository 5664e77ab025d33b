//! Unified experiment runner.
//!
//! The paper evaluates five accelerated systems (§5 "Accelerators"): the
//! conventional `SIMD` baseline and the four FlashAbacus schedulers. This
//! module gives each of them a single entry point that accepts a batch of
//! application instances and returns the same [`UnifiedOutcome`] record, so
//! the per-figure modules can treat all five uniformly.

use fa_baseline::{BaselineConfig, ConventionalSystem};
use fa_energy::EnergyBreakdown;
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_kernel::model::Application;
use fa_sim::stats::TimeSeries;
use fa_workloads::bigdata::{bigdata_app, BigDataBench};
use fa_workloads::mixes::mix_apps;
use fa_workloads::polybench::{polybench_app, PolyBench};
use flashabacus::{FlashAbacusConfig, FlashAbacusSystem, SchedulerPolicy};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The five accelerated systems of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Conventional accelerator + discrete NVMe SSD, OpenMP SIMD execution.
    Simd,
    /// FlashAbacus with one of the four scheduling policies.
    FlashAbacus(SchedulerPolicy),
}

impl SystemKind {
    /// All five systems in the order the paper's figures list them.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::Simd,
            SystemKind::FlashAbacus(SchedulerPolicy::InterSt),
            SystemKind::FlashAbacus(SchedulerPolicy::IntraIo),
            SystemKind::FlashAbacus(SchedulerPolicy::InterDy),
            SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Simd => "SIMD",
            SystemKind::FlashAbacus(p) => p.label(),
        }
    }
}

/// How much the paper's data sets are scaled down for simulation speed.
///
/// Scaling divides every input size (and therefore instruction count) by
/// `data_scale`; all ratios the figures depend on are preserved. The
/// environment variable `FA_DATA_SCALE` overrides the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Divisor applied to Table 2's input sizes.
    pub data_scale: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale { data_scale: 16 }
    }
}

impl ExperimentScale {
    /// The default scale, unless `FA_DATA_SCALE` overrides it.
    ///
    /// # Panics
    ///
    /// Panics if `FA_DATA_SCALE` is set to anything but a positive integer.
    pub fn from_env() -> Self {
        let data_scale = env_knob("FA_DATA_SCALE").unwrap_or(ExperimentScale::default().data_scale);
        ExperimentScale { data_scale }
    }

    /// A coarser scale for unit tests and Criterion benches.
    pub fn quick() -> Self {
        ExperimentScale { data_scale: 128 }
    }
}

/// Metrics shared by every system, extracted from either a FlashAbacus
/// [`flashabacus::RunOutcome`] or a baseline
/// [`fa_baseline::BaselineOutcome`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnifiedOutcome {
    /// Which system produced the outcome.
    pub system: SystemKind,
    /// Workload label (benchmark or mix name).
    pub workload: String,
    /// Total execution time in seconds.
    pub total_seconds: f64,
    /// Aggregate data-processing throughput in MB/s.
    pub throughput_mb_s: f64,
    /// Kernel latency statistics `(min, avg, max)` in seconds.
    pub latency_min_avg_max: (f64, f64, f64),
    /// Kernel completion instants in seconds, ascending (CDF x-values).
    pub completion_times: Vec<f64>,
    /// Energy breakdown in joules.
    pub energy: EnergyBreakdown,
    /// Mean LWP utilization in `[0, 1]` (worker LWPs for FlashAbacus, the
    /// active LWPs for SIMD).
    pub mean_lwp_utilization: f64,
    /// Busy-functional-unit timeline.
    pub fu_timeline: TimeSeries,
    /// Power timeline in watts.
    pub power_timeline: TimeSeries,
}

impl UnifiedOutcome {
    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// Builds the homogeneous workload of §5.1: six instances of one PolyBench
/// application.
pub fn homogeneous_workload(bench: PolyBench, scale: ExperimentScale) -> Vec<Application> {
    instantiate_many(
        &[polybench_app(bench, scale.data_scale)],
        &InstancePlan::homogeneous(),
    )
}

/// Builds the heterogeneous workload MX`mix` of §5.1: 24 instances, four of
/// each of the mix's six applications.
pub fn heterogeneous_workload(mix: usize, scale: ExperimentScale) -> Vec<Application> {
    mix_apps(mix, scale.data_scale)
}

/// Builds the graph/big-data workload of §5.6: six instances of one
/// benchmark.
pub fn bigdata_workload(bench: BigDataBench, scale: ExperimentScale) -> Vec<Application> {
    instantiate_many(
        &[bigdata_app(bench, scale.data_scale)],
        &InstancePlan::homogeneous(),
    )
}

/// Runs `apps` on `system` and returns the unified outcome.
///
/// # Panics
///
/// Panics if the FlashAbacus run fails (out of flash space or a scheduler
/// stall), which indicates a harness configuration error rather than a
/// measurable result.
pub fn run_on(system: SystemKind, workload_label: &str, apps: &[Application]) -> UnifiedOutcome {
    match system {
        SystemKind::Simd => {
            let mut sys = ConventionalSystem::new(BaselineConfig::paper_baseline());
            let out = sys.run(apps);
            UnifiedOutcome {
                system,
                workload: workload_label.to_string(),
                total_seconds: out.finished_at.as_secs_f64(),
                throughput_mb_s: out.throughput_mb_s(),
                latency_min_avg_max: out.latency_stats(),
                completion_times: out.completion_cdf().into_iter().map(|(t, _)| t).collect(),
                energy: out.energy,
                mean_lwp_utilization: out.mean_lwp_utilization(),
                fu_timeline: out.fu_timeline,
                power_timeline: out.power_timeline,
            }
        }
        SystemKind::FlashAbacus(policy) => {
            let mut sys = FlashAbacusSystem::new(FlashAbacusConfig::paper_prototype(policy));
            let out = sys
                .run(apps)
                .unwrap_or_else(|e| panic!("FlashAbacus run failed on {workload_label}: {e}"));
            UnifiedOutcome {
                system,
                workload: workload_label.to_string(),
                total_seconds: out.finished_at.as_secs_f64(),
                throughput_mb_s: out.throughput_mb_s(),
                latency_min_avg_max: out.latency_stats(),
                completion_times: out.completion_cdf().into_iter().map(|(t, _)| t).collect(),
                energy: out.energy.breakdown,
                mean_lwp_utilization: out.mean_worker_utilization(),
                fu_timeline: out.fu_timeline,
                power_timeline: out.power_timeline,
            }
        }
    }
}

/// Parses a positive-integer `FA_*` knob from its raw value: `None` when
/// the variable is unset, the number when it is a positive integer.
///
/// # Panics
///
/// Panics naming the variable and the value for anything else (`0`, a
/// negative number, garbage, the empty string): silently falling back to
/// the default would run a different experiment than the one asked for.
fn parse_positive_knob(name: &str, value: Option<&str>) -> Option<u64> {
    let value = value?;
    match value.parse() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("invalid {name}: {value:?} is not a positive integer"),
    }
}

/// Reads a positive-integer knob from the environment (see
/// [`parse_positive_knob`]). A value that is not valid Unicode is rejected
/// too, rather than read as unset.
fn env_knob(name: &str) -> Option<u64> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_positive_knob(name, raw.as_deref())
}

/// Number of worker threads the campaign runner fans (workload, system)
/// pairs across: the `FA_THREADS` environment variable when set, otherwise
/// the machine's available parallelism. `FA_THREADS=1` forces a fully
/// serial run.
///
/// # Panics
///
/// Panics if `FA_THREADS` is set to anything but a positive integer.
pub fn campaign_threads() -> usize {
    match env_knob("FA_THREADS") {
        Some(n) => n as usize,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs every (workload, system) pair of a campaign, fanned across
/// [`campaign_threads`] worker threads, and returns the outcomes in the
/// exact order a serial `for workload { for system }` double loop would
/// produce them.
///
/// Every simulation is a pure, deterministic function of its `(system,
/// apps)` inputs — each run owns all of its state, and the dispatch loop
/// in `flashabacus::system` orders completions by (end time, screen
/// reference) with a deterministic tie-break — so the merged results are
/// byte-identical to a serial run regardless of thread count or
/// interleaving; only wall-clock time changes. Threads pull the next job
/// off a shared counter, so long workloads do not serialize behind a
/// static partition.
///
/// # Panics
///
/// Panics if any run fails (propagated from the worker thread by
/// `std::thread::scope`), matching [`run_on`]'s contract.
pub fn run_pairs(workloads: &[(String, Vec<Application>)]) -> Vec<UnifiedOutcome> {
    run_pairs_with_threads(workloads, campaign_threads())
}

/// [`run_pairs`] with an explicit thread count (1 = fully serial). Exposed
/// so tests can compare serial and parallel runs without touching the
/// `FA_THREADS` environment of the whole process.
pub fn run_pairs_with_threads(
    workloads: &[(String, Vec<Application>)],
    threads: usize,
) -> Vec<UnifiedOutcome> {
    let jobs: Vec<(usize, SystemKind)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| SystemKind::all().into_iter().map(move |s| (wi, s)))
        .collect();
    let threads = threads.min(jobs.len()).max(1);
    if threads == 1 {
        return jobs
            .iter()
            .map(|&(wi, system)| {
                let (label, apps) = &workloads[wi];
                run_on(system, label, apps)
            })
            .collect();
    }

    // One pre-indexed slot per job: workers race only on the job counter,
    // and the merge is a plain index-order unwrap.
    let slots: Vec<Mutex<Option<UnifiedOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(wi, system)) = jobs.get(i) else {
                    break;
                };
                let (label, apps) = &workloads[wi];
                let out = run_on(system, label, apps);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran to completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_labels_match_the_paper() {
        let labels: Vec<&str> = SystemKind::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["SIMD", "InterSt", "IntraIo", "InterDy", "IntraO3"]
        );
    }

    #[test]
    fn homogeneous_workload_has_six_instances() {
        let apps = homogeneous_workload(PolyBench::Gemm, ExperimentScale::quick());
        assert_eq!(apps.len(), 6);
        assert!(apps.iter().all(|a| a.name == "GEMM"));
    }

    #[test]
    fn heterogeneous_workload_has_24_instances() {
        let apps = heterogeneous_workload(1, ExperimentScale::quick());
        assert_eq!(apps.len(), 24);
    }

    #[test]
    fn all_systems_run_a_small_workload() {
        let scale = ExperimentScale { data_scale: 512 };
        let apps = homogeneous_workload(PolyBench::Gemm, scale);
        for system in SystemKind::all() {
            let out = run_on(system, "GEMM", &apps);
            assert!(out.total_seconds > 0.0, "{}", system.label());
            assert!(out.throughput_mb_s > 0.0, "{}", system.label());
            assert!(out.total_energy_j() > 0.0, "{}", system.label());
            assert_eq!(out.completion_times.len(), 6, "{}", system.label());
        }
    }

    #[test]
    fn flashabacus_beats_simd_on_a_data_intensive_workload() {
        // The headline claim, checked on a scaled-down ATAX batch.
        let scale = ExperimentScale { data_scale: 256 };
        let apps = homogeneous_workload(PolyBench::Atax, scale);
        let simd = run_on(SystemKind::Simd, "ATAX", &apps);
        let fa = run_on(
            SystemKind::FlashAbacus(SchedulerPolicy::IntraO3),
            "ATAX",
            &apps,
        );
        assert!(
            fa.throughput_mb_s > simd.throughput_mb_s,
            "FlashAbacus {:.1} MB/s should beat SIMD {:.1} MB/s",
            fa.throughput_mb_s,
            simd.throughput_mb_s
        );
        assert!(
            fa.total_energy_j() < simd.total_energy_j(),
            "FlashAbacus {:.3} J should use less energy than SIMD {:.3} J",
            fa.total_energy_j(),
            simd.total_energy_j()
        );
    }

    #[test]
    fn scale_from_env_defaults_to_16() {
        // The env var is not set during tests.
        if std::env::var("FA_DATA_SCALE").is_err() {
            assert_eq!(ExperimentScale::from_env().data_scale, 16);
        }
    }

    #[test]
    fn positive_knob_accepts_unset_and_positive_values() {
        assert_eq!(parse_positive_knob("FA_DATA_SCALE", None), None);
        assert_eq!(parse_positive_knob("FA_DATA_SCALE", Some("256")), Some(256));
    }

    #[test]
    fn positive_knob_rejects_zero_negative_garbage_and_empty() {
        for bad in ["0", "-3", "abc", ""] {
            let err = std::panic::catch_unwind(|| parse_positive_knob("FA_THREADS", Some(bad)))
                .expect_err("a bad knob value must panic");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert_eq!(
                *msg,
                format!("invalid FA_THREADS: {bad:?} is not a positive integer")
            );
        }
    }

    #[test]
    fn parallel_run_pairs_is_byte_identical_to_serial() {
        let scale = ExperimentScale { data_scale: 512 };
        let workloads: Vec<(String, Vec<Application>)> = vec![
            (
                "GEMM".to_string(),
                homogeneous_workload(PolyBench::Gemm, scale),
            ),
            (
                "ATAX".to_string(),
                homogeneous_workload(PolyBench::Atax, scale),
            ),
        ];
        let serial = run_pairs_with_threads(&workloads, 1);
        let parallel = run_pairs_with_threads(&workloads, 3);
        assert_eq!(serial.len(), 2 * SystemKind::all().len());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.system, p.system);
            assert_eq!(s.workload, p.workload);
            // Determinism is exact, not approximate: identical bits.
            assert_eq!(s.total_seconds.to_bits(), p.total_seconds.to_bits());
            assert_eq!(s.throughput_mb_s.to_bits(), p.throughput_mb_s.to_bits());
            assert_eq!(
                s.total_energy_j().to_bits(),
                p.total_energy_j().to_bits(),
                "{} on {}",
                s.workload,
                s.system.label()
            );
            assert_eq!(s.completion_times, p.completion_times);
        }
        // The merge preserves the serial (workload, system) iteration order.
        let order: Vec<(String, &str)> = serial
            .iter()
            .map(|o| (o.workload.clone(), o.system.label()))
            .collect();
        let mut expected = Vec::new();
        for (w, _) in &workloads {
            for s in SystemKind::all() {
                expected.push((w.clone(), s.label()));
            }
        }
        assert_eq!(order, expected);
    }
}
