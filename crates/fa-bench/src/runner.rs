//! Unified experiment runner.
//!
//! The paper evaluates five accelerated systems (§5 "Accelerators"): the
//! conventional `SIMD` baseline and the four FlashAbacus schedulers. This
//! module gives each of them a single entry point that accepts a batch of
//! application instances and returns the same [`UnifiedOutcome`] record, so
//! the per-figure modules can treat all five uniformly.
//!
//! Every knob of a run arrives as an explicit [`RunSpec`] argument. The
//! `fa-bench` binaries build it once, from the `FA_*` environment
//! variables, with [`RunSpec::parse`]; no library function reads the
//! environment.

use fa_baseline::{BaselineConfig, ConventionalSystem};
use fa_energy::EnergySummary;
use fa_flash::FaultPlan;
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_kernel::latency::{completion_cdf, latency_stats, throughput_mb_s};
use fa_kernel::model::Application;
use fa_sim::arrivals::ArrivalPlan;
use fa_workloads::bigdata::{bigdata_app, BigDataBench};
use fa_workloads::mixes::mix_apps;
use fa_workloads::polybench::{polybench_app, PolyBench};
use flashabacus::{FlashAbacusConfig, FlashAbacusSystem, SchedulerPolicy};
use serde::{Deserialize, Serialize};
use std::ffi::OsString;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
/// binaries take it from `FA_DATA_SCALE` (see [`RunSpec::parse`]).
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

/// Everything a run depends on besides its workload: the data scale, the
/// campaign thread count, and the fault and arrival plans.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Divisor applied to the paper's input sizes (`FA_DATA_SCALE`).
    pub scale: ExperimentScale,
    /// Worker threads a campaign fans its (workload, system) pairs across
    /// (`FA_THREADS`); 1 runs serially. Results do not depend on it.
    pub threads: usize,
    /// Fault plan installed in every FlashAbacus system built through
    /// [`RunSpec::system`] (`FA_FAULTS`); `None` runs fault-free.
    pub faults: Option<Arc<FaultPlan>>,
    /// Open-loop arrival plan for the `scaleout` binary (`FA_ARRIVALS`).
    pub arrivals: Option<ArrivalPlan>,
}

impl RunSpec {
    /// A fault-free spec at `scale`, with no arrival plan, fanned across
    /// the machine's available parallelism.
    pub fn at(scale: ExperimentScale) -> Self {
        RunSpec {
            scale,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            faults: None,
            arrivals: None,
        }
    }

    /// Builds a spec from the `FA_DATA_SCALE`, `FA_THREADS`, `FA_FAULTS`
    /// and `FA_ARRIVALS` values `lookup` returns; the binaries pass the
    /// process environment's `var_os`, tests a fake. An unset variable
    /// keeps the default of [`RunSpec::at`] with
    /// [`ExperimentScale::default`].
    ///
    /// # Errors
    ///
    /// A set variable must hold a valid value: a positive integer for the
    /// scale and the thread count, a non-empty spec for the plans (see
    /// [`FaultPlan::parse`] and [`ArrivalPlan::parse`]). Anything else,
    /// including the empty string and bytes that are not UTF-8, is an
    /// error naming the variable and the value: falling back to the
    /// default would run a different experiment than the one asked for.
    pub fn parse(lookup: impl Fn(&'static str) -> Option<OsString>) -> Result<Self, String> {
        let mut spec = RunSpec::at(ExperimentScale::default());
        if let Some(data_scale) = knob(&lookup, "FA_DATA_SCALE", positive)? {
            spec.scale = ExperimentScale { data_scale };
        }
        if let Some(threads) = knob(&lookup, "FA_THREADS", positive)? {
            spec.threads = threads as usize;
        }
        spec.faults = knob(&lookup, "FA_FAULTS", |v| plan(v, FaultPlan::parse))?.map(Arc::new);
        spec.arrivals = knob(&lookup, "FA_ARRIVALS", |v| plan(v, ArrivalPlan::parse))?;
        Ok(spec)
    }

    /// Builds a FlashAbacus system from `config`, with the spec's fault
    /// plan installed when it has one.
    pub fn system(&self, config: FlashAbacusConfig) -> FlashAbacusSystem {
        let mut system = FlashAbacusSystem::new(config);
        if let Some(plan) = &self.faults {
            system.install_fault_plan(Arc::clone(plan));
        }
        system
    }
}

/// Looks `name` up and parses its value: `Ok(None)` when it is unset, an
/// error naming the variable and the value when it is not UTF-8 or `parse`
/// rejects it (`parse` returns the reason, phrased to follow the value).
fn knob<T>(
    lookup: impl Fn(&'static str) -> Option<OsString>,
    name: &'static str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let Some(raw) = lookup(name) else {
        return Ok(None);
    };
    let value = raw
        .to_str()
        .ok_or_else(|| format!("invalid {name}: {raw:?} is not valid UTF-8"))?;
    parse(value)
        .map(Some)
        .map_err(|reason| format!("invalid {name}: {value:?} {reason}"))
}

fn positive(value: &str) -> Result<u64, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("is not a positive integer".to_string()),
    }
}

fn plan<T>(value: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    if value.trim().is_empty() {
        return Err("is empty".to_string());
    }
    parse(value).map_err(|e| format!("is not a valid spec: {e}"))
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
    /// Energy breakdown in joules, and the FU and power timelines.
    pub energy: EnergySummary,
    /// Mean LWP utilization in `[0, 1]` (worker LWPs for FlashAbacus, the
    /// active LWPs for SIMD).
    pub mean_lwp_utilization: f64,
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

/// Runs `apps` on `system` and returns the unified outcome. A FlashAbacus
/// system runs under `spec`'s fault plan.
///
/// # Panics
///
/// Panics if the FlashAbacus run fails (out of flash space or a scheduler
/// stall), which indicates a harness configuration error rather than a
/// measurable result.
pub fn run_on(
    spec: &RunSpec,
    system: SystemKind,
    workload_label: &str,
    apps: &[Application],
) -> UnifiedOutcome {
    let (finished_at, bytes, kernels, energy, utilization) = match system {
        SystemKind::Simd => {
            let out = ConventionalSystem::new(BaselineConfig::paper_baseline()).run(apps);
            let utilization = out.mean_lwp_utilization();
            (
                out.finished_at,
                out.bytes_processed,
                out.kernel_latencies,
                out.energy,
                utilization,
            )
        }
        SystemKind::FlashAbacus(policy) => {
            let out = spec
                .system(FlashAbacusConfig::paper_prototype(policy))
                .run(apps)
                .unwrap_or_else(|e| panic!("FlashAbacus run failed on {workload_label}: {e}"));
            let utilization = out.mean_worker_utilization();
            (
                out.finished_at,
                out.bytes_processed,
                out.kernel_latencies,
                out.energy,
                utilization,
            )
        }
    };
    UnifiedOutcome {
        system,
        workload: workload_label.to_string(),
        total_seconds: finished_at.as_secs_f64(),
        throughput_mb_s: throughput_mb_s(bytes, finished_at),
        latency_min_avg_max: latency_stats(&kernels),
        completion_times: completion_cdf(&kernels)
            .into_iter()
            .map(|(t, _)| t)
            .collect(),
        energy,
        mean_lwp_utilization: utilization,
    }
}

/// Runs every (workload, system) pair of a campaign under `spec`, fanned
/// across `spec.threads` worker threads, and returns the outcomes in the
/// exact order a serial `for workload { for system }` double loop would
/// produce them.
///
/// Every simulation is a pure, deterministic function of its `(system,
/// apps)` inputs — each run owns all of its state, and the run driver in
/// `flashabacus::system` pops events by (time, rank, insertion) with a
/// fixed tie order — so the merged results are
/// byte-identical to a serial run regardless of thread count or
/// interleaving; only wall-clock time changes. Threads pull the next job
/// off a shared counter, so long workloads do not serialize behind a
/// static partition.
///
/// # Panics
///
/// Panics if any run fails (propagated from the worker thread by
/// `std::thread::scope`), matching [`run_on`]'s contract.
pub fn run_pairs(spec: &RunSpec, workloads: &[(String, Vec<Application>)]) -> Vec<UnifiedOutcome> {
    let jobs: Vec<(usize, SystemKind)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| SystemKind::all().into_iter().map(move |s| (wi, s)))
        .collect();
    let threads = spec.threads.min(jobs.len()).max(1);
    if threads == 1 {
        return jobs
            .iter()
            .map(|&(wi, system)| {
                let (label, apps) = &workloads[wi];
                run_on(spec, system, label, apps)
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
                let out = run_on(spec, system, label, apps);
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
        let apps = homogeneous_workload(PolyBench::Gemm, ExperimentScale { data_scale: 128 });
        assert_eq!(apps.len(), 6);
        assert!(apps.iter().all(|a| a.name == "GEMM"));
    }

    #[test]
    fn heterogeneous_workload_has_24_instances() {
        let apps = heterogeneous_workload(1, ExperimentScale { data_scale: 128 });
        assert_eq!(apps.len(), 24);
    }

    #[test]
    fn all_systems_run_a_small_workload() {
        let scale = ExperimentScale { data_scale: 512 };
        let apps = homogeneous_workload(PolyBench::Gemm, scale);
        for system in SystemKind::all() {
            let out = run_on(&RunSpec::at(scale), system, "GEMM", &apps);
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
        let spec = RunSpec::at(scale);
        let simd = run_on(&spec, SystemKind::Simd, "ATAX", &apps);
        let fa = run_on(
            &spec,
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

    /// A lookup that serves `vars` and reports every other name unset.
    fn fake_env(vars: Vec<(&'static str, OsString)>) -> impl Fn(&'static str) -> Option<OsString> {
        move |name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
        }
    }

    const KNOBS: [&str; 4] = ["FA_DATA_SCALE", "FA_THREADS", "FA_FAULTS", "FA_ARRIVALS"];

    #[test]
    fn scale_from_env_defaults_to_16() {
        let spec = RunSpec::parse(fake_env(Vec::new())).unwrap();
        assert_eq!(spec.scale.data_scale, 16);
        assert_eq!(
            spec.threads,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(spec.faults, None);
        assert_eq!(spec.arrivals, None);
        assert_eq!(spec, RunSpec::at(ExperimentScale::default()));
    }

    #[test]
    fn positive_knob_accepts_unset_and_positive_values() {
        let spec = RunSpec::parse(fake_env(vec![
            ("FA_DATA_SCALE", "256".into()),
            ("FA_THREADS", "3".into()),
            ("FA_FAULTS", "seed=1,program=0.001".into()),
            ("FA_ARRIVALS", "seed=2,rate=50,tenants=8".into()),
        ]))
        .unwrap();
        assert_eq!(spec.scale.data_scale, 256);
        assert_eq!(spec.threads, 3);
        assert_eq!(
            spec.faults.as_deref(),
            Some(&FaultPlan::parse("seed=1,program=0.001").unwrap())
        );
        assert_eq!(
            spec.arrivals,
            Some(ArrivalPlan::parse("seed=2,rate=50,tenants=8").unwrap())
        );
        // Each knob on its own leaves the others at their defaults.
        let only_threads = RunSpec::parse(fake_env(vec![("FA_THREADS", "1".into())])).unwrap();
        assert_eq!(
            only_threads,
            RunSpec {
                threads: 1,
                ..RunSpec::at(ExperimentScale::default())
            }
        );
    }

    #[test]
    fn positive_knob_rejects_zero_negative_garbage_and_empty() {
        for name in KNOBS {
            for bad in ["0", "-3", "abc", "", "  "] {
                let err = RunSpec::parse(fake_env(vec![(name, bad.into())]))
                    .expect_err("a bad knob value must be rejected");
                assert!(
                    err.starts_with(&format!("invalid {name}: {bad:?} ")),
                    "{name}={bad:?} gave {err:?}"
                );
            }
            #[cfg(unix)]
            {
                use std::os::unix::ffi::OsStringExt;
                let raw = OsString::from_vec(b"16\xff".to_vec());
                let err = RunSpec::parse(fake_env(vec![(name, raw.clone())])).unwrap_err();
                assert_eq!(err, format!("invalid {name}: {raw:?} is not valid UTF-8"));
            }
        }
        let err = RunSpec::parse(fake_env(vec![("FA_THREADS", "0".into())])).unwrap_err();
        assert_eq!(err, "invalid FA_THREADS: \"0\" is not a positive integer");
        let err =
            RunSpec::parse(fake_env(vec![("FA_FAULTS", "seed=1,seed=2".into())])).unwrap_err();
        assert_eq!(
            err,
            "invalid FA_FAULTS: \"seed=1,seed=2\" is not a valid spec: \
             repeated fault spec key \"seed\""
        );
    }

    #[test]
    fn spec_systems_carry_the_fault_plan() {
        let plan = "power_loss_ns=5000";
        let spec = RunSpec::parse(fake_env(vec![("FA_FAULTS", plan.into())])).unwrap();
        let config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
        assert!(spec.system(config).power_loss_clock().armed());
        let fault_free = RunSpec::at(ExperimentScale::default());
        assert!(!fault_free.system(config).power_loss_clock().armed());
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
        let serial_spec = RunSpec {
            threads: 1,
            ..RunSpec::at(scale)
        };
        let serial = run_pairs(&serial_spec, &workloads);
        let parallel = run_pairs(
            &RunSpec {
                threads: 3,
                ..serial_spec
            },
            &workloads,
        );
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
