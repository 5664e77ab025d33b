//! Per-kernel completion records and the metrics the evaluation projects
//! from them: throughput (Figures 10 and 16a), latency statistics
//! (Figure 11) and the completion CDF (Figure 12). FlashAbacus and the
//! SIMD baseline both report their kernels in this one record.

use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Latency record for one kernel of an offloaded batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelLatency {
    /// Name of the application instance (benchmark name).
    pub app_name: String,
    /// Application index in the batch.
    pub app_index: usize,
    /// Kernel index within the application.
    pub kernel_index: usize,
    /// When the kernel became eligible to run: the end of its offload on
    /// FlashAbacus, the instant the host started on it on the baseline.
    pub offloaded_at: SimTime,
    /// When the kernel's last screen finished (on the baseline, when its
    /// results were back on the SSD).
    pub completed_at: SimTime,
}

impl KernelLatency {
    /// The latency the paper reports: offload-to-completion.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.offloaded_at)
    }
}

/// Aggregate data-processing throughput in MB/s: `bytes` divided by the
/// run's total execution time (0 for a run that took no time).
pub fn throughput_mb_s(bytes: u64, finished_at: SimTime) -> f64 {
    let secs = finished_at.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / 1.0e6 / secs
}

/// Kernel latency statistics `(min, average, max)` in seconds; all zero
/// when there are no kernels.
pub fn latency_stats(kernels: &[KernelLatency]) -> (f64, f64, f64) {
    if kernels.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut sum = 0.0;
    for k in kernels {
        let l = k.latency().as_secs_f64();
        min = min.min(l);
        max = max.max(l);
        sum += l;
    }
    (min, sum / kernels.len() as f64, max)
}

/// Empirical CDF of kernel completion times in seconds: completion
/// instants sorted ascending with their cumulative count.
pub fn completion_cdf(kernels: &[KernelLatency]) -> Vec<(f64, usize)> {
    let mut times: Vec<f64> = kernels
        .iter()
        .map(|k| k.completed_at.as_secs_f64())
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite completion times"));
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, i + 1))
        .collect()
}
