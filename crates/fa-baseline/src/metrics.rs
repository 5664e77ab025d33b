//! Outcome types for conventional-system runs.

use fa_energy::EnergyBreakdown;
use fa_sim::stats::TimeSeries;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Where the execution time of a run went — the decomposition of Figure 3d
/// (accelerator compute vs. SSD device time vs. host storage-stack time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Time the accelerator spent computing (including compute that
    /// overlaps transfers, as the paper's methodology does).
    pub accelerator: SimDuration,
    /// Time the SSD device spent serving requests.
    pub ssd: SimDuration,
    /// Time the host storage stack (and accelerator runtime) spent
    /// processing requests and copying data.
    pub host_stack: SimDuration,
}

impl TimeBreakdown {
    /// Total accounted time.
    pub(crate) fn total(&self) -> SimDuration {
        self.accelerator + self.ssd + self.host_stack
    }

    /// Fractions `(accelerator, ssd, host_stack)` normalized to the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.accelerator.as_secs_f64() / total,
            self.ssd.as_secs_f64() / total,
            self.host_stack.as_secs_f64() / total,
        )
    }
}

/// Per-kernel latency record of a conventional-system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineKernelLatency {
    /// Benchmark name.
    pub app_name: String,
    /// Application index in the batch.
    pub app_index: usize,
    /// Kernel index within the application.
    pub kernel_index: usize,
    /// When the host started working on this kernel.
    pub started_at: SimTime,
    /// When the kernel's results were back on the SSD.
    pub completed_at: SimTime,
}

impl BaselineKernelLatency {
    /// Start-to-finish latency.
    pub(crate) fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

/// Outcome of one conventional-system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// When the whole batch finished.
    pub finished_at: SimTime,
    /// Per-kernel records in execution order.
    pub kernel_latencies: Vec<BaselineKernelLatency>,
    /// Bytes of input and output processed.
    pub bytes_processed: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Execution-time decomposition (Figure 3d).
    pub time_breakdown: TimeBreakdown,
    /// Per-LWP utilization over the run.
    pub lwp_utilization: Vec<f64>,
    /// Busy-functional-unit timeline (Figure 15a, SIMD curve).
    pub fu_timeline: TimeSeries,
    /// Power timeline (Figure 15b, SIMD curve).
    pub power_timeline: TimeSeries,
    /// Host CPU busy fraction.
    pub host_cpu_utilization: f64,
}

impl BaselineOutcome {
    /// Aggregate throughput in MB/s.
    pub fn throughput_mb_s(&self) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes_processed as f64 / 1.0e6 / secs
    }

    /// Mean LWP utilization.
    pub fn mean_lwp_utilization(&self) -> f64 {
        if self.lwp_utilization.is_empty() {
            return 0.0;
        }
        self.lwp_utilization.iter().sum::<f64>() / self.lwp_utilization.len() as f64
    }

    /// Kernel latency statistics `(min, average, max)` in seconds.
    pub fn latency_stats(&self) -> (f64, f64, f64) {
        if self.kernel_latencies.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut sum = 0.0;
        for k in &self.kernel_latencies {
            let l = k.latency().as_secs_f64();
            min = min.min(l);
            max = max.max(l);
            sum += l;
        }
        (min, sum / self.kernel_latencies.len() as f64, max)
    }

    /// Empirical CDF of kernel completion times in seconds.
    pub fn completion_cdf(&self) -> Vec<(f64, usize)> {
        let mut times: Vec<f64> = self
            .kernel_latencies
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_breakdown_fractions_sum_to_one() {
        let b = TimeBreakdown {
            accelerator: SimDuration::from_ms(10),
            ssd: SimDuration::from_ms(30),
            host_stack: SimDuration::from_ms(60),
        };
        let (a, s, h) = b.fractions();
        assert!((a + s + h - 1.0).abs() < 1e-9);
        assert!(h > s && s > a);
        let empty = TimeBreakdown::default();
        assert_eq!(empty.fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn outcome_metrics_compute() {
        let o = BaselineOutcome {
            finished_at: SimTime::from_ms(200),
            kernel_latencies: vec![BaselineKernelLatency {
                app_name: "ATAX".into(),
                app_index: 0,
                kernel_index: 0,
                started_at: SimTime::from_ms(10),
                completed_at: SimTime::from_ms(200),
            }],
            bytes_processed: 100_000_000,
            energy: EnergyBreakdown::default(),
            time_breakdown: TimeBreakdown::default(),
            lwp_utilization: vec![0.2, 0.4],
            fu_timeline: TimeSeries::new(),
            power_timeline: TimeSeries::new(),
            host_cpu_utilization: 0.5,
        };
        assert!((o.throughput_mb_s() - 500.0).abs() < 1e-9);
        assert!((o.mean_lwp_utilization() - 0.3).abs() < 1e-12);
        let (min, avg, max) = o.latency_stats();
        assert_eq!(min, max);
        assert!((avg - 0.19).abs() < 1e-9);
        assert_eq!(o.completion_cdf().len(), 1);
    }
}
