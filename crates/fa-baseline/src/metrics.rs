//! Outcome types for conventional-system runs.

use fa_energy::EnergySummary;
use fa_kernel::KernelLatency;
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

/// Outcome of one conventional-system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// When the whole batch finished.
    pub finished_at: SimTime,
    /// Per-kernel records in execution order; `offloaded_at` is the
    /// instant the host started on the kernel.
    pub kernel_latencies: Vec<KernelLatency>,
    /// Bytes of input and output processed.
    pub bytes_processed: u64,
    /// Energy breakdown and the Figure 15 timelines (the SIMD curves).
    pub energy: EnergySummary,
    /// Execution-time decomposition (Figure 3d).
    pub time_breakdown: TimeBreakdown,
    /// Per-LWP utilization over the run.
    pub lwp_utilization: Vec<f64>,
    /// Host CPU busy fraction.
    pub host_cpu_utilization: f64,
}

impl BaselineOutcome {
    /// Mean LWP utilization.
    pub fn mean_lwp_utilization(&self) -> f64 {
        if self.lwp_utilization.is_empty() {
            return 0.0;
        }
        self.lwp_utilization.iter().sum::<f64>() / self.lwp_utilization.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_energy::EnergyBreakdown;
    use fa_kernel::latency::{completion_cdf, latency_stats, throughput_mb_s};
    use fa_sim::stats::TimeSeries;

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
            kernel_latencies: vec![KernelLatency {
                app_name: "ATAX".into(),
                app_index: 0,
                kernel_index: 0,
                offloaded_at: SimTime::from_ms(10),
                completed_at: SimTime::from_ms(200),
            }],
            bytes_processed: 100_000_000,
            energy: EnergySummary {
                breakdown: EnergyBreakdown::default(),
                power_timeline: TimeSeries::new(),
                fu_timeline: TimeSeries::new(),
            },
            time_breakdown: TimeBreakdown::default(),
            lwp_utilization: vec![0.2, 0.4],
            host_cpu_utilization: 0.5,
        };
        assert!((throughput_mb_s(o.bytes_processed, o.finished_at) - 500.0).abs() < 1e-9);
        assert!((o.mean_lwp_utilization() - 0.3).abs() < 1e-12);
        let (min, avg, max) = latency_stats(&o.kernel_latencies);
        assert_eq!(min, max);
        assert!((avg - 0.19).abs() < 1e-9);
        assert_eq!(completion_cdf(&o.kernel_latencies).len(), 1);
    }
}
