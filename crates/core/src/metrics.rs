//! Result types produced by full-system runs.
//!
//! Every figure of the evaluation is a projection of these records:
//! throughput (Figure 10, 16a), per-kernel latency statistics and CDFs
//! (Figures 11 and 12), energy breakdowns (Figures 3e, 13, 16b), LWP
//! utilization (Figure 14), and the function-unit / power timelines
//! (Figure 15).

use crate::scheduler::SchedulerPolicy;
use fa_energy::EnergyBreakdown;
use fa_sim::stats::{Histogram, TimeSeries};
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Latency record for one kernel of the offloaded batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelLatency {
    /// Name of the application instance (benchmark name).
    pub app_name: String,
    /// Application index in the batch.
    pub app_index: usize,
    /// Kernel index within the application.
    pub kernel_index: usize,
    /// When the kernel became eligible to run (end of its offload).
    pub offloaded_at: SimTime,
    /// When the kernel's last screen finished.
    pub completed_at: SimTime,
}

impl KernelLatency {
    /// The latency the paper reports: offload-to-completion.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.offloaded_at)
    }
}

/// Per-owner flash data-path statistics of a run: who issued how much
/// traffic, and what read tail latency each owner saw. One row per owner
/// that touched the backbone, ordered kernels first, then the GC and
/// journal streams (the QoS figures key on this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnerFlashStats {
    /// Owner label (`kernel<N>`, `gc`, `journal`, `unattributed`).
    pub owner: String,
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Payload bytes moved over the SRIO front-end.
    pub bytes: u64,
    /// Median end-to-end page-read latency, seconds.
    pub read_p50_s: f64,
    /// 99th-percentile end-to-end page-read latency, seconds.
    pub read_p99_s: f64,
    /// Worst end-to-end page-read latency, seconds.
    pub read_max_s: f64,
    /// Peak simultaneous tag-queue occupancy this owner reached on any one
    /// channel.
    pub peak_channel_tags: usize,
}

/// Energy totals of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergySummary {
    /// The three-way breakdown plus idle floor.
    pub breakdown: EnergyBreakdown,
}

impl EnergySummary {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.breakdown.total_j()
    }
}

/// Outcome of one full-system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Which scheduler produced this outcome.
    pub scheduler: SchedulerPolicy,
    /// When the last kernel (and, for unbuffered writes, the last flash
    /// write) completed.
    pub finished_at: SimTime,
    /// Per-kernel completion records, in offload order.
    pub kernel_latencies: Vec<KernelLatency>,
    /// Total bytes of input read plus output produced across the batch.
    pub bytes_processed: u64,
    /// Energy summary over the run.
    pub energy: EnergySummary,
    /// Per-worker-LWP busy fraction over the run.
    pub worker_utilization: Vec<f64>,
    /// Busy fraction of the Flashvisor LWP.
    pub flashvisor_utilization: f64,
    /// Busy fraction of the Storengine LWP.
    pub storengine_utilization: f64,
    /// Total busy functional units across all workers, sampled over time
    /// (Figure 15a).
    pub fu_timeline: TimeSeries,
    /// Instantaneous power over time (Figure 15b).
    pub power_timeline: TimeSeries,
    /// Page-group reads issued by Flashvisor.
    pub flash_group_reads: u64,
    /// Page-group writes issued by Flashvisor.
    pub flash_group_writes: u64,
    /// Garbage-collection passes run by Storengine.
    pub gc_passes: u64,
    /// Metadata journal dumps run by Storengine.
    pub journal_dumps: u64,
    /// Per-owner flash traffic and read tail latency (kernels, GC,
    /// journal), for the QoS figures.
    pub flash_owner_stats: Vec<OwnerFlashStats>,
    /// 99th-percentile foreground (kernel-owned) page-read latency in
    /// seconds — the tail the per-owner budgets exist to protect. Zero
    /// when the run read nothing.
    pub foreground_read_p99_s: f64,
    /// Fewest erase cycles any data block absorbed (the journal's reserved
    /// metadata row is excluded from all three wear metrics).
    pub wear_min_erases: u64,
    /// Most erase cycles any data block absorbed. `max − min` is the wear
    /// spread the `LeastWorn` placement policy exists to narrow.
    pub wear_max_erases: u64,
    /// Population standard deviation of per-data-block erase cycles.
    pub wear_stddev_erases: f64,
    /// Bytes GC migrated per byte it returned to the allocator — the
    /// write-amplification-style efficiency the victim policies compete
    /// on (lower is better; 0 when GC reclaimed nothing).
    pub gc_migrated_bytes_per_reclaimed_byte: f64,
    /// Group writes classified hot by the overwrite-count threshold.
    pub hot_group_writes: u64,
    /// Group writes classified cold (all of them when hot/cold separation
    /// is disabled).
    pub cold_group_writes: u64,
    /// Fraction of hot-classified writes served from the dedicated hot
    /// active blocks; 0 when nothing was classified hot.
    pub hot_steer_rate: f64,
    /// Open-loop campaigns only: tenants the arrival process injected.
    /// Zero for closed-loop batch runs.
    pub tenants_arrived: u64,
    /// Tenants admitted straight into a free slot at arrival.
    pub tenants_admitted: u64,
    /// Tenants parked in the admission queue at arrival (admitted later,
    /// in arrival order, as slots freed).
    pub tenants_queued: u64,
    /// Tenants shed because both the slots and the queue were full.
    pub tenants_shed: u64,
    /// Median tenant sojourn (arrival to completion, queueing included),
    /// seconds; zero when no tenant completed.
    pub tenant_sojourn_p50_s: f64,
    /// 99th-percentile tenant sojourn, seconds.
    pub tenant_sojourn_p99_s: f64,
    /// 99.9th-percentile tenant sojourn, seconds.
    pub tenant_sojourn_p999_s: f64,
    /// Jain's fairness index over completed tenants' flash bytes moved
    /// (1.0 = perfectly even service, → 1/n under starvation); zero when
    /// no tenant completed.
    pub tenant_fairness_index: f64,
    /// Budget-recomputation ticks the online QoS governor executed.
    pub governor_updates: u64,
}

impl RunOutcome {
    /// Aggregate data-processing throughput in MB/s (the metric of
    /// Figures 10 and 16a): bytes processed divided by total execution time.
    pub fn throughput_mb_s(&self) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes_processed as f64 / 1.0e6 / secs
    }

    /// Mean worker-LWP utilization (Figure 14's metric).
    pub fn mean_worker_utilization(&self) -> f64 {
        if self.worker_utilization.is_empty() {
            return 0.0;
        }
        self.worker_utilization.iter().sum::<f64>() / self.worker_utilization.len() as f64
    }

    /// Kernel latency statistics: (min, average, max), in seconds
    /// (Figure 11's metric).
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

    /// Empirical CDF of kernel completion times in seconds (Figure 12's
    /// metric): completion instants sorted ascending with their cumulative
    /// count.
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

    /// Kernel latencies as a histogram (for quantile queries).
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for k in &self.kernel_latencies {
            h.record(k.latency().as_secs_f64());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_energy::EnergyBreakdown;

    fn outcome() -> RunOutcome {
        RunOutcome {
            scheduler: SchedulerPolicy::IntraO3,
            finished_at: SimTime::from_ms(100),
            kernel_latencies: vec![
                KernelLatency {
                    app_name: "A".into(),
                    app_index: 0,
                    kernel_index: 0,
                    offloaded_at: SimTime::from_ms(1),
                    completed_at: SimTime::from_ms(41),
                },
                KernelLatency {
                    app_name: "B".into(),
                    app_index: 1,
                    kernel_index: 0,
                    offloaded_at: SimTime::from_ms(2),
                    completed_at: SimTime::from_ms(100),
                },
            ],
            bytes_processed: 50 * 1_000_000,
            energy: EnergySummary {
                breakdown: EnergyBreakdown {
                    data_movement_j: 1.0,
                    computation_j: 2.0,
                    storage_access_j: 3.0,
                    idle_j: 0.5,
                },
            },
            worker_utilization: vec![0.5, 0.7, 0.9],
            flashvisor_utilization: 0.2,
            storengine_utilization: 0.1,
            fu_timeline: TimeSeries::new(),
            power_timeline: TimeSeries::new(),
            flash_group_reads: 10,
            flash_group_writes: 5,
            gc_passes: 0,
            journal_dumps: 1,
            flash_owner_stats: Vec::new(),
            foreground_read_p99_s: 0.0,
            wear_min_erases: 0,
            wear_max_erases: 0,
            wear_stddev_erases: 0.0,
            gc_migrated_bytes_per_reclaimed_byte: 0.0,
            hot_group_writes: 0,
            cold_group_writes: 0,
            hot_steer_rate: 0.0,
            tenants_arrived: 0,
            tenants_admitted: 0,
            tenants_queued: 0,
            tenants_shed: 0,
            tenant_sojourn_p50_s: 0.0,
            tenant_sojourn_p99_s: 0.0,
            tenant_sojourn_p999_s: 0.0,
            tenant_fairness_index: 0.0,
            governor_updates: 0,
        }
    }

    #[test]
    fn throughput_is_bytes_over_time() {
        let o = outcome();
        // 50 MB in 0.1 s = 500 MB/s.
        assert!((o.throughput_mb_s() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_and_cdf() {
        let o = outcome();
        let (min, avg, max) = o.latency_stats();
        assert!((min - 0.040).abs() < 1e-9);
        assert!((max - 0.098).abs() < 1e-9);
        assert!((avg - 0.069).abs() < 1e-9);
        let cdf = o.completion_cdf();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].1, 1);
        assert_eq!(cdf[1].1, 2);
        assert!(cdf[0].0 < cdf[1].0);
    }

    #[test]
    fn utilization_and_energy_aggregate() {
        let o = outcome();
        assert!((o.mean_worker_utilization() - 0.7).abs() < 1e-9);
        assert!((o.energy.total_j() - 6.5).abs() < 1e-12);
        let mut h = o.latency_histogram();
        assert_eq!(h.quantile(1.0), Some(0.098));
    }

    #[test]
    fn empty_outcome_is_safe() {
        let mut o = outcome();
        o.kernel_latencies.clear();
        o.worker_utilization.clear();
        assert_eq!(o.latency_stats(), (0.0, 0.0, 0.0));
        assert_eq!(o.mean_worker_utilization(), 0.0);
        assert!(o.completion_cdf().is_empty());
    }
}
