//! Result types produced by full-system runs.
//!
//! Every figure of the evaluation is a projection of these records:
//! throughput (Figure 10, 16a), per-kernel latency statistics and CDFs
//! (Figures 11 and 12), energy breakdowns (Figures 3e, 13, 16b), LWP
//! utilization (Figure 14), and the function-unit / power timelines
//! (Figure 15).

use crate::flashvisor::WearSummary;
use crate::scheduler::SchedulerPolicy;
use fa_energy::EnergySummary;
use fa_kernel::KernelLatency;
use fa_sim::time::SimTime;
use serde::{Deserialize, Serialize};

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
    /// Energy breakdown and the Figure 15 timelines over the run.
    pub energy: EnergySummary,
    /// Per-worker-LWP busy fraction over the run.
    pub worker_utilization: Vec<f64>,
    /// Busy fraction of the Flashvisor LWP.
    pub flashvisor_utilization: f64,
    /// Busy fraction of the Storengine LWP.
    pub storengine_utilization: f64,
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
    /// Erase-cycle spread over the data blocks (the journal's reserved
    /// metadata row is excluded): the spread the `LeastWorn` placement
    /// policy exists to narrow.
    pub wear: WearSummary,
    /// Bytes GC migrated per byte it returned to the allocator — the
    /// write-amplification-style efficiency the victim policies compete
    /// on (lower is better; 0 when GC reclaimed nothing).
    pub gc_migrated_bytes_per_reclaimed_byte: f64,
    /// Group writes classified hot by the overwrite-count threshold.
    pub hot_group_writes: u64,
    /// Group writes classified cold (all of them when hot/cold separation
    /// is disabled).
    pub cold_group_writes: u64,
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
    /// Mean worker-LWP utilization (Figure 14's metric).
    pub fn mean_worker_utilization(&self) -> f64 {
        if self.worker_utilization.is_empty() {
            return 0.0;
        }
        self.worker_utilization.iter().sum::<f64>() / self.worker_utilization.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_energy::EnergyBreakdown;
    use fa_kernel::latency::{completion_cdf, latency_stats, throughput_mb_s};
    use fa_sim::stats::TimeSeries;

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
                power_timeline: TimeSeries::new(),
                fu_timeline: TimeSeries::new(),
            },
            worker_utilization: vec![0.5, 0.7, 0.9],
            flashvisor_utilization: 0.2,
            storengine_utilization: 0.1,
            flash_group_reads: 10,
            flash_group_writes: 5,
            gc_passes: 0,
            journal_dumps: 1,
            flash_owner_stats: Vec::new(),
            foreground_read_p99_s: 0.0,
            wear: WearSummary::default(),
            gc_migrated_bytes_per_reclaimed_byte: 0.0,
            hot_group_writes: 0,
            cold_group_writes: 0,
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
        assert!((throughput_mb_s(o.bytes_processed, o.finished_at) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_and_cdf() {
        let o = outcome();
        let (min, avg, max) = latency_stats(&o.kernel_latencies);
        assert!((min - 0.040).abs() < 1e-9);
        assert!((max - 0.098).abs() < 1e-9);
        assert!((avg - 0.069).abs() < 1e-9);
        let cdf = completion_cdf(&o.kernel_latencies);
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
    }

    #[test]
    fn empty_outcome_is_safe() {
        let mut o = outcome();
        o.kernel_latencies.clear();
        o.worker_utilization.clear();
        assert_eq!(latency_stats(&o.kernel_latencies), (0.0, 0.0, 0.0));
        assert_eq!(o.mean_worker_utilization(), 0.0);
        assert!(completion_cdf(&o.kernel_latencies).is_empty());
    }
}
