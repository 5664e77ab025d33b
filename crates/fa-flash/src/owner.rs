//! Owner identity and per-owner QoS on the flash data path.
//!
//! Every command entering the backbone carries an [`OwnerId`]: the kernel
//! (application) whose data section the request serves, or one of the two
//! storage-management streams (garbage collection, metadata journaling).
//! The identity flows from the range locks Flashvisor already keeps — the
//! cross-layer metadata idea of MetaSys — down to the channel controllers'
//! tag queues, where two things happen with it:
//!
//! * **Isolation.** [`QosBudgets`] bounds how many commands one owner may
//!   keep outstanding per channel. An over-budget owner's next command is
//!   *deferred* until one of its own commands retires; other owners are
//!   admitted past it instead of FIFO-stalling behind it (the lightweight
//!   per-tenant flow control of SYSFLOW).
//! * **Accounting.** Controllers and the backbone keep per-owner
//!   [`OwnerStats`] — command counts, payload bytes, occupancy peaks, and
//!   read latencies — so figures can show *who pays* for contention. The
//!   backbone charges each page command to its owner's slot as the command
//!   executes; the controllers' occupancy peaks are folded in when the
//!   stats are read.
//!
//! # Examples
//!
//! ```
//! use fa_flash::{OwnerId, QosBudgets};
//!
//! // Foreground kernels get 8 outstanding tags per channel, the GC and
//! // journal streams 2 each.
//! let budgets = QosBudgets { per_owner: Some(8), background: Some(2) };
//! assert_eq!(budgets.budget_for(OwnerId::Kernel(3)), Some(8));
//! assert_eq!(budgets.budget_for(OwnerId::Gc), Some(2));
//! assert!(OwnerId::Journal.is_background());
//! assert_eq!(OwnerId::Kernel(3).label(), "kernel3");
//! ```

use fa_sim::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Who issued a flash command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OwnerId {
    /// Foreground traffic of one kernel; the payload is the range-lock
    /// owner id (the application id).
    Kernel(u32),
    /// Storengine garbage collection (migrations and erases).
    Gc,
    /// Storengine metadata journaling.
    Journal,
    /// Traffic not attributed to any owner (preloads, legacy paths).
    Unattributed,
}

impl OwnerId {
    /// Dense slots occupied by the non-kernel owners (see
    /// [`OwnerId::dense_index`]).
    pub const DENSE_FIXED: usize = 3;

    /// Maps the owner onto a small dense index — the hot-path structures
    /// (tag-queue peaks, per-owner stats, latency distributions) are plain
    /// arrays indexed by this instead of `BTreeMap<OwnerId, _>` lookups.
    /// The two background streams and the unattributed stream take the
    /// first three slots; kernel `k` (the range-lock application id, a
    /// small sequential counter) takes slot `3 + k`.
    pub fn dense_index(self) -> usize {
        match self {
            OwnerId::Gc => 0,
            OwnerId::Journal => 1,
            OwnerId::Unattributed => 2,
            OwnerId::Kernel(id) => Self::DENSE_FIXED + id as usize,
        }
    }

    /// Inverse of [`OwnerId::dense_index`].
    pub fn from_dense_index(index: usize) -> OwnerId {
        match index {
            0 => OwnerId::Gc,
            1 => OwnerId::Journal,
            2 => OwnerId::Unattributed,
            k => OwnerId::Kernel((k - Self::DENSE_FIXED) as u32),
        }
    }

    /// Label used in reports and perf records.
    pub fn label(self) -> String {
        match self {
            OwnerId::Kernel(id) => format!("kernel{id}"),
            OwnerId::Gc => "gc".to_string(),
            OwnerId::Journal => "journal".to_string(),
            OwnerId::Unattributed => "unattributed".to_string(),
        }
    }

    /// True for the two storage-management streams.
    pub fn is_background(self) -> bool {
        matches!(self, OwnerId::Gc | OwnerId::Journal)
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Per-owner outstanding-command budgets at each channel's tag queue.
/// `None` means unlimited — the default reproduces the untagged FIFO
/// admission byte for byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QosBudgets {
    /// Budget for each foreground owner ([`OwnerId::Kernel`] and
    /// [`OwnerId::Unattributed`]).
    pub per_owner: Option<usize>,
    /// Budget shared semantics for the background streams ([`OwnerId::Gc`]
    /// and [`OwnerId::Journal`]) — each stream individually holds at most
    /// this many tags per channel.
    pub background: Option<usize>,
}

impl QosBudgets {
    /// Unlimited budgets: admission is the plain FIFO tag queue.
    pub fn unlimited() -> Self {
        QosBudgets::default()
    }

    /// The budget applying to `owner`, if any.
    pub fn budget_for(&self, owner: OwnerId) -> Option<usize> {
        if owner.is_background() {
            self.background
        } else {
            self.per_owner
        }
    }
}

/// Aggregate per-owner statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OwnerStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Payload bytes moved for this owner (SRIO at the backbone, channel
    /// bus at the controllers).
    pub bytes: u64,
    /// Sum of end-to-end read latencies, in nanoseconds.
    pub read_latency_total_ns: u64,
    /// Worst end-to-end read latency, in nanoseconds.
    pub read_latency_max_ns: u64,
    /// Peak simultaneous tag-queue occupancy this owner reached on any one
    /// channel.
    pub peak_tags: usize,
}

impl OwnerStats {
    /// Total commands attributed to this owner.
    pub fn commands(&self) -> u64 {
        self.reads + self.programs + self.erases
    }

    /// Mean read latency in nanoseconds (0 when no reads completed).
    pub fn read_latency_mean_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_total_ns as f64 / self.reads as f64
        }
    }
}

/// One owner's end-to-end page-read latency tail: the nearest-rank median,
/// 99th percentile and maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadTail {
    /// Median read latency.
    pub p50: SimDuration,
    /// 99th-percentile read latency.
    pub p99: SimDuration,
    /// Worst read latency.
    pub max: SimDuration,
}

impl ReadTail {
    /// Selects the tail of the non-empty `latencies` (nanoseconds, in any
    /// order; reordered in place) whose maximum is `max_ns`. Two
    /// selections instead of a sort, and both exact: p99 is the element a
    /// full sort would put at its rank, and since the p50 rank never
    /// exceeds the p99 rank (`round((n−1)·0.5) ≤ round((n−1)·0.99)`), the
    /// p50 element is found among the ones selection left below p99. The
    /// maximum is the owner's recorded worst read, rank n−1.
    pub(crate) fn select(latencies: &mut [u64], max_ns: u64) -> ReadTail {
        let n = latencies.len();
        let (r50, r99) = (nearest_rank(n, 0.5), nearest_rank(n, 0.99));
        let (below, &mut p99, _) = latencies.select_nth_unstable(r99);
        let p50 = if r50 < r99 {
            *below.select_nth_unstable(r50).1
        } else {
            p99
        };
        ReadTail {
            p50: SimDuration::from_ns(p50),
            p99: SimDuration::from_ns(p99),
            max: SimDuration::from_ns(max_ns),
        }
    }
}

/// The nearest rank of the `q`-quantile (`0..=1`, clamped) among `n > 0`
/// ordered samples.
pub(crate) fn nearest_rank(n: usize, q: f64) -> usize {
    ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_split_foreground_and_background() {
        let q = QosBudgets {
            per_owner: Some(4),
            background: Some(2),
        };
        assert_eq!(q.budget_for(OwnerId::Kernel(7)), Some(4));
        assert_eq!(q.budget_for(OwnerId::Unattributed), Some(4));
        assert_eq!(q.budget_for(OwnerId::Gc), Some(2));
        assert_eq!(q.budget_for(OwnerId::Journal), Some(2));
        assert_eq!(QosBudgets::unlimited().budget_for(OwnerId::Gc), None);
    }

    #[test]
    fn dense_index_round_trips() {
        let owners = [
            OwnerId::Gc,
            OwnerId::Journal,
            OwnerId::Unattributed,
            OwnerId::Kernel(0),
            OwnerId::Kernel(7),
        ];
        for owner in owners {
            assert_eq!(OwnerId::from_dense_index(owner.dense_index()), owner);
        }
        // The fixed slots and the kernel slots never collide.
        assert_eq!(OwnerId::Kernel(0).dense_index(), OwnerId::DENSE_FIXED);
        let mut seen: Vec<usize> = owners.iter().map(|o| o.dense_index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), owners.len());
    }

    #[test]
    fn labels_and_aggregation() {
        assert_eq!(OwnerId::Kernel(3).label(), "kernel3");
        assert_eq!(OwnerId::Gc.to_string(), "gc");
        assert!(OwnerId::Journal.is_background());
        assert!(!OwnerId::Kernel(0).is_background());
        let a = OwnerStats {
            reads: 4,
            erases: 1,
            read_latency_total_ns: 400,
            ..Default::default()
        };
        assert_eq!(a.commands(), 5);
        assert!((a.read_latency_mean_ns() - 100.0).abs() < 1e-12);
        assert_eq!(OwnerStats::default().read_latency_mean_ns(), 0.0);
    }
}
