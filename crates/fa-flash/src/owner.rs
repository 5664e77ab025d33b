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
//! * **Accounting.** The backbone reports per-owner [`OwnerStats`] —
//!   command counts, payload bytes, occupancy peaks, and read latencies —
//!   so figures can show *who pays* for contention. Each page-group stripe
//!   adds the pages that took effect to its owner's dense slot once; the
//!   payload bytes are derived from the counts, and the controllers'
//!   occupancy peaks are folded in when the stats are read.
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
    pub const fn dense_index(self) -> usize {
        match self {
            OwnerId::Gc => 0,
            OwnerId::Journal => 1,
            OwnerId::Unattributed => 2,
            OwnerId::Kernel(id) => Self::DENSE_FIXED + id as usize,
        }
    }

    /// Inverse of [`OwnerId::dense_index`].
    pub(crate) fn from_dense_index(index: usize) -> OwnerId {
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
    /// Payload bytes moved for this owner: one page per read and per
    /// program.
    pub bytes: u64,
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
    /// Selects the tail of the non-empty samples in `parts` (nanoseconds,
    /// in any order, left untouched) whose minimum is `min_ns` and maximum
    /// `max_ns`. p50 and p99 come from one [`select_ranks`] call, so both
    /// share one count pass; the maximum is the owner's recorded worst
    /// read, rank n−1.
    pub(crate) fn select<'a>(
        scratch: &mut RankScratch,
        parts: impl Iterator<Item = &'a [u64]> + Clone,
        min_ns: u64,
        max_ns: u64,
    ) -> ReadTail {
        let n = parts.clone().map(<[u64]>::len).sum();
        let ranks = [nearest_rank(n, 0.5), nearest_rank(n, 0.99)];
        let [p50, p99] = select_ranks(scratch, parts, min_ns, max_ns, ranks);
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

/// Most buckets [`select_ranks`] counts into. Past this, a bucket holds
/// more than one sample on average and the gather pass does the rest.
const MAX_BUCKETS: usize = 4096;

/// Sample counts up to which [`select_ranks`] skips the count pass and
/// selects among all the samples: a copy of a few hundred samples costs
/// less than counting them. Open-loop tenants read a dozen pages each.
pub(crate) const ONE_BUCKET_MAX: usize = 256;

/// Buffers [`select_ranks`] reuses across calls: the bucket counts and the
/// one bucket's gathered samples.
#[derive(Debug, Default)]
pub(crate) struct RankScratch {
    counts: Vec<usize>,
    bucket: Vec<u64>,
}

/// The samples at the ascending `ranks` of everything in `parts`, exactly
/// as a sorted concatenation would place them, leaving the samples
/// untouched. `min` and `max` must be the smallest and largest sample, and
/// every rank below the sample count.
///
/// Pass 1 counts the samples per high-bit bucket of their distance above
/// `min`. The bucket count is the sample count rounded up to a power of
/// two (at most [`MAX_BUCKETS`]), so the table never outgrows twice the
/// samples. The shift puts `max` in the top bucket, so the buckets cover
/// `min..=max` only: a common floor under every sample costs no
/// resolution. A walk over the counts then names the bucket holding each
/// rank and the rank's offset inside it, and pass 2 gathers only that
/// bucket's samples into one reused buffer and selects the offset there.
/// Ranks sharing a bucket share its gather. Up to [`ONE_BUCKET_MAX`]
/// samples, everything is one bucket: no count pass, one gather.
pub(crate) fn select_ranks<'a, const K: usize>(
    scratch: &mut RankScratch,
    parts: impl Iterator<Item = &'a [u64]> + Clone,
    min: u64,
    max: u64,
    ranks: [usize; K],
) -> [u64; K] {
    let n: usize = parts.clone().map(<[u64]>::len).sum();
    let RankScratch { counts, bucket } = scratch;
    if n <= ONE_BUCKET_MAX {
        bucket.clear();
        for part in parts {
            bucket.extend_from_slice(part);
        }
        return ranks.map(|rank| *bucket.select_nth_unstable(rank).1);
    }
    let buckets = n.next_power_of_two().min(MAX_BUCKETS);
    let span = max - min;
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(buckets.trailing_zeros());
    let bucket_of = |v: u64| ((v - min) >> shift) as usize;
    counts.clear();
    counts.resize(bucket_of(max) + 1, 0);
    for part in parts.clone() {
        for &v in part {
            counts[bucket_of(v)] += 1;
        }
    }
    let (mut b, mut below) = (0, 0);
    let mut gathered = None;
    ranks.map(|rank| {
        assert!(rank < n, "rank {rank} out of {n} samples");
        while below + counts[b] <= rank {
            below += counts[b];
            b += 1;
        }
        assert!(rank >= below, "ranks must ascend");
        if gathered != Some(b) {
            bucket.clear();
            for part in parts.clone() {
                bucket.extend(part.iter().filter(|&&v| bucket_of(v) == b));
            }
            gathered = Some(b);
        }
        *bucket.select_nth_unstable(rank - below).1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Samples of distribution `kind` drawn from `raw`, around the bucket
    /// edge `2^bit`.
    fn samples(kind: usize, raw: &[u64], bit: u32) -> Vec<u64> {
        let edge = 1u64 << bit;
        let draw = |r: u64| match kind {
            0 => edge,
            1 => 0,
            2 => u64::MAX - r % 1024,
            // `edge` is a bucket boundary whatever the shift: the maximum
            // is `edge` itself, so the shift is at most `bit`.
            3 => edge - (r & 1),
            // A few spread-out outliers set a high shift, and everything
            // else sits in the bucket holding `edge`.
            4 if r % 512 == 0 => r,
            4 => edge | (r % 64),
            5 => r >> (r % 64),
            // A loaded owner's read tail: 98 % of reads between 40 and
            // 60 µs, 2 % outliers up to 2 ms.
            6 if r % 50 == 0 => 60_000 + r % 1_940_001,
            6 => 40_000 + r % 20_001,
            // A common floor far above the spread.
            _ => edge + r % 4096,
        };
        raw.iter().map(|&r| draw(r)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn select_ranks_matches_sorted_copy(
            kind in 0usize..8,
            bit in 1u32..64,
            raw in prop::collection::vec(0u64..u64::MAX, 1..20_000),
            short in 0usize..4,
            cuts in prop::collection::vec(0usize..20_001, 0..6),
        ) {
            // One case in four stays near the one-bucket cutoff.
            let raw = if short == 0 { &raw[..raw.len() % 600 + 1] } else { &raw[..] };
            let all = samples(kind, raw, bit);
            let n = all.len();
            // Split at the cuts; repeated cuts and cuts at either end
            // leave empty slices.
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let parts: Vec<&[u64]> = cuts.windows(2).map(|w| &all[w[0]..w[1]]).collect();
            let mut sorted = all.clone();
            sorted.sort_unstable();
            let (min, max) = (sorted[0], sorted[n - 1]);

            let ranks = [0, nearest_rank(n, 0.5), nearest_rank(n, 0.99), n - 1];
            let mut scratch = RankScratch::default();
            let got = select_ranks(&mut scratch, parts.iter().copied(), min, max, ranks);
            prop_assert_eq!(got, ranks.map(|r| sorted[r]));
            if kind >= 6 {
                // The median's bucket stays small: outliers and a floor
                // cost the buckets no resolution where the samples crowd.
                select_ranks(&mut scratch, parts.iter().copied(), min, max, [ranks[1]]);
                let gathered = scratch.bucket.len();
                prop_assert!(
                    gathered <= ONE_BUCKET_MAX.max(n / 8),
                    "kind {}: gathered {} of {}", kind, gathered, n
                );
            }
            let tail = ReadTail::select(&mut scratch, parts.iter().copied(), min, max);
            prop_assert_eq!(tail.p50.as_ns(), sorted[ranks[1]]);
            prop_assert_eq!(tail.p99.as_ns(), sorted[ranks[2]]);
            prop_assert_eq!(tail.max.as_ns(), max);
        }
    }

    /// The count table scales with the samples: an owner with a few
    /// reads never zeroes the full 4096-entry table.
    #[test]
    fn count_table_stays_within_two_entries_per_sample() {
        let sizes = (1..=600).chain([1023, 1024, 1025, 2047, 2049, 4095, 4097, 20_000]);
        for n in sizes {
            for max in [0, 1, 1000, 1 << 40, u64::MAX] {
                let all = vec![max; n];
                let mut scratch = RankScratch::default();
                let [_] = select_ranks(&mut scratch, [&all[..]].into_iter(), max, max, [n / 2]);
                let len = scratch.counts.len();
                assert!(
                    len <= 2 * n && len <= MAX_BUCKETS,
                    "n {n}, max {max}: {len}"
                );
            }
        }
    }

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
        assert_eq!(QosBudgets::default().budget_for(OwnerId::Gc), None);
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
            ..Default::default()
        };
        assert_eq!(a.commands(), 5);
        assert_eq!(OwnerStats::default().commands(), 0);
    }
}
