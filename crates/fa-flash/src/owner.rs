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

/// The nearest rank of the `q`-quantile (`0..=1`, clamped) among `n > 0`
/// ordered samples.
pub(crate) fn nearest_rank(n: usize, q: f64) -> usize {
    ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize
}

/// The ranks of a [`ReadTail`]'s p50 and p99 among `n > 0` samples.
fn tail_ranks(n: usize) -> [usize; 2] {
    [nearest_rank(n, 0.5), nearest_rank(n, 0.99)]
}

/// Most buckets [`select_tails`] counts into. Past this, a bucket holds
/// more than one sample on average and the gather pass does the rest.
const MAX_BUCKETS: usize = 4096;

/// Sample counts up to which [`select_tails`] gives an owner no count
/// table and selects its tail among a copy of all its samples: a copy of a
/// few hundred samples costs less than walking a table. Open-loop tenants
/// read a dozen pages each.
pub(crate) const ONE_BUCKET_MAX: usize = 256;

/// One owner's read-latency samples in nanoseconds, in any order, with
/// the smallest and largest of them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Samples<'a> {
    pub(crate) ns: &'a [u64],
    pub(crate) min: u64,
    pub(crate) max: u64,
}

/// The high-bit buckets a group of samples shares: the distance above the
/// group's fastest read, shifted so its worst read lands in the top
/// bucket. The buckets cover `min..=max` only, so a common floor under
/// every sample costs no resolution.
#[derive(Debug, Clone, Copy)]
struct Buckets {
    min: u64,
    shift: u32,
    len: usize,
}

impl Buckets {
    /// Buckets for `n` samples spanning `min..=max`: `n` rounded up to a
    /// power of two, at most [`MAX_BUCKETS`], so a table never outgrows
    /// twice the samples. A span above 0 takes two samples, so the shift
    /// stays below 64.
    fn new(n: usize, min: u64, max: u64) -> Buckets {
        let buckets = n.next_power_of_two().min(MAX_BUCKETS);
        let span = max - min;
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(buckets.trailing_zeros());
        Buckets {
            min,
            shift,
            len: (span >> shift) as usize + 1,
        }
    }

    fn of(self, v: u64) -> usize {
        ((v - self.min) >> self.shift) as usize
    }

    /// The same buckets, renumbered so that bucket `first` is bucket 0.
    fn from(self, first: usize) -> Buckets {
        Buckets {
            min: self.min + ((first as u64) << self.shift),
            len: self.len - first,
            ..self
        }
    }
}

/// Where a rank falls: the bucket holding it and its offset among that
/// bucket's samples.
#[derive(Debug, Clone, Copy)]
struct Spot {
    bucket: usize,
    offset: usize,
}

/// The spots of the ascending `ranks`, each below the sum of `counts`.
fn locate<const K: usize>(counts: &[usize], ranks: [usize; K]) -> [Spot; K] {
    let (mut bucket, mut below) = (0, 0);
    ranks.map(|rank| {
        while below + counts[bucket] <= rank {
            below += counts[bucket];
            bucket += 1;
        }
        assert!(rank >= below, "ranks must ascend");
        Spot {
            bucket,
            offset: rank - below,
        }
    })
}

/// Buffers [`select_tails`] reuses across calls: one owner's bucket
/// counts, the pooled counts, and the gathered samples of an owner's p50
/// and p99 buckets and of the pooled target bucket.
#[derive(Debug, Default)]
pub(crate) struct TailScratch {
    counts: Vec<usize>,
    pooled_counts: Vec<usize>,
    p50: Vec<u64>,
    p99: Vec<u64>,
    pooled: Vec<u64>,
}

/// The tails [`select_tails`] found, handed out owner by owner.
#[derive(Debug, Default)]
pub(crate) struct Tails {
    /// The p50 and p99 of each owner with more than [`ONE_BUCKET_MAX`]
    /// samples, in owner order.
    large: std::vec::IntoIter<[u64; 2]>,
}

impl Tails {
    /// The tail of the next owner, in the order [`select_tails`] walked
    /// them. A large owner's ranks were selected in the gather pass; a
    /// small owner's are selected now, in a copy of its samples, so no
    /// tail is stored for the thousands of small owners an open-loop run
    /// has. The maximum is the owner's recorded worst read, rank n−1.
    pub(crate) fn next(&mut self, scratch: &mut TailScratch, o: Samples<'_>) -> ReadTail {
        let [p50, p99] = if o.ns.len() > ONE_BUCKET_MAX {
            self.large
                .next()
                .expect("every large owner's ranks were selected")
        } else {
            let copy = &mut scratch.p50;
            copy.clear();
            copy.extend_from_slice(o.ns);
            tail_ranks(o.ns.len()).map(|rank| *copy.select_nth_unstable(rank).1)
        };
        ReadTail {
            p50: SimDuration::from_ns(p50),
            p99: SimDuration::from_ns(p99),
            max: SimDuration::from_ns(o.max),
        }
    }
}

/// Every owner's [`ReadTail`] (through [`Tails::next`]) and, for
/// `Some(q)`, the nearest-rank `q`-quantile of all their samples pooled,
/// exactly as sorted copies would place them, leaving the samples
/// untouched. Every owner must hold samples; with no owners there is no
/// quantile.
///
/// The owners share one set of [`Buckets`] over the pooled fastest to
/// worst read. The count pass gives each owner with more than
/// [`ONE_BUCKET_MAX`] samples one reused table over the buckets its own
/// samples span; a walk of it names the buckets holding the owner's p50
/// and p99, and the table is then added into the pooled table. Smaller
/// owners count straight into the pooled table. A walk of the pooled
/// table names the bucket holding the pooled rank. The gather pass reads
/// each owner once: a large owner collects its p50 bucket, its p99 bucket
/// and the pooled target bucket and selects its ranks inside the first
/// two; a small owner collects only its share of the pooled target
/// bucket.
pub(crate) fn select_tails<'a>(
    scratch: &mut TailScratch,
    owners: impl Iterator<Item = Samples<'a>> + Clone,
    q: Option<f64>,
) -> (Tails, Option<u64>) {
    let (n, min, max) = owners.clone().fold((0, u64::MAX, 0), |(n, min, max), o| {
        (n + o.ns.len(), min.min(o.min), max.max(o.max))
    });
    if n == 0 {
        return (Tails::default(), None);
    }
    let buckets = Buckets::new(n, min, max);
    let TailScratch {
        counts,
        pooled_counts,
        p50,
        p99,
        pooled,
    } = scratch;
    pooled_counts.clear();
    pooled_counts.resize(buckets.len, 0);
    // The p50 and p99 spots of the large owners, in owner order.
    let mut spots = Vec::new();
    for o in owners.clone() {
        if o.ns.len() <= ONE_BUCKET_MAX {
            for &v in o.ns {
                pooled_counts[buckets.of(v)] += 1;
            }
            continue;
        }
        // The owner's table covers only the buckets its samples span.
        let (lo, hi) = (buckets.of(o.min), buckets.of(o.max));
        let own = buckets.from(lo);
        counts.clear();
        counts.resize(hi - lo + 1, 0);
        for &v in o.ns {
            counts[own.of(v)] += 1;
        }
        for (p, c) in pooled_counts[lo..=hi].iter_mut().zip(counts.iter()) {
            *p += c;
        }
        let found = locate(counts, tail_ranks(o.ns.len()));
        spots.push(found.map(|s| Spot {
            bucket: lo + s.bucket,
            ..s
        }));
    }
    let target = q.map(|q| locate(pooled_counts, [nearest_rank(n, q)])[0]);
    let target_bucket = target.map_or(usize::MAX, |t| t.bucket);
    pooled.clear();
    let mut spots = spots.into_iter();
    let mut large = Vec::new();
    for o in owners {
        if o.ns.len() <= ONE_BUCKET_MAX {
            pooled.extend(o.ns.iter().filter(|&&v| buckets.of(v) == target_bucket));
            continue;
        }
        let [s50, s99] = spots.next().expect("every large owner was counted");
        // A p99 sharing the p50's bucket selects in its gather.
        let b99 = if s99.bucket == s50.bucket {
            usize::MAX
        } else {
            s99.bucket
        };
        p50.clear();
        p99.clear();
        let mut gather = |chunk: &[u64]| {
            for &v in chunk {
                let b = buckets.of(v);
                if b == s50.bucket {
                    p50.push(v);
                }
                if b == b99 {
                    p99.push(v);
                }
                if b == target_bucket {
                    pooled.push(v);
                }
            }
        };
        // Few samples fall in the three buckets. A branch-free test of 16
        // samples at a time (bucket numbers fit `u32`) compiles to vector
        // code and skips the chunks holding none of them.
        let [t50, t99, tp] = [s50.bucket, b99, target_bucket].map(|b| b as u32);
        let hit = |v: u64| {
            let b = buckets.of(v) as u32;
            (b == t50) | (b == t99) | (b == tp)
        };
        let mut chunks = o.ns.chunks_exact(16);
        for chunk in &mut chunks {
            if chunk.iter().fold(false, |any, &v| any | hit(v)) {
                gather(chunk);
            }
        }
        gather(chunks.remainder());
        let v50 = *p50.select_nth_unstable(s50.offset).1;
        let from = if b99 == usize::MAX {
            &mut *p50
        } else {
            &mut *p99
        };
        large.push([v50, *from.select_nth_unstable(s99.offset).1]);
    }
    let quantile = target.map(|t| *pooled.select_nth_unstable(t.offset).1);
    let large = large.into_iter();
    (Tails { large }, quantile)
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

    /// Every owner's tail, in owner order, and the pooled quantile.
    fn all_tails(owners: &[Samples], q: Option<f64>) -> (Vec<ReadTail>, Option<u64>) {
        let mut scratch = TailScratch::default();
        let (mut tails, quantile) = select_tails(&mut scratch, owners.iter().copied(), q);
        let tails = owners
            .iter()
            .map(|&o| tails.next(&mut scratch, o))
            .collect();
        (tails, quantile)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn select_tails_matches_sorted_copies(
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
            // One owner per stretch between cuts; repeated cuts and cuts
            // at either end leave no owner.
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            cuts.dedup();
            let sorted = |part: &[u64]| {
                let mut sorted = part.to_vec();
                sorted.sort_unstable();
                sorted
            };
            let owned: Vec<Vec<u64>> = cuts.windows(2).map(|w| sorted(&all[w[0]..w[1]])).collect();
            let owners: Vec<Samples> = cuts
                .windows(2)
                .zip(&owned)
                .map(|(w, s)| Samples { ns: &all[w[0]..w[1]], min: s[0], max: s[s.len() - 1] })
                .collect();
            let pooled = sorted(&all);

            let mut scratch = TailScratch::default();
            for q in [0.0, 0.5, 0.99, 1.0] {
                let (tails, quantile) = all_tails(&owners, Some(q));
                prop_assert_eq!(quantile, Some(pooled[nearest_rank(n, q)]));
                prop_assert_eq!(tails.len(), owned.len());
                for (tail, s) in tails.iter().zip(&owned) {
                    let [r50, r99] = tail_ranks(s.len());
                    prop_assert_eq!(tail.p50.as_ns(), s[r50]);
                    prop_assert_eq!(tail.p99.as_ns(), s[r99]);
                    prop_assert_eq!(tail.max.as_ns(), s[s.len() - 1]);
                }
                if kind >= 6 && q == 0.5 {
                    // The median's bucket stays small: outliers and a floor
                    // cost the buckets no resolution where the samples crowd.
                    select_tails(&mut scratch, owners.iter().copied(), Some(q));
                    let gathered = scratch.pooled.len();
                    prop_assert!(
                        gathered <= ONE_BUCKET_MAX.max(n / 8),
                        "kind {}: gathered {} of {}", kind, gathered, n
                    );
                }
            }
            // Without a pooled rank the owners' tails stay the same.
            let (alone, none) = all_tails(&owners, None);
            prop_assert_eq!(none, None);
            prop_assert_eq!(alone, all_tails(&owners, Some(0.5)).0);
        }
    }

    /// The count tables scale with the samples: an owner with a few
    /// hundred reads never zeroes the full 4096-entry table.
    #[test]
    fn count_table_stays_within_two_entries_per_sample() {
        let sizes = (1..=600).chain([1023, 1024, 1025, 2047, 2049, 4095, 4097, 20_000]);
        for n in sizes {
            for max in [0, 1, 1000, 1 << 40, u64::MAX] {
                // Samples from 0 up, the last one at `max`.
                let mut all: Vec<u64> = (0..n as u64).map(|i| i.min(max)).collect();
                all[n - 1] = max;
                let mut scratch = TailScratch::default();
                let min = all.iter().copied().min().unwrap();
                let owner = Samples { ns: &all, min, max };
                select_tails(&mut scratch, std::iter::once(owner), Some(0.5));
                for len in [scratch.counts.len(), scratch.pooled_counts.len()] {
                    assert!(
                        len <= 2 * n && len <= MAX_BUCKETS,
                        "n {n}, max {max}: {len}"
                    );
                }
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
