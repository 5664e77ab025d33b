//! Oracle for the per-owner read-tail summary.
//!
//! [`FlashBackbone::read_tails`] walks the dense owner slots, folds in the
//! channels' dense occupancy peaks, and finds every owner's p50 and p99
//! and the pooled foreground quantile from one count pass and one gather
//! pass over the recorded samples, taking each maximum from the owner's
//! recorded worst read. [`FlashBackbone::owner_read_tails`] and
//! [`FlashBackbone::foreground_read_latency_quantile`] are its two
//! projections. The reference below is the straightforward formulation:
//! the owner set and peaks merged through ordered maps, every owner's
//! quantiles read off a fully sorted copy of the latencies the test
//! observed in the completion records, and the foreground quantile off a
//! sorted merge of every non-background read, at several values of q.
//!
//! The first walk runs a random command stream from background owners,
//! the unattributed stream and several kernels — some of which only
//! program, erase, or issue reads that fail, so they complete no reads —
//! with QoS budgets on or off, and one owner that reaches a channel's tag
//! queue without ever going through the backbone. Its owners stay below
//! the 256 samples up to which a tail is selected in a copy of all the
//! samples. The second walk runs long read streams, so owners land on
//! both sides of that cutoff in one backbone, in four latency shapes:
//! all equal, 2 % outliers, every read slowed (so an owner's fastest read
//! lies above the pooled fastest), and queueing bursts; background owners
//! read too, and one case in four has no foreground reads at all.
//!
//! Case count defaults to 128 and can be raised via `FA_ORACLE_CASES`.

use fa_flash::{
    FlashBackbone, FlashCommand, FlashGeometry, FlashOp, FlashTiming, GroupLayout, OwnerId,
    OwnerStats, PhysicalPageAddr, QosBudgets, ReadTail,
};
use fa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const CHANNELS: usize = 2;
const DIES: usize = 2;
const BLOCKS: usize = 6;
const PAGES: usize = 8;

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(128)
}

fn backbone(tags: usize) -> FlashBackbone {
    let geometry = FlashGeometry {
        channels: CHANNELS,
        packages_per_channel: DIES,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: BLOCKS,
        pages_per_block: PAGES,
        page_bytes: 4096,
    };
    let layout = GroupLayout {
        geometry,
        pages_per_group: 1,
    };
    FlashBackbone::new(layout, FlashTiming::fast_for_tests(), 2.0e9, tags, u64::MAX)
}

/// Nine owners: both background streams, the unattributed stream, and six
/// kernels with gaps in their ids. Kernel 0 takes every draw from 8 up, so
/// it reads often enough for its p99 to sit below its maximum.
fn owner(i: usize) -> OwnerId {
    match i {
        0 => OwnerId::Gc,
        1 => OwnerId::Journal,
        2 => OwnerId::Unattributed,
        3..=8 => OwnerId::Kernel(2 * (i as u32 - 3)),
        _ => OwnerId::Kernel(0),
    }
}

/// The owner that only ever reaches a channel directly.
const CHANNEL_ONLY: OwnerId = OwnerId::Kernel(40);

/// Nearest rank read off a sorted copy.
fn sorted_quantile(latencies: &[u64], q: f64) -> u64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn reference_tail(latencies: &[u64]) -> Option<ReadTail> {
    (!latencies.is_empty()).then(|| ReadTail {
        p50: SimDuration::from_ns(sorted_quantile(latencies, 0.5)),
        p99: SimDuration::from_ns(sorted_quantile(latencies, 0.99)),
        max: SimDuration::from_ns(sorted_quantile(latencies, 1.0)),
    })
}

fn compare(
    b: &FlashBackbone,
    submitted: &BTreeSet<OwnerId>,
    latencies: &BTreeMap<OwnerId, Vec<u64>>,
) -> Result<(), String> {
    // The owner set and peaks, merged through ordered maps.
    let mut peaks: BTreeMap<OwnerId, usize> = submitted.iter().map(|&o| (o, 0)).collect();
    for c in 0..CHANNELS {
        for (o, peak) in b.channel(c).unwrap().owner_peak_tags() {
            let entry = peaks.entry(o).or_default();
            *entry = (*entry).max(peak);
        }
    }
    let stats = b.owner_stats();
    prop_assert!(stats.keys().eq(peaks.keys()), "owner sets differ");
    let tails: Vec<(OwnerId, OwnerStats, Option<ReadTail>)> = b.owner_read_tails().collect();
    prop_assert!(tails.iter().map(|t| t.0).eq(peaks.keys().copied()));
    let tails_at_p99 = tails.clone();
    for (owner, s, tail) in tails {
        let observed = latencies.get(&owner).map_or(&[][..], Vec::as_slice);
        prop_assert_eq!(s, stats[&owner]);
        prop_assert_eq!(s.peak_tags, peaks[&owner]);
        prop_assert_eq!(s.reads, observed.len() as u64);
        prop_assert_eq!(tail, reference_tail(observed));
    }
    let foreground: Vec<u64> = latencies
        .iter()
        .filter(|(o, _)| !o.is_background())
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let want =
            (!foreground.is_empty()).then(|| SimDuration::from_ns(sorted_quantile(&foreground, q)));
        let (owners, found) = b.read_tails(q);
        prop_assert_eq!(found, want);
        prop_assert_eq!(owners.collect::<Vec<_>>(), tails_at_p99.clone());
        prop_assert_eq!(b.foreground_read_latency_quantile(q), want);
    }
    Ok(())
}

fn preload_block_zero(b: &mut FlashBackbone) {
    let geometry = *b.geometry();
    for c in 0..CHANNELS {
        for die in 0..DIES {
            for page in 0..PAGES {
                let flat = geometry.addr_to_flat(PhysicalPageAddr::new(c, die, 0, page));
                b.preload_group(flat, 1).unwrap();
            }
        }
    }
}

/// Owners of the long read streams: both background streams, the
/// unattributed stream and two kernels.
const LONG_OWNERS: [OwnerId; 5] = [
    OwnerId::Gc,
    OwnerId::Journal,
    OwnerId::Unattributed,
    OwnerId::Kernel(0),
    OwnerId::Kernel(5),
];

/// Nanoseconds between reads that must find the device idle: far longer
/// than a read, a transfer and an erase together.
const IDLE_GAP: u64 = 100_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn read_tails_match_sorted_reference(
        setup in (0usize..3, 0usize..4, 0usize..4),
        stream in prop::collection::vec(
            (0usize..16, 0usize..16, -2_000i64..9_000, 0usize..1_000),
            1..600,
        ),
    ) {
        let (tags_sel, fg_budget, bg_budget) = setup;
        let tags = [1, 4, 16][tags_sel];
        let mut b = backbone(tags);
        // Budgets 0 leave the QoS admission off.
        b.set_qos_budgets(QosBudgets {
            per_owner: (fg_budget > 0).then_some(fg_budget),
            background: (bg_budget > 0).then_some(bg_budget),
        });
        // Block 0 of every die holds readable data.
        preload_block_zero(&mut b);
        let mut cursor = [[[0usize; BLOCKS]; DIES]; CHANNELS];
        let mut submitted = BTreeSet::new();
        let mut latencies: BTreeMap<OwnerId, Vec<u64>> = BTreeMap::new();
        let mut now = 0u64;
        for &(kind, who, step, aux) in &stream {
            if kind % 4 != 0 {
                now = now.saturating_add_signed(step);
            }
            let at = SimTime::from_ns(now);
            // Kernels 8 and 10 only program and erase.
            let who = owner(who);
            let reads = !matches!(who, OwnerId::Kernel(8 | 10));
            let (c, die) = (aux % CHANNELS, aux / CHANNELS % DIES);
            let block = 1 + aux % (BLOCKS - 1);
            let command = match kind {
                0 if aux % 7 == 0 => {
                    // Straight to the channel, bypassing the backbone.
                    let addr = PhysicalPageAddr::new(c, die, 0, aux % PAGES);
                    let channel = b.channel_mut(c).unwrap();
                    let slot = CHANNEL_ONLY.dense_index();
                    channel.execute(at, FlashOp::ReadPage, addr, slot, None).unwrap();
                    continue;
                }
                0..=7 if reads => {
                    FlashCommand::read(PhysicalPageAddr::new(c, die, 0, aux / 4 % PAGES))
                }
                // Reads that may hit an unwritten page and fail.
                8 | 9 if reads => {
                    FlashCommand::read(PhysicalPageAddr::new(c, die, block, aux / 4 % PAGES))
                }
                _ if kind < 13 && cursor[c][die][block] < PAGES => {
                    cursor[c][die][block] += 1;
                    let page = cursor[c][die][block] - 1;
                    FlashCommand::program(PhysicalPageAddr::new(c, die, block, page))
                }
                _ => {
                    cursor[c][die][block] = 0;
                    FlashCommand::erase(PhysicalPageAddr::new(c, die, block, 0))
                }
            };
            submitted.insert(who);
            if let Ok(done) = b.submit_tagged(at, command, who) {
                if command.op == FlashOp::ReadPage {
                    latencies.entry(who).or_default().push(done.latency().as_ns());
                }
            }
        }
        compare(&b, &submitted, &latencies)?;
    }

    /// Up to four streams of up to 699 reads each, one owner and one
    /// latency shape per stream: an owner may read in several streams.
    #[test]
    fn long_read_streams_match_sorted_reference(
        runs in prop::collection::vec((0usize..5, 0usize..4, 1usize..700, 0u64..u64::MAX), 1..5),
        foreground in 0usize..4,
    ) {
        let mut b = backbone(16);
        preload_block_zero(&mut b);
        let pages = (CHANNELS * DIES * PAGES) as u64;
        let mut submitted = BTreeSet::new();
        let mut latencies: BTreeMap<OwnerId, Vec<u64>> = BTreeMap::new();
        let mut now = 0u64;
        for &(who, shape, reads, seed) in &runs {
            // One case in four has only background owners read.
            let who = if foreground == 0 { LONG_OWNERS[who % 2] } else { LONG_OWNERS[who] };
            submitted.insert(who);
            let mut burst = 1;
            for i in 0..reads as u64 {
                let h = seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
                // Flat pages below `pages` all lie in block 0.
                let page = b.geometry().flat_to_addr(h % pages);
                let mut at = now;
                match shape {
                    // All equal: every read finds the device idle.
                    0 => now += IDLE_GAP,
                    // 2 % outliers, or every read slowed: a read waits
                    // out part of an erase of another block on its die.
                    1 | 2 => {
                        now += IDLE_GAP;
                        at = now;
                        if shape == 2 || h % 50 == 0 {
                            let erase = PhysicalPageAddr::new(page.channel, page.die, 1, 0);
                            b.submit_tagged(SimTime::from_ns(at), FlashCommand::erase(erase), OwnerId::Gc)
                                .unwrap();
                            submitted.insert(OwnerId::Gc);
                            at += h / 50 % 8_000;
                        }
                    }
                    // Bursts of up to 32 reads at one instant queue behind
                    // each other.
                    _ => {
                        burst -= 1;
                        if burst == 0 {
                            burst = 1 + h % 32;
                            now += IDLE_GAP;
                            at = now;
                        }
                    }
                }
                let done = b.submit_tagged(SimTime::from_ns(at), FlashCommand::read(page), who).unwrap();
                latencies.entry(who).or_default().push(done.latency().as_ns());
            }
        }
        compare(&b, &submitted, &latencies)?;
    }
}
