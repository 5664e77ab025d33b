//! Oracle for the bucketed timeline behind the Figure 15 views.
//!
//! [`fa_sim::stats::bucketed`] adds each interval only to the buckets it
//! overlaps. The reference below is the formulation it replaced: for every
//! bucket, scan every interval and add its overlap. Both must produce the
//! same grid and the same sums bit for bit (`f64::to_bits`), because every
//! bucket receives the same terms in the same order.
//!
//! Cases draw zero-length and inverted intervals, intervals running past
//! the horizon or starting after the last bucket, horizon 0, horizons that
//! are exact multiples of the bucket, and 1 ns buckets.
//!
//! Case count defaults to 128 and can be raised via `FA_ORACLE_CASES`.

use fa_sim::stats::bucketed;
use fa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(128)
}

/// The all-pairs reference: every bucket scans every interval.
fn all_pairs(
    horizon: SimTime,
    bucket: SimDuration,
    floor: f64,
    intervals: &[(SimTime, SimTime, f64)],
) -> Vec<(SimTime, f64)> {
    let mut out = Vec::new();
    if bucket.is_zero() {
        return out;
    }
    let mut cursor = SimTime::ZERO;
    while cursor <= horizon {
        let bucket_end = cursor + bucket;
        let mut sum = floor;
        for &(start, end, weight) in intervals {
            let s = start.max(cursor);
            let e = end.min(bucket_end);
            if e > s {
                sum += weight * e.saturating_since(s).as_secs_f64() / bucket.as_secs_f64();
            }
        }
        out.push((cursor, sum));
        cursor = bucket_end;
    }
    out
}

fn check(
    horizon: SimTime,
    bucket: SimDuration,
    floor: f64,
    intervals: &[(SimTime, SimTime, f64)],
) -> Result<(), String> {
    let want = all_pairs(horizon, bucket, floor, intervals);
    let got = bucketed(horizon, bucket, floor, intervals.iter().copied());
    let got = got.points();
    prop_assert_eq!(got.len(), want.len());
    for (k, (&(gt, gv), &(wt, wv))) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(gt, wt);
        prop_assert!(
            gv.to_bits() == wv.to_bits(),
            "bucket {k} at {} ns: {gv:e} != {wv:e}",
            wt.as_ns()
        );
    }
    Ok(())
}

#[test]
fn edge_cases_match_the_all_pairs_loop() {
    let t = SimTime::from_ns;
    let ivs = [
        (t(0), t(0), 3.0),
        (t(5), t(2), 3.0),
        (t(0), t(1), 0.7),
        (t(3), t(40), 1.3),
        (t(9), t(10), 2.9),
        (t(10), t(11), 2.9),
        (t(39), t(10_000), 0.1),
        (t(41), t(50), 5.0),
        (t(400), t(500), 5.0),
    ];
    for bucket in [1, 3, 10, 40, 1_000] {
        let bucket = SimDuration::from_ns(bucket);
        for horizon in [0, 1, 9, 10, 39, 40, 41, 120] {
            check(t(horizon), bucket, 0.25, &ivs).unwrap();
            check(t(horizon), bucket, 0.0, &[]).unwrap();
        }
        check(t(40), SimDuration::ZERO, 0.25, &ivs).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn bucketed_matches_the_all_pairs_loop(
        grid in (0usize..5, 1u64..400, 0usize..4, 0u64..3_000, 0.0f64..30.0),
        raw in prop::collection::vec(
            (0u64..4_000, 0usize..5, 0u64..2_500, -5.0f64..40.0),
            0..48,
        ),
    ) {
        let (bucket_sel, bucket_draw, horizon_sel, horizon_draw, floor) = grid;
        let bucket = [1, 7, 1_000, bucket_draw, bucket_draw][bucket_sel];
        let horizon = match horizon_sel {
            0 => 0,
            // An exact multiple of the bucket: the last bucket starts at
            // the horizon itself.
            1 => bucket * (horizon_draw % 64),
            _ => horizon_draw,
        };
        // Starts spread past the last bucket; lengths are zero, inverted,
        // short, or long enough to run past the horizon.
        let span = horizon + 2 * bucket;
        let intervals: Vec<(SimTime, SimTime, f64)> = raw
            .iter()
            .map(|&(start, shape, len, weight)| {
                let start = start % (span + 1);
                let end = match shape {
                    0 => start,
                    1 => start.saturating_sub(len % 50 + 1),
                    2 => start + len % (bucket + 1),
                    _ => start + len,
                };
                (SimTime::from_ns(start), SimTime::from_ns(end), weight)
            })
            .collect();
        check(
            SimTime::from_ns(horizon),
            SimDuration::from_ns(bucket),
            floor,
            &intervals,
        )?;
    }
}
