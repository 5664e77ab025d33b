//! Statistics, digests and process measurements shared by the workloads.

use std::fmt::{self, Write};

/// Fewest samples that must lie beyond a reported percentile. A tail
/// percentile with fewer samples past it is one or two outliers, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// What [`calibration_s`] takes on the reference machine: the 2-vCPU host
/// this benchmark was written on, while it was quiet. Host times are
/// reported as seconds on that machine.
pub const REFERENCE_CALIBRATION_S: f64 = 0.014;

/// Host seconds of one fixed calibration workload shaped like the
/// simulator's event loops: a binary-heap event queue, a B-tree map and a
/// vector, fed by a xorshift stream. It shares no code with the simulator,
/// so a change to the simulator cannot move it; how fast the machine runs
/// at the moment does. A run scales its host times by
/// `REFERENCE_CALIBRATION_S / median(calibrations)`, which cancels most of
/// the speed drift of a shared machine.
pub fn calibration_s() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    let start = std::time::Instant::now();
    let mut queue = BinaryHeap::new();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut log: Vec<u64> = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..150_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(Reverse(x % 1_000_000));
        log.push(x);
        if queue.len() > 2048 {
            let Reverse(t) = queue.pop().expect("the queue is not empty");
            map.insert(t, i);
            if map.len() > 4096 {
                map.pop_first();
            }
        }
        if log.len() > 65_536 {
            log.clear();
        }
    }
    std::hint::black_box((&queue, &map, &log));
    start.elapsed().as_secs_f64()
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it. The 1-based rank is
/// `ceil(q · n)`, so `n − rank` samples are larger than or equal to the
/// reported one's position: at 4000 samples p99 has 40 beyond it and p99.9
/// only 4, so p99 is the highest percentile such a run may report.
pub fn tail_percentile(samples: &[u64], q: f64) -> Option<u64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    let (_, nth, _) = v.select_nth_unstable(rank - 1);
    Some(*nth)
}

/// FNV-1a, 64-bit: a stable digest of simulated outputs, identical on every
/// platform and toolchain (unlike `std`'s randomly seeded hasher).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds the exact bits of one float into the digest.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reads the first `field: <integer>` of each of `fields` out of `value`'s
/// `Debug` text as the text streams past, without ever holding it: the
/// text of a whole flash backbone runs to megabytes. A field that is absent
/// reads 0.
pub fn debug_counts<const N: usize>(value: &dyn fmt::Debug, fields: [&str; N]) -> [u64; N] {
    let mut scan = FieldScan {
        keys: fields.map(|f| format!("{f}: ").into_bytes()),
        matched: [0; N],
        values: [0; N],
        done: [false; N],
    };
    // `FieldScan` never fails, so neither does the formatting.
    let _ = write!(scan, "{value:?}");
    scan.values
}

/// The `fmt::Write` sink behind [`debug_counts`].
struct FieldScan<const N: usize> {
    /// `"<field>: "` per field.
    keys: [Vec<u8>; N],
    /// Bytes of each key matched so far; the key's length while its digits
    /// are being read.
    matched: [usize; N],
    values: [u64; N],
    /// Whether each field's number has ended.
    done: [bool; N],
}

impl<const N: usize> fmt::Write for FieldScan<N> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            for i in 0..N {
                let key = &self.keys[i];
                if self.done[i] {
                    continue;
                }
                if self.matched[i] == key.len() {
                    if b.is_ascii_digit() {
                        self.values[i] = self.values[i] * 10 + u64::from(b - b'0');
                    } else {
                        self.done[i] = true;
                    }
                } else if b == key[self.matched[i]] {
                    self.matched[i] += 1;
                } else {
                    self.matched[i] = usize::from(b == key[0]);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calibration_s() > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond → reported.
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990));
        // 999 samples: rank 990, only 9 beyond → refused.
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
    }

    #[test]
    fn at_4000_samples_p99_is_the_highest_reportable_percentile() {
        let samples: Vec<u64> = (1..=4000).rev().collect();
        assert_eq!(tail_percentile(&samples, 0.99), Some(3960));
        assert_eq!(tail_percentile(&samples, 0.997), Some(3988));
        assert_eq!(tail_percentile(&samples, 0.999), None);
        assert_eq!(tail_percentile(&samples, 0.5), Some(2000));
    }

    #[test]
    fn empty_or_out_of_range_quantiles_are_refused() {
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&[1; 100], 1.5), None);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.bytes(b"a");
        // FNV-1a 64 of "a".
        assert_eq!(c.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn debug_counts_are_read_by_field_name() {
        // Derived `Debug` writes the text in many small pieces.
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Inner {
            sharded_windows: u64,
        }
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Stats {
            reads: u64,
            shards: Vec<u64>,
            inner: Inner,
        }
        let stats = Stats {
            reads: 12,
            shards: vec![7; 3],
            inner: Inner {
                sharded_windows: 340,
            },
        };
        assert_eq!(
            debug_counts(&stats, ["sharded_windows", "reads", "missing"]),
            [340, 12, 0]
        );
        // The first occurrence counts, and a value may end the text.
        assert_eq!(debug_counts(&"x: 5, x: 6", ["x"]), [5]);
        assert_eq!(debug_counts(&format_args!("a: 99"), ["a"]), [99]);
    }
}
