//! Seeded open-loop arrival processes.
//!
//! An [`ArrivalPlan`] describes *when tenants show up*: a Poisson process
//! (exponential inter-arrival gaps at a configured mean rate) or a bursty
//! on/off shape (Poisson arrivals inside fixed-length on-windows separated
//! by silent off-windows). [`ArrivalPlan::parse`] reads the same
//! comma-separated `key=value` grammar as a fault plan; a malformed spec is
//! an error (never silently ignored). The `fa-bench` binaries feed it the
//! `FA_ARRIVALS` variable; nothing in this crate reads the environment.
//!
//! The whole schedule is precomputed from the seed by
//! [`ArrivalPlan::schedule`] before the simulation starts, using one
//! [`DeterministicRng`] stream. Nothing about execution order or admission
//! decisions feeds back into the arrival instants, which is what makes an
//! open-loop campaign reproducible byte for byte: the same spec always
//! produces the same `(tenant, instant, template)` list.

use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};

/// The shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Memoryless arrivals: exponential inter-arrival gaps with mean
    /// `1 / rate_per_s`.
    Poisson,
    /// Bursty on/off arrivals: Poisson arrivals at `rate_per_s` inside
    /// fixed `on`-length windows, separated by silent `off`-length windows.
    OnOff,
}

/// One scheduled tenant arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Dense tenant id, assigned in arrival order starting at 0.
    pub tenant: u32,
    /// The simulated instant the tenant shows up.
    pub at: SimTime,
    /// Which kernel template (index into the caller's template list) this
    /// tenant instantiates.
    pub template: usize,
}

/// A seeded open-loop arrival plan (the `FA_ARRIVALS` specification).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalPlan {
    /// Seed for the arrival-instant and template-pick streams.
    pub seed: u64,
    /// Mean arrival rate (tenants per simulated second) while the process
    /// is active.
    pub rate_per_s: f64,
    /// Total tenants the plan injects.
    pub tenants: u32,
    /// Poisson or bursty on/off.
    pub shape: ArrivalShape,
    /// Length of one active window (`OnOff` only).
    pub on: SimDuration,
    /// Length of one silent window (`OnOff` only).
    pub off: SimDuration,
    /// Number of kernel templates tenants draw from (uniformly, from the
    /// same seeded stream).
    pub templates: usize,
    /// Instant the process starts.
    pub start: SimTime,
}

impl Default for ArrivalPlan {
    fn default() -> Self {
        ArrivalPlan {
            seed: 0x0A11,
            rate_per_s: 100.0,
            tenants: 256,
            shape: ArrivalShape::Poisson,
            on: SimDuration::from_ms(50),
            off: SimDuration::from_ms(150),
            templates: 1,
            start: SimTime::ZERO,
        }
    }
}

impl ArrivalPlan {
    /// Parses a plan from the `FA_ARRIVALS` specification string:
    /// comma-separated `key=value` pairs. Keys: `seed` (u64), `rate`
    /// (tenants per simulated second, > 0), `tenants` (u32 > 0), `shape`
    /// (`poisson` | `onoff`), `on_ms`/`off_ms` (window lengths for
    /// `onoff`), `templates` (usize > 0), `start_ns` (u64). Each key may
    /// appear once: a repeated key is an error naming it.
    ///
    /// ```
    /// use fa_sim::arrivals::{ArrivalPlan, ArrivalShape};
    /// let plan =
    ///     ArrivalPlan::parse("seed=42,rate=200,tenants=1000,shape=onoff,on_ms=40,off_ms=120")
    ///         .unwrap();
    /// assert_eq!(plan.seed, 42);
    /// assert_eq!(plan.tenants, 1000);
    /// assert_eq!(plan.shape, ArrivalShape::OnOff);
    /// let schedule = plan.schedule();
    /// assert_eq!(schedule.len(), 1000);
    /// assert_eq!(schedule, plan.schedule()); // same seed, same instants
    /// ```
    pub fn parse(spec: &str) -> Result<ArrivalPlan, String> {
        let mut plan = ArrivalPlan::default();
        let mut seen = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("arrival spec entry without '=': {part:?}"))?;
            if seen.contains(&key) {
                return Err(format!("repeated arrival spec key {key:?}"));
            }
            seen.push(key);
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed: {value:?}"))?;
                }
                "rate" => {
                    let rate: f64 = value.parse().map_err(|_| format!("bad rate: {value:?}"))?;
                    if !(rate > 0.0 && rate.is_finite()) {
                        return Err(format!("rate must be a positive finite number: {value}"));
                    }
                    plan.rate_per_s = rate;
                }
                "tenants" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| format!("bad tenants: {value:?}"))?;
                    if n == 0 {
                        return Err("tenants must be > 0".to_string());
                    }
                    plan.tenants = n;
                }
                "shape" => {
                    plan.shape = match value {
                        "poisson" => ArrivalShape::Poisson,
                        "onoff" => ArrivalShape::OnOff,
                        other => return Err(format!("unknown arrival shape {other:?}")),
                    };
                }
                "on_ms" => {
                    let ms: u64 = value.parse().map_err(|_| format!("bad on_ms: {value:?}"))?;
                    if ms == 0 {
                        return Err("on_ms must be > 0".to_string());
                    }
                    plan.on = SimDuration::from_ms(ms);
                }
                "off_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("bad off_ms: {value:?}"))?;
                    plan.off = SimDuration::from_ms(ms);
                }
                "templates" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| format!("bad templates: {value:?}"))?;
                    if n == 0 {
                        return Err("templates must be > 0".to_string());
                    }
                    plan.templates = n;
                }
                "start_ns" => {
                    plan.start = SimTime::from_ns(
                        value
                            .parse()
                            .map_err(|_| format!("bad start_ns: {value:?}"))?,
                    );
                }
                other => return Err(format!("unknown arrival spec key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Precomputes the full arrival schedule from the seed: `tenants`
    /// entries with non-decreasing instants and seeded template picks.
    /// A pure function of the plan — execution never feeds back into it.
    pub fn schedule(&self) -> Vec<Arrival> {
        let mut rng = DeterministicRng::seed_from(self.seed);
        let mut out = Vec::with_capacity(self.tenants as usize);
        let mut t_ns = self.start.as_ns() as f64;
        // On/off bookkeeping (unused for Poisson): the current active
        // window's end, in nanoseconds.
        let mut window_end = t_ns + self.on.as_ns() as f64;
        while out.len() < self.tenants as usize {
            // Exponential gap with mean 1/rate seconds. `next_f64` is in
            // [0, 1), so `1 - u` is in (0, 1] and the log is finite.
            let u = rng.next_f64();
            let gap_ns = -(1.0 - u).ln() / self.rate_per_s * 1.0e9;
            match self.shape {
                ArrivalShape::Poisson => t_ns += gap_ns,
                ArrivalShape::OnOff => {
                    t_ns += gap_ns;
                    // A gap landing past the active window skips the silent
                    // window and restarts at the next burst's opening
                    // instant; the leftover gap is discarded, which keeps
                    // each burst memoryless.
                    if t_ns > window_end {
                        let burst_start = window_end + self.off.as_ns() as f64;
                        window_end = burst_start + self.on.as_ns() as f64;
                        t_ns = burst_start;
                    }
                }
            }
            let template = rng.gen_index(self.templates);
            out.push(Arrival {
                tenant: out.len() as u32,
                at: SimTime::from_ns(t_ns as u64),
                template,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = ArrivalPlan::parse("seed=7,rate=500,tenants=2000").unwrap();
        let a = plan.schedule();
        let b = plan.schedule();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
        for pair in a.windows(2) {
            assert!(pair[0].at <= pair[1].at, "instants must be sorted");
        }
        assert_eq!(a[0].tenant, 0);
        assert_eq!(a.last().unwrap().tenant, 1999);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ArrivalPlan::parse("seed=1,rate=100,tenants=64")
            .unwrap()
            .schedule();
        let b = ArrivalPlan::parse("seed=2,rate=100,tenants=64")
            .unwrap()
            .schedule();
        assert_ne!(a, b);
    }

    #[test]
    fn poisson_mean_rate_is_roughly_honoured() {
        let plan = ArrivalPlan::parse("seed=3,rate=1000,tenants=5000").unwrap();
        let schedule = plan.schedule();
        let span_s = schedule.last().unwrap().at.as_secs_f64();
        let observed = 5000.0 / span_s;
        assert!(
            (observed - 1000.0).abs() / 1000.0 < 0.1,
            "observed rate {observed}"
        );
    }

    #[test]
    fn onoff_leaves_silent_windows() {
        let plan =
            ArrivalPlan::parse("seed=5,rate=2000,tenants=400,shape=onoff,on_ms=10,off_ms=30")
                .unwrap();
        let schedule = plan.schedule();
        // The largest inter-arrival gap must span at least one off window —
        // the shape is genuinely bursty, not a relabeled Poisson stream.
        let max_gap = schedule
            .windows(2)
            .map(|p| p[1].at.saturating_since(p[0].at))
            .max()
            .unwrap();
        assert!(
            max_gap >= SimDuration::from_ms(30),
            "largest gap {max_gap} never spans an off window"
        );
    }

    #[test]
    fn template_picks_cover_the_template_set() {
        let plan = ArrivalPlan::parse("seed=11,rate=100,tenants=256,templates=3").unwrap();
        let schedule = plan.schedule();
        for t in 0..3usize {
            assert!(
                schedule.iter().any(|a| a.template == t),
                "template {t} never picked"
            );
        }
        assert!(schedule.iter().all(|a| a.template < 3));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        // (spec, a fragment the error must contain)
        let cases = [
            ("noequals", "without '='"),
            ("seed=1,rate", "without '='"),
            ("bogus=1", "unknown arrival spec key \"bogus\""),
            ("seed=1,seed=2", "repeated arrival spec key \"seed\""),
            (
                "rate=5,tenants=8,rate=6",
                "repeated arrival spec key \"rate\"",
            ),
            ("shape=square", "unknown arrival shape"),
            ("rate=0", "positive finite"),
            ("rate=-2", "positive finite"),
            ("rate=NaN", "positive finite"),
            ("rate=inf", "positive finite"),
            ("rate=abc", "bad rate"),
            ("tenants=0", "tenants must be > 0"),
            ("tenants=abc", "bad tenants"),
            ("tenants=-3", "bad tenants"),
            ("templates=0", "templates must be > 0"),
            ("templates=x", "bad templates"),
            ("on_ms=0", "on_ms must be > 0"),
            ("on_ms=abc", "bad on_ms"),
            ("off_ms=abc", "bad off_ms"),
            ("seed=abc", "bad seed"),
            ("start_ns=-1", "bad start_ns"),
        ];
        for (spec, fragment) in cases {
            let err = ArrivalPlan::parse(spec).expect_err(spec);
            assert!(err.contains(fragment), "{spec:?} gave {err:?}");
        }
        // Empty entries are tolerated, like the fault spec.
        assert!(ArrivalPlan::parse("seed=1,,rate=10").is_ok());
    }
}
