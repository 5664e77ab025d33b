//! Activity-based energy accounting and the run summary both systems
//! report.

use crate::power::{Component, PowerSpec};
use fa_sim::stats::{bucketed, timeline_bucket, TimeSeries};
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The paper's three-way energy decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityCategory {
    /// Host-side work spent moving data between the SSD and the accelerator
    /// (redundant copies, user/kernel crossings, PCIe DMA set-up).
    DataMovement,
    /// The accelerator processing data.
    Computation,
    /// The storage device and I/O stack serving requests.
    StorageAccess,
}

/// One recorded busy interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Activity {
    component: Component,
    category: ActivityCategory,
    start: SimTime,
    end: SimTime,
    watts: f64,
}

/// Energy totals in joules, decomposed by category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Joules attributed to data movement.
    pub data_movement_j: f64,
    /// Joules attributed to computation.
    pub computation_j: f64,
    /// Joules attributed to storage access.
    pub storage_access_j: f64,
    /// Joules of background/idle power over the measured window.
    pub idle_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.data_movement_j + self.computation_j + self.storage_access_j + self.idle_j
    }

    /// Folds the idle energy into the three categories in proportion to
    /// `idle_w`, the idle watts of each category's components (indexed by
    /// `ActivityCategory as usize`). This is the paper's three-way
    /// presentation: its figures have no separate idle bar, and each
    /// component's background power is carried by the role it plays.
    fn with_idle_redistributed(&self, idle_w: [f64; 3]) -> EnergyBreakdown {
        let [data_movement_weight, computation_weight, storage_weight] = idle_w;
        let total_w = data_movement_weight + computation_weight + storage_weight;
        if total_w <= 0.0 || self.idle_j <= 0.0 {
            return *self;
        }
        EnergyBreakdown {
            data_movement_j: self.data_movement_j + self.idle_j * data_movement_weight / total_w,
            computation_j: self.computation_j + self.idle_j * computation_weight / total_w,
            storage_access_j: self.storage_access_j + self.idle_j * storage_weight / total_w,
            idle_j: 0.0,
        }
    }
}

/// What a run reports about its energy: the three-way breakdown and the
/// Figure 15 timelines. FlashAbacus and the SIMD baseline both build it
/// with [`EnergyAccountant::summary`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergySummary {
    /// The three-way breakdown, with every registered component's idle
    /// energy folded into the category of its role (so `idle_j` is 0
    /// once anything idles).
    pub breakdown: EnergyBreakdown,
    /// Instantaneous power over time (Figure 15b).
    pub power_timeline: TimeSeries,
    /// Busy functional units across all LWPs over time (Figure 15a);
    /// empty for a run that took no time.
    pub fu_timeline: TimeSeries,
}

impl EnergySummary {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.breakdown.total_j()
    }
}

/// Integrates component power over recorded busy intervals, and keeps the
/// LWPs' compute intervals for the functional-unit timeline.
///
/// # Examples
///
/// ```
/// use fa_energy::{EnergyAccountant, PowerSpec};
/// use fa_sim::time::SimTime;
///
/// let mut acct = EnergyAccountant::new(PowerSpec::paper_prototype());
/// // Four functional units busy on one LWP for 1 ms.
/// acct.record_compute(SimTime::ZERO, SimTime::from_ms(1), 4.0);
/// let summary = acct.summary(SimTime::from_ms(1));
/// // One LWP charged at its incremental (active − idle) power of 0.72 W
/// // for 1 ms = 0.72 mJ of computation energy.
/// assert!((summary.breakdown.computation_j - 0.00072).abs() < 1e-7);
/// assert!(summary.fu_timeline.points().iter().any(|&(_, fus)| fus > 0.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyAccountant {
    spec: PowerSpec,
    activities: Vec<Activity>,
    /// Components whose idle power is charged over the whole window.
    idle_components: Vec<(Component, usize)>,
    /// `(start, end, busy functional units)` of every compute interval.
    compute: Vec<(SimTime, SimTime, f64)>,
}

impl EnergyAccountant {
    /// Creates an accountant with the given power figures and no idle
    /// components registered.
    pub fn new(spec: PowerSpec) -> Self {
        EnergyAccountant {
            spec,
            activities: Vec::new(),
            idle_components: Vec::new(),
            compute: Vec::new(),
        }
    }

    /// Registers `count` instances of `component` whose idle power should be
    /// charged for the entire measurement window (e.g. eight LWPs, one
    /// DDR3L device). Active intervals are charged on top of idle power at
    /// `active - idle` watts so energy is not double counted.
    ///
    /// [`EnergyAccountant::summary`] sums each role's idle watts in
    /// registration order.
    pub fn register_idle(&mut self, component: Component, count: usize) {
        self.idle_components.push((component, count));
    }

    /// Records a busy interval of `component` charged to `category`, using
    /// the component's configured active power.
    pub fn record(
        &mut self,
        component: Component,
        category: ActivityCategory,
        start: SimTime,
        end: SimTime,
    ) {
        self.record_scaled(component, category, start, end, 1.0);
    }

    /// Records a busy interval with the active power scaled by `scale`
    /// (e.g. a transfer using half the interface's lanes).
    pub fn record_scaled(
        &mut self,
        component: Component,
        category: ActivityCategory,
        start: SimTime,
        end: SimTime,
        scale: f64,
    ) {
        if end <= start || scale <= 0.0 {
            return;
        }
        let incremental =
            (self.spec.active_watts(component) - self.spec.idle_watts(component)).max(0.0);
        self.activities.push(Activity {
            component,
            category,
            start,
            end,
            watts: incremental * scale,
        });
    }

    /// Records an LWP computing over `[start, end)` with `busy_fus`
    /// functional units busy on average: charges the LWP's computation
    /// energy and keeps the interval for the FU timeline.
    pub fn record_compute(&mut self, start: SimTime, end: SimTime, busy_fus: f64) {
        self.record(Component::Lwp, ActivityCategory::Computation, start, end);
        self.compute.push((start, end, busy_fus));
    }

    /// Summarises the window `[0, horizon]`: the breakdown with idle
    /// energy folded by component role (PCIe, the host CPU and host DRAM
    /// as data movement; LWPs, DDR3L and the fabric as computation; the
    /// flash backbone or SSD as storage), and both timelines sampled on
    /// the [`timeline_bucket`] grid.
    pub fn summary(&self, horizon: SimTime) -> EnergySummary {
        let mut idle_w = [0.0; 3];
        for &(component, count) in &self.idle_components {
            idle_w[component.idle_role() as usize] +=
                self.spec.idle_watts(component) * count as f64;
        }
        let bucket = timeline_bucket(horizon);
        let fu_timeline = if horizon == SimTime::ZERO {
            TimeSeries::new()
        } else {
            bucketed(horizon, bucket, 0.0, self.compute.iter().copied())
        };
        EnergySummary {
            breakdown: self.breakdown(horizon).with_idle_redistributed(idle_w),
            power_timeline: self.power_timeline(horizon, bucket),
            fu_timeline,
        }
    }

    /// The category breakdown over the window `[0, horizon]`, with the
    /// registered components' idle energy in `idle_j`.
    fn breakdown(&self, horizon: SimTime) -> EnergyBreakdown {
        let mut out = EnergyBreakdown::default();
        for a in &self.activities {
            let end = a.end.min(horizon);
            if end <= a.start {
                continue;
            }
            let joules = a.watts * (end.saturating_since(a.start)).as_secs_f64();
            match a.category {
                ActivityCategory::DataMovement => out.data_movement_j += joules,
                ActivityCategory::Computation => out.computation_j += joules,
                ActivityCategory::StorageAccess => out.storage_access_j += joules,
            }
        }
        let window = horizon.saturating_since(SimTime::ZERO).as_secs_f64();
        for (component, count) in &self.idle_components {
            out.idle_j += self.spec.idle_watts(*component) * *count as f64 * window;
        }
        out
    }

    /// The instantaneous power curve sampled every `bucket` over
    /// `[0, horizon]` — the Figure 15b view. Idle power of registered
    /// components forms the floor; active intervals add on top.
    fn power_timeline(&self, horizon: SimTime, bucket: SimDuration) -> TimeSeries {
        let idle_floor: f64 = self
            .idle_components
            .iter()
            .map(|(c, n)| self.spec.idle_watts(*c) * *n as f64)
            .sum();
        let active = self.activities.iter().map(|a| (a.start, a.end, a.watts));
        bucketed(horizon, bucket, idle_floor, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct() -> EnergyAccountant {
        EnergyAccountant::new(PowerSpec::paper_prototype())
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut a = acct();
        a.record(
            Component::HostCpu,
            ActivityCategory::DataMovement,
            SimTime::ZERO,
            SimTime::from_ms(100),
        );
        let b = a.breakdown(SimTime::from_ms(100));
        let expected = (85.0 - 18.0) * 0.1;
        assert!((b.data_movement_j - expected).abs() < 1e-9);
        assert_eq!(b.computation_j, 0.0);
    }

    #[test]
    fn categories_accumulate_independently() {
        let mut a = acct();
        a.record(
            Component::Lwp,
            ActivityCategory::Computation,
            SimTime::ZERO,
            SimTime::from_ms(10),
        );
        a.record(
            Component::FlashOrSsd,
            ActivityCategory::StorageAccess,
            SimTime::ZERO,
            SimTime::from_ms(20),
        );
        a.record(
            Component::Pcie,
            ActivityCategory::DataMovement,
            SimTime::from_ms(5),
            SimTime::from_ms(15),
        );
        let b = a.breakdown(SimTime::from_ms(20));
        assert!(b.computation_j > 0.0);
        assert!(b.storage_access_j > 0.0);
        assert!(b.data_movement_j > 0.0);
        assert!(b.total_j() >= b.computation_j + b.storage_access_j);
    }

    #[test]
    fn horizon_clips_open_intervals() {
        let mut a = acct();
        a.record(
            Component::Lwp,
            ActivityCategory::Computation,
            SimTime::ZERO,
            SimTime::from_ms(100),
        );
        let clipped = a.breakdown(SimTime::from_ms(50));
        let full = a.breakdown(SimTime::from_ms(100));
        assert!((clipped.computation_j * 2.0 - full.computation_j).abs() < 1e-9);
    }

    #[test]
    fn idle_components_charge_background_power() {
        let mut a = acct();
        a.register_idle(Component::Lwp, 8);
        a.register_idle(Component::Ddr3l, 1);
        let b = a.breakdown(SimTime::from_ms(1000));
        let expected = (8.0 * 0.08 + 0.15) * 1.0;
        assert!((b.idle_j - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_length_or_negative_scale_records_are_ignored() {
        let mut a = acct();
        a.record(
            Component::Lwp,
            ActivityCategory::Computation,
            SimTime::from_ms(5),
            SimTime::from_ms(5),
        );
        a.record_scaled(
            Component::Lwp,
            ActivityCategory::Computation,
            SimTime::ZERO,
            SimTime::from_ms(5),
            0.0,
        );
        let power = a.power_timeline(SimTime::from_ms(10), SimDuration::from_ms(5));
        assert!(power.points().iter().all(|&(_, w)| w == 0.0));
        assert_eq!(a.breakdown(SimTime::from_ms(10)).total_j(), 0.0);
    }

    #[test]
    fn power_timeline_rises_during_activity() {
        let mut a = acct();
        a.register_idle(Component::FlashOrSsd, 1);
        a.record(
            Component::FlashOrSsd,
            ActivityCategory::StorageAccess,
            SimTime::from_ms(10),
            SimTime::from_ms(20),
        );
        let series = a.power_timeline(SimTime::from_ms(30), SimDuration::from_ms(5));
        let points = series.points();
        assert!(!points.is_empty());
        let floor = points[0].1;
        let peak = points.iter().map(|p| p.1).fold(0.0, f64::max);
        assert!(peak > floor + 5.0, "peak {peak} floor {floor}");
        // After the activity ends the curve returns to the idle floor.
        assert!((points.last().unwrap().1 - floor).abs() < 1e-9);
    }

    #[test]
    fn summary_folds_idle_energy_by_component_role() {
        let mut a = acct();
        a.register_idle(Component::Lwp, 8);
        a.register_idle(Component::FlashOrSsd, 1);
        a.register_idle(Component::Pcie, 1);
        a.record(
            Component::Pcie,
            ActivityCategory::DataMovement,
            SimTime::ZERO,
            SimTime::from_ms(500),
        );
        let horizon = SimTime::from_ms(1000);
        let raw = a.breakdown(horizon);
        let folded = a.summary(horizon).breakdown;
        assert_eq!(folded.idle_j, 0.0);
        assert!((folded.total_j() - raw.total_j()).abs() < 1e-12);
        // Idle watts: 0.64 W of LWPs (computation), 1.2 W of flash
        // (storage), 0.02 W of PCIe (data movement).
        let share = |w: f64| raw.idle_j * w / (0.02 + 0.64 + 1.2);
        assert!((folded.data_movement_j - raw.data_movement_j - share(0.02)).abs() < 1e-12);
        assert!((folded.computation_j - share(0.64)).abs() < 1e-12);
        assert!((folded.storage_access_j - share(1.2)).abs() < 1e-12);
    }

    #[test]
    fn record_compute_charges_the_lwp_and_feeds_the_fu_timeline() {
        let mut a = acct();
        a.record_compute(SimTime::ZERO, SimTime::from_ms(10), 3.0);
        let summary = a.summary(SimTime::from_ms(20));
        assert!((summary.breakdown.computation_j - 0.72 * 0.01).abs() < 1e-12);
        let fus = summary.fu_timeline.points();
        assert!((fus[0].1 - 3.0).abs() < 1e-12);
        assert_eq!(fus.last().map(|p| p.1), Some(0.0));
        assert_eq!(summary.power_timeline.len(), fus.len());
        // A run that took no time has no FU timeline.
        assert!(a.summary(SimTime::ZERO).fu_timeline.is_empty());
    }
}
