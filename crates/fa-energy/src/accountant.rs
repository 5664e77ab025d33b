//! Activity-based energy accounting.

use crate::power::{Component, PowerSpec};
use fa_sim::stats::{bucketed, TimeSeries};
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

    /// Fraction of total energy in a category (0 when the total is 0).
    pub fn fraction(&self, category: ActivityCategory) -> f64 {
        let total = self.total_j();
        if total <= 0.0 {
            return 0.0;
        }
        let part = match category {
            ActivityCategory::DataMovement => self.data_movement_j,
            ActivityCategory::Computation => self.computation_j,
            ActivityCategory::StorageAccess => self.storage_access_j,
        };
        part / total
    }

    /// Folds the idle/background energy into the three categories in
    /// proportion to the supplied weights, reproducing the paper's
    /// three-way presentation (its figures have no separate idle bar; the
    /// background power of each component is carried by the role that
    /// component plays in the system).
    pub fn with_idle_redistributed(
        &self,
        data_movement_weight: f64,
        computation_weight: f64,
        storage_weight: f64,
    ) -> EnergyBreakdown {
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

    /// Returns a copy with every field scaled by `factor` (used to
    /// normalize against a baseline).
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            data_movement_j: self.data_movement_j * factor,
            computation_j: self.computation_j * factor,
            storage_access_j: self.storage_access_j * factor,
            idle_j: self.idle_j * factor,
        }
    }
}

/// Integrates component power over recorded busy intervals.
///
/// # Examples
///
/// ```
/// use fa_energy::{ActivityCategory, Component, EnergyAccountant, PowerSpec};
/// use fa_sim::time::SimTime;
///
/// let mut acct = EnergyAccountant::new(PowerSpec::paper_prototype());
/// acct.record(
///     Component::Lwp,
///     ActivityCategory::Computation,
///     SimTime::ZERO,
///     SimTime::from_ms(1),
/// );
/// let breakdown = acct.breakdown(SimTime::from_ms(1));
/// // One LWP charged at its incremental (active − idle) power of 0.72 W
/// // for 1 ms = 0.72 mJ of computation energy.
/// assert!((breakdown.computation_j - 0.00072).abs() < 1e-7);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyAccountant {
    spec: PowerSpec,
    activities: Vec<Activity>,
    /// Components whose idle power is charged over the whole window.
    idle_components: Vec<(Component, usize)>,
}

impl EnergyAccountant {
    /// Creates an accountant with the given power figures and no idle
    /// components registered.
    pub fn new(spec: PowerSpec) -> Self {
        EnergyAccountant {
            spec,
            activities: Vec::new(),
            idle_components: Vec::new(),
        }
    }

    /// Registers `count` instances of `component` whose idle power should be
    /// charged for the entire measurement window (e.g. eight LWPs, one
    /// DDR3L device). Active intervals are charged on top of idle power at
    /// `active - idle` watts so energy is not double counted.
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

    /// Computes the category breakdown over the window `[0, horizon]`.
    pub fn breakdown(&self, horizon: SimTime) -> EnergyBreakdown {
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

    /// Reconstructs the instantaneous power curve sampled every `bucket`
    /// over `[0, horizon]` — the Figure 15b view. Idle power of registered
    /// components forms the floor; active intervals add on top.
    pub fn power_timeline(&self, horizon: SimTime, bucket: SimDuration) -> TimeSeries {
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
        let f = b.fraction(ActivityCategory::StorageAccess);
        assert!(f > 0.0 && f < 1.0);
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
    fn scaled_breakdown_normalizes() {
        let mut a = acct();
        a.record(
            Component::HostCpu,
            ActivityCategory::DataMovement,
            SimTime::ZERO,
            SimTime::from_ms(10),
        );
        let b = a.breakdown(SimTime::from_ms(10));
        let half = b.scaled(0.5);
        assert!((half.total_j() * 2.0 - b.total_j()).abs() < 1e-12);
    }
}
