//! Per-component power figures.

use serde::{Deserialize, Serialize};

/// Components whose activity the energy model tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// One lightweight processor of the accelerator.
    Lwp,
    /// The accelerator's DDR3L memory.
    Ddr3l,
    /// The accelerator's scratchpad and crossbar fabric.
    Fabric,
    /// The PCIe interface between host and accelerator.
    Pcie,
    /// The flash backbone (or, for the baseline, the discrete NVMe SSD).
    FlashOrSsd,
    /// The host CPU.
    HostCpu,
    /// The host DRAM.
    HostDram,
}

/// Power figures in watts for every tracked component, split into active
/// and idle power so that both busy intervals and standby time can be
/// charged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSpec {
    /// Active power of one LWP (Table 1: 0.8 W/core).
    pub lwp_active_w: f64,
    /// Idle (clock-gated) power of one LWP.
    pub lwp_idle_w: f64,
    /// DDR3L active power (Table 1: 0.7 W).
    pub ddr3l_active_w: f64,
    /// DDR3L idle power.
    pub ddr3l_idle_w: f64,
    /// Scratchpad + crossbar fabric active power.
    pub fabric_active_w: f64,
    /// PCIe interface power while transferring (Table 1: 0.17 W).
    pub pcie_active_w: f64,
    /// Flash backbone / SSD active power (Table 1: 11 W).
    pub flash_active_w: f64,
    /// Flash backbone / SSD idle power.
    pub flash_idle_w: f64,
    /// Host CPU active power (Xeon E5-2620 v3 class, per §5).
    pub host_cpu_active_w: f64,
    /// Host CPU idle power.
    pub host_cpu_idle_w: f64,
    /// Host DRAM active power (32 GB DDR4).
    pub host_dram_active_w: f64,
    /// Host DRAM idle (refresh) power.
    pub host_dram_idle_w: f64,
}

impl PowerSpec {
    /// Power figures for the paper's evaluation platform.
    pub fn paper_prototype() -> Self {
        PowerSpec {
            lwp_active_w: 0.8,
            lwp_idle_w: 0.08,
            ddr3l_active_w: 0.7,
            ddr3l_idle_w: 0.15,
            fabric_active_w: 0.5,
            pcie_active_w: 0.17,
            flash_active_w: 11.0,
            flash_idle_w: 1.2,
            host_cpu_active_w: 85.0,
            host_cpu_idle_w: 18.0,
            host_dram_active_w: 6.0,
            host_dram_idle_w: 1.5,
        }
    }

    /// Active power of a component.
    pub(crate) fn active_watts(&self, component: Component) -> f64 {
        match component {
            Component::Lwp => self.lwp_active_w,
            Component::Ddr3l => self.ddr3l_active_w,
            Component::Fabric => self.fabric_active_w,
            Component::Pcie => self.pcie_active_w,
            Component::FlashOrSsd => self.flash_active_w,
            Component::HostCpu => self.host_cpu_active_w,
            Component::HostDram => self.host_dram_active_w,
        }
    }

    /// Idle power of a component.
    pub(crate) fn idle_watts(&self, component: Component) -> f64 {
        match component {
            Component::Lwp => self.lwp_idle_w,
            Component::Ddr3l => self.ddr3l_idle_w,
            Component::Fabric => 0.05,
            Component::Pcie => 0.02,
            Component::FlashOrSsd => self.flash_idle_w,
            Component::HostCpu => self.host_cpu_idle_w,
            Component::HostDram => self.host_dram_idle_w,
        }
    }
}

impl Default for PowerSpec {
    fn default() -> Self {
        PowerSpec::paper_prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_power_figures() {
        let p = PowerSpec::paper_prototype();
        assert!((p.lwp_active_w - 0.8).abs() < 1e-9);
        assert!((p.ddr3l_active_w - 0.7).abs() < 1e-9);
        assert!((p.pcie_active_w - 0.17).abs() < 1e-9);
        assert!((p.flash_active_w - 11.0).abs() < 1e-9);
    }

    #[test]
    fn active_power_exceeds_idle_power() {
        let p = PowerSpec::paper_prototype();
        for c in [
            Component::Lwp,
            Component::Ddr3l,
            Component::Fabric,
            Component::Pcie,
            Component::FlashOrSsd,
            Component::HostCpu,
            Component::HostDram,
        ] {
            assert!(
                p.active_watts(c) > p.idle_watts(c),
                "{c:?} active should exceed idle"
            );
        }
    }

    #[test]
    fn host_components_dominate_accelerator_components() {
        // The premise of the paper's energy argument: the host CPU + DRAM
        // cost far more than the whole accelerator.
        let p = PowerSpec::paper_prototype();
        let accel = 8.0 * p.lwp_active_w + p.ddr3l_active_w + p.fabric_active_w + p.pcie_active_w;
        assert!(p.host_cpu_active_w > 3.0 * accel);
    }
}
