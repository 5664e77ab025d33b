//! Shared evaluation campaigns.
//!
//! Each campaign fans its (workload, system) pairs across the spec's worker
//! threads through [`crate::runner::run_pairs`]; results are merged back in
//! serial iteration order, so every figure and table derived from a
//! campaign is byte-identical whatever the thread count.

use crate::runner::{
    bigdata_workload, heterogeneous_workload, homogeneous_workload, run_pairs, ExperimentScale,
    RunSpec, SystemKind, UnifiedOutcome,
};
use fa_kernel::model::Application;
use fa_workloads::bigdata::bigdata_table;
use fa_workloads::mixes::{mix_names, MIX_COUNT};
use fa_workloads::polybench::polybench_table2;

/// A set of completed runs, indexed by workload label and system.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// All outcomes, in (workload, system) iteration order.
    pub outcomes: Vec<UnifiedOutcome>,
    /// Workload labels in presentation order.
    pub workloads: Vec<String>,
}

impl Campaign {
    /// Builds a campaign from pre-built workloads by running every
    /// (workload, system) pair under `spec`.
    fn run(spec: &RunSpec, workload_apps: Vec<(String, Vec<Application>)>) -> Campaign {
        let workloads = workload_apps.iter().map(|(n, _)| n.clone()).collect();
        Campaign {
            outcomes: run_pairs(spec, &workload_apps),
            workloads,
        }
    }

    /// The homogeneous campaign's workload list: six instances of each of
    /// the fourteen PolyBench applications.
    fn homogeneous_workloads(scale: ExperimentScale) -> Vec<(String, Vec<Application>)> {
        polybench_table2()
            .iter()
            .map(|row| (row.name.to_string(), homogeneous_workload(row.bench, scale)))
            .collect()
    }

    /// The heterogeneous campaign's workload list: MX1–MX14, 24 instances
    /// each.
    fn heterogeneous_workloads(scale: ExperimentScale) -> Vec<(String, Vec<Application>)> {
        let lists: Vec<(String, Vec<Application>)> = mix_names()
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                let apps = heterogeneous_workload(i + 1, scale);
                (name, apps)
            })
            .collect();
        debug_assert_eq!(lists.len(), MIX_COUNT);
        lists
    }

    /// The graph/big-data campaign's workload list.
    fn bigdata_workloads(scale: ExperimentScale) -> Vec<(String, Vec<Application>)> {
        bigdata_table()
            .iter()
            .map(|row| (row.name.to_string(), bigdata_workload(row.bench, scale)))
            .collect()
    }

    /// Runs the homogeneous campaign of §5.1: six instances of each of the
    /// fourteen PolyBench applications on all five systems.
    pub fn homogeneous(spec: &RunSpec) -> Campaign {
        Self::run(spec, Self::homogeneous_workloads(spec.scale))
    }

    /// Runs the heterogeneous campaign of §5.1: MX1–MX14 on all five
    /// systems (24 instances each).
    pub fn heterogeneous(spec: &RunSpec) -> Campaign {
        Self::run(spec, Self::heterogeneous_workloads(spec.scale))
    }

    /// Runs the graph/big-data campaign of §5.6 on all five systems.
    pub fn bigdata(spec: &RunSpec) -> Campaign {
        Self::run(spec, Self::bigdata_workloads(spec.scale))
    }

    /// Looks up the outcome of one (workload, system) pair.
    pub fn get(&self, workload: &str, system: SystemKind) -> Option<&UnifiedOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.workload == workload && o.system == system)
    }

    /// The outcome of one pair, panicking when absent (campaigns are always
    /// complete; a miss is a typo in the caller).
    pub fn expect(&self, workload: &str, system: SystemKind) -> &UnifiedOutcome {
        self.get(workload, system)
            .unwrap_or_else(|| panic!("no outcome for {workload} on {}", system.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashabacus::SchedulerPolicy;

    #[test]
    fn bigdata_campaign_covers_all_pairs() {
        let c = Campaign::bigdata(&RunSpec::at(ExperimentScale { data_scale: 512 }));
        assert_eq!(c.workloads.len(), 5);
        assert_eq!(c.outcomes.len(), 5 * 5);
        for w in &c.workloads {
            for s in SystemKind::all() {
                assert!(c.get(w, s).is_some(), "{w} on {}", s.label());
            }
        }
        let o = c.expect("bfs", SystemKind::FlashAbacus(SchedulerPolicy::IntraO3));
        assert!(o.throughput_mb_s > 0.0);
    }
}
