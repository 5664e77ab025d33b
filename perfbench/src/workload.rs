//! What one pass of any workload reports, and the tallies the workloads
//! share.

use crate::measure::{debug_counts, tail_percentile, Digest};
use fa_energy::EnergyBreakdown;
use fa_flash::FlashBackbone;
use std::collections::BTreeMap;
use std::fmt;

/// Everything one pass produced, apart from its host times (those live in
/// the pass's [`crate::trace::Meter`]).
#[derive(Debug, Default)]
pub struct PassOut {
    /// Digest of the simulated outputs; identical on every pass of a run.
    pub digest: u64,
    /// Operations attempted (runs, section writes, GC passes, tenants).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Broken invariants, one line each; empty when all held.
    pub violations: Vec<String>,
    /// Flash commands (reads + programs + erases) the pass simulated.
    pub flash_commands: u64,
    /// Simulated end-to-end results.
    pub sim: BTreeMap<&'static str, f64>,
    /// Deterministic per-layer counters.
    pub counters: BTreeMap<&'static str, f64>,
}

impl PassOut {
    /// Records a broken invariant.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Fills the simulated sojourn and throughput results shared by every
    /// workload: `sojourn_ns` holds one sample per unit of work (a failed
    /// unit as `u64::MAX`, so it misses every limit).
    pub fn record_sim(
        &mut self,
        sojourn_ns: &[u64],
        bytes: u64,
        sim_seconds: f64,
        flash: &FlashTally,
    ) {
        for (name, q) in [("sim_sojourn_p50_ms", 0.50), ("sim_sojourn_p99_ms", 0.99)] {
            match tail_percentile(sojourn_ns, q) {
                Some(ns) => {
                    self.sim.insert(name, ns as f64 * 1e-6);
                }
                None => self.violation(format!(
                    "{name}: {} samples leave fewer than 10 beyond the percentile",
                    sojourn_ns.len()
                )),
            }
        }
        if sim_seconds > 0.0 {
            self.sim
                .insert("sim_throughput_mb_s", bytes as f64 / 1e6 / sim_seconds);
        } else {
            self.violation("no simulated time elapsed".to_string());
        }
        match flash.write_amp() {
            Some(wa) => {
                self.sim.insert("sim_write_amp", wa);
            }
            None => self.violation("the host programmed no flash pages".to_string()),
        }
        self.flash_commands = flash.commands();
        flash.record(&mut self.counters);
    }

    /// Folds every simulated result and counter into `digest` and stores it.
    pub fn seal(&mut self, mut digest: Digest) {
        for (name, value) in self.sim.iter().chain(&self.counters) {
            digest.bytes(name.as_bytes());
            digest.f64(*value);
        }
        digest.u64(self.flash_commands);
        self.digest = digest.value();
    }
}

/// Flash-backbone work of one or more runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlashTally {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed, by anyone.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Pages programmed on behalf of the host (every owner except the GC
    /// and journal streams).
    pub host_programs: u64,
    /// Peak tag-queue occupancy any owner reached on one channel.
    pub peak_tags: usize,
}

impl FlashTally {
    /// The work `backbone` has done so far.
    pub fn of(backbone: &FlashBackbone) -> Self {
        let stats = backbone.stats();
        let owners = backbone.owner_stats();
        FlashTally {
            reads: stats.reads,
            programs: stats.programs,
            erases: stats.erases,
            host_programs: owners
                .iter()
                .filter(|(owner, _)| !owner.is_background())
                .map(|(_, s)| s.programs)
                .sum(),
            peak_tags: owners.values().map(|s| s.peak_tags).max().unwrap_or(0),
        }
    }

    /// Adds another run's work.
    pub fn add(&mut self, other: FlashTally) {
        self.reads += other.reads;
        self.programs += other.programs;
        self.erases += other.erases;
        self.host_programs += other.host_programs;
        self.peak_tags = self.peak_tags.max(other.peak_tags);
    }

    /// Flash commands simulated.
    pub fn commands(&self) -> u64 {
        self.reads + self.programs + self.erases
    }

    /// Pages programmed per page the host wrote.
    pub fn write_amp(&self) -> Option<f64> {
        (self.host_programs > 0).then(|| self.programs as f64 / self.host_programs as f64)
    }

    fn record(&self, counters: &mut BTreeMap<&'static str, f64>) {
        counters.insert("flash.reads", self.reads as f64);
        counters.insert("flash.programs", self.programs as f64);
        counters.insert("flash.erases", self.erases as f64);
        counters.insert("flash.peak_tags", self.peak_tags as f64);
    }
}

/// The sharded-engine counters of `value`, a `RunOutcome` or Flashvisor's
/// stats together with its backbone. Reading them by `Debug` field name
/// keeps the benchmark building once the engine is deleted; the counters
/// then read 0.
pub fn sharded_counts(value: &dyn fmt::Debug) -> [(&'static str, f64); 3] {
    let [read_fallbacks, write_fallbacks, windows] = debug_counts(
        value,
        [
            "sharded_read_fallbacks",
            "sharded_write_fallbacks",
            "sharded_windows",
        ],
    );
    [
        ("flashvisor.sharded_read_fallbacks", read_fallbacks as f64),
        ("flashvisor.sharded_write_fallbacks", write_fallbacks as f64),
        ("flashvisor.sharded_windows", windows as f64),
    ]
}

/// Records an energy breakdown as the `energy.*` counters.
pub fn record_energy(counters: &mut BTreeMap<&'static str, f64>, e: &EnergyBreakdown) {
    counters.insert("energy.data_movement_j", e.data_movement_j);
    counters.insert("energy.compute_j", e.computation_j);
    counters.insert("energy.storage_j", e.storage_access_j);
    counters.insert("energy.idle_j", e.idle_j);
    counters.insert("energy.total_j", e.total_j());
}
