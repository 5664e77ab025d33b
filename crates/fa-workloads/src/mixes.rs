//! Heterogeneous workload mixes MX1–MX14.
//!
//! The paper builds fourteen heterogeneous workloads, each mixing six of the
//! PolyBench applications (right-hand columns of Table 2). The published
//! table marks membership with dots whose exact column alignment is not
//! recoverable from the text; what *is* recoverable is how many mixes each
//! application participates in (ATAX 4, BICG 4, 2DCONV 5, MVT 9, ADI 9,
//! FDTD 8, GESUM 8, SYRK 5, 3MM 4, COVAR 5, GEMM 8, 2MM 7, SYR2K 4, CORR 4 —
//! 84 memberships = 14 mixes × 6 applications). We therefore regenerate the
//! mixes deterministically with a largest-remaining-count greedy assignment,
//! which reproduces those per-application frequencies exactly and yields an
//! MX1 whose composition (four data-intensive plus two compute-intensive
//! kernels) matches the description accompanying Figure 12b. The
//! substitution, and its known defect (three repeated mixes), is
//! documented in the "Heterogeneous mix generator" section of
//! `docs/ARCHITECTURE.md`.

use crate::polybench::{polybench_app, polybench_table2, PolyBench};
use fa_kernel::instance::{instantiate_many, InstancePlan};
use fa_kernel::model::Application;
use serde::{Deserialize, Serialize};

/// How many of the fourteen mixes each application appears in, in Table 2
/// row order.
const MEMBERSHIP_COUNTS: [(PolyBench, usize); 14] = [
    (PolyBench::Atax, 4),
    (PolyBench::Bicg, 4),
    (PolyBench::TwoDConv, 5),
    (PolyBench::Mvt, 9),
    (PolyBench::Adi, 9),
    (PolyBench::Fdtd, 8),
    (PolyBench::Gesum, 8),
    (PolyBench::Syrk, 5),
    (PolyBench::ThreeMm, 4),
    (PolyBench::Covar, 5),
    (PolyBench::Gemm, 8),
    (PolyBench::TwoMm, 7),
    (PolyBench::Syr2k, 4),
    (PolyBench::Corr, 4),
];

/// Number of heterogeneous mixes.
pub const MIX_COUNT: usize = 14;
/// Applications per mix.
pub const APPS_PER_MIX: usize = 6;

/// Identifier of one heterogeneous mix (1-based, `MX1`..`MX14`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MixId(pub usize);

/// Names of all mixes, `MX1` through `MX14`.
pub fn mix_names() -> Vec<String> {
    (1..=MIX_COUNT).map(|i| format!("MX{i}")).collect()
}

/// The six applications composing mix `mix` (1-based).
///
/// # Panics
///
/// Panics if `mix` is not in `1..=14`.
pub fn mix_composition(mix: usize) -> Vec<PolyBench> {
    assert!((1..=MIX_COUNT).contains(&mix), "mix must be 1..=14");
    all_compositions()[mix - 1].clone()
}

/// Compositions of all fourteen mixes, index 0 = MX1.
fn all_compositions() -> Vec<Vec<PolyBench>> {
    let mut remaining: Vec<(PolyBench, usize)> = MEMBERSHIP_COUNTS.to_vec();
    let order: Vec<PolyBench> = MEMBERSHIP_COUNTS.iter().map(|(b, _)| *b).collect();
    let mut mixes = Vec::with_capacity(MIX_COUNT);
    for _ in 0..MIX_COUNT {
        // Pick the six applications with the highest remaining counts,
        // breaking ties by Table 2 row order. This is deterministic and
        // never places the same application twice in one mix.
        let mut candidates: Vec<(usize, PolyBench, usize)> = remaining
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| *c > 0)
            .map(|(i, (b, c))| (i, *b, *c))
            .collect();
        candidates.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        let chosen: Vec<(usize, PolyBench)> = candidates
            .into_iter()
            .take(APPS_PER_MIX)
            .map(|(i, b, _)| (i, b))
            .collect();
        assert_eq!(
            chosen.len(),
            APPS_PER_MIX,
            "membership counts must support {MIX_COUNT} mixes"
        );
        for (i, _) in &chosen {
            remaining[*i].1 -= 1;
        }
        // Present the mix in Table 2 order so data-intensive applications
        // come first (matches the CDF discussion of Figure 12b).
        let mut mix: Vec<PolyBench> = chosen.into_iter().map(|(_, b)| b).collect();
        mix.sort_by_key(|b| order.iter().position(|o| o == b).expect("known bench"));
        mixes.push(mix);
    }
    mixes
}

/// Builds the 24 application instances of one mix (four instances of each
/// of the six applications, §5.1), with data sections laid out disjointly.
pub fn mix_apps(mix: usize, data_scale: u64) -> Vec<Application> {
    let templates: Vec<Application> = mix_composition(mix)
        .into_iter()
        .map(|b| polybench_app(b, data_scale))
        .collect();
    instantiate_many(&templates, &InstancePlan::heterogeneous())
}

/// Convenience: the Table 2 names of the applications in a mix.
pub fn mix_app_names(mix: usize) -> Vec<&'static str> {
    let table = polybench_table2();
    mix_composition(mix)
        .into_iter()
        .map(|b| {
            table
                .iter()
                .find(|r| r.bench == b)
                .map(|r| r.name)
                .expect("bench present in table")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn membership_counts_sum_to_fourteen_mixes_of_six() {
        let total: usize = MEMBERSHIP_COUNTS.iter().map(|(_, c)| c).sum();
        assert_eq!(total, MIX_COUNT * APPS_PER_MIX);
    }

    #[test]
    fn every_mix_has_six_distinct_applications() {
        for (i, mix) in all_compositions().into_iter().enumerate() {
            assert_eq!(mix.len(), APPS_PER_MIX, "MX{}", i + 1);
            let mut dedup = mix.clone();
            dedup.sort_by_key(|b| format!("{b:?}"));
            dedup.dedup();
            assert_eq!(dedup.len(), APPS_PER_MIX, "duplicate app in MX{}", i + 1);
        }
    }

    #[test]
    fn per_application_frequencies_match_table2() {
        let mut counts: HashMap<PolyBench, usize> = HashMap::new();
        for mix in all_compositions() {
            for b in mix {
                *counts.entry(b).or_default() += 1;
            }
        }
        for (bench, expected) in MEMBERSHIP_COUNTS {
            assert_eq!(
                counts.get(&bench).copied().unwrap_or(0),
                expected,
                "{bench:?}"
            );
        }
    }

    #[test]
    fn mx1_mixes_data_and_compute_intensive_kernels() {
        // Figure 12b describes MX1 as four data-intensive kernels followed
        // by two computation-intensive ones.
        let table = polybench_table2();
        let mix = mix_composition(1);
        let data = mix
            .iter()
            .filter(|b| {
                table
                    .iter()
                    .find(|r| r.bench == **b)
                    .map(|r| r.is_data_intensive())
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(data, 4, "MX1 composition: {mix:?}");
        assert_eq!(mix.len() - data, 2);
    }

    #[test]
    fn mix_apps_builds_24_disjoint_instances() {
        let apps = mix_apps(1, 64);
        assert_eq!(apps.len(), 24);
        let mut ranges: Vec<(u64, u64)> = apps
            .iter()
            .flat_map(|a| a.kernels.iter().map(|k| k.data_section.flash_range()))
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping data sections");
        }
        // Four instances of each of six distinct names.
        let mut by_name: HashMap<String, usize> = HashMap::new();
        for a in &apps {
            *by_name.entry(a.name.clone()).or_default() += 1;
        }
        assert_eq!(by_name.len(), 6);
        assert!(by_name.values().all(|&c| c == 4));
    }

    #[test]
    fn mix_names_and_lookup_are_consistent() {
        assert_eq!(mix_names().len(), 14);
        assert_eq!(mix_names()[0], "MX1");
        assert_eq!(mix_app_names(1).len(), 6);
    }

    #[test]
    #[should_panic(expected = "mix must be")]
    fn out_of_range_mix_panics() {
        mix_composition(15);
    }
}
