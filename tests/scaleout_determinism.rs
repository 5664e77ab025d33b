//! Determinism guard for the open-loop multi-tenant traffic engine.
//!
//! The engine's contract (`flashabacus::openloop`): a campaign is a pure
//! function of `(templates, arrival plan, scaleout config)`. The arrival
//! schedule is precomputed from the seed and every flash request is issued
//! at event-processing instants visited in non-decreasing time order — so
//! the same arrival spec must reproduce the campaign byte for byte.
//!
//! The property is pinned against [`OpenLoopReport::digest`], which
//! encodes every per-tenant record, every admission decision, and the
//! aggregate counters (f64s as exact bit patterns). Zero tolerance: one
//! reordered completion, one flipped admission, one ulp of drift fails.

use fa_bench::experiments::scaleout::run_scaleout_campaign;
use fa_sim::arrivals::ArrivalPlan;
use fa_workloads::tenants::tenant_templates;
use flashabacus::openloop::{AdmissionDecision, OpenLoopReport};

/// An overloaded bursty campaign: 128 tenants arriving faster than the six
/// slots drain, so the trace exercises every admission path (direct
/// admission, queueing, FIFO promotion, and shedding past the full queue).
const ARRIVAL_SPEC: &str =
    "seed=42,rate=20000,tenants=128,shape=onoff,on_ms=5,off_ms=15,templates=3";

fn campaign() -> OpenLoopReport {
    let plan = ArrivalPlan::parse(ARRIVAL_SPEC).expect("arrival spec parses");
    run_scaleout_campaign(&tenant_templates(1024), &plan, true)
}

#[test]
fn same_arrival_spec_reproduces_the_campaign_byte_for_byte() {
    let a = campaign();
    let b = campaign();

    // The campaign must be rich enough to mean something: every admission
    // path taken, the governor live, and tenants actually completing.
    assert!(a.outcome.tenants_queued > 0, "no tenant ever queued");
    assert!(a.outcome.tenants_shed > 0, "no tenant was ever shed");
    assert!(
        a.admissions
            .iter()
            .any(|r| r.decision == AdmissionDecision::Promoted),
        "no queued tenant was ever promoted"
    );
    assert!(a.outcome.governor_updates > 0, "governor never ticked");
    assert!(
        a.tenants.iter().any(|t| t.completed_at.is_some()),
        "no tenant completed"
    );

    // Byte-identical per-tenant stats and admission trace.
    assert_eq!(a.tenants, b.tenants, "per-tenant records diverged");
    assert_eq!(a.admissions, b.admissions, "admission trace diverged");
    assert_eq!(
        a.digest(),
        b.digest(),
        "same arrival seed produced different campaign digests"
    );
}
