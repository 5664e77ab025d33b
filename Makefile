# Developer conveniences for the FlashAbacus reproduction.
#
# `bless-golden` is the one audited way to regenerate the
# results-invariance golden files after an *intentional* physics change:
# it re-renders the pinned campaign, churn round, simulated ablations,
# the work counts of the campaign and the churn round, the run driver's
# edge paths (background GC, injected faults, power loss) and the SIMD
# baseline's full outcome on the campaign's workloads, overwrites
# tests/golden/small_campaign.txt, churn_digest.txt, ablations.txt,
# work_counts.txt, driver_edges.txt and baseline_outcome.txt, and prints
# the resulting diff so the change lands reviewably in the same PR.

.PHONY: verify bless-golden

verify:
	cargo build --release --workspace --all-targets
	cargo test -q --workspace

bless-golden:
	FA_BLESS_GOLDEN=1 cargo test -q --test results_golden
	git --no-pager diff -- tests/golden/
	@echo "golden re-blessed; review the diff above before committing"
