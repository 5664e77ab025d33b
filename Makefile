# Developer conveniences for the FlashAbacus reproduction.
#
# `bless-golden` is the one audited way to regenerate the
# results-invariance golden files after an *intentional* physics change:
# it re-renders the pinned campaign, churn round and simulated ablations,
# overwrites tests/golden/small_campaign.txt, churn_digest.txt and
# ablations.txt, and prints the resulting diff so the change lands
# reviewably in the same PR.

.PHONY: verify bless-golden

verify:
	cargo build --release --workspace --all-targets
	cargo test -q --workspace

bless-golden:
	FA_BLESS_GOLDEN=1 cargo test -q --test results_golden
	git --no-pager diff --stat -- tests/golden/
	@echo "golden re-blessed; review the diff above before committing"
