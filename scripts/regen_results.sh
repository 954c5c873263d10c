#!/usr/bin/env bash
# Regenerate every committed results/*.txt and BENCH_*.json from its
# bench binary, so outputs can be diffed against the tree after engine
# changes (virtual results are deterministic: an engine-only change
# must leave every file byte-identical; see DESIGN.md §5c).
#
# Usage: scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=results

bins=(fig3 fig4 fig5 fig7 fig8 ttcp ablations scale)

cargo build --release -p shrimp-bench

for b in "${bins[@]}"; do
    echo ">> $b"
    "target/release/$b" > "$out/$b.txt"
done

# Observability decompositions (simprof): the Fig. 5 per-layer budget
# and the §5 specialized-RPC decomposition. Both derive entirely from
# virtual time, so they are byte-identical across replays.
echo ">> fig5_breakdown"
target/release/simprof fig5 > "$out/fig5_breakdown.txt"
echo ">> srpc_decomposition"
target/release/simprof srpc > "$out/srpc_decomposition.txt"
echo ">> rmc_decomposition"
target/release/simprof rmc > "$out/rmc_decomposition.txt"

# The digest-gated studies (svc serving curve + failover, svc chaos
# soak, one-sided remote memory, topology zoo): each writes its text
# report under results/ and the BENCH_<name>.json its CI job gates on.
# The runs assert their own contracts (zero lost acked writes, the
# soak SLO, one-sided beating SRPC, hardware beating software).
artifacts=$(target/release/artifacts --list)
for a in $artifacts; do
    echo ">> artifacts $a"
    target/release/artifacts "$a" --write
done

echo
echo "Regenerated: ${bins[*]/%/.txt} fig5_breakdown.txt srpc_decomposition.txt rmc_decomposition.txt" $artifacts
echo "Diff against the committed tree with: git diff -- results/ BENCH_*.json"
