#!/usr/bin/env bash
# Regenerate every committed results/*.txt and BENCH_*.json (except
# BENCH_simperf.json, whose seconds are host-measured) from the one
# `artifacts` list, so outputs can be diffed against the tree after
# engine changes (virtual results are deterministic: an engine-only
# change must leave every file byte-identical; see DESIGN.md §5c).
#
# The list covers the paper's figures and text anchors, the simprof
# decompositions (which refuse to render a conservation breach), and
# the digest-gated studies, whose runs assert their own contracts
# (zero lost acked writes, the soak SLO, one-sided beating SRPC,
# hardware beating software).
#
# Usage: scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p shrimp-bench --bin artifacts

artifacts=$(target/release/artifacts --list)
for a in $artifacts; do
    echo ">> artifacts $a"
    target/release/artifacts "$a" --write
done

echo
echo "Regenerated:" $artifacts
echo "Diff against the committed tree with: git diff -- results/ BENCH_*.json"
