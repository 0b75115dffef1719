#!/bin/sh
# Schema lint for bsim --stats-json documents (bsim-stats-v1).
#
# Usage:
#   scripts/check_stats_json.sh FILE...        # lint specific documents
#   scripts/check_stats_json.sh --selftest     # run the built-in cases
#   scripts/check_stats_json.sh                # end-to-end: replay the
#                                              # checked-in sample trace
#                                              # with --stats-json and
#                                              # lint the result
#
# Thin wrapper around the stats_json_lint tool (bench/stats_json_lint.cc);
# builds it (and bsim, for the no-argument end-to-end mode) first if the
# default build tree doesn't have them yet. The same validator runs in
# ctest as `check_stats_json` (labels: golden, observe), and the
# end-to-end pipeline as `bsim_stats_json_smoke`.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
lint="$repo_root/build/bench/stats_json_lint"
bsim="$repo_root/build/bench/bsim"

build_tool() {
    echo "check_stats_json: building $1..." >&2
    cmake -S "$repo_root" -B "$repo_root/build" >/dev/null
    cmake --build "$repo_root/build" --target "$1" -j >/dev/null
}

[ -x "$lint" ] || build_tool stats_json_lint

if [ "$#" -gt 0 ]; then
    exec "$lint" "$@"
fi

# No arguments: run the acceptance pipeline — sample trace through the
# driver, document through the lint; once fully replayed and observed,
# once through the sampled estimator (--sample U:P:W emits a "sample"
# object in place of "balance").
[ -x "$bsim" ] || build_tool bsim
doc=$(mktemp)
sampled_doc=$(mktemp)
trap 'rm -f "$doc" "$sampled_doc"' EXIT
"$bsim" --cache bcache:16kB,mf=8,bas=8 \
    --trace "$repo_root/examples/traces/conflict_dm.bst" \
    --interval 64 --stats-json "$doc" >/dev/null
"$bsim" --cache bcache:16kB,mf=8,bas=8 \
    --trace "$repo_root/examples/traces/conflict_dm.bst" \
    --sample 50:200:50 --stats-json "$sampled_doc" >/dev/null
exec "$lint" "$doc" "$sampled_doc"
