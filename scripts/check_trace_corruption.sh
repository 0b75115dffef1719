#!/bin/sh
# Corrupt-trace property (ctest `trace_corruption`, label `spec`): every
# mutant of the checked-in traces must replay to a result (exit 0) or a
# typed error (exit 1) — never a signal, an abort or a hang.
#
# Usage:
#   scripts/check_trace_corruption.sh BSIM TRACE_MUTANTS [COUNT] [SEED]
#
# TRACE_MUTANTS (tests/trace_mutants.cc) writes COUNT (default 40)
# deterministic byte-flip, truncation and splice mutants of each trace
# in examples/traces/ from SEED (default 0xc0ffee). Each mutant runs
# through `bsim --trace` plain and with `--shards 3`, each under a 30 s
# timeout (exit 124, a failure).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
bsim=$1
mutants_tool=$2
count=${3:-40}
seed=${4:-0xc0ffee}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$mutants_tool" "$dir" "$count" "$seed" \
    "$repo_root/examples/traces/conflict_dm.bst" \
    "$repo_root/examples/traces/mixed.din" >"$dir/list"

fail=0
runs=0
for m in $(cat "$dir/list"); do
    for mode in "" "--shards 3"; do
        # $mode is split on purpose: it is zero or two words.
        rc=0
        timeout 30 "$bsim" --trace "$m" $mode \
            >/dev/null 2>&1 || rc=$?
        runs=$((runs + 1))
        if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
            echo "check_trace_corruption: $(basename "$m") ${mode:-plain}:" \
                 "exit $rc, want 0 or 1" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "check_trace_corruption: FAIL" >&2
    exit 1
fi
echo "check_trace_corruption: OK ($runs runs, every exit 0 or 1)"
