#!/bin/sh
# Harness output must not depend on the worker count (ctest label
# `verify`). The sweep engine groups jobs that share a stream and splits
# those groups by thread count, so this pins the contract end to end:
# each harness runs at --jobs 1 and --jobs 4, and the two stdouts must
# match byte for byte apart from the `sweep engine` metrics table (its
# wall-time and rate cells are host timings).
#
# Usage:
#   scripts/check_jobs_identity.sh HARNESS...
#
# BSIM_ACCESSES defaults to 20000 accesses per cell and BSIM_UOPS to
# 20000 uops per timed cell to keep the run short.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
unset BSIM_JOBS
export BSIM_ACCESSES="${BSIM_ACCESSES:-20000}"
export BSIM_UOPS="${BSIM_UOPS:-20000}"

fail=0
for bin in "$@"; do
    name=$(basename "$bin")
    for jobs in 1 4; do
        if ! "$bin" --jobs "$jobs" >"$tmp/raw" 2>"$tmp/err" ||
            [ ! -s "$tmp/raw" ]; then
            echo "check_jobs_identity: $name --jobs $jobs failed:" >&2
            cat "$tmp/err" >&2
            fail=1
        fi
        sed '/^== sweep engine ==$/,+3d' "$tmp/raw" >"$tmp/$name.$jobs"
    done
    if ! diff "$tmp/$name.1" "$tmp/$name.4"; then
        echo "check_jobs_identity: $name output differs between" \
             "--jobs 1 and --jobs 4" >&2
        fail=1
    fi
done
exit "$fail"
