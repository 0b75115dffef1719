#!/bin/sh
# Output that never reached its file is an error (ctest
# `bsim_write_errors`, label `spec`): each writer below aims at a
# symlink to /dev/full, which accepts the open and fails the flush, and
# must exit 1 with `fatal: write failed on '<path>'` — not report
# success. Skips (exit 77) where /dev/full is absent.
#
# Usage:
#   scripts/check_write_errors.sh BSIM TRACE_CONVERT
set -eu

bsim=$1
convert=$2

if [ ! -w /dev/full ]; then
    echo "check_write_errors: no /dev/full; skipping" >&2
    exit 77
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for f in full.json full.csv full.din full.bst; do
    ln -s /dev/full "$dir/$f"
done
printf '0 100\n1 200\n' >"$dir/t.din"

fail=0
# expect NAME WHERE COMMAND...: exit 1 with `fatal: write failed on WHERE`.
expect() {
    name=$1
    msg="fatal: write failed on $2"
    shift 2
    rc=0
    "$@" >/dev/null 2>"$dir/err" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -qxF "$msg" "$dir/err"; then
        echo "check_write_errors: $name: exit $rc, want 1 with '$msg'" >&2
        sed 's/^/  | /' "$dir/err" >&2
        fail=1
    fi
}

expect "bsim --stats-json" "'$dir/full.json'" \
    "$bsim" --accesses 1000 --stats-json "$dir/full.json"
expect "bsim --heatmap" "'$dir/full.csv'" \
    "$bsim" --accesses 1000 --heatmap "$dir/full.csv"
expect "bsim --json >/dev/full" stdout \
    sh -c '"$0" --accesses 1000 --json >/dev/full' "$bsim"
expect "trace_convert to text" "'$dir/full.din'" \
    "$convert" "$dir/t.din" "$dir/full.din"
expect "trace_convert to BST2" "'$dir/full.bst'" \
    "$convert" "$dir/t.din" "$dir/full.bst"

if [ "$fail" -ne 0 ]; then
    echo "check_write_errors: FAIL" >&2
    exit 1
fi
echo "check_write_errors: OK (5 writers report a full device)"
