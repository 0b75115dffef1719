#!/bin/sh
# bsim argv/env soup (ctest `bsim_soup`, label `spec`): every
# command line drawn from bsim's flag table must end in a result
# (exit 0), an input error (exit 1, `fatal: <msg>` on stderr with no
# source location) or a usage error (exit 2, the usage text on stderr)
# — never a signal, a sanitizer report or a hang. A `--json` run that
# exits 0 must print one document the stats_json_lint accepts.
#
# Usage:
#   scripts/check_bsim_soup.sh BSIM BSIM_SOUP STATS_JSON_LINT [COUNT] [SEED]
#
# BSIM_SOUP (tests/bsim_soup.cc) writes COUNT (default 400)
# deterministic cases from SEED (default 0x50a9). Its flag table must
# name exactly the flags `bsim --help` lists, so a new flag joins the
# soup and a retired one leaves it.
# Each run has a 60 s timeout (exit 124, a failure).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
bsim=$1
soup=$2
lint=$3
count=${4:-400}
seed=${5:-0x50a9}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
: >"$dir/empty.bst"
: >"$dir/empty.din"

fail=0
table=$("$soup" --flags)
listed=$("$bsim" --help 2>&1 | grep -o -- '--[a-z][a-z-]*' | sort -u)
for f in $listed; do
    if ! echo "$table" | grep -qx -- "$f"; then
        echo "check_bsim_soup: '$f' (bsim --help) is missing from the" \
             "soup's flag table in tests/bsim_soup.cc" >&2
        fail=1
    fi
done
for f in $table; do
    if ! echo "$listed" | grep -qx -- "$f"; then
        echo "check_bsim_soup: '$f' (tests/bsim_soup.cc) is not a flag" \
             "bsim --help lists" >&2
        fail=1
    fi
done

"$soup" "$bsim" "$dir" "$repo_root/examples/traces/conflict_dm.bst" \
    "$repo_root/examples/traces/mixed.din" "$count" "$seed" >"$dir/cases"

runs=0
linted=0
while IFS= read -r line; do
    # The words are single-quoted by the generator.
    eval "set -- $line"
    check=$1
    shift
    rc=0
    timeout 60 env "$@" </dev/null >"$dir/out" 2>"$dir/err" || rc=$?
    runs=$((runs + 1))
    why=""
    case $rc in
      0)
        if [ "$check" = lint ]; then
            linted=$((linted + 1))
            "$lint" "$dir/out" >/dev/null 2>&1 ||
                why="stdout is not one bsim-stats-v1 document"
        fi ;;
      1)
        if ! grep -q '^fatal: ' "$dir/err"; then
            why="exit 1 without a 'fatal:' line"
        elif grep -q '\.[ch][ch]:[0-9]' "$dir/err"; then
            why="the fatal message names a source file"
        fi ;;
      2)
        grep -q '^usage: bsim' "$dir/err" ||
            why="exit 2 without the usage text" ;;
      *)
        why="exit $rc, want 0, 1 or 2" ;;
    esac
    if grep -q 'Sanitizer\|runtime error:' "$dir/err"; then
        why="sanitizer report"
    fi
    if [ -n "$why" ]; then
        echo "check_bsim_soup: $line: $why" >&2
        sed 's/^/  | /' "$dir/err" | head -5 >&2
        fail=1
    fi
done <"$dir/cases"

if [ "$fail" -ne 0 ]; then
    echo "check_bsim_soup: FAIL" >&2
    exit 1
fi
echo "check_bsim_soup: OK ($runs runs, every exit 0, 1 or 2;" \
     "$linted --json documents linted)"
