#!/bin/sh
# Line-coverage gate for the cache model and the sim drivers
# (src/cache + src/sim), built on the BSIM_COVERAGE CMake option (gcov
# instrumentation; see the "coverage" preset in CMakePresets.json).
#
# Usage:
#   scripts/check_coverage.sh              # build build-cov, run ctest,
#                                          # aggregate, enforce the floor
#   scripts/check_coverage.sh --report     # skip build+test, aggregate
#                                          # whatever .gcda already exists
#
# Knobs:
#   BSIM_COVERAGE_FLOOR   minimum aggregate line coverage %, default 70
#                         (0 disables enforcement)
#   BSIM_COVERAGE_DIR     build tree, default <repo>/build-cov
#   BSIM_COVERAGE_CTEST   extra ctest args, e.g. '-L golden'
#
# gcov is optional tooling: when no binary matching the compiler is on
# PATH the check is skipped with a warning and exits 0, so minimal
# containers still pass (same pattern as check_format.sh). gcovr/llvm-cov
# HTML reports are deliberately not required — the gate only needs the
# per-file "Lines executed" totals gcov itself prints.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${BSIM_COVERAGE_DIR:-"$repo_root/build-cov"}
floor=${BSIM_COVERAGE_FLOOR:-70}

gcov_bin=""
for candidate in gcov gcov-14 gcov-13 gcov-12 gcov-11; do
    if command -v "$candidate" >/dev/null 2>&1; then
        gcov_bin=$candidate
        break
    fi
done
if [ -z "$gcov_bin" ]; then
    echo "check_coverage: gcov not found on PATH; skipping" >&2
    exit 0
fi

if [ "${1-}" != "--report" ]; then
    echo "check_coverage: configuring $build_dir ..." >&2
    cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Debug \
        -DBSIM_COVERAGE=ON >/dev/null
    echo "check_coverage: building (this instruments every object) ..." >&2
    cmake --build "$build_dir" -j >/dev/null
    # Stale counters from a previous run would dilute the report.
    find "$build_dir" -name '*.gcda' -delete
    echo "check_coverage: running ctest ..." >&2
    # The BSIM_COVERAGE define already makes the timing-sensitive tests
    # (the perf gate) report-only.
    (cd "$build_dir" && ctest --output-on-failure \
        ${BSIM_COVERAGE_CTEST:-} >/dev/null)
fi

# Aggregate "Lines executed" over the objects of the gated directories.
# Each .gcda sits next to its .o under CMakeFiles/<target>.dir/; gcov -n
# prints per-source totals without dropping .gcov files everywhere.
report=$(mktemp)
trap 'rm -f "$report"' EXIT
found=0
for dir in "$build_dir/src/cache" "$build_dir/src/sim"; do
    [ -d "$dir" ] || continue
    for gcda in $(find "$dir" -name '*.gcda'); do
        found=1
        (cd "$(dirname "$gcda")" &&
             "$gcov_bin" -n "$(basename "$gcda")" 2>/dev/null) \
            >>"$report" || true
    done
done
if [ "$found" = 0 ]; then
    echo "check_coverage: no .gcda counters under $build_dir;" \
         "build with -DBSIM_COVERAGE=ON and run ctest first" >&2
    exit 1
fi

# gcov emits pairs of lines:
#   File '<path>'
#   Lines executed:<pct>% of <total>
# Keep only sources inside the gated directories (headers from
# elsewhere are reported too) and weight each file by its line count.
summary=$(awk -v root="$repo_root" '
    /^File / {
        f = $0
        sub(/^File +/, "", f)
        gsub(/\x27/, "", f)
        keep = (f ~ /src\/(cache|sim)\//)
        next
    }
    keep && /^Lines executed:/ {
        pct = $0
        sub(/^Lines executed:/, "", pct)
        split(pct, a, "% of ")
        lines[f] = a[2]
        hit[f] = a[1] / 100.0 * a[2]
        keep = 0
    }
    END {
        total = 0; covered = 0
        for (f in lines) { total += lines[f]; covered += hit[f] }
        if (total == 0) { print "0 0"; exit }
        printf "%.2f %d\n", 100.0 * covered / total, total
    }' "$report")
coverage=$(echo "$summary" | cut -d' ' -f1)
total=$(echo "$summary" | cut -d' ' -f2)

if [ "$total" = "0" ]; then
    echo "check_coverage: gcov reported no src/{cache,sim} lines" >&2
    exit 1
fi

echo "check_coverage: src/{cache,sim} line coverage ${coverage}%" \
     "of ${total} lines (floor ${floor}%)"

# The declarative DUT layer must be exercised, not just present: the
# spec grammar and the session runner are the entry points every
# harness now funnels through, so a report that never ran them means
# the gate is measuring the wrong binaries.
for required in cache_spec.cc session.cc; do
    if ! grep -A1 "File .*/$required" "$report" |
            grep -q "^Lines executed:[1-9]"; then
        echo "check_coverage: FAIL: no coverage recorded for" \
             "$required (spec/session layer must be exercised)" >&2
        exit 1
    fi
done
awk -v c="$coverage" -v f="$floor" 'BEGIN { exit !(f == 0 || c >= f) }' || {
    echo "check_coverage: FAIL: ${coverage}% < floor ${floor}%" >&2
    exit 1
}
exit 0
