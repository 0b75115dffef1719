#!/bin/sh
# Documentation gate (ctest label `docs`).
#
# Usage:
#   scripts/check_docs.sh            # link + index check, doxygen (if present)
#   scripts/check_docs.sh --links    # link + index check only
#
# Three passes:
#  1. Cross-reference check (always): every repo-rooted path mentioned
#     in the maintained documentation set (README.md, DESIGN.md,
#     EXPERIMENTS.md, docs/*.md) must exist, so renames and deletions
#     cannot silently strand the prose. Only references rooted at a
#     real top-level directory (docs/ src/ tests/ bench/ examples/
#     scripts/ perfbench/) are checked — `build/...` outputs and
#     src-relative include paths (`sim/sweep.hh`) are out of scope. Planning files
#     (ROADMAP.md, ISSUE.md) are excluded: they may legitimately name
#     files that do not exist yet.
#  2. Harness index (always): every `bsim_bench(<name>)` target in
#     bench/CMakeLists.txt other than the `bsim` front end and
#     `verify_smoke` has a `bench/<name>` row in DESIGN.md §4, and every
#     row names such a target, so the per-experiment index and the
#     build cannot drift apart.
#  3. Doxygen (when installed): build the API reference with warnings
#     promoted to errors, on top of the checked-in Doxyfile. Doxygen is
#     optional tooling; when absent the pass is skipped with a warning
#     and exit 0, like scripts/check_format.sh, so minimal containers
#     still pass.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

fail=0

# ---- pass 1: markdown cross-references ----

docs_files=""
for md in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
    [ -f "$md" ] && docs_files="$docs_files $md"
done
[ -n "$docs_files" ] || { echo "check_docs: no markdown files found" >&2
                          exit 1; }

checked=0
for md in $docs_files; do
    # Repo-rooted path tokens with a checkable extension. The character
    # class excludes globs/braces, so `src/{a,b}` or `bench/*` never
    # produce candidates.
    # perfbench/ is a root of its own so that its paths are checked whole
    # rather than read as a bench/ path from their fifth letter on.
    refs=$(grep -oE '(docs|src|tests|perfbench|bench|examples|scripts)/[A-Za-z0-9_/.-]+\.(md|hh|cc|cpp|sh|bst|din|json|txt)' \
               "$md" | sort -u || true)
    for ref in $refs; do
        checked=$((checked + 1))
        if [ ! -e "$ref" ]; then
            echo "check_docs: $md references missing file: $ref" >&2
            fail=1
        fi
    done
done
echo "check_docs: verified $checked path references across" \
     "$(echo "$docs_files" | wc -w) markdown files"

# The normative spec and its single-source-of-truth header must keep
# pointing at each other (docs/TRACES.md §1).
if ! grep -q 'docs/TRACES.md' src/workload/trace_format.hh; then
    echo "check_docs: src/workload/trace_format.hh lost its" \
         "docs/TRACES.md pointer" >&2
    fail=1
fi
if ! grep -q 'trace_format.hh' docs/TRACES.md; then
    echo "check_docs: docs/TRACES.md lost its trace_format.hh pointer" >&2
    fail=1
fi

# ---- pass 2: DESIGN.md §4 rows <-> bsim_bench() targets ----

index=$(sed -n '/^## 4\./,/^## 5\./p' DESIGN.md | grep '^|' || true)
harnesses=$(sed -n 's/^bsim_bench(\([A-Za-z0-9_]*\)).*/\1/p' \
                bench/CMakeLists.txt)
[ -n "$harnesses" ] || { echo "check_docs: no bsim_bench() targets" \
                              "in bench/CMakeLists.txt" >&2
                         exit 1; }
for name in $harnesses; do
    case "$name" in bsim|verify_smoke) continue ;; esac
    if ! echo "$index" | grep -q "\`bench/$name\`"; then
        echo "check_docs: bench/$name is built but has no DESIGN.md" \
             "§4 row" >&2
        fail=1
    fi
done
for name in $(echo "$index" | grep -oE '`bench/[A-Za-z0-9_]+`' |
              tr -d '`' | sed 's|^bench/||' | sort -u); do
    if ! echo "$harnesses" | grep -qx "$name"; then
        echo "check_docs: DESIGN.md §4 lists bench/$name, which" \
             "bench/CMakeLists.txt does not build" >&2
        fail=1
    fi
done

if [ "${1-}" = "--links" ]; then
    exit "$fail"
fi

# ---- pass 3: doxygen, warnings as errors ----

if ! command -v doxygen >/dev/null 2>&1; then
    echo "check_docs: doxygen not found on PATH; skipping API-doc pass" >&2
    exit "$fail"
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Overlay the repo Doxyfile: fail on any warning, build into a scratch
# directory so the gate never dirties the tree.
{
    cat Doxyfile
    echo "OUTPUT_DIRECTORY = $tmpdir/api"
    echo "WARN_AS_ERROR    = YES"
    echo "WARN_LOGFILE     = $tmpdir/warnings.log"
} > "$tmpdir/Doxyfile"

if ! doxygen "$tmpdir/Doxyfile" >"$tmpdir/doxygen.out" 2>&1; then
    echo "check_docs: doxygen failed (warnings below are errors):" >&2
    cat "$tmpdir/warnings.log" "$tmpdir/doxygen.out" 2>/dev/null >&2
    fail=1
else
    echo "check_docs: doxygen clean (WARN_AS_ERROR)"
fi

exit "$fail"
