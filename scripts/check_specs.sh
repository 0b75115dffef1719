#!/bin/sh
# Cache-spec registry lint (ctest label `spec`).
#
# Usage:
#   scripts/check_specs.sh [path/to/bsim]
#
# Keeps the three faces of the spec grammar in sync:
#  1. The registry source of truth: the BSIM_REGISTER_CACHE_SPEC
#     entries in src/sim/cache_spec.cc (nine kinds).
#  2. `bsim --list-caches` (when the driver binary is passed or found
#     in build/bench/): every registered kind must appear with its
#     synopsis, so the CLI help cannot drift from the registry.
#  3. The grammar table in docs/ARCHITECTURE.md: every kind must have a
#     row, so the documentation cannot drift either.
#
# Also enforces the declarative-DUT contract on the harnesses: no
# bench/ or examples/ file may construct a cache variant directly —
# neither `make_unique<...Cache>` nor the CacheConfig:: factory helpers;
# everything goes through parseCacheSpec() (sim/cache_spec.hh). And it
# keeps per-variant behaviour in the registry entries: no
# `case CacheKind::` under src/, bench/ or examples/, and no
# `dynamic_cast<` under src/sim/ except harvestObserver()'s.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

fail=0

# ---- the registry: kind tokens from cache_spec.cc ----
kinds=$(sed -n 's/^ *{\.name = "\([a-z]*\)",$/\1/p' src/sim/cache_spec.cc)
n_kinds=$(echo "$kinds" | wc -w)
if [ "$n_kinds" -ne 9 ]; then
    echo "check_specs: expected 9 registered kinds in" \
         "src/sim/cache_spec.cc, found $n_kinds: $kinds" >&2
    fail=1
fi

# ---- pass 2: --list-caches covers the registry ----
bsim_bin=${1:-build/bench/bsim}
if [ -x "$bsim_bin" ]; then
    listing=$("$bsim_bin" --list-caches)
    for k in $kinds; do
        if ! echo "$listing" | grep -q "$k:<size>"; then
            echo "check_specs: kind '$k' missing from" \
                 "'$bsim_bin --list-caches'" >&2
            fail=1
        fi
    done
    if ! echo "$listing" | grep -q "+victim:"; then
        echo "check_specs: composition sugar '+victim:' missing from" \
             "--list-caches" >&2
        fail=1
    fi
else
    echo "check_specs: driver '$bsim_bin' not built; skipping the" \
         "--list-caches pass" >&2
fi

# ---- pass 3: the ARCHITECTURE.md grammar table covers the registry ----
table=$(sed -n '/^| *`[a-z]*:/p' docs/ARCHITECTURE.md)
for k in $kinds; do
    if ! echo "$table" | grep -q "\`$k:"; then
        echo "check_specs: kind '$k' missing from the grammar table in" \
             "docs/ARCHITECTURE.md" >&2
        fail=1
    fi
done

# ---- pass 4: no direct variant construction in the harnesses ----
if matches=$(grep -rn "make_unique<[A-Za-z]*Cache" bench/ examples/); then
    echo "check_specs: direct cache construction in the harnesses" \
         "(use parseCacheSpec):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn \
        "CacheConfig::\(directMapped\|setAssoc\|victim\|bcache\|columnAssoc\|skewed\|hac\|xorDm\|partialMatch\)(" \
        bench/ examples/); then
    echo "check_specs: CacheConfig factory calls in the harnesses" \
         "(use parseCacheSpec):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 5: variant behaviour lives in the registry entries ----
if matches=$(grep -rn "case CacheKind::" src/ bench/ examples/); then
    echo "check_specs: per-kind switch outside the registry (add a" \
         "CacheSpecEntry hook in src/sim/cache_spec.cc):" >&2
    echo "$matches" >&2
    fail=1
fi
# harvestObserver() keeps its one cast: callers without a config use it.
if matches=$(grep -rn "dynamic_cast<" src/sim/ |
        grep -v "dynamic_cast<BCache \*>(&cache)"); then
    echo "check_specs: dynamic_cast in src/sim (read variant counters" \
         "through CacheConfig::sideCounters):" >&2
    echo "$matches" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "check_specs: FAIL" >&2
    exit 1
fi
echo "check_specs: OK ($n_kinds kinds; registry, --list-caches and" \
     "ARCHITECTURE.md grammar table in sync; harnesses declarative;" \
     "no kind switches or casts outside the registry)"
exit 0
