#!/bin/sh
# Cache-spec registry lint (ctest label `spec`).
#
# Usage:
#   scripts/check_specs.sh [path/to/bsim]
#
# Keeps the three faces of the spec grammar in sync:
#  1. The registry source of truth: the `{.name = "...",` entries of
#     the cacheSpecEntries() table in src/sim/cache_spec.cc (nine kinds).
#  2. `bsim --list-caches` (when the driver binary is passed or found
#     in build/bench/): every registered kind must appear with its
#     synopsis, so the CLI help cannot drift from the registry.
#  3. The grammar table in docs/ARCHITECTURE.md: every kind must have a
#     row, so the documentation cannot drift either.
#
# Also enforces one way to name a cache (pass 4): no bench/ or
# examples/ file constructs a cache variant directly with
# `make_unique<...Cache>`; the retired CacheConfig:: factory helpers
# appear nowhere in src/, tests/, bench/ or examples/, so
# parseCacheSpec() (sim/cache_spec.hh) is the one CacheConfig
# constructor; and the retired self-registering registry (its
# singleton, registrar and macro, spelled with a bracket like passes
# 7-8) appears nowhere in src/, tests/, bench/, examples/, docs/,
# README.md or DESIGN.md. And it keeps per-variant behaviour in the
# registry entries: no
# `case CacheKind::` under src/, bench/ or examples/, and no
# `dynamic_cast<` under src/sim/ except harvestObserver()'s.
#
# And it keeps src/verify/ generic over the registry: one twin driver
# (only verify/batch_equiv.cc and the oracle checker's one-element mode
# call accessBatch), no per-kind casts or kind enums there, and none of
# the retired per-kind twin drivers anywhere.
#
# And it keeps replacement one concrete type and observation one slot:
# no `dynamic_cast<` under src/cache/ or src/bcache/, no `virtual` in
# cache/replacement.hh, and neither the retired LRU-only touch fork nor
# the retired per-line observer interface (pass 7 spells both names
# with a bracket so this script does not match itself) in src/, bench/
# or tests/.
#
# And it keeps one per-line histogram: the retired usage-tracker class
# (pass 8 spells it with a bracket too) appears nowhere in src/, bench/,
# tests/ or examples/, and src/observe/observer.cc touches `perSet` only
# inside ObserverReport::operator+= (the counts are the cache's
# setUsage(); harvestObserver copies them into the report).
#
# And it keeps one error path (pass 9): library code throws. The only
# exit call under src/ is the uncaught-error handler's in
# src/common/logging.cc, nothing reads the retired fatal-mode switch,
# and no test forks to watch for exit status 1 (EXPECT_FATAL checks the
# thrown FatalError in-process).
#
# And it keeps one verification campaign and one count parser (pass
# 10): none of the retired campaign types, runners, header or env
# knobs (spelled with a bracket, like passes 7-8) appears in src/,
# bench/, tests/, examples/, docs/ or EXPERIMENTS.md, and no strtoul or
# strtoull appears under src/, bench/ or examples/ outside parseCount in
# src/common/strings.cc and the size-suffix parser in
# src/sim/cache_spec.cc.
#
# And it keeps one binary trace format and one way in (pass 11): none
# of the retired BST1 constants, reader, writer switch, whole-trace
# helpers, magic sniffer or recording limit (spelled with a bracket)
# appears in src/, bench/, tests/, examples/, docs/, README.md or
# DESIGN.md; loadTrace, writeBst2Trace and writeTextTrace are the
# whole-trace API.
#
# And it keeps one way to run a replay (pass 12): every run is a full
# replay of its window. None of the retired sampled-replay names
# (spelled with a bracket) appears in code (src/, bench/, tests/,
# examples/) or in prose (docs/, README.md, DESIGN.md, EXPERIMENTS.md).
#
# And it keeps one tag array (pass 13): every tag table is a TagStore
# (cache/tag_store.hh). No struct under src/cache/, src/alt/ or
# src/bcache/ declares a `bool valid` member, and neither the retired
# fill-way helper nor a per-variant line accessor (spelled with a
# bracket) appears under src/.
#
# And it keeps one feed path (pass 14): every run feeds its caches
# through accessBatch in kDefaultBatchLen chunks, and the observer hooks
# are always compiled in. Neither the retired batch-length environment
# knob, its cap, the sweep job's batch field nor the observer build
# flag (spelled with a bracket) appears in src/, bench/, tests/,
# examples/, docs/, README.md or EXPERIMENTS.md.
#
# And it keeps one perf record (pass 15): perfbench is the simulator's
# only throughput record. Neither the retired perf-log sink, its record
# type, its reporter, its two environment knobs, its lint nor the log
# file's name (spelled with a bracket) appears in src/, bench/, tests/,
# examples/, scripts/ (except this script), docs/, README.md,
# EXPERIMENTS.md or DESIGN.md. perfbench/ is not checked: only a
# benchmark change may edit it.
#
# And it keeps one flag list (pass 16): the flags docs/TRACES.md §3
# names are exactly the flags `bsim --help` lists (when the driver is
# built), and neither the retired trace-stream adapter nor its span
# virtuals (spelled with a bracket) appear in src/, tests/ or examples/.
#
# And it keeps single-pass sources and no table-less variant (pass
# 17): the retired way-halting cache, its filter and its `halt:` spec
# appear nowhere in src/, tests/, bench/ or examples/; the retired
# sweep progress hook appears nowhere in src/; and neither
# workload/access_stream.hh nor workload/trace_reader.hh declares a
# reset, name, size, position, format or path virtual (a stream or
# reader is read once, front to back; replaying means opening another).
#
# And it keeps one µop decode (pass 18): OooCore's memory pass reads a
# DecodedBatch, so cpu/ooo_core.hh declares no memoryPass over raw
# µops; the last fetched line lives in the decoder, so the retired core
# member (spelled with a bracket) appears nowhere in src/; and no block
# under src/cpu/ that holds a loop calls nextGeometric( or log1p( (the
# µop source divides by a log1p computed once, in its constructor), and
# workload/istream.cc draws no rng_.nextGeometric( (its loop-back draw is
# a GeometricDraw member).
#
# And it keeps one write per chunk (pass 19): Bst2Writer encodes into
# its own buffer and hands it to the OS whole, so
# workload/trace_format.cc calls no ftell( (every chunk's offset follows
# from the header geometry) and no for or while loop of
# Bst2Writer::append calls fwrite(.
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

# ---- pass 4: one way to name a cache ----
if matches=$(grep -rn "make_unique<[A-Za-z]*Cache" bench/ examples/); then
    echo "check_specs: direct cache construction in the harnesses" \
         "(use parseCacheSpec):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn \
        "CacheConfig::\(directMapped\|setAssoc\|victim\|bcache\|columnAssoc\|skewed\|hac\|xorDm\|partialMatch\|wayHalting\)(" \
        src/ tests/ bench/ examples/); then
    echo "check_specs: a retired CacheConfig factory helper is back" \
         "(use parseCacheSpec):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn --exclude-dir=api \
        "Cache[F]actory\|CacheSpec[R]egistrar\|BSIM_REGISTER_CACHE_[S]PEC" \
        src/ tests/ bench/ examples/ docs/ README.md DESIGN.md); then
    echo "check_specs: the retired self-registering registry is back" \
         "(add an entry to the cacheSpecEntries() table in" \
         "src/sim/cache_spec.cc; look entries up with findCacheSpecEntry" \
         "or cacheSpecEntryFor):" >&2
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

# ---- pass 6: src/verify is one registry-driven twin driver ----
if matches=$(grep -rn \
        "static_cast<const [A-Za-z]*Cache &>\|dynamic_cast<\|AltKind" \
        src/verify/); then
    echo "check_specs: per-kind code in src/verify (read variant" \
         "counters through CacheConfig::sideCounters):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rln "accessBatch(" src/verify/ --include='*.cc' |
        grep -v "src/verify/\(batch_equiv\|oracle_checker\)\.cc"); then
    echo "check_specs: a second batched driver in src/verify (twin" \
         "checks go through verify/batch_equiv):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rnw \
        "makeAltCache\|compareSideCounters\|twinDrive\|twinVariantCase" \
        src/ tests/ bench/); then
    echo "check_specs: a retired per-kind twin driver is back:" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 7: one replacement type, one observer slot ----
if matches=$(grep -rn "dynamic_cast<" src/cache/ src/bcache/); then
    echo "check_specs: dynamic_cast in src/cache or src/bcache (the" \
         "Replacement value needs no policy cast):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -nw "virtual" src/cache/replacement.hh); then
    echo "check_specs: virtual in cache/replacement.hh (Replacement is" \
         "one concrete type that switches on its kind):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rnw "touch[F]ast\|LineAccess[O]bserver" \
        src/ bench/ tests/); then
    echo "check_specs: a retired replacement fork or observer interface" \
         "is back (call Replacement::touch; observe via CacheObserver):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 8: one per-line histogram ----
if matches=$(grep -rn "SetUsage[T]racker" src/ bench/ tests/ examples/); then
    echo "check_specs: the retired usage tracker is back (BaseCache" \
         "holds the per-line histogram; read it with setUsage()):" >&2
    echo "$matches" >&2
    fail=1
fi
matches=$(awk '
    /^ObserverReport::operator\+=/ { merge = 1 }
    !merge && /perSet/ { print FILENAME ":" FNR ":" $0 }
    merge && /^}/ { merge = 0 }' src/observe/observer.cc)
if [ -n "$matches" ]; then
    echo "check_specs: observer.cc counts perSet outside" \
         "ObserverReport::operator+= (the cache's setUsage() is the one" \
         "per-line histogram; harvestObserver copies it):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 9: one error path ----
exits=$(grep -rnE '(^|[^_])exit\(|_Exit\(|quick_exit\(' src/ || true)
if [ "$(echo "$exits" | grep -c .)" -ne 1 ] ||
        ! echo "$exits" |
        grep -q '^src/common/logging\.cc:[0-9]*: *std::exit(1);$'; then
    echo "check_specs: library code must throw (bsim_fatal), not exit;" \
         "the one exit under src/ is the uncaught-error handler's in" \
         "src/common/logging.cc:" >&2
    echo "$exits" >&2
    fail=1
fi
if matches=$(grep -rnw "fatalThrows" src/ bench/ tests/ examples/ \
        perfbench/); then
    echo "check_specs: the retired fatal-mode switch is read again" \
         "(bsim_fatal always throws):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn "ExitedWithCode(1)" tests/); then
    echo "check_specs: a death test waits for exit status 1 (check the" \
         "thrown FatalError with EXPECT_FATAL, tests/expect_fatal.hh):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 10: one verification campaign, one count parser ----
if matches=$(grep -rn --exclude-dir=api \
        "Fuzz[S]pec\|randomFuzz[S]pec\|runFuzz[C]ase\|Fuzz[R]esult\|runBatchEquiv[C]ase\|verify/fuzz[.]hh\|BSIM_VERIFY_[B]ATCHED\|BSIM_VERIFY_[A]LT_" \
        src/ bench/ tests/ examples/ docs/ EXPERIMENTS.md); then
    echo "check_specs: a retired campaign type, runner or knob is back" \
         "(sample a VerifyCase; run runOracleCase or runTwinCase):" >&2
    echo "$matches" >&2
    fail=1
fi
strto=$(grep -rn "strtoull\?(" src/ bench/ examples/ || true)
if matches=$(echo "$strto" | grep . |
        grep -v "^src/common/strings\.cc:" |
        grep -v "^src/sim/cache_spec\.cc:.*std::strtoull(text\.c_str()"); then
    echo "check_specs: a hand-rolled number parser (use parseCount," \
         "common/strings.hh):" >&2
    echo "$matches" >&2
    fail=1
fi
if [ "$(echo "$strto" | grep -c "^src/common/strings\.cc:")" -gt 1 ]; then
    echo "check_specs: more than one strtoull in common/strings.cc" \
         "(parseCount is the one count parser):" >&2
    echo "$strto" >&2
    fail=1
fi

# ---- pass 11: one binary trace format, one way in ----
if matches=$(grep -rn --exclude-dir=api \
        "k[B]st1\|Bst1[R]eader\|write[B]inaryTrace\|read[B]inaryTrace\|read[T]extTrace\|open[T]extTraceReader\|sniff[M]agic\|--[b]st1\|set[R]ecordLimit" \
        src/ bench/ tests/ examples/ docs/ README.md DESIGN.md); then
    echo "check_specs: a retired trace format, helper or sniffer is back" \
         "(BST2 is the one binary format; use loadTrace, writeBst2Trace," \
         "writeTextTrace; probeTrace decides the format):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 12: one way to run a replay ----
retired_sampling="Sample[P]lan\|Sampled[S]tats\|Stratified[E]stimator\|Sample[E]stimate\|tQuantile[9]75\|run[S]ampled\|trace[S]ampled\|skip[T]o(\|consume[S]ampleFlag\|BSIM_[S]AMPLE"
if matches=$(grep -rn "$retired_sampling" src/ bench/ tests/ examples/); then
    echo "check_specs: retired sampled-replay code is back (every run is" \
         "a full replay; Session::run or runEach):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn --exclude-dir=api "$retired_sampling" \
        docs/ README.md DESIGN.md EXPERIMENTS.md); then
    echo "check_specs: the docs name retired sampled-replay code:" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 13: one tag array ----
if matches=$(grep -rnE "^[[:space:]]*bool [v]alid[[:space:]]*(=[^;]*)?;" \
        src/cache/ src/alt/ src/bcache/); then
    echo "check_specs: a hand-rolled valid bit is back (keep frames in a" \
         "TagStore, cache/tag_store.hh; an empty frame is kEmptyKey):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn "choose[F]illWay\|\<line[A]t(" src/); then
    echo "check_specs: a retired tag-array helper is back (use" \
         "TagStore::fillWay and frame indices):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 14: one feed path ----
if matches=$(grep -rn --exclude-dir=api \
        "BSIM_[B]ATCH\|k[M]axBatchLen\|trace[B]atchLen\|BSIM_[N]O_OBSERVE" \
        src/ bench/ tests/ examples/ docs/ README.md EXPERIMENTS.md); then
    echo "check_specs: a retired batch-length knob or observer build fork" \
         "is back (every run feeds accessBatch kDefaultBatchLen records at" \
         "a time; the observer hooks are always compiled in):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 15: one perf record ----
if matches=$(grep -rn --exclude-dir=api --exclude=check_specs.sh \
        "BSIM_[B]ENCH_JSON\|BSIM_[G]IT_REV\|report[S]weepPerf\|Perf[R]ecord\|bench[_]json\|BENCH[_]perf" \
        src/ bench/ tests/ examples/ scripts/ docs/ README.md \
        EXPERIMENTS.md DESIGN.md); then
    echo "check_specs: the retired perf log is back (perfbench is the" \
         "one throughput record; harnesses print their sweep engine" \
         "table on stdout):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 16: one flag list ----
if [ -x "$bsim_bin" ]; then
    flags() { grep -o -- '--[a-z][a-z-]*' | sort -u; }
    listed=$("$bsim_bin" --help | flags)
    documented=$(sed -n '/^## 3\./,/^## 4\./p' docs/TRACES.md | flags)
    for f in $listed; do
        echo "$documented" | grep -qx -- "$f" || {
            echo "check_specs: '$f' (bsim --help) is not named in" \
                 "docs/TRACES.md §3" >&2
            fail=1
        }
    done
    for f in $documented; do
        echo "$listed" | grep -qx -- "$f" || {
            echo "check_specs: '$f' (docs/TRACES.md §3) is not a flag" \
                 "bsim --help lists" >&2
            fail=1
        }
    done
fi
if matches=$(grep -rn "Trace[S]tream\|has[S]panBatches" src/ tests/ examples/)
then
    echo "check_specs: the retired trace-stream adapter is back (read a" \
         "trace window through TraceReader::nextSpan):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 17: single-pass sources, no table-less variant ----
if matches=$(grep -rn "Way[H]alting\|Halt[T]agFilter\|\<hal[t]:" \
        src/ tests/ bench/ examples/); then
    echo "check_specs: the retired way-halting cache is back (no table" \
         "or harness reads it):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn "Sweep[P]rogress\|on[P]rogress" src/); then
    echo "check_specs: the retired sweep progress hook is back (the" \
         "summary sums each outcome's events after the pool joins):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -nE \
        "virtual[^(]*[^A-Za-z_](reset|name|size|position|format|path)\(" \
        src/workload/access_stream.hh src/workload/trace_reader.hh); then
    echo "check_specs: a rewind or metadata virtual is back on a source" \
         "interface (streams and readers are single-pass; probeTrace" \
         "reports a trace's format and size):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 18: one µop decode ----
if matches=$(tr -s ' \n' '  ' <src/cpu/ooo_core.hh |
        grep -o "memoryPass([^)]*MicroOp[^)]*)"); then
    echo "check_specs: cpu/ooo_core.hh declares a memory pass over raw" \
         "µops (memoryPass reads a DecodedBatch, decoded once per unit):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -rn "lastFetch[L]ine_" src/); then
    echo "check_specs: the core's last-fetched-line member is back (the" \
         "DecodedBatch decoder carries it):" >&2
    echo "$matches" >&2
    fail=1
fi
# A block opens on a line holding only `{` and closes at the `}` of the
# same indent; report the nextGeometric( and log1p( lines of every
# block that also holds a for or while loop.
if matches=$(awk '
        FNR == 1 { depth = 0 }
        {
            if (match($0, /^ *\{$/)) {
                ++depth; indent[depth] = RLENGTH - 1
                loop[depth] = 0; hits[depth] = ""
            }
            for (d = 1; d <= depth; ++d) {
                if ($0 ~ /(for|while) \(/) loop[d] = 1
                if ($0 ~ /(nextGeometric|log1p)\(/)
                    hits[d] = hits[d] FILENAME ":" FNR ": " $0 "\n"
            }
            if (depth > 0 && match($0, /^ *\}/) &&
                    RLENGTH - 1 == indent[depth]) {
                if (loop[depth] && hits[depth] != "")
                    printf "%s", hits[depth]
                --depth
            }
        }' src/cpu/*.cc src/cpu/*.hh) && [ -n "$matches" ]; then
    echo "check_specs: a per-µop loop under src/cpu/ draws through" \
         "nextGeometric or log1p (divide by a log1p computed once, as" \
         "GeometricDraw does):" >&2
    echo "$matches" >&2
    fail=1
fi
if matches=$(grep -n "rng_\.nextGeometric(" src/workload/istream.cc); then
    echo "check_specs: workload/istream.cc draws through" \
         "rng_.nextGeometric, which recomputes its log1p on every draw" \
         "(use a GeometricDraw member):" >&2
    echo "$matches" >&2
    fail=1
fi

# ---- pass 19: one write per chunk ----
if matches=$(grep -n "ftell(" src/workload/trace_format.cc); then
    echo "check_specs: workload/trace_format.cc calls ftell (a chunk's" \
         "offset follows from the header geometry):" >&2
    echo "$matches" >&2
    fail=1
fi
# Within Bst2Writer::append's body, a loop runs from its for/while line
# to the brace that closes it (or, without braces, to the first line
# ending in `;`); report every fwrite( line inside one.
if matches=$(awk '
        /^Bst2Writer::append\(/ { in_fn = 1; opened = 0; depth = 0; loop = 0 }
        in_fn {
            if (!loop && $0 ~ /(for|while) \(/) {
                loop = 1; loop_depth = depth; braced = $0 ~ /\{ *$/
            }
            if (loop && $0 ~ /fwrite\(/)
                print FILENAME ":" FNR ": " $0
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth > 0)
                opened = 1
            if (loop && (braced ? depth <= loop_depth : $0 ~ /; *$/))
                loop = 0
            if (opened && depth == 0)
                in_fn = 0
        }' src/workload/trace_format.cc) && [ -n "$matches" ]; then
    echo "check_specs: a loop in Bst2Writer::append calls fwrite (encode" \
         "into the writer's buffer; it goes out in one write per chunk" \
         "or per full buffer):" >&2
    echo "$matches" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "check_specs: FAIL" >&2
    exit 1
fi
echo "check_specs: OK ($n_kinds kinds; registry, --list-caches and" \
     "ARCHITECTURE.md grammar table in sync; one way to name a cache;" \
     "no kind switches or casts outside the registry; one twin" \
     "driver in src/verify; one replacement type; one per-line" \
     "histogram; one error path; one verification campaign and one" \
     "count parser; one binary trace format; one way to run a" \
     "replay; one tag array; one feed path; one perf record; one flag" \
     "list; single-pass sources, no table-less variant; one µop" \
     "decode; one write per chunk)"
exit 0
