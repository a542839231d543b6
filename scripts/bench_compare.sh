#!/usr/bin/env bash
# bench_compare.sh — compare two bench_snapshot.sh JSON snapshots and warn on
# per-benchmark ns/op regressions beyond a threshold (default 15%).
#
#   ./scripts/bench_compare.sh BENCH_0.json BENCH_1.json
#   THRESHOLD=25 ./scripts/bench_compare.sh old.json new.json
#   STRICT=1 ./scripts/bench_compare.sh old.json new.json   # exit 1 on any warn
#   STRICT_RE='^BenchmarkCampaign' ./scripts/bench_compare.sh old.json new.json
#
# The comparison is advisory by default (exit 0 even with warnings):
# single-run 1x snapshots are noisy, so CI surfaces regressions without
# failing the build. Set STRICT=1 to turn every warning into a failure, or
# STRICT_RE to a grep -E pattern to fail only when a matching benchmark
# regresses (CI guards the campaign hot path strictly and leaves the noisier
# microbenches advisory). A strict benchmark that is in the baseline but
# missing from the candidate fails the run too: deleting or renaming a
# guarded benchmark must not pass the gate silently. Missing advisory
# benchmarks are only listed.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASELINE.json CANDIDATE.json" >&2
    exit 2
fi
base=$1
cand=$2
threshold=${THRESHOLD:-15}
strict=${STRICT:-0}
strict_re=${STRICT_RE:-}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Extract "name ns_per_op" pairs from a snapshot. The snapshots are written
# by bench_snapshot.sh with one benchmark object per line, so a line-oriented
# scan is reliable without a JSON parser dependency.
extract() {
    sed -n 's/.*"name": *"\([^"]*\)".*"ns_per_op": *\([0-9.]*\).*/\1 \2/p' "$1" | sort
}
extract "$base" > "$tmp/base"
extract "$cand" > "$tmp/cand"

if ! [ -s "$tmp/base" ] || ! [ -s "$tmp/cand" ]; then
    echo "bench-compare: empty snapshot ($base or $cand)" >&2
    exit 2
fi

join "$tmp/base" "$tmp/cand" | awk -v thr="$threshold" -v out="$tmp/regressed" '
{
    name = $1; old = $2; new = $3
    if (old <= 0) next
    delta = 100 * (new - old) / old
    printf "  %-44s %12.0f -> %12.0f ns/op  %+6.1f%%%s\n",
        name, old, new, delta, (delta > thr) ? "  <-- REGRESSION" : ""
    if (delta > thr) { n++; print name > out }
}
END { exit (n > 200) ? 200 : n }' && regressions=0 || regressions=$?

missing=$(join -v 1 "$tmp/base" "$tmp/cand" | awk '{print $1}' | sort -u)
missing_strict=""
if [ -n "$missing" ]; then
    echo "bench-compare: benchmarks missing from $cand:" >&2
    printf '  %s\n' $missing >&2
    if [ "$strict" = "1" ]; then
        missing_strict=$missing
    elif [ -n "$strict_re" ]; then
        missing_strict=$(printf '%s\n' $missing | grep -E "$strict_re" || true)
    fi
fi

if [ "$regressions" -gt 0 ]; then
    echo "bench-compare: WARNING: $regressions benchmark(s) regressed more than ${threshold}% vs $base" >&2
    if [ "$strict" = "1" ]; then
        exit 1
    fi
    if [ -n "$strict_re" ] && grep -qE "$strict_re" "$tmp/regressed"; then
        echo "bench-compare: FAIL: strict benchmark(s) regressed (pattern: $strict_re):" >&2
        grep -E "$strict_re" "$tmp/regressed" | sed 's/^/  /' >&2
        exit 1
    fi
else
    echo "bench-compare: no regressions beyond ${threshold}% vs $base"
fi
if [ -n "$missing_strict" ]; then
    echo "bench-compare: FAIL: strict benchmark(s) missing from $cand:" >&2
    printf '  %s\n' $missing_strict >&2
    exit 1
fi
exit 0
