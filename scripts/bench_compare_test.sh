#!/usr/bin/env bash
# bench_compare_test.sh — table test for bench_compare.sh on small fixture
# snapshots. Each case runs the comparison with the CI settings
# (STRICT_RE='^BenchmarkCampaign', 15% threshold) and checks its exit
# status:
#
#   pass              every benchmark present, none slower      -> 0
#   regression        a strict benchmark 50% slower             -> 1
#   missing strict    a strict benchmark absent from candidate  -> 1
#   missing advisory  an advisory benchmark absent              -> 0
#
#   ./scripts/bench_compare_test.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# snapshot FILE NAME=NS... writes a snapshot in bench_snapshot.sh's format.
snapshot() {
    local out=$1
    shift
    {
        printf '{\n  "go": "go1.24.0",\n  "benchtime": "1x",\n  "benchmarks": [\n'
        local sep=""
        for kv in "$@"; do
            printf '%s    {"name": "%s", "procs": 1, "iterations": 1, "ns_per_op": %s}' "$sep" "${kv%=*}" "${kv##*=}"
            sep=$',\n'
        done
        printf '\n  ]\n}\n'
    } > "$out"
}

snapshot "$tmp/base.json" BenchmarkCampaign=1000 BenchmarkCampaignWide/lanes=64=2000 BenchmarkLUTCost=300
snapshot "$tmp/pass.json" BenchmarkCampaign=1050 BenchmarkCampaignWide/lanes=64=1900 BenchmarkLUTCost=310
snapshot "$tmp/regression.json" BenchmarkCampaign=1500 BenchmarkCampaignWide/lanes=64=2000 BenchmarkLUTCost=300
snapshot "$tmp/missing-strict.json" BenchmarkCampaign=1000 BenchmarkCampaignWide/lanes=64/delta=2000 BenchmarkLUTCost=300
snapshot "$tmp/missing-advisory.json" BenchmarkCampaign=1000 BenchmarkCampaignWide/lanes=64=2000

fail=0
check() {
    local name=$1 want=$2
    local got=0
    STRICT_RE='^BenchmarkCampaign' ./scripts/bench_compare.sh "$tmp/base.json" "$tmp/$name.json" \
        > "$tmp/$name.out" 2>&1 || got=$?
    if [ "$got" -eq "$want" ]; then
        echo "ok   $name (exit $got)"
    else
        echo "FAIL $name: exit $got, want $want" >&2
        sed 's/^/    /' "$tmp/$name.out" >&2
        fail=1
    fi
}

check pass 0
check regression 1
check missing-strict 1
check missing-advisory 0

if ! grep -q 'BenchmarkCampaignWide/lanes=64$' "$tmp/missing-strict.out"; then
    echo "FAIL missing-strict: the missing benchmark is not named" >&2
    fail=1
fi
exit "$fail"
