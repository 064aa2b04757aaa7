#!/bin/sh
# ab_cold.sh — alternating A/B timing of one root benchmark between two
# checkouts, without touching bench/. It builds each tree's root test binary,
# then runs the benchmark (default BenchmarkColdMockupMDC, bench_test.go:
# Prepare -> Mockup -> RunUntilConverged on M-DC + WAN, seed 1) N times per
# tree, parent first in odd pairs and change first in even ones, so a drift
# of the host biases neither side, and prints each pair's wall time per op
# and bytes allocated per op with the wall-time delta, the pairs the change
# won, and both medians. The exact counts a benchmark reports (fired events
# and route-ready virtual nanoseconds for ColdMockupMDC, cow-copies/op for
# ForkFlapSweepSDC) must be identical across every run of both trees; the
# script fails otherwise, because a changed count means a changed schedule,
# not just a faster one.
#
#   scripts/ab_cold.sh PARENT_DIR CHANGE_DIR N [BENCHMARK [BENCHTIME]]
#
# BENCHMARK is the name after "Benchmark" (e.g. ForkFlapSweepMDC, whose warm
# rehearsals want a BENCHTIME such as 20x); BENCHTIME defaults to 1x.
# ColdMockupMDC takes ~20 s and ~600 MB per run; run nothing else beside it.
set -eu

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR N [BENCHMARK [BENCHTIME]]" >&2
    exit 2
fi
parent=$1
change=$2
n=$3
bench=${4:-ColdMockupMDC}
benchtime=${5:-1x}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

(cd "$parent" && go test -c -o "$out/parent.test" .)
(cd "$change" && go test -c -o "$out/change.test" .)

# run BIN prints "<seconds/op> <MB/op> <exact counts>", the counts as
# unit=value pairs joined by commas, or "-" when the benchmark reports none.
run() {
    "$out/$1.test" -test.run '^$' -test.bench "^Benchmark$bench\$" -test.benchtime "$benchtime" -test.benchmem |
        awk -v name="Benchmark$bench" '$1 == name || index($1, name "-") == 1 {
            counts = ""
            for (i = 2; i < NF; i++) {
                u = $(i+1)
                if (u == "ns/op") ns = $i
                if (u == "B/op") bop = $i
                if (u == "events" || u == "route-ready-virtual-ns" || u == "cow-copies/op")
                    counts = counts (counts == "" ? "" : ",") u "=" $i
            }
            printf "%.4f %.2f %s\n", ns / 1e9, bop / 1048576, counts == "" ? "-" : counts
        }'
}

i=1
while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run parent)
        c=$(run change)
    else
        c=$(run change)
        p=$(run parent)
    fi
    if [ -z "$p" ] || [ -z "$c" ]; then
        echo "Benchmark$bench printed no result line" >&2
        exit 1
    fi
    echo "$i $p $c" >>"$out/pairs"
    echo "$p $c" | awk -v i="$i" '{ printf "pair %d: parent %.4f s %.2f MB, change %.4f s %.2f MB, delta %+.1f%%\n", i, $1, $2, $4, $5, 100 * ($4 - $1) / $1 }'
    i=$((i + 1))
done

awk '
function median(a, k,    i, j, t) {
    for (i = 2; i <= k; i++)
        for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
{
    k++
    p[k] = $2; c[k] = $5; pb[k] = $3; cb[k] = $6
    if ($5 < $2) won++
    if (k == 1) counts = $4
    if ($4 != counts || $7 != counts) bad = bad sprintf(" pair %d", k)
}
END {
    mp = median(p, k); mc = median(c, k)
    printf "change won %d of %d pairs; median parent %.4f s, change %.4f s (%+.1f%%); median MB/op parent %.2f, change %.2f\n", won, k, mp, mc, 100 * (mc - mp) / mp, median(pb, k), median(cb, k)
    if (bad != "") { printf "exact counts differ:%s\n", bad; exit 1 }
    if (counts == "-") print "the benchmark reports no exact counts"
    else printf "exact counts equal in every run: %s\n", counts
}' "$out/pairs"
