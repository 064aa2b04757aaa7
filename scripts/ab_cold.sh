#!/bin/sh
# ab_cold.sh — alternating A/B timing of one cold M-DC mockup between two
# checkouts, without touching bench/. It builds each tree's root test binary,
# then runs BenchmarkColdMockupMDC (bench_test.go: Prepare -> Mockup ->
# RunUntilConverged on M-DC + WAN, seed 1) N times per tree, parent first in
# odd pairs and change first in even ones, so a drift of the host biases
# neither side, and prints each pair's wall times and delta, the pairs the
# change won, and both medians. The exact counts the benchmark reports
# (fired events, route-ready virtual time) must be identical across every
# run of both trees; the script fails otherwise, because a changed count
# means a changed schedule, not just a faster one.
#
#   scripts/ab_cold.sh PARENT_DIR CHANGE_DIR N
#
# ~20 s and ~600 MB per run; run nothing else beside it.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR N" >&2
    exit 2
fi
parent=$1
change=$2
n=$3
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

(cd "$parent" && go test -c -o "$out/parent.test" .)
(cd "$change" && go test -c -o "$out/change.test" .)

# run BIN prints "<seconds> <events> <route-ready-virtual-s>".
run() {
    "$out/$1.test" -test.run '^$' -test.bench 'ColdMockupMDC$' -test.benchtime 1x |
        awk '/^BenchmarkColdMockupMDC/ {
            for (i = 1; i < NF; i++) {
                if ($(i+1) == "ns/op") ns = $i
                if ($(i+1) == "events") ev = $i
                if ($(i+1) == "route-ready-virtual-s") rr = $i
            }
            printf "%.3f %s %s\n", ns / 1e9, ev, rr
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
    echo "$i $p $c" >>"$out/pairs"
    echo "$p $c" | awk -v i="$i" '{ printf "pair %d: parent %.3f s, change %.3f s, delta %+.1f%%\n", i, $1, $4, 100 * ($4 - $1) / $1 }'
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
    p[k] = $2; c[k] = $5
    if ($5 < $2) won++
    if (k == 1) { ev = $3; rr = $4 }
    if ($3 != ev || $6 != ev || $4 != rr || $7 != rr) bad = bad sprintf(" pair %d", k)
}
END {
    mp = median(p, k); mc = median(c, k)
    printf "change won %d of %d pairs; median parent %.3f s, change %.3f s (%+.1f%%)\n", won, k, mp, mc, 100 * (mc - mp) / mp
    if (bad != "") { printf "exact counts differ:%s\n", bad; exit 1 }
    printf "exact counts equal in every run: %s events, route-ready %s virtual s\n", ev, rr
}' "$out/pairs"
