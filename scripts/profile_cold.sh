#!/bin/sh
# profile_cold.sh — CPU and allocation profiles of one cold M-DC mockup
# (Prepare -> Mockup -> RunUntilConverged on M-DC + WAN, seed 1: the path
# bench/'s cold_mdc child times as mockup_wall_s), from a clean checkout and
# without touching bench/. It runs BenchmarkColdMockupMDC (bench_test.go)
# twice — the CPU profile at the default allocation-sampling rate, so the
# sampler's own cost stays out of it; the allocation profile at one sample
# per 4 KiB — and prints the text EXPERIMENTS.md "cold mockup: allocate for
# the frame, nothing else" quotes: the benchmark line (wall, MB, events, GC
# cycles, mallocs per event), `pprof -top -cum` and the alloc_objects top 15.
#
#   scripts/profile_cold.sh [outdir]     (default: a fresh mktemp -d)
#
# The test binary and the .prof files stay in outdir for `go tool pprof`.
# ~25 s and ~600 MB; run nothing else beside it.
set -eu

cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
mkdir -p "$out"

go test -c -o "$out/crystalnet.test" .
run() {
    "$out/crystalnet.test" -test.run '^$' -test.bench 'ColdMockupMDC$' -test.benchtime 1x "$@" | grep '^Benchmark'
}

echo "== CPU profile ($out/cpu.prof)"
run -test.cpuprofile "$out/cpu.prof"
go tool pprof -top -cum -nodecount=40 "$out/crystalnet.test" "$out/cpu.prof" 2>/dev/null

echo "== allocation profile ($out/mem.prof)"
run -test.memprofile "$out/mem.prof" -test.memprofilerate 4096
go tool pprof -sample_index=alloc_objects -top -nodecount=15 "$out/crystalnet.test" "$out/mem.prof" 2>/dev/null

echo "profiles and test binary left in $out"
