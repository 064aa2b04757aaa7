#!/bin/sh
# check.sh — tier-1 style verification: formatting, build, vet, full tests,
# a race pass over the packages that touch concurrency (the experiment
# worker pool, the engine it drives, the harness that fans runs across it,
# and the scenario engine's chaos campaigns), the trace-determinism smoke,
# and the documentation gate (cmd/doccheck).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

# internal/sim's lane property test (TestLanePopsInKeyOrderAgainstModel:
# lanes against a sorted model of every pending event, counted in Pending,
# Snapshot and ShardSet totals, drained lanes holding no array) runs here.
echo "== go test -race (concurrency-touching packages)"
go test -race ./internal/parallel/ ./internal/sim/ ./internal/experiments/ ./internal/checkpoint/ \
    ./internal/obs/ ./internal/serve/ ./internal/bgp/ ./internal/rib/ ./internal/trie/ ./internal/traffic/ \
    ./internal/boundary/ ./internal/firmware/ ./internal/phynet/ ./internal/cloud/

# Under the tag every wire-index hit in Decode is re-parsed and must intern
# to the same object, and every use of a memoised wire image re-encodes the
# attributes and compares: these runs (and the chaos and fork suites below)
# are the UPDATE fast path against its oracle. The -race pass above ran
# TestWireIndexUnderParallelEngines, two engines filling the index at once.
echo "== sealed-attrs, wire-index and wire-image oracles, installed-FIB-entry immutability, memoised sorted hop groups (-tags crystaldebug)"
go test -tags crystaldebug ./internal/bgp/ ./internal/rib/

# Under the tag every aggregate a settle reuses is re-walked and compared
# (traffic.Matrix.crossCheck), so these runs are the memo against its oracle.
echo "== settle memo vs full walk: traffic plane, chaos campaigns, fork-vs-fresh (-tags crystaldebug)"
go test -tags crystaldebug ./internal/traffic/
go test -tags crystaldebug ./internal/core/ -run 'Traffic'
go test -tags crystaldebug ./internal/scenario/ -run 'TestTraffic|TestChaos|TestForkedRunMatchesFreshRun'

# TestFork* covers the copy-on-write fork: TestForkIsolation (what is shared,
# what is not), TestForkSharingIsIsolated (S-DC, one fork per operation kind
# vs parent, idle sibling and fresh run) and TestForkCostTracksWrites (the
# structural O(touched) guard). serve's TestConcurrentForkStorm ran above.
# TestForksNeverSeeParentAttach is the shared-immutable half: eight forks read
# the preparation, plan and fabric index they share with a parent that is
# attaching a rack; TestIndexTracksRunningConfigs pins when the index moves.
echo "== concurrent-fork, fork-isolation, shared-preparation and fork-cost smokes under -race"
go test -race ./internal/core/ -run 'TestCheckpoint|TestFork|TestClearAfterFork|TestConcurrentForks|TestIndexTracksRunningConfigs' -timeout 10m

if [ "${SHORT:-}" != "1" ]; then
    echo "== persistent-trie fuzz (clone vs map model, parent Walk frozen; 5s)"
    go test ./internal/trie -run '^$' -fuzz=FuzzTriePersistent -fuzztime=5s

    echo "== BGP decoder fuzz (no panic; wire index vs parser; wire image vs encoder; round trip; 5s)"
    go test ./internal/bgp -run '^$' -fuzz=FuzzDecode -fuzztime=5s

    echo "== netpkt decoder fuzz (no panic; round trips; in-place header writers vs encoders; 5s)"
    go test ./internal/netpkt -run '^$' -fuzz=FuzzNetpkt -fuzztime=5s

    # The budgets build only without -race and without crystaldebug (both
    # allocate on their own account), so the plain pass above is the one
    # run that has them; -count=1 keeps a cached result from standing in.
    echo "== allocation budgets of the per-UPDATE path (flush = its messages, delivery to HandleMessage = 0, FIB reinstall = the Entry, dropped timer and lane = 0)"
    go test -count=1 ./internal/bgp/ ./internal/sim/ ./internal/phynet/ ./internal/firmware/ ./internal/rib/ -run 'TestAllocBudget'
else
    echo "== persistent-trie and BGP-decoder fuzz, allocation budgets skipped (SHORT=1)"
fi

echo "== scenario smoke under -race"
go test -race ./internal/scenario/ -run 'TestSmoke|TestChaosSerialParallelIdentical'

echo "== fork-determinism smoke under -race (fresh vs forked, byte-compare; shared baseline configs)"
go test -race ./internal/scenario/ -run 'TestForkedRunMatchesFreshRun|TestForkedReloadChecksMatchFreshRun|TestChaosReuse|TestReloadConfigLeavesSharedBaselineIntact'

echo "== sharded-convergence determinism under -race (serial vs sharded, byte-compare)"
go test -race ./internal/scenario/ -run 'TestSharded' -timeout 10m
go test -race ./internal/sim/ -run 'TestShardSet' -timeout 10m

echo "== traffic-plane determinism under -race (workers/shards/fork, 8 concurrent forks of one loaded baseline)"
go test -race ./internal/scenario/ -run 'TestTraffic' -timeout 10m
go test -race ./internal/core/ -run 'Traffic'

echo "== trace-determinism smoke (same-seed traces byte-identical, incl. across a fork and with a cancel channel armed)"
go test ./internal/scenario/ -run 'TestTraceDeterminism|TestTraceSurvivesFork|TestTraceSameWithCancelArmed|TestChaosTraceDeterminism'

echo "== failure-path smoke under -race (MTBF campaign, lost faults, bounded recovery)"
go test -race ./internal/scenario/ -run 'TestMTBFCampaignSerialParallelIdentical|TestLostFaultFailsRun|TestFailurePathByteDeterminism'
go test -race ./internal/core/ -run 'TestDoubleFailureDuringRecovery|TestDeprovisionMidRebootAbandonsRecovery|TestRecoveryDeadline|TestSupervisedMockupConverges|TestSpeakerVMRecoveryReinjectsRoutes'

echo "== crystald smoke (boot, rehearse over HTTP twice, drain on SIGTERM)"
tmp=$(mktemp -d)
daemon=
cleanup() {
    if [ -n "$daemon" ] && kill -0 "$daemon" 2>/dev/null; then
        kill "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/crystald" ./cmd/crystald
go build -o "$tmp/crystalctl" ./cmd/crystalctl
"$tmp/crystald" -addr 127.0.0.1:0 -portfile "$tmp/port" 2>"$tmp/crystald.log" &
daemon=$!
i=0
while [ ! -s "$tmp/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$daemon" 2>/dev/null; then
        echo "crystald failed to boot; log:" >&2
        cat "$tmp/crystald.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/port")
# First request converges the base fabric (pool miss), second forks it (hit);
# both must pass the scenario's invariants.
"$tmp/crystalctl" rehearse -server "$addr" scenarios/rehearse_smoke.json >/dev/null
"$tmp/crystalctl" rehearse -server "$addr" scenarios/rehearse_smoke.json >/dev/null
kill -TERM "$daemon"
if ! wait "$daemon"; then
    echo "crystald did not drain cleanly; log:" >&2
    cat "$tmp/crystald.log" >&2
    exit 1
fi
daemon=

echo "== boundary-solver smoke (S-DC solve, plan output byte-deterministic)"
"$tmp/crystalctl" plan -solve tor-p0-0,tor-p1-0 >"$tmp/solve1.out"
"$tmp/crystalctl" plan -solve tor-p0-0,tor-p1-0 >"$tmp/solve2.out"
if ! cmp -s "$tmp/solve1.out" "$tmp/solve2.out"; then
    echo "plan -solve output not byte-deterministic across runs:" >&2
    diff "$tmp/solve1.out" "$tmp/solve2.out" >&2 || true
    exit 1
fi
grep -q "safe-boundary solve" "$tmp/solve1.out"

echo "== docs gate (every package carries a doc comment linking the design docs)"
go run ./cmd/doccheck

# M-DC smoke: the benchmark's own sharded M-DC workload, with its output
# checks (event counts, route totals, report bytes), not just an exit code.
# Skipped under SHORT=1 for quick iteration.
if [ "${SHORT:-}" != "1" ]; then
    echo "== M-DC smoke (bench workload cold_mdc_sharded; last line must say correct)"
    timeout 600 bash bench/run.sh --workload cold_mdc_sharded --seed 1 --seconds 6 --trace 0 >"$tmp/mdc.out"
    if ! tail -n 1 "$tmp/mdc.out" | grep -q '"correct":true'; then
        echo "cold_mdc_sharded did not report correct; last line:" >&2
        tail -n 1 "$tmp/mdc.out" >&2
        exit 1
    fi

    echo "== bench smoke (real crystald: pool hit, byte-identical re-send, HTTP vs batch)"
    go run ./bench -smoke >/dev/null

    echo "== traffic smoke (S-DC campaign under a 1M-flow matrix with assert-flow-slo)"
    timeout 600 "$tmp/crystalctl" run-scenario scenarios/traffic_slo.json >/dev/null

    echo "== settle memo vs full walk on M-DC (forked flap under a 319,200-aggregate matrix; -tags crystaldebug)"
    go test -tags crystaldebug ./internal/scenario/ -run 'TestMemoOracleOnMDC' -timeout 20m
else
    echo "== M-DC, bench, traffic and M-DC memo-oracle smokes skipped (SHORT=1)"
fi

echo "OK"
