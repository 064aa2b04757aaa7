// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark wraps one experiment from internal/experiments; run
// cmd/crystalbench for the full paper-formatted sweep and EXPERIMENTS.md
// for the paper-vs-measured record.
//
// These are macro-benchmarks: an iteration is a full experiment (often
// entire emulation lifecycles in virtual time), so b.N typically stays 1.
// Set CRYSTALNET_FULL=1 to run Figure 8/9 with more repetitions and a
// larger L-DC scale.
package crystalnet_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crystalnet/internal/core"
	"crystalnet/internal/experiments"
	"crystalnet/internal/scenario"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

func full() bool { return os.Getenv("CRYSTALNET_FULL") != "" }

// BenchmarkTable1_IncidentCoverage replays one incident per Table 1 root-
// cause class under the emulation and the verification baseline.
func BenchmarkTable1_IncidentCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 5 {
			b.Fatal("bad row count")
		}
		for _, r := range rows {
			if r.RootCause == "Software bugs" && (!r.CrystalNet || r.Verification) {
				b.Fatalf("software-bug coverage wrong: %+v", r)
			}
		}
	}
}

// BenchmarkFigure1_AggregationImbalance measures the vendor-divergent
// aggregation imbalance at R8.
func BenchmarkFigure1_AggregationImbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1(200)
		if r.R7Share < 0.95 {
			b.Fatalf("imbalance not reproduced: %+v", r)
		}
		b.ReportMetric(r.R7Share*100, "r7-share-%")
	}
}

// BenchmarkFigure7_BoundarySafety checks the three Figure 7 boundaries with
// the Lemma 5.1 propagation checker and Propositions 5.2/5.3.
func BenchmarkFigure7_BoundarySafety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure7()
		if rows[0].LemmaSafe || !rows[1].LemmaSafe || !rows[2].LemmaSafe {
			b.Fatalf("safety verdicts wrong: %+v", rows)
		}
	}
}

// BenchmarkTable3_NetworkScales generates the three evaluation fabrics.
func BenchmarkTable3_NetworkScales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		b.ReportMetric(float64(rows[2].Routes), "ldc-routes")
	}
}

// BenchmarkFigure8_MockupLatency runs the whole-DC emulation latency sweep.
// Default: S-DC and M-DC at 2 reps (regression-grade; cmd/crystalbench is
// the full driver with L-DC and percentiles); CRYSTALNET_FULL=1 adds a
// 1/4-scale L-DC at 5 reps; -short keeps only S-DC.
func BenchmarkFigure8_MockupLatency(b *testing.B) {
	cfg := experiments.Figure8Config{Reps: 2, LDCScale: 8, SkipLDC: true}
	if full() {
		cfg.Reps, cfg.LDCScale, cfg.SkipLDC = 5, 4, false
	}
	if testing.Short() {
		cfg.SkipMDC, cfg.SkipLDC = true, true
	}
	for i := 0; i < b.N; i++ {
		points := experiments.Figure8(cfg)
		for _, p := range points {
			if p.Mockup.P50 <= 0 {
				b.Fatalf("no mockup latency for %s/%d", p.DC, p.VMs)
			}
		}
		b.ReportMetric(points[0].Mockup.P50.Minutes(), "sdc-mockup-min")
	}
}

// BenchmarkFigure9_CPUUtilization records the p95 per-VM CPU curve during
// Mockup.
func BenchmarkFigure9_CPUUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Figure9(8, !full())
		peak := 0.0
		for _, u := range series[0].MinutesP95 {
			if u > peak {
				peak = u
			}
		}
		if peak < 0.5 {
			b.Fatalf("no CPU burst recorded: peak %.2f", peak)
		}
		b.ReportMetric(peak*100, "peak-p95-cpu-%")
	}
}

// BenchmarkSec83_ReloadRecovery measures two-layer vs strawman reload and
// VM failure recovery.
func BenchmarkSec83_ReloadRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Sec83()
		if r.StrawmanReload <= r.TwoLayerReload {
			b.Fatalf("ablation inverted: %+v", r)
		}
		b.ReportMetric(r.TwoLayerReload.Seconds(), "two-layer-reload-s")
		b.ReportMetric(r.StrawmanReload.Seconds(), "strawman-reload-s")
		b.ReportMetric(r.RecoveryDense.Seconds(), "vm-recovery-s")
	}
}

// BenchmarkTable4_SafeBoundaryScale runs Algorithm 1 on the full L-DC for
// the two §8.4 validation cases.
func BenchmarkTable4_SafeBoundaryScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4()
		if rows[0].CostReduction < 0.9 {
			b.Fatalf("cost reduction %.2f < 90%%", rows[0].CostReduction)
		}
		b.ReportMetric(rows[0].CostReduction*100, "one-pod-cost-cut-%")
	}
}

// BenchmarkSec9_CrossValidation runs the §9 FIB-comparator experiment.
func BenchmarkSec9_CrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CrossValidate()
		if r.ECMPAwareDiffs != 0 || r.StrictDiffs == 0 {
			b.Fatalf("comparator behaviour wrong: %+v", r)
		}
		b.ReportMetric(float64(r.StrictDiffs), "strict-diffs")
	}
}

// sdcFlapSpec is the warm-rehearsal shape on S-DC: one ToR uplink down and
// back up, the fabric re-converged after each, under the no-blackhole
// invariant (a full-fabric sweep at every convergence point).
func sdcFlapSpec() *scenario.Spec {
	return flapSpec("sdc", "tor-p0-0:et0", "leaf-p0-0:et2")
}

// flapSpec takes the link a-b of a paper fabric down and up again, sweeping
// the no-blackhole invariant at each convergence point.
func flapSpec(dc, a, b string) *scenario.Spec {
	down, up := false, true
	return &scenario.Spec{
		Name:       "bench-flap-" + dc,
		Seed:       1,
		Topology:   scenario.Topology{DC: dc, WANPerGroup: 2},
		Invariants: []scenario.Step{{Op: scenario.OpAssertNoBlackhole}},
		Steps: []scenario.Step{
			{Op: scenario.OpSetLink, A: a, B: b, Up: &down},
			{Op: scenario.OpWaitConverge},
			{Op: scenario.OpSetLink, A: a, B: b, Up: &up},
			{Op: scenario.OpWaitConverge},
		},
	}
}

// BenchmarkColdMockupMDC is one cold M-DC + WAN mockup on seed 1 — Prepare,
// Mockup, RunUntilConverged, the path bench/'s cold_mdc child times as
// mockup_wall_s — so scripts/profile_cold.sh can profile it from a clean
// checkout. It reports the run's mallocs per fired event and GC cycles, and
// two exact counts: fired events and route-ready virtual time in integer
// nanoseconds (a value of 1000 or more prints in full, so the A/B script's
// equality check sees every nanosecond).
func BenchmarkColdMockupMDC(b *testing.B) {
	spec := topo.MDC()
	for i := 0; i < b.N; i++ {
		n := topo.GenerateClos(spec)
		topo.AttachWAN(n, spec, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := core.New(core.Options{Seed: 1})
		prep, err := o.Prepare(core.PrepareInput{Network: n})
		if err != nil {
			b.Fatal(err)
		}
		em, err := o.Mockup(prep, false)
		if err != nil {
			b.Fatal(err)
		}
		m, err := em.RunUntilConverged(0)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		events := float64(o.Eng.Fired())
		b.ReportMetric(events, "events")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "mallocs/event")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
		b.ReportMetric(float64(after.NumGC-before.NumGC), "gc-cycles")
		b.ReportMetric(float64(m.RouteReady), "route-ready-virtual-ns")
	}
}

// BenchmarkForkSDC forks a converged, checkpointed S-DC: the fixed cost
// every warm rehearsal pays before its first step. It shares the routing
// state with the checkpoint, so it should track the device count, not the
// route count (allocs/op is the figure TestForkCostTracksWrites bounds).
func BenchmarkForkSDC(b *testing.B) {
	spec := topo.SDC()
	n := topo.GenerateClos(spec)
	topo.AttachWAN(n, spec, 2)
	o := core.New(core.Options{Seed: 1})
	prep, err := o.Prepare(core.PrepareInput{Network: n})
	if err != nil {
		b.Fatal(err)
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		b.Fatal(err)
	}
	snap, err := em.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fork, err := o.Fork(snap)
		if err != nil {
			b.Fatal(err)
		}
		forkSink = fork
	}
}

var forkSink *core.Emulation

// BenchmarkForkFlapSweepSDC is one whole warm rehearsal against a converged
// S-DC baseline, as crystald serves a pool hit: fork, flap a ToR uplink,
// re-converge, sweep the no-blackhole invariant, restore, sweep again. The
// reported cow-copies/op is what the flap made the fork copy.
func BenchmarkForkFlapSweepSDC(b *testing.B) {
	sp := sdcFlapSpec()
	cv, err := scenario.Converge(sp, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rehearseFlaps(b, sp, cv)
}

// BenchmarkForkFlapTrafficSDC is the in-process form of bench/'s
// warm_traffic_sdc request: BenchmarkForkFlapSweepSDC's flap under a
// 1M-flow matrix of two classes, web and bulk at shares 3:1, with the flow
// SLO asserted beside the no-blackhole sweep at each convergence point. The
// traffic settle after each step is the larger part of the rehearsal.
func BenchmarkForkFlapTrafficSDC(b *testing.B) {
	sp := sdcFlapSpec()
	pct := 0.1
	sp.Traffic = &traffic.Spec{Flows: 1_000_000, Classes: []traffic.ClassSpec{
		{Name: "web", Share: 3, DstPort: 80},
		{Name: "bulk", Share: 1, DstPort: 443},
	}}
	sp.Invariants = append(sp.Invariants, scenario.Step{
		Op: scenario.OpAssertFlowSLO, MaxBlackholedPct: &pct, Window: scenario.Duration(2 * time.Second),
	})
	cv, err := scenario.Converge(sp, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rehearseFlaps(b, sp, cv)
}

// BenchmarkForkFlapSweepMDC is BenchmarkForkFlapSweepSDC on M-DC — the
// in-process form of bench/'s warm_flap_mdc request, whose 400 server
// prefixes and 580 devices make the no-blackhole sweep the larger part of a
// rehearsal. Converging the baseline takes several seconds and ~600 MB, so
// -short skips it.
func BenchmarkForkFlapSweepMDC(b *testing.B) {
	sp, cv := mdcFlapBaseline(b)
	rehearseFlaps(b, sp, cv)
}

// rehearseFlaps runs sp against cv b.N times and reports the copy-on-write
// copies each rehearsal made, an exact count scripts/ab_cold.sh compares.
func rehearseFlaps(b *testing.B, sp *scenario.Spec, cv *scenario.Converged) {
	b.ReportAllocs()
	b.ResetTimer()
	copies := 0
	for i := 0; i < b.N; i++ {
		rep, err := cv.Run(sp, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatalf("rehearsal failed: %s", rep.JSON())
		}
		copies += rep.CowCopies.Total()
	}
	b.ReportMetric(float64(copies)/float64(b.N), "cow-copies/op")
}

// mdcFlapBaseline converges the M-DC baseline of the uplink flap of
// tor-p0-0, skipping under -short.
func mdcFlapBaseline(b *testing.B) (*scenario.Spec, *scenario.Converged) {
	if testing.Short() {
		b.Skip("M-DC baseline: skipped under -short")
	}
	net, _, err := (&scenario.Spec{Topology: scenario.Topology{DC: "mdc", WANPerGroup: 2}}).BuildNetwork()
	if err != nil {
		b.Fatal(err)
	}
	uplink := net.MustDevice("tor-p0-0").Interfaces[0]
	sp := flapSpec("mdc", uplink.FullName(), uplink.Peer.FullName())
	cv, err := scenario.Converge(sp, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return sp, cv
}

// BenchmarkConcurrentFlapMDC is the multi-tenant shape of
// BenchmarkForkFlapSweepMDC: N closed-loop clients, each a goroutine that
// runs the flap rehearsal against one shared converged M-DC baseline until
// b.N rehearsals are done, for N = 1, 2 and GOMAXPROCS. It reports
// rehearsals/s and MB allocated per rehearsal for each N; run it with
// -mutexprofile to see what concurrent forks wait on. -short skips it.
func BenchmarkConcurrentFlapMDC(b *testing.B) {
	sp, cv := mdcFlapBaseline(b)
	clients := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		clients = append(clients, n)
	}
	for _, n := range clients {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						rep, err := cv.Run(sp, scenario.Options{})
						if err != nil || !rep.Passed {
							b.Errorf("rehearsal failed: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "rehearsals/s")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/(1<<20), "MB/op")
		})
	}
}
