package scenario

import (
	"bytes"
	"testing"

	"crystalnet/internal/obs"
	"crystalnet/internal/parallel"
	"crystalnet/internal/traffic"
)

// flapUnderLoad is the rehearsal the warm_traffic_sdc benchmark sends: one
// ToR uplink down and up again on a paper fabric carrying a two-class
// matrix, the no-blackhole sweep and the flow SLO at each convergence point.
func flapUnderLoad(t *testing.T, dc string, flows uint64) *Spec {
	t.Helper()
	pct := 0.1
	sp := &Spec{
		Name: "flap-under-load", Seed: 1,
		Topology: Topology{DC: dc, WANPerGroup: 2},
		Traffic: &traffic.Spec{Flows: flows, Classes: []traffic.ClassSpec{
			{Name: "web", Share: 3, DstPort: 80},
			{Name: "bulk", Share: 1, DstPort: 443},
		}},
		Invariants: []Step{
			{Op: OpAssertNoBlackhole},
			{Op: OpAssertFlowSLO, MaxBlackholedPct: &pct, Window: Duration(2e9)},
		},
	}
	net, _, err := sp.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	uplink := net.MustDevice("tor-p0-0").Interfaces[0]
	a, b := uplink.FullName(), uplink.Peer.FullName()
	sp.Steps = []Step{
		{Op: OpSetLink, A: a, B: b, Up: boolp(false)},
		{Op: OpWaitConverge},
		{Op: OpSetLink, A: a, B: b, Up: boolp(true)},
		{Op: OpWaitConverge},
	}
	return sp
}

// runForked drives sp on a fork of conv and returns the report with the
// fork's matrix.
func runForked(t *testing.T, conv *Converged, sp *Spec) (*Report, *traffic.Matrix) {
	t.Helper()
	r, err := conv.fork(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.drive()
	if err != nil {
		t.Fatal(err)
	}
	return rep, r.em.Traffic()
}

// checkFlapWalks asserts that a forked down/up flap settled twice and walked
// a non-zero share of at most 5% of the aggregates doing it.
func checkFlapWalks(t *testing.T, m *traffic.Matrix) {
	t.Helper()
	walked, reused := m.Walks()
	settles := uint64(2 * m.Aggregates())
	if walked+reused != settles {
		t.Fatalf("walked %d + reused %d aggregate-settles, want %d (two settles of %d)", walked, reused, settles, m.Aggregates())
	}
	if walked == 0 || walked*20 > settles {
		t.Fatalf("the fork walked %d of %d aggregate-settles, want a non-zero share of at most 5%%", walked, settles)
	}
	t.Logf("walked %d of %d aggregate-settles (%.1f%%); memo %d bytes for %d aggregates",
		walked, settles, 100*float64(walked)/float64(settles), m.MemoBytes(), m.Aggregates())
}

// TestTrafficForkWalksWhatTheFlapMoved is the tentpole's bar on S-DC: a
// forked flap under load settles twice and walks a few percent of the
// aggregates doing it, where a fresh run walks them all — and the two
// reports are the same bytes.
func TestTrafficForkWalksWhatTheFlapMoved(t *testing.T) {
	fresh, err := Run(flapUnderLoad(t, "sdc", 1_000_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Passed {
		t.Fatalf("fresh run failed:\n%s", fresh.JSON())
	}
	conv, err := Converge(flapUnderLoad(t, "sdc", 1_000_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked, m := runForked(t, conv, flapUnderLoad(t, "sdc", 1_000_000))
	if !bytes.Equal(fresh.JSON(), forked.JSON()) {
		t.Fatalf("forked flap under load differs from the fresh run\nfresh:\n%s\nforked:\n%s", fresh.JSON(), forked.JSON())
	}
	checkFlapWalks(t, m)
}

// TestTrafficTraceSurvivesFork extends TestTraceSurvivesFork to a run under
// load: the fork replays reused aggregates' latency observations, so the
// traffic.flow_latency sums — order-sensitive floats — and every other trace
// byte match a fresh run that walked everything.
func TestTrafficTraceSurvivesFork(t *testing.T) {
	freshRec := obs.New()
	fresh, err := Run(trafficSpec(rehearsalSteps()...), Options{Rec: freshRec})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Converge(trafficSpec(rehearsalSteps()...), Options{Rec: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	forkRec := obs.New()
	forked, err := conv.Run(trafficSpec(rehearsalSteps()...), Options{Rec: forkRec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.JSON(), forked.JSON()) {
		t.Fatal("forked report differs from fresh run")
	}
	want := traceBytes(t, freshRec)
	if !bytes.Contains(want, []byte("traffic.flow_latency")) {
		t.Fatal("trace of a run under load carries no traffic.flow_latency")
	}
	if !bytes.Equal(want, traceBytes(t, forkRec)) {
		t.Fatal("forked trace under load differs from fresh same-seed trace")
	}
}

// TestTrafficConcurrentForks runs eight rehearsals at once against one
// baseline under load; scripts/check.sh runs it under -race. The forks share
// the baseline's memo — device table, index maps, arena chunks — and each
// must read it without a write reaching another.
func TestTrafficConcurrentForks(t *testing.T) {
	conv, err := Converge(trafficSpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := conv.Run(trafficSpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := parallel.Map(8, 8, func(i int) []byte {
		rep, err := conv.Run(trafficSpec(rehearsalSteps()...), Options{})
		if err != nil {
			t.Error(err)
			return nil
		}
		return rep.JSON()
	})
	for i, g := range got {
		if !bytes.Equal(g, want.JSON()) {
			t.Fatalf("concurrent fork %d under load produced different bytes", i)
		}
	}
}

// TestTrafficChaosReuseMatchesFresh puts the memo under a chaos campaign's
// faults — link cuts, device reloads, VM failures — on forks of one loaded
// baseline: every report must byte-match a fresh run of the same expanded
// spec, which walks every aggregate at every settle. Built with -tags
// crystaldebug (scripts/check.sh) each reused aggregate is also re-walked on
// the spot.
func TestTrafficChaosReuseMatchesFresh(t *testing.T) {
	base := trafficSpec(Step{Op: OpWaitConverge})
	cfg := CampaignConfig{N: 4, Seed: 11, FaultsPerRun: 4, Workers: 2, Reuse: true}
	camp, err := Chaos(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := base.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	cand, err := faultCandidates(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range camp.Runs {
		if got.Traffic == nil || got.Traffic.Settles < 2 {
			t.Fatalf("reuse run %d settled its matrix %+v times", i, got.Traffic)
		}
		fresh, err := Run(expandRun(base, cand, i, cfg.Seed, runSeed(cfg.Seed, i), cfg.FaultsPerRun), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.JSON(), fresh.JSON()) {
			t.Fatalf("reuse run %d under load differs from fresh run\nreuse:\n%s\nfresh:\n%s", i, got.JSON(), fresh.JSON())
		}
	}
}
