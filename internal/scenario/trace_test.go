package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"crystalnet/internal/obs"
)

// traceBytes renders both export formats of a recorder; comparing the
// concatenation compares everything the Monitor plane can emit.
func traceBytes(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceDeterminism(t *testing.T) {
	// Two same-seed runs must produce byte-identical trace files: spans are
	// stamped with virtual time and recorded in engine order, both of which
	// the determinism contract already pins.
	run := func() []byte {
		rec := obs.New()
		rep, err := Run(tinySpec(rehearsalSteps()...), Options{Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed {
			t.Fatalf("run failed:\n%s", rep.JSON())
		}
		return traceBytes(t, rec)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different trace bytes")
	}
}

// TestTraceSameWithCancelArmed: a cancel channel that never fires must not
// show in the trace. A drive is one engine/run span however often the engine
// polls the channel, so a cancelable run — every rehearsal crystald serves —
// is trace-byte-comparable to a batch run of the same seeded spec. S-DC,
// because its mockup drive is long enough to be polled more than once.
func TestTraceSameWithCancelArmed(t *testing.T) {
	spec := func() *Spec {
		sp := tinySpec(
			Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
			Step{Op: OpWaitConverge},
			Step{Op: OpAssertFIBDiff},
		)
		sp.Topology = Topology{DC: "sdc", WANPerGroup: 1}
		return sp
	}
	run := func(cancel <-chan struct{}) []byte {
		rec := obs.New()
		rep, err := Run(spec(), Options{Rec: rec, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed {
			t.Fatalf("run failed:\n%s", rep.JSON())
		}
		return traceBytes(t, rec)
	}
	if !bytes.Equal(run(nil), run(make(chan struct{}))) {
		t.Fatal("arming Options.Cancel changed the trace bytes")
	}
	cv, err := Converge(spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fired := cv.orch.Eng.Fired(); fired < 2<<15 {
		t.Fatalf("mockup fired %d events: too few for the engine to have polled mid-drive", fired)
	}
}

func TestTraceSurvivesFork(t *testing.T) {
	// A forked run's trace must be byte-identical to a fresh same-seed
	// run's: the fork deep-copies the recorder at the checkpoint and its
	// engine continues the same virtual clock.
	freshRec := obs.New()
	fresh, err := Run(tinySpec(rehearsalSteps()...), Options{Rec: freshRec})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Passed {
		t.Fatalf("fresh run failed:\n%s", fresh.JSON())
	}

	conv, err := Converge(tinySpec(rehearsalSteps()...), Options{Rec: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	forkRec := obs.New()
	forked, err := conv.Run(tinySpec(rehearsalSteps()...), Options{Rec: forkRec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.JSON(), forked.JSON()) {
		t.Fatal("forked report differs from fresh run")
	}
	if !bytes.Equal(traceBytes(t, freshRec), traceBytes(t, forkRec)) {
		t.Fatal("forked trace differs from fresh same-seed trace")
	}
}

func TestTraceHasPhaseAndConvergeSpans(t *testing.T) {
	rec := obs.New()
	if _, err := Run(tinySpec(rehearsalSteps()...), Options{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []obs.SpanData }
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	byTrack := map[string]int{}
	for _, sp := range trace.Spans {
		byTrack[sp.Track]++
		if sp.End < sp.Start {
			t.Fatalf("span %s/%s ends before it starts", sp.Track, sp.Name)
		}
	}
	for _, track := range []string{"phase", "converge", "boot", "scenario", "engine"} {
		if byTrack[track] == 0 {
			t.Fatalf("no spans on track %q (got %v)", track, byTrack)
		}
	}
	// BGP counters must have accumulated during convergence.
	var total uint64
	for _, d := range []string{"tor-p0-0", "leaf-p0-0"} {
		total += rec.Counter("bgp.msgs_out", d).Value()
	}
	if total == 0 {
		t.Fatal("bgp.msgs_out counters never incremented")
	}
}

func TestChaosTraceDeterminism(t *testing.T) {
	// Traced campaigns keep the serial == parallel contract for the traces
	// too: each run's trace is a copy of the shared convergence's plus its
	// own steps.
	base := tinySpec(Step{Op: OpWaitConverge})
	run := func(workers int) [][]byte {
		cfg := CampaignConfig{N: 3, Seed: 5, FaultsPerRun: 2, Workers: workers, Trace: true}
		rep, err := Chaos(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Traces) != 3 {
			t.Fatalf("got %d traces, want 3", len(rep.Traces))
		}
		out := make([][]byte, len(rep.Traces))
		for i, rec := range rep.Traces {
			out[i] = traceBytes(t, rec)
		}
		return out
	}
	serial, par := run(1), run(3)
	for i := range serial {
		if !bytes.Equal(serial[i], par[i]) {
			t.Fatalf("run %d trace differs between serial and parallel", i)
		}
	}
}
