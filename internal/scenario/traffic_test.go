package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"crystalnet/internal/traffic"
)

// trafficSpec is tinySpec carrying a two-class 100k-flow matrix from the
// start of the run.
func trafficSpec(steps ...Step) *Spec {
	sp := tinySpec(steps...)
	sp.Traffic = &traffic.Spec{Flows: 100_000, Classes: []traffic.ClassSpec{
		{Name: "web", Share: 3, DstPort: 80},
		{Name: "bulk", Share: 1, DstPort: 443},
	}}
	return sp
}

func TestTrafficSettlesThroughRehearsal(t *testing.T) {
	// The full rehearsal under load: the matrix re-settles at every
	// convergence point, and after the last recovery no flow is lost or
	// blackholed — asserted by the new op.
	steps := append(rehearsalSteps(),
		Step{Op: OpAssertFlowSLO, MaxBlackholedPct: floatp(0), MaxLostPct: floatp(0)},
	)
	rep, err := Run(trafficSpec(steps...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("rehearsal under traffic failed:\n%s", rep.JSON())
	}
	tr := rep.Traffic
	if tr == nil {
		t.Fatal("report carries no traffic section")
	}
	if tr.Flows != 100_000 {
		t.Fatalf("flows = %d, want 100000 (exact conservation)", tr.Flows)
	}
	if tr.Settles < 7 {
		t.Fatalf("settles = %d, want one per convergence point (>= 7)", tr.Settles)
	}
	if len(tr.Classes) != 2 {
		t.Fatalf("classes = %+v", tr.Classes)
	}
	var delivered uint64
	for _, c := range tr.Classes {
		delivered += c.Delivered
	}
	if delivered != tr.Flows {
		t.Fatalf("delivered %d of %d flows at final settle:\n%s", delivered, tr.Flows, rep.JSON())
	}
}

func TestInjectTrafficAndSLOCatchesACLLoss(t *testing.T) {
	// inject-traffic mid-run, then a fat-fingered ACL that denies the
	// server range on a transit leaf: assert-flow-slo must fail on lost
	// flows, failing the run.
	sp := tinySpec(
		Step{Op: OpInjectTraffic, Traffic: &traffic.Spec{Flows: 10_000}},
		Step{Op: OpReloadConfig, Device: "leaf-p0-0",
			ACL: &ACLPatch{Name: "OOPS", DenySrc: "100.64.0.0/10", BindIngress: true}},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertFlowSLO, MaxLostPct: floatp(0)},
	)
	// The blanket deny also kills transit probes; the run is expected to
	// fail — the point is *which* checks fail.
	sp.Invariants = nil
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatalf("run passed despite ACL flow loss:\n%s", rep.JSON())
	}
	last := rep.Steps[len(rep.Steps)-1]
	if last.Op != OpAssertFlowSLO || last.Pass {
		t.Fatalf("assert-flow-slo did not fail: %+v", last)
	}
	if !strings.Contains(last.Detail, "flow SLO violated") {
		t.Fatalf("detail = %q", last.Detail)
	}
	if rep.Traffic == nil || rep.Traffic.Classes[0].Lost == 0 {
		t.Fatalf("traffic report does not show the loss:\n%s", rep.JSON())
	}
}

func TestAssertFlowSLOWithoutTrafficFails(t *testing.T) {
	rep, err := Run(tinySpec(
		Step{Op: OpAssertFlowSLO, MaxBlackholedPct: floatp(1)},
	), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("assert-flow-slo passed with no traffic attached")
	}
	last := rep.Steps[len(rep.Steps)-1]
	if !strings.Contains(last.Detail, "no traffic attached") {
		t.Fatalf("detail = %q", last.Detail)
	}
}

func TestTrafficReroutesOnLinkFlap(t *testing.T) {
	// Taking a ToR uplink down forces its flows onto the surviving paths;
	// the fingerprint change must surface as rerouted flows.
	rep, err := Run(trafficSpec(
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertFlowSLO, MaxBlackholedPct: floatp(0), Window: Duration(time.Second)},
	), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("flap under traffic failed:\n%s", rep.JSON())
	}
	var rerouted uint64
	for _, c := range rep.Traffic.Classes {
		rerouted += c.Rerouted
	}
	if rerouted == 0 {
		t.Fatalf("no flows counted as rerouted after uplink loss:\n%s", rep.JSON())
	}
}

// TestTrafficForkMatchesFresh proves the matrix crosses checkpoints: a
// forked rehearsal carries its load and reproduces a fresh run under load
// byte-for-byte, including every settle along the way.
func TestTrafficForkMatchesFresh(t *testing.T) {
	fresh, err := Run(trafficSpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Passed {
		t.Fatalf("fresh run failed:\n%s", fresh.JSON())
	}
	conv, err := Converge(trafficSpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked, err := conv.Run(trafficSpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.JSON(), forked.JSON()) {
		t.Fatalf("forked run under traffic differs from fresh run\nfresh:\n%s\nforked:\n%s",
			fresh.JSON(), forked.JSON())
	}
	if forked.Traffic == nil || forked.Traffic.Flows == 0 {
		t.Fatal("forked run lost its traffic matrix")
	}
}

func TestTrafficSpecValidation(t *testing.T) {
	sp := tinySpec(Step{Op: OpInjectTraffic})
	if err := sp.Validate(); err == nil {
		t.Fatal("inject-traffic without a spec validated")
	}
	sp = tinySpec(Step{Op: OpAssertFlowSLO})
	if err := sp.Validate(); err == nil {
		t.Fatal("assert-flow-slo without bounds validated")
	}
	sp = tinySpec(Step{Op: OpAssertFlowSLO, MaxLostPct: floatp(-1)})
	if err := sp.Validate(); err == nil {
		t.Fatal("negative bound validated")
	}
	sp = trafficSpec()
	sp.Traffic.Flows = 0
	if err := sp.Validate(); err == nil {
		t.Fatal("zero-flow spec traffic validated")
	}
}

func floatp(v float64) *float64 { return &v }
