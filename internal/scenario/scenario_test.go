package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"crystalnet/internal/topo"
)

// tinyClos is the smallest fabric that still has redundancy on every tier.
func tinyClos() *ClosSpec {
	return &ClosSpec{
		Name: "tiny", Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2,
		SpineGroups: 1, SpinesPerPlane: 2, BordersPerGroup: 2,
		PrefixesPerToR: 1,
	}
}

func tinySpec(steps ...Step) *Spec {
	return &Spec{
		Name: "unit", Seed: 7,
		Topology:   Topology{Clos: tinyClos(), WANPerGroup: 1},
		Invariants: []Step{{Op: OpAssertNoBlackhole}},
		Steps:      steps,
	}
}

func boolp(v bool) *bool { return &v }

func TestRunOperationRehearsal(t *testing.T) {
	// A full rehearsal: link flap, ACL change + rollback, probe, VM
	// failure drill — every convergence point swept by the no-blackhole
	// invariant.
	sp := tinySpec(
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
		Step{Op: OpWaitConverge},
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(true)},
		Step{Op: OpWaitConverge},
		Step{Op: OpReloadConfig, Device: "leaf-p0-0",
			ACL: &ACLPatch{Name: "GUARD", DenySrc: "203.0.113.0/24", BindIngress: true}},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertFIBDiff},
		Step{Op: OpReloadConfig, Device: "leaf-p0-0", FromBaseline: true},
		Step{Op: OpWaitConverge},
		Step{Op: OpInjectPackets, From: "border-g0-0", DstDevice: "tor-p1-0", DstOffset: 9},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertProbe},
		Step{Op: OpAssertReachable, From: "tor-p0-0", DstDevice: "tor-p1-1", DstOffset: 1},
		Step{Op: OpAssertSessions, Vendor: "ctnrb", Established: 2},
		Step{Op: OpExec, Device: "tor-p0-0", Command: "show version", ExpectContains: "running"},
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertRecoveredWithin, Duration: Duration(5 * time.Minute)},
		Step{Op: OpAssertFIBDiff},
		Step{Op: OpAssertDeviceState, Device: "tor-p0-0", State: "running"},
	)
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("rehearsal failed:\n%s", rep.JSON())
	}
	if len(rep.Steps) != len(sp.Steps)+1 {
		t.Fatalf("got %d step results, want %d", len(rep.Steps), len(sp.Steps)+1)
	}
	// The mockup result and every wait-converge carry the invariant sweep.
	sweeps := 0
	for i := range rep.Steps {
		sweeps += len(rep.Steps[i].Invariants)
	}
	if wantMin := 7; sweeps < wantMin { // mockup + six wait-converge points
		t.Fatalf("only %d invariant evaluations, want >= %d", sweeps, wantMin)
	}
}

func TestRunCatchesFatFingeredACL(t *testing.T) {
	// The pod-upgrade rehearsal's step 2: a typo'd deny 0.0.0.0/2 must
	// surface as an undelivered probe.
	sp := tinySpec(
		Step{Op: OpInjectPackets, From: "border-g0-0", DstDevice: "tor-p0-0", DstOffset: 9},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertProbe},
		Step{Op: OpReloadConfig, Device: "tor-p0-0",
			ACL: &ACLPatch{Name: "TYPO", DenySrc: "0.0.0.0/2", BindIngress: true}},
		Step{Op: OpWaitConverge},
		Step{Op: OpInjectPackets, From: "border-g0-0", DstDevice: "tor-p0-0", DstOffset: 9},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertProbe, Expect: boolp(false)},
	)
	sp.Invariants = nil // the ACL legitimately blackholes the dataplane
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("typo rehearsal should pass (probe expected undelivered):\n%s", rep.JSON())
	}
}

func TestRunAttachDevice(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpAttachDevice, NewDevice: &NewDevice{
			Name: "tor-p0-new", Layer: "tor", Vendor: "ctnrb",
			Peers:      []string{"leaf-p0-0", "leaf-p0-1"},
			Originated: []string{"10.210.0.0/24"},
		}},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertSessions, Devices: []string{"tor-p0-new"}, Established: 2},
		Step{Op: OpAssertReachable, From: "border-g0-0", DstDevice: "tor-p0-new", DstOffset: 1},
	)
	// Attaching a rack changes forwarding state by design; drop the
	// baseline-diff invariant but keep reachability.
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("attach rehearsal failed:\n%s", rep.JSON())
	}
}

func TestRunDeterministicReports(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpInjectVMFailure, Device: "leaf-p1-0"},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertRecoveredWithin, Duration: Duration(5 * time.Minute)},
		Step{Op: OpAssertFIBDiff},
	)
	a, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("identically-seeded runs diverged:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
}

func TestChaosSerialParallelIdentical(t *testing.T) {
	base := tinySpec(Step{Op: OpWaitConverge})
	cfg := CampaignConfig{N: 6, Seed: 42, FaultsPerRun: 3}

	cfg.Workers = 1
	serial, err := Chaos(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Chaos(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Fatalf("serial and parallel campaign reports differ")
	}
	if serial.Passed+serial.Failed != cfg.N {
		t.Fatalf("campaign lost runs: %d passed + %d failed != %d",
			serial.Passed, serial.Failed, cfg.N)
	}
	if serial.Failed != 0 {
		t.Fatalf("chaos campaign had failing runs:\n%s", serial.JSON())
	}
}

// TestSmoke is the check.sh -race smoke: the smallest useful spec, one
// fault, one invariant sweep.
func TestSmoke(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
		Step{Op: OpWaitConverge},
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(true)},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertFIBDiff},
	)
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("smoke failed:\n%s", rep.JSON())
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no name", func(sp *Spec) { sp.Name = "" }},
		{"no topology", func(sp *Spec) { sp.Topology = Topology{} }},
		{"bad dc", func(sp *Spec) { sp.Topology = Topology{DC: "xdc"} }},
		{"no steps", func(sp *Spec) { sp.Steps = nil }},
		{"bad op", func(sp *Spec) { sp.Steps = []Step{{Op: "explode"}} }},
		{"set-link missing up", func(sp *Spec) { sp.Steps = []Step{{Op: OpSetLink, A: "a:b", B: "c:d"}} }},
		{"reload both modes", func(sp *Spec) {
			sp.Steps = []Step{{Op: OpReloadConfig, Device: "d", FromBaseline: true,
				ACL: &ACLPatch{Name: "x", DenySrc: "10.0.0.0/8"}}}
		}},
		{"non-assert invariant", func(sp *Spec) { sp.Invariants = []Step{{Op: OpWaitConverge}} }},
		{"attach bad layer", func(sp *Spec) {
			sp.Steps = []Step{{Op: OpAttachDevice, NewDevice: &NewDevice{
				Name: "x", Layer: "blimp", Vendor: "ctnrb", Peers: []string{"y"}}}}
		}},
		// Ceilings on what a spec's own numbers can make the daemon build. The
		// first is a 400-byte body that used to generate 168,136 devices.
		{"clos over the device ceiling", func(sp *Spec) {
			sp.Topology.Clos = &ClosSpec{Pods: 3000, ToRsPerPod: 48, LeavesPerPod: 8,
				SpineGroups: 4, SpinesPerPlane: 4, BordersPerGroup: 2, PrefixesPerToR: 4}
		}},
		{"clos one device over", func(sp *Spec) {
			c := lDCSizedClos()
			c.BordersPerGroup++
			sp.Topology = Topology{Clos: c}
		}},
		{"clos dimension that overflows the product", func(sp *Spec) { sp.Topology.Clos.Pods = math.MaxInt }},
		{"clos prefixesPerToR unbounded", func(sp *Spec) { sp.Topology.Clos.PrefixesPerToR = math.MaxInt }},
		// 4,000 ToRs fit the device ceiling and 4,636 prefixes each fit the
		// per-dimension one; together they used to ask for 18.5M routes a device.
		{"clos over the originated-prefix ceiling", func(sp *Spec) {
			sp.Topology.Clos = &ClosSpec{Pods: 1000, ToRsPerPod: 4, LeavesPerPod: 1,
				SpineGroups: 1, SpinesPerPlane: 1, BordersPerGroup: 1, PrefixesPerToR: MaxDevices}
		}},
		{"clos one pod of originated prefixes over", func(sp *Spec) {
			c := lDCSizedClos()
			c.ToRsPerPod, c.PrefixesPerToR = 1, c.ToRsPerPod
			c.Pods++
			sp.Topology = Topology{Clos: c}
		}},
		{"wanPerGroup unbounded", func(sp *Spec) { sp.Topology.WANPerGroup = math.MaxInt }},
		{"wan routers over the device ceiling", func(sp *Spec) {
			sp.Topology = Topology{DC: "ldc", WANPerGroup: MaxDevices/2 + 1}
		}},
		{"inject-packets count", func(sp *Spec) {
			sp.Steps = []Step{{Op: OpInjectPackets, From: "a", Dst: "10.0.0.1", Count: 2_000_000_000}}
		}},
		{"too many steps", func(sp *Spec) { sp.Steps = make([]Step, MaxSteps+1) }},
	}
	for _, tc := range cases {
		sp := tinySpec(Step{Op: OpWaitConverge})
		tc.mut(sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}

	// The ceilings admit what they are named after.
	if got := topo.LDC().NumDevices(); got != MaxDevices {
		t.Errorf("MaxDevices = %d, full L-DC has %d devices", MaxDevices, got)
	}
	if l := topo.LDC(); l.Pods*l.ToRsPerPod*l.PrefixesPerToR != MaxOriginated {
		t.Errorf("MaxOriginated = %d, full L-DC originates %d prefixes", MaxOriginated, l.Pods*l.ToRsPerPod*l.PrefixesPerToR)
	}
	atCeiling := tinySpec(Step{Op: OpInjectPackets, From: "a", Dst: "10.0.0.1", Count: MaxProbes})
	atCeiling.Topology = Topology{Clos: lDCSizedClos()}
	if err := atCeiling.Validate(); err != nil {
		t.Errorf("an L-DC-sized custom clos with %d probes: %v", MaxProbes, err)
	}
}

// lDCSizedClos is the full L-DC written as a custom clos: exactly MaxDevices.
func lDCSizedClos() *ClosSpec {
	l := topo.LDC()
	return &ClosSpec{Name: "l-dc", Pods: l.Pods, ToRsPerPod: l.ToRsPerPod, LeavesPerPod: l.LeavesPerPod,
		SpineGroups: l.SpineGroups, SpinesPerPlane: l.SpinesPerPlane, BordersPerGroup: l.BordersPerGroup,
		PrefixesPerToR: l.PrefixesPerToR}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","topology":{"dc":"sdc"},"steps":[{"op":"wait-converge"}],"typo":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"90s"`), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 90*time.Second {
		t.Fatalf("parsed %s, want 90s", d.Std())
	}
	b, err := json.Marshal(Duration(45 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"45s"` {
		t.Fatalf("marshaled %s, want \"45s\"", b)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
		Step{Op: OpWaitConverge},
	)
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", data, data2)
	}
}
