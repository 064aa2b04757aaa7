package scenario

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/core"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/parallel"
	"crystalnet/internal/traffic"
)

// rehearsalSteps is a broad-surface step mix (link flap, ACL reload +
// rollback, probes, VM kill, FIB diff) used to compare fresh vs forked.
func rehearsalSteps() []Step {
	return []Step{
		{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
		{Op: OpWaitConverge},
		{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(true)},
		{Op: OpWaitConverge},
		{Op: OpReloadConfig, Device: "leaf-p0-0",
			ACL: &ACLPatch{Name: "GUARD", DenySrc: "203.0.113.0/24", BindIngress: true}},
		{Op: OpWaitConverge},
		{Op: OpReloadConfig, Device: "leaf-p0-0", FromBaseline: true},
		{Op: OpWaitConverge},
		{Op: OpInjectPackets, From: "border-g0-0", DstDevice: "tor-p1-0", DstOffset: 9},
		{Op: OpWaitConverge},
		{Op: OpAssertProbe},
		{Op: OpInjectVMFailure, Device: "tor-p0-0"},
		{Op: OpWaitConverge},
		{Op: OpAssertRecoveredWithin, Duration: Duration(5 * time.Minute)},
		{Op: OpAssertFIBDiff},
	}
}

func TestForkedRunMatchesFreshRun(t *testing.T) {
	// The tentpole correctness bar: a forked run's JSON report must be
	// byte-identical to a fresh from-scratch run of the same seeded spec.
	sp := tinySpec(rehearsalSteps()...)
	fresh, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Passed {
		t.Fatalf("fresh run failed:\n%s", fresh.JSON())
	}

	conv, err := Converge(tinySpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked, err := conv.Run(tinySpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.JSON(), forked.JSON()) {
		t.Fatalf("forked report differs from fresh run\nfresh:\n%s\nforked:\n%s",
			fresh.JSON(), forked.JSON())
	}
}

// TestForkedReloadChecksMatchFreshRun: reload-config swaps what a device
// runs, so the checks after it resolve against a fabric index the fork had
// to build for itself rather than the one it inherited. Reachability through
// the reloaded leaf (mid-reload, reloaded, rolled back) and the no-blackhole
// sweeps must report the same bytes either way.
func TestForkedReloadChecksMatchFreshRun(t *testing.T) {
	reach := Step{Op: OpAssertReachable, From: "tor-p0-0", DstDevice: "tor-p1-1", DstOffset: 1}
	steps := func() []Step {
		return []Step{
			reach,
			{Op: OpSetLink, A: "tor-p0-0:et1", B: "leaf-p0-1:et2", Up: boolp(false)},
			{Op: OpWaitConverge},
			{Op: OpReloadConfig, Device: "leaf-p0-0",
				ACL: &ACLPatch{Name: "GUARD", DenySrc: "203.0.113.0/24", BindIngress: true}},
			{Op: OpAssertReachable, From: "tor-p0-0", DstDevice: "tor-p1-1", DstOffset: 1, Expect: boolp(false)},
			{Op: OpWaitConverge},
			reach,
			{Op: OpAssertNoBlackhole},
			{Op: OpReloadConfig, Device: "leaf-p0-0", FromBaseline: true},
			{Op: OpWaitConverge},
			reach,
			{Op: OpAssertNoBlackhole, Devices: []string{"leaf-p0-0", "tor-p0-0"}},
		}
	}
	fresh, err := Run(tinySpec(steps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Passed {
		t.Fatalf("fresh run failed:\n%s", fresh.JSON())
	}
	conv, err := Converge(tinySpec(steps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked, err := conv.Run(tinySpec(steps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.JSON(), forked.JSON()) {
		t.Fatalf("forked report differs from fresh run\nfresh:\n%s\nforked:\n%s", fresh.JSON(), forked.JSON())
	}
}

func TestConvergedRunsConcurrently(t *testing.T) {
	// One Converged serving parallel forks (the campaign shape) must give
	// every fork the same bytes a serial fork gets; scripts/check.sh runs
	// this under -race.
	conv, err := Converge(tinySpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := conv.Run(tinySpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := parallel.Map(4, 4, func(i int) []byte {
		rep, err := conv.Run(tinySpec(rehearsalSteps()...), Options{})
		if err != nil {
			t.Error(err)
			return nil
		}
		return rep.JSON()
	})
	for i, g := range got {
		if !bytes.Equal(g, want.JSON()) {
			t.Fatalf("concurrent fork %d produced different bytes", i)
		}
	}
}

// TestConvergedRunRejectsMismatches: a converged baseline forks only a spec
// with its convergence key. Each case differs from the baseline in one field
// that shapes the convergence, and the refusal names that field; specs
// that differ only in name, description and steps fork.
func TestConvergedRunRejectsMismatches(t *testing.T) {
	conv, err := Converge(tinySpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	trap := map[string]ImageRef{"ctnrb": {Name: "ctnrb", Version: "dev-arp-trap"}}
	for _, tc := range []struct {
		name, field string
		edit        func(*Spec)
		opts        Options
	}{
		{"dc", "topology", func(sp *Spec) { sp.Topology = Topology{DC: "sdc"} }, Options{}},
		{"clos shape", "topology", func(sp *Spec) { sp.Topology.Clos.ToRsPerPod = 3 }, Options{}},
		{"wanPerGroup", "topology", func(sp *Spec) { sp.Topology.WANPerGroup = 2 }, Options{}},
		{"ldcScale", "topology", func(sp *Spec) { sp.Topology.LDCScale = 4 }, Options{}},
		{"invariants", "invariants", func(sp *Spec) { sp.Invariants = nil }, Options{}},
		{"traffic", "traffic", func(sp *Spec) { sp.Traffic = &traffic.Spec{Flows: 1000} }, Options{}},
		{"emulate", "emulate", func(sp *Spec) { sp.Emulate = []string{"tor-p0-0", "leaf-p0-0"} }, Options{}},
		{"mustEmulate", "mustEmulate", func(sp *Spec) { sp.MustEmulate = []string{"tor-p0-0"} }, Options{}},
		{"mustEmulatePods", "mustEmulatePods", func(sp *Spec) { sp.MustEmulatePods = []int{0} }, Options{}},
		{"spec images", "images", func(sp *Spec) { sp.Images = trap }, Options{}},
		{"seed", "seed", func(sp *Spec) { sp.Seed = 99 }, Options{}},
		{"seed override", "seed", func(*Spec) {}, Options{SeedOverride: new(int64)}}, // resolves to 1
		{"option images", "Options.Images", func(*Spec) {}, Options{Images: trap}},
		{"mtbf", "Options.MTBF", func(*Spec) {}, Options{MTBF: time.Hour}},
		{"retry", "Options.Retry", func(*Spec) {}, Options{Retry: cloud.DefaultRetryPolicy}},
		{"recovery deadline", "Options.RecoveryDeadline", func(*Spec) {}, Options{RecoveryDeadline: time.Minute}},
	} {
		sp := tinySpec(rehearsalSteps()[:2]...)
		tc.edit(sp)
		_, err := conv.Run(sp, tc.opts)
		if want := tc.field + " does not match"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s mismatch: err = %v, want %q", tc.name, err, want)
		}
	}
	// Name, description and steps are not part of the key, and neither is
	// MaxEvents.
	other := tinySpec(Step{Op: OpWaitConverge})
	other.Name, other.Description = "other", "same fabric, other steps"
	if _, err := conv.Run(other, Options{MaxEvents: 1 << 30}); err != nil {
		t.Fatalf("a spec differing only in name and steps was refused: %v", err)
	}

	sp := tinySpec(Step{Op: OpWaitConverge})
	trapped, err := Converge(sp, Options{Images: trap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trapped.Run(sp, Options{}); err == nil || !strings.Contains(err.Error(), "Options.Images") {
		t.Fatalf("fork without the baseline's Images: err = %v", err)
	}
	if _, err := trapped.Run(sp, Options{Images: maps.Clone(trap)}); err != nil {
		t.Fatalf("fork with equal Images refused: %v", err)
	}
}

// TestForkRefusesAnotherFabric is the regression case of a baseline forked
// with a spec it did not converge: a 3-pod spec without invariants, forked
// from a 2-pod baseline, used to report the baseline's 14 emulated devices
// and its step-0 invariant. It is refused, and forked from its own baseline
// it reports what a fresh run does: 18 devices and no invariant.
func TestForkRefusesAnotherFabric(t *testing.T) {
	conv, err := Converge(tinySpec(Step{Op: OpWaitConverge}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := tinySpec(Step{Op: OpWaitConverge})
	probe.Topology.Clos.Pods = 3
	probe.Invariants = nil
	if _, err := conv.Run(probe, Options{}); err == nil || !strings.Contains(err.Error(), "topology does not match") {
		t.Fatalf("3-pod spec forked a 2-pod baseline: err = %v", err)
	}
	fresh, err := Run(probe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	own, err := Converge(probe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked, err := own.Run(probe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Emulated != 18 || len(fresh.Steps[0].Invariants) != 0 {
		t.Fatalf("fresh 3-pod run: %d emulated, %d step-0 invariants; want 18 and 0", fresh.Emulated, len(fresh.Steps[0].Invariants))
	}
	if !bytes.Equal(forked.JSON(), fresh.JSON()) {
		t.Fatalf("fork of its own baseline differs from fresh:\n%s\nfresh:\n%s", forked.JSON(), fresh.JSON())
	}
}

// TestStepsAreNotPartOfTheKey: every shipped scenario and every chaos
// fault variant keys like its baseline — the spec with its name,
// description and steps replaced, as crystald's pool converges it and a
// chaos campaign forks it — so each of them forks that baseline.
func TestStepsAreNotPartOfTheKey(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) != 7 {
		t.Fatalf("shipped scenarios: %v, %v", paths, err)
	}
	stripped := func(sp *Spec) *Spec {
		c := sp.Clone()
		c.Name, c.Description, c.Steps = "baseline", "", []Step{{Op: OpWaitConverge}}
		return c
	}
	for _, p := range paths {
		sp, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if ConvergenceKey(sp, Options{}) != ConvergenceKey(stripped(sp), Options{}) {
			t.Errorf("%s: key depends on name, description or steps", p)
		}
	}
	base := tinySpec(Step{Op: OpWaitConverge})
	cand := chaosCandidates(t, base)
	convBase := base.Clone()
	convBase.Seed = 5
	want := ConvergenceKey(convBase, Options{})
	kinds := map[string]bool{}
	for i := 0; i < 32; i++ {
		sp := expandRun(base, cand, i, 5, 3)
		for _, st := range sp.Steps {
			if _, kind, ok := strings.Cut(st.Label, ": "); ok && strings.HasPrefix(st.Label, "fault ") {
				kinds[kind] = true
			}
		}
		if got := ConvergenceKey(sp, Options{}); got != want {
			t.Fatalf("chaos run %d keys apart from its campaign baseline: %s", i, keyField(got, want))
		}
	}
	if len(kinds) != numFaultKinds {
		t.Fatalf("32 chaos runs drew fault kinds %v; want all %d", kinds, numFaultKinds)
	}
}

// TestConvergeNeedsNoSteps: Converge validates the fabric only, so a
// baseline converges from a spec without steps (crystald's warm pool does),
// and a fork of it reports what a fresh run does. Run, Parse and the fork
// still refuse a spec without steps, and Converge still refuses a bad fabric.
func TestConvergeNeedsNoSteps(t *testing.T) {
	cv, err := Converge(tinySpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec(Step{Op: OpWaitConverge})
	forked, err := cv.Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(forked.JSON(), fresh.JSON()) {
		t.Fatalf("fork of a stepless baseline differs from a fresh run:\n%s\n%s", forked.JSON(), fresh.JSON())
	}

	const noSteps = "scenario unit: no steps"
	if _, err := cv.Run(tinySpec(), Options{}); err == nil || err.Error() != noSteps {
		t.Fatalf("fork without steps: %v", err)
	}
	if _, err := Run(tinySpec(), Options{}); err == nil || err.Error() != noSteps {
		t.Fatalf("run without steps: %v", err)
	}
	if _, err := Parse([]byte(`{"name":"unit","topology":{"dc":"sdc"}}`)); err == nil || err.Error() != noSteps {
		t.Fatalf("parse without steps: %v", err)
	}
	bad := tinySpec()
	bad.Topology = Topology{}
	if _, err := Converge(bad, Options{}); err == nil || err.Error() != "scenario unit: topology needs dc or clos" {
		t.Fatalf("converge of a spec without a fabric: %v", err)
	}
}

// TestConvergenceKeyUnderZeroOptions pins the key's bytes: under zero
// options it is the spec alone without name, description and steps, seed
// resolved — the poolKey crystald's /v1/plan has always returned.
func TestConvergenceKeyUnderZeroOptions(t *testing.T) {
	sp := tinySpec(Step{Op: OpWaitConverge})
	sp.Seed = 0
	want := `{"name":"","seed":1,"topology":{"wanPerGroup":1,"clos":{"name":"tiny","pods":2,"torsPerPod":2,"leavesPerPod":2,"spineGroups":1,"spinesPerPlane":2,"bordersPerGroup":2,"prefixesPerToR":1}},"invariants":[{"op":"assert-no-blackhole"}],"steps":null}`
	if got := ConvergenceKey(sp, Options{MaxEvents: 9}); got != want {
		t.Fatalf("key = %s\nwant  %s", got, want)
	}
	if got := ConvergenceKey(sp, Options{MTBF: time.Hour}); got != strings.TrimSuffix(want, "}")+`,"Options.MTBF":3600000000000}` {
		t.Fatalf("key with MTBF = %s", got)
	}
}

// TestAttachingForksStayApart: a fork grows its own topology. Eight
// concurrent forks of one rack_addition baseline each attach the new rack;
// afterwards the baseline's topology holds the devices, links and peer
// interfaces it held, every fork reported the same bytes, and so does a
// later fork. Under -race (scripts/check.sh) a write to the shared topology
// is a report.
func TestAttachingForksStayApart(t *testing.T) {
	sp, err := Load("../../scenarios/rack_addition.json")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Converge(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	net := conv.snap.Origin.(*core.Emulation).Network()
	devices, links := net.NumDevices(), len(net.Links)
	peers := map[string]int{}
	for _, p := range sp.Steps[0].NewDevice.Peers {
		peers[p] = len(net.MustDevice(p).Interfaces)
	}

	reports := parallel.Map(8, 8, func(int) []byte {
		rep, err := conv.Run(sp.Clone(), Options{})
		if err != nil {
			t.Error(err)
			return nil
		}
		if !rep.Passed {
			t.Errorf("attaching fork failed:\n%s", rep.JSON())
		}
		return rep.JSON()
	})
	for i, r := range reports {
		if !bytes.Equal(r, reports[0]) {
			t.Fatalf("fork %d reported differently from fork 0", i)
		}
	}
	if net.NumDevices() != devices || len(net.Links) != links || net.Device(sp.Steps[0].NewDevice.Name) != nil {
		t.Fatalf("baseline topology grew: %d devices, %d links, want %d and %d", net.NumDevices(), len(net.Links), devices, links)
	}
	for p, n := range peers {
		if got := len(net.MustDevice(p).Interfaces); got != n {
			t.Fatalf("baseline peer %s has %d interfaces, want %d", p, got, n)
		}
	}
	later, err := conv.Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(later.JSON(), reports[0]) {
		t.Fatalf("later fork differs from the first\nlater:\n%s\nfirst:\n%s", later.JSON(), reports[0])
	}
}

// TestChaosRunsShareTheCampaignSeed: every run of a campaign forks one
// convergence at the campaign seed, and its fault sequence is the one its
// per-run fault seed draws.
func TestChaosRunsShareTheCampaignSeed(t *testing.T) {
	base := tinySpec(Step{Op: OpWaitConverge})
	cfg := CampaignConfig{N: 4, Seed: 42, FaultsPerRun: 3, Workers: 2}
	camp, err := Chaos(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cand := chaosCandidates(t, base)
	for i, got := range camp.Runs {
		if got.Seed != cfg.Seed {
			t.Fatalf("run %d seed %d, want campaign seed %d", i, got.Seed, cfg.Seed)
		}
		sp := expandRun(base, cand, i, cfg.Seed, cfg.FaultsPerRun)
		if got.Scenario != sp.Name || len(got.Steps) != len(sp.Steps)+1 {
			t.Fatalf("run %d: %q with %d steps, want %q with %d", i, got.Scenario, len(got.Steps), sp.Name, len(sp.Steps)+1)
		}
		for j, st := range sp.Steps {
			if r := got.Steps[j+1]; r.Op != string(st.Op) || r.Label != st.Label {
				t.Fatalf("run %d step %d: %s/%s, want %s/%s — fault sequence changed", i, j+1, r.Op, r.Label, st.Op, st.Label)
			}
		}
	}
	if camp.Failed != 0 {
		t.Fatalf("campaign had failing runs:\n%s", camp.JSON())
	}
}

// chaosCandidates enumerates the fault candidates of base's fabric, as
// Chaos does.
func chaosCandidates(t *testing.T, base *Spec) *candidates {
	t.Helper()
	net, _, err := base.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	cand, err := faultCandidates(net)
	if err != nil {
		t.Fatal(err)
	}
	return cand
}

func TestChaosMatchesFreshRunBytes(t *testing.T) {
	// The fresh==forked chaos contract: every report in a campaign must
	// byte-match a fresh from-scratch Run of the same expanded spec.
	base := tinySpec(Step{Op: OpWaitConverge})
	cfg := CampaignConfig{N: 2, Seed: 11, FaultsPerRun: 2, Workers: 1}
	camp, err := Chaos(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cand := chaosCandidates(t, base)
	for i, got := range camp.Runs {
		fresh, err := Run(expandRun(base, cand, i, cfg.Seed, cfg.FaultsPerRun), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.JSON(), fresh.JSON()) {
			t.Fatalf("campaign run %d differs from fresh run\ncampaign:\n%s\nfresh:\n%s",
				i, got.JSON(), fresh.JSON())
		}
	}
}

func TestChaosReuseSerialParallelIdentical(t *testing.T) {
	// Forks of the one baseline a campaign reuses give the same bytes
	// whatever the worker count.
	base := tinySpec(Step{Op: OpWaitConverge})
	serial, err := Chaos(base, CampaignConfig{N: 4, Seed: 21, FaultsPerRun: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Chaos(base, CampaignConfig{N: 4, Seed: 21, FaultsPerRun: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Fatal("campaign not byte-identical across worker counts")
	}
}

// TestOtherTenantsCannotChangeAForkedReport: a rehearsal report depends on
// the spec and seed alone. Another tenant of the process — here 131,073
// distinct attribute sets pushed through bgp.Decode, more than a bounded
// process-wide attribute table would hold — must not change what a fork of
// a converged baseline reports: both forks taken around the flood, a fresh
// run and the scenario's golden are byte-identical. It covers every
// shipped scenario.
func TestOtherTenantsCannotChangeAForkedReport(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped scenarios: %v", err)
	}
	for _, path := range paths {
		sp, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			fresh, err := Run(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			conv, err := Converge(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			before, err := conv.Run(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			floodAttrs(t, 1<<17+1)
			after, err := conv.Run(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.JSON(), after.JSON()) {
				t.Fatalf("fork after another tenant's traffic differs\nbefore:\n%s\nafter:\n%s", before.JSON(), after.JSON())
			}
			if !bytes.Equal(fresh.JSON(), after.JSON()) {
				t.Fatalf("forked report differs from fresh run\nfresh:\n%s\nforked:\n%s", fresh.JSON(), after.JSON())
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", filepath.Base(path)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(golden, after.JSON()) {
				t.Fatalf("forked report differs from the golden\n%s", after.JSON())
			}
		})
	}
}

// floodAttrs decodes n UPDATEs, each over a distinct one-ASN path.
func floodAttrs(t *testing.T, n int) {
	t.Helper()
	nlri := []netpkt.Prefix{netpkt.MustParsePrefix("198.51.100.0/24")}
	for i := 0; i < n; i++ {
		u := &bgp.Update{Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.NewPath(4_200_000_000 + uint32(i))}, NextHop: 1, NLRI: nlri}
		if _, err := bgp.Decode(bgp.MarshalUpdate(u)); err != nil {
			t.Fatal(err)
		}
	}
}
