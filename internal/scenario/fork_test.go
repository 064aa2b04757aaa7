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

func TestConvergedRunRejectsMismatches(t *testing.T) {
	conv, err := Converge(tinySpec(rehearsalSteps()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := tinySpec()
	other.Seed = 99
	if _, err := conv.Run(other, Options{}); err == nil {
		t.Fatal("seed mismatch accepted")
	}

	// A fork runs with the options the baseline converged with, or not at
	// all: each of these would otherwise be ignored.
	trap := map[string]ImageRef{"ctnrb": {Name: "ctnrb", Version: "dev-arp-trap"}}
	sp := tinySpec(rehearsalSteps()[:2]...)
	for field, opts := range map[string]Options{
		"Images":           {Images: trap},
		"MTBF":             {MTBF: time.Hour},
		"Retry":            {Retry: cloud.DefaultRetryPolicy},
		"RecoveryDeadline": {RecoveryDeadline: time.Minute},
	} {
		if _, err := conv.Run(sp, opts); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("%s mismatch: err = %v, want one naming the field", field, err)
		}
	}
	trapped, err := Converge(sp, Options{Images: trap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trapped.Run(sp, Options{}); err == nil {
		t.Fatal("fork without the baseline's Images accepted")
	}
	if _, err := trapped.Run(sp, Options{Images: maps.Clone(trap)}); err != nil {
		t.Fatalf("fork with equal Images refused: %v", err)
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
