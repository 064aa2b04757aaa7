package scenario

import (
	"bytes"
	"testing"
	"time"

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
	attach := tinySpec(Step{Op: OpAttachDevice, NewDevice: &NewDevice{
		Name: "tor-new", Layer: "tor", Vendor: "ctnra", Peers: []string{"leaf-p0-0", "leaf-p0-1"},
	}})
	if _, err := conv.Run(attach, Options{}); err == nil {
		t.Fatal("attach-device step accepted on a fork")
	}
}

func TestChaosReuseMatchesClassicFaults(t *testing.T) {
	// Reuse keeps the exact fault sequences of a classic campaign (fault
	// draws stay seeded per run) and every run must still pass; only the
	// per-run emulation seed differs by design, so compare structure, not
	// bytes.
	base := tinySpec(Step{Op: OpWaitConverge})
	cfg := CampaignConfig{N: 4, Seed: 42, FaultsPerRun: 3, Workers: 2}
	classic, err := Chaos(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Reuse = true
	reused, err := Chaos(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reused.Passed != classic.Passed || reused.Failed != classic.Failed {
		t.Fatalf("reuse pass/fail %d/%d, classic %d/%d",
			reused.Passed, reused.Failed, classic.Passed, classic.Failed)
	}
	if len(reused.Runs) != len(classic.Runs) {
		t.Fatalf("runs %d vs %d", len(reused.Runs), len(classic.Runs))
	}
	for i := range reused.Runs {
		a, b := reused.Runs[i], classic.Runs[i]
		if a.Scenario != b.Scenario {
			t.Fatalf("run %d name %q vs %q", i, a.Scenario, b.Scenario)
		}
		if len(a.Steps) != len(b.Steps) {
			t.Fatalf("run %d: %d steps vs %d", i, len(a.Steps), len(b.Steps))
		}
		for j := range a.Steps {
			if a.Steps[j].Op != b.Steps[j].Op || a.Steps[j].Label != b.Steps[j].Label {
				t.Fatalf("run %d step %d: %s/%s vs %s/%s — fault sequence changed",
					i, j, a.Steps[j].Op, a.Steps[j].Label, b.Steps[j].Op, b.Steps[j].Label)
			}
		}
		if a.Seed != cfg.Seed {
			t.Fatalf("reuse run %d seed %d, want campaign seed %d", i, a.Seed, cfg.Seed)
		}
	}
}

func TestChaosReuseMatchesFreshRunBytes(t *testing.T) {
	// The fresh==forked chaos contract: every report in a reuse campaign
	// must byte-match a fresh from-scratch Run of the same expanded spec.
	base := tinySpec(Step{Op: OpWaitConverge})
	cfg := CampaignConfig{N: 2, Seed: 11, FaultsPerRun: 2, Workers: 1, Reuse: true}
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
		sp := expandRun(base, cand, i, cfg.Seed, runSeed(cfg.Seed, i), cfg.FaultsPerRun)
		fresh, err := Run(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.JSON(), fresh.JSON()) {
			t.Fatalf("reuse run %d differs from fresh run\nreuse:\n%s\nfresh:\n%s",
				i, got.JSON(), fresh.JSON())
		}
	}
}

func TestChaosReuseSerialParallelIdentical(t *testing.T) {
	base := tinySpec(Step{Op: OpWaitConverge})
	serial, err := Chaos(base, CampaignConfig{N: 4, Seed: 21, FaultsPerRun: 2, Workers: 1, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Chaos(base, CampaignConfig{N: 4, Seed: 21, FaultsPerRun: 2, Workers: 4, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Fatal("reuse campaign not byte-identical across worker counts")
	}
}
