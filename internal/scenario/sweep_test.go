package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crystalnet/internal/parallel"
	"crystalnet/internal/topo"
)

// sweepSpec is an S-DC baseline with the no-blackhole invariant and steps.
func sweepSpec(steps ...Step) *Spec {
	return &Spec{
		Name: "sweep", Seed: 1,
		Topology:   Topology{DC: "sdc", WANPerGroup: 2},
		Invariants: []Step{{Op: OpAssertNoBlackhole}},
		Steps:      steps,
	}
}

// torUplinks returns the fabric's ToR-leaf links as endpoint pairs.
func torUplinks(t *testing.T, sp *Spec) [][2]string {
	t.Helper()
	net, _, err := sp.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	var links [][2]string
	for _, l := range net.Links {
		a, b := l.A, l.B
		if a.Device.Layer == topo.LayerLeaf {
			a, b = b, a
		}
		if a.Device.Layer == topo.LayerToR && b.Device.Layer == topo.LayerLeaf {
			links = append(links, [2]string{a.FullName(), b.FullName()})
		}
	}
	return links
}

// flapSteps takes link down and up again, converging after each.
func flapSteps(link [2]string) []Step {
	return []Step{
		{Op: OpSetLink, A: link[0], B: link[1], Up: boolp(false)},
		{Op: OpWaitConverge},
		{Op: OpSetLink, A: link[0], B: link[1], Up: boolp(true)},
		{Op: OpWaitConverge},
	}
}

// TestSweepCostTracksWrites is the sweep table's structural bar: a forked
// one-link S-DC flap sweeps twice and resolves at most a twentieth of the
// successors one full sweep resolves, where a fresh run resolves them all
// at every sweep.
func TestSweepCostTracksWrites(t *testing.T) {
	sp := sweepSpec(flapSteps([2]string{"tor-p0-0:et0", "leaf-p0-0:et2"})...)
	conv, err := Converge(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := conv.fork(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, dests := r.sweepTargets(&Step{})
	full := r.em.Index().Len() * len(dests)
	rep, err := r.drive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("flap failed:\n%s", rep.JSON())
	}
	t.Logf("S-DC flap: two sweeps resolved %d successors; one full sweep resolves %d", r.sweepResolved, full)
	if r.sweepResolved == 0 || r.sweepResolved*20 > full {
		t.Fatalf("the fork's sweeps resolved %d successors, want a non-zero count of at most 1/20 of %d", r.sweepResolved, full)
	}
}

// TestSweepTableMatchesFullWalk is the sweep table's property test, run
// without the build tag: seeded random sequences of link flaps, ToRs cut
// off from every leaf, ACL patches and their rollbacks, and VM crashes with
// their recovery, each on a fork of one S-DC baseline. At every convergence point
// the table's failures, whole-fabric and under random device scopes, must
// equal a full Walker sweep's.
func TestSweepTableMatchesFullWalk(t *testing.T) {
	base := sweepSpec(Step{Op: OpWaitConverge})
	conv, err := Converge(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	links := torUplinks(t, base)
	net, _, err := base.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	var devices []string
	for _, d := range net.Devices() {
		if d.Layer >= topo.LayerToR && d.Layer <= topo.LayerBorder {
			devices = append(devices, d.Name)
		}
	}
	points, nonEmpty := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var steps []Step
		for i := 0; i < 6; i++ {
			dev := devices[rng.Intn(len(devices))]
			switch rng.Intn(5) {
			case 0:
				link := links[rng.Intn(len(links))]
				steps = append(steps, Step{Op: OpSetLink, A: link[0], B: link[1], Up: boolp(rng.Intn(2) == 0)})
			case 1:
				// Every uplink of one ToR down: its server prefixes are
				// blackholed from everywhere else until a later step brings
				// a link back.
				tor := links[rng.Intn(len(links))][0]
				tor = tor[:strings.IndexByte(tor, ':')+1]
				for _, link := range links {
					if strings.HasPrefix(link[0], tor) {
						steps = append(steps, Step{Op: OpSetLink, A: link[0], B: link[1], Up: boolp(false)})
					}
				}
			case 2:
				// A new configuration is a new fabric index: the table is
				// rebuilt. The ACL filters the data plane, not the FIB.
				steps = append(steps, Step{Op: OpReloadConfig, Device: dev,
					ACL: &ACLPatch{Name: "DROP", DenySrc: "0.0.0.0/0", BindIngress: true}})
			case 3:
				steps = append(steps, Step{Op: OpReloadConfig, Device: dev, FromBaseline: true})
			case 4:
				steps = append(steps, Step{Op: OpInjectVMFailure, Device: dev})
			}
			steps = append(steps, Step{Op: OpWaitConverge})
		}
		sp := sweepSpec(steps...)
		sp.Name = fmt.Sprintf("sweep-property-%d", seed)
		r, err := conv.fork(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sp.Steps {
			st := &sp.Steps[i]
			var res StepResult
			r.step(st, &res)
			if st.Op != OpWaitConverge {
				continue
			}
			scopes := [][]string{nil, {devices[rng.Intn(len(devices))], devices[rng.Intn(len(devices))], "no-such-device"}}
			for _, scope := range scopes {
				check := &Step{Op: OpAssertNoBlackhole, Devices: scope}
				got, gotUnknown := r.blackholes(check)
				sources, unknown, dests := r.sweepTargets(check)
				want := r.walkBlackholes(sources, dests)
				if !slices.Equal(got, want) || !slices.Equal(gotUnknown, unknown) {
					t.Fatalf("seed %d step %d (%s) scope %q: table %q unknown %q, full walk %q unknown %q",
						seed, i+1, st.Op, scope, got, gotUnknown, want, unknown)
				}
				points++
				if len(got) > 0 {
					nonEmpty++
				}
			}
		}
	}
	t.Logf("%d sweeps compared, %d with blackholed pairs", points, nonEmpty)
	if nonEmpty == 0 {
		t.Fatal("no sweep found a blackholed pair: the sequences exercise only the empty list")
	}
}

// TestSweepTableSharedByConcurrentForks runs forks of one baseline on
// parallel goroutines, each flapping a different link and so rewriting
// different rows of the table they all start from; every report must be the
// bytes a serial fork of the same spec gives. scripts/check.sh runs it under
// -race, which is the check that no fork writes the shared table.
func TestSweepTableSharedByConcurrentForks(t *testing.T) {
	base := tinySpec(Step{Op: OpWaitConverge})
	conv, err := Converge(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	links := torUplinks(t, base)
	spec := func(i int) *Spec { return tinySpec(flapSteps(links[i%len(links)])...) }
	want := make([][]byte, 4)
	for i := range want {
		rep, err := conv.Run(spec(i), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.JSON()
	}
	got := parallel.Map(len(want), len(want), func(i int) []byte {
		rep, err := conv.Run(spec(i), Options{})
		if err != nil {
			t.Error(err)
			return nil
		}
		return rep.JSON()
	})
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("concurrent fork %d differs from its serial run\nserial:\n%s\nconcurrent:\n%s", i, want[i], got[i])
		}
	}
}

// TestNoBlackholeScopeNamesUnknownDevices: a scoped sweep that names a
// device which is not an emulated fabric device — a typo, or a WAN router
// outside the fabric — fails naming it, and walks nothing from it rather
// than reporting every destination from it as blackholed.
func TestNoBlackholeScopeNamesUnknownDevices(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpAssertNoBlackhole, Devices: []string{"tor-p0-0", "tor-p9-9", "wan-g0-0"}},
		Step{Op: OpAssertNoBlackhole, Devices: []string{"tor-p0-0", "leaf-p1-1"}},
	)
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad, good := rep.Steps[1], rep.Steps[2]
	if bad.Pass || bad.Detail != "not emulated fabric devices: tor-p9-9, wan-g0-0" {
		t.Fatalf("scope with unknown devices: pass=%v detail %q", bad.Pass, bad.Detail)
	}
	if strings.Contains(bad.Detail, "->") {
		t.Fatalf("unknown devices were walked: %q", bad.Detail)
	}
	if !good.Pass {
		t.Fatalf("scope of fabric devices failed: %q", good.Detail)
	}
}
