package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"crystalnet/internal/topo"
)

// sdcEmulation mocks the paper's S-DC (116 devices, ~12k routes) up to
// route-ready on default images — the smallest fabric on which a fork's cost
// and a step's writes differ by orders of magnitude.
func sdcEmulation(t testing.TB, seed int64) (*Orchestrator, *Emulation) {
	t.Helper()
	spec := topo.SDC()
	n := topo.GenerateClos(spec)
	topo.AttachWAN(n, spec, 2)
	o := New(Options{Seed: seed})
	prep, err := o.Prepare(PrepareInput{Network: n})
	if err != nil {
		t.Fatal(err)
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	return o, em
}

// routingState renders everything a fork shares with its checkpoint, device
// by device: the pulled FIB, then the BGP router's best attributes for each
// FIB prefix and each session's state and counters. Equal routing state renders to equal bytes
// however it is stored.
func routingState(em *Emulation) string {
	names := make([]string, 0, len(em.Devices))
	for name := range em.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	fibs := em.PullFIBs()
	var b strings.Builder
	for _, name := range names {
		b.WriteString("== " + name + "\n")
		b.WriteString(fibs[name].String())
		if r := em.Devices[name].BGP(); r != nil {
			for _, e := range fibs[name] {
				if attrs, ok := r.BestRoute(e.Prefix); ok {
					fmt.Fprintf(&b, "loc %s {%s}\n", e.Prefix, attrs)
				}
			}
			for _, p := range r.Peers() {
				fmt.Fprintf(&b, "peer %d %s %s in=%d msgs=%d/%d routes=%d/%d\n", p.Index, p.Config.Name, p.State(),
					p.AdjInLen(), p.MsgsIn, p.MsgsOut, p.RoutesIn, p.WithdrawsIn)
			}
		}
	}
	return b.String()
}

func converge(t *testing.T, em *Emulation) {
	t.Helper()
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
}

// setUplinks sets every link from dev up to the next layer.
func setUplinks(t *testing.T, em *Emulation, dev string, up bool) {
	t.Helper()
	d := em.Network().MustDevice(dev)
	for _, intf := range d.Interfaces {
		if intf.Peer == nil || intf.Peer.Device.Layer <= d.Layer {
			continue
		}
		if err := em.SetLink(dev, intf.Name, intf.Peer.Device.Name, intf.Peer.Name, up); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkSharingIsIsolated drives one fork per kind of operation through
// state it shares with its checkpoint and asserts that the sharing never
// shows: the parent and an idle sibling fork keep their exact bytes, the
// driven fork ends where a fresh same-seed run of the same operation ends,
// and the parent moving on afterwards reaches none of the forks.
func TestForkSharingIsIsolated(t *testing.T) {
	const seed = 11
	ops := []struct {
		name string
		run  func(t *testing.T, em *Emulation)
	}{
		{"set-link", func(t *testing.T, em *Emulation) {
			cutFirstUplink(t, em)
		}},
		{"inject-vm-failure", func(t *testing.T, em *Emulation) {
			if out, err := em.InjectVMFailure("tor-p1-0"); err != nil || out != FaultFired {
				t.Fatalf("fault: %v, %v", out, err)
			}
			converge(t, em)
		}},
		{"reload-config", func(t *testing.T, em *Emulation) {
			if err := em.ReloadDevice("leaf-p2-0", em.Devices["leaf-p2-0"].Config().Clone(), nil); err != nil {
				t.Fatal(err)
			}
			converge(t, em)
		}},
		{"pod-flap", func(t *testing.T, em *Emulation) {
			for _, up := range []bool{false, true} {
				setUplinks(t, em, "leaf-p3-0", up)
				setUplinks(t, em, "leaf-p3-1", up)
				converge(t, em)
			}
		}},
	}

	o, parent := sdcEmulation(t, seed)
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	idle, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	before := routingState(parent)
	if got := routingState(idle); got != before {
		t.Fatal("a fork's routing state differs from its parent's at the checkpoint")
	}

	driven := map[string]*Emulation{}
	after := map[string]string{}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			fork, err := o.Fork(snap)
			if err != nil {
				t.Fatal(err)
			}
			op.run(t, fork)
			got := routingState(fork)
			if got == before {
				t.Fatal("the operation changed no routing state; the case checks nothing")
			}
			if c := fork.CowCopies(); c.Total() == 0 {
				t.Fatalf("the fork wrote shared state without copying any: %+v", c)
			}
			_, fresh := sdcEmulation(t, seed)
			op.run(t, fresh)
			if want := routingState(fresh); got != want {
				t.Fatalf("forked run diverged from a fresh same-seed run:\n%s", firstDiff(got, want))
			}
			if c := fresh.CowCopies(); c.Total() != 0 {
				t.Fatalf("a fresh run shares nothing, yet copied: %+v", c)
			}
			driven[op.name], after[op.name] = fork, got
		})
	}
	if routingState(parent) != before {
		t.Fatal("parent routing state changed by its forks' writes")
	}
	if routingState(idle) != before {
		t.Fatal("idle sibling's routing state changed by other forks' writes")
	}
	if c := parent.CowCopies(); c.Total() != 0 {
		t.Fatalf("an untouched parent paid copies: %+v", c)
	}
	if c := idle.CowCopies(); c.Total() != 0 {
		t.Fatalf("an idle fork paid copies: %+v", c)
	}

	// The forks exist; the parent may move on. Its writes copy what they
	// touch and reach nobody.
	setUplinks(t, parent, "leaf-p0-0", false)
	converge(t, parent)
	if routingState(parent) == before {
		t.Fatal("advancing the parent changed nothing; the check below checks nothing")
	}
	if c := parent.CowCopies(); c.Total() == 0 {
		t.Fatal("a sealed parent wrote shared state in place")
	}
	if routingState(idle) != before {
		t.Fatal("the parent advancing after the fork reached an idle fork")
	}
	for name, fork := range driven {
		if routingState(fork) != after[name] {
			t.Fatalf("the parent advancing after the fork reached fork %q", name)
		}
	}
}

// firstDiff shows the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}
