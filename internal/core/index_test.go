package core

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"testing"

	"crystalnet/internal/batfish"
	"crystalnet/internal/config"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

// addRack grows the topology by one ToR under pod 0's leaves — the
// operator's half of the new-rack rehearsal; AttachNewDevice is the other.
func addRack(n *topo.Network, name string) {
	d := n.AddDevice(name, topo.LayerToR, topo.ToRAS(999), "ctnrb")
	d.Pod = 0
	d.Originated = append(d.Originated, netpkt.MustParsePrefix("100.64.99.0/24"))
	n.Connect(d, n.MustDevice("leaf-p0-0"))
	n.Connect(d, n.MustDevice("leaf-p0-1"))
}

// attachRack boots the added ToR and reloads the leaves so they learn it.
func attachRack(t *testing.T, em *Emulation, name string) {
	t.Helper()
	if err := em.AttachNewDevice(name, fastImages()["ctnrb"], nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []string{"leaf-p0-0", "leaf-p0-1"} {
		if err := em.ReloadDevice(leaf, config.GenerateDevice(em.Network().MustDevice(leaf)), nil); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, em)
}

// TestIndexTracksRunningConfigs: Index() hands out one pointer for as long
// as every device runs the configuration it ran — through convergence
// points, link flaps and a VM-failure recovery that gives a device a new
// table — and a new one exactly when a reload, a rollback or an attach
// changed what some device runs. A fork starts from its parent's pointer.
func TestIndexTracksRunningConfigs(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 4})
	ix := em.Index()
	same := func(what string) {
		t.Helper()
		if em.Index() != ix {
			t.Fatalf("%s: Index() built a new index, no configuration changed", what)
		}
	}
	moved := func(what string) {
		t.Helper()
		if em.Index() == ix {
			t.Fatalf("%s: Index() is still the old index", what)
		}
		ix = em.Index()
	}
	base := em.Save()

	converge(t, em)
	same("second convergence point")
	cutFirstUplink(t, em)
	same("link flap")

	table := em.Devices["tor-p0-1"].FIB()
	if _, err := em.InjectVMFailure("tor-p0-1"); err != nil {
		t.Fatal(err)
	}
	converge(t, em)
	if em.Devices["tor-p0-1"].FIB() == table {
		t.Fatal("VM recovery did not reboot tor-p0-1 onto a new table")
	}
	same("VM-failure recovery with the old config")

	leaf := "leaf-p0-0"
	cfg := em.Devices[leaf].Config().Clone()
	cfg.MaxPaths = 2
	if err := em.ReloadDevice(leaf, cfg, nil); err != nil {
		t.Fatal(err)
	}
	converge(t, em)
	moved("reload")
	if em.Configs()[leaf] != cfg {
		t.Fatal("Configs() does not name the reloaded configuration")
	}

	if reloaded, err := em.RestoreConfigs(base); err != nil || !slices.Equal(reloaded, []string{leaf}) {
		t.Fatalf("RestoreConfigs reloaded %v (%v), want just %s", reloaded, err, leaf)
	}
	converge(t, em)
	moved("rollback")
	if em.Configs()[leaf] != base.Configs[leaf] {
		t.Fatal("rollback did not reinstall the saved configuration itself")
	}

	addRack(em.Network(), "tor-p0-new")
	same("topology grown, nothing attached")
	attachRack(t, em, "tor-p0-new")
	moved("attach")
	if id, ok := em.Index().ID("tor-p0-new"); !ok || em.Index().Name(id) != "tor-p0-new" {
		t.Fatal("attached device missing from the index")
	}
	if em.Index().Len() != len(em.Devices) {
		t.Fatalf("index holds %d devices, emulation %d", em.Index().Len(), len(em.Devices))
	}

	snap, err := em.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	same("checkpoint")
	fork, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	if fork.Index() != ix {
		t.Fatal("fork did not inherit its parent's index")
	}
	cutFirstUplink(t, fork)
	if fork.Index() != ix {
		t.Fatal("fork rebuilt its index over a link flap")
	}
	if err := fork.ReloadDevice(leaf, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if fork.Index() == ix || fork.Configs()[leaf] != cfg {
		t.Fatal("fork's reload did not give it an index of its own")
	}
	same("fork reloaded a device")
}

// forkOutcome is everything TestForksNeverSeeParentAttach compares.
type forkOutcome struct {
	devices    []string
	plan       []string
	blackholed int
	traffic    []byte
}

// TestForksNeverSeeParentAttach: forks share the preparation's maps, the plan
// and the fabric index with their parent, so the parent growing them must
// replace, never edit. Eight forks of one checkpoint flap a link, settle
// their traffic and sweep reachability while the parent attaches a rack that
// was in the topology before the checkpoint; under -race any edit of shared
// state is a report, and every fork must see the fabric as it was.
func TestForksNeverSeeParentAttach(t *testing.T) {
	o, parent := fullEmulation(t, Options{Seed: 9})
	if err := parent.AttachTraffic(traffic.Spec{Flows: 100_000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	addRack(parent.Network(), "tor-p0-new")
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ix, plan := parent.Index(), parent.Plan()

	run := func(em *Emulation) forkOutcome {
		cutFirstUplink(t, em)
		if em.Index() != ix || em.Plan() != plan {
			t.Error("fork's index or plan moved under a link flap")
		}
		out := forkOutcome{
			devices: slices.Sorted(maps.Keys(em.Configs())),
			plan:    slices.Concat(em.Plan().Internal, []string{"|"}, em.Plan().Boundary, []string{"|"}, em.Plan().Speakers),
			traffic: trafficReport(t, em),
		}
		w := batfish.NewIndexWalker(func(dev string, dst netpkt.IP) (*rib.Entry, bool) {
			if fib := em.table(dev); fib != nil {
				return fib.Lookup(dst)
			}
			return nil, false
		}, em.Index())
		for _, src := range em.Plan().Internal {
			for _, dst := range em.Plan().Internal {
				for _, p := range em.Network().MustDevice(dst).Originated {
					if src != dst && !w.Delivered(src, p.Addr+1) {
						out.blackholed++
					}
				}
			}
		}
		return out
	}

	ref, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref)
	if slices.Contains(want.devices, "tor-p0-new") || want.blackholed != 0 {
		t.Fatalf("reference fork: devices %v, %d blackholed pairs", want.devices, want.blackholed)
	}

	forks := make([]*Emulation, 8)
	for i := range forks {
		if forks[i], err = o.Fork(snap); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]forkOutcome, len(forks))
	var wg sync.WaitGroup
	for i, em := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(em)
		}()
	}
	attachRack(t, parent, "tor-p0-new")
	wg.Wait()

	if parent.Index() == ix || parent.Plan() == plan || parent.Configs()["tor-p0-new"] == nil || !parent.Plan().Emulated["tor-p0-new"] {
		t.Fatal("parent's attach did not give it a new index and plan holding the rack")
	}
	if plan.Emulated["tor-p0-new"] {
		t.Fatal("parent's attach edited the plan its forks share")
	}
	for i, g := range got {
		if !slices.Equal(g.devices, want.devices) || !slices.Equal(g.plan, want.plan) ||
			g.blackholed != want.blackholed || !bytes.Equal(g.traffic, want.traffic) {
			t.Errorf("fork %d saw the parent's attach:\n got %v %v %d %s\nwant %v %v %d %s", i,
				g.devices, g.plan, g.blackholed, g.traffic, want.devices, want.plan, want.blackholed, want.traffic)
		}
	}
}
