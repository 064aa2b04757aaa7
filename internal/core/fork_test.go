package core

import (
	"reflect"
	"testing"
	"time"

	"crystalnet/internal/firmware"
	"crystalnet/internal/parallel"
	"crystalnet/internal/rib"
)

func TestCheckpointRequiresQuiescence(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 1})
	o.Eng.After(time.Hour, func() {})
	if _, err := em.Checkpoint(); err == nil {
		t.Fatal("checkpoint with pending events succeeded")
	}
	o.Eng.Run(0)
	snap, err := em.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TakenAt != o.Eng.Now() {
		t.Fatalf("TakenAt = %s, want %s", snap.TakenAt, o.Eng.Now())
	}
	em.Clear(nil)
	o.Eng.Run(0)
	if _, err := em.Checkpoint(); err == nil {
		t.Fatal("checkpoint of cleared emulation succeeded")
	}
}

// cutFirstUplink downs tor-p0-0's first uplink and converges — the same
// operation applied to two emulations that should behave identically.
func cutFirstUplink(t *testing.T, em *Emulation) {
	t.Helper()
	n := em.Network()
	intf := n.MustDevice("tor-p0-0").Interfaces[0]
	peer := intf.Peer
	if err := em.SetLink("tor-p0-0", intf.Name, peer.Device.Name, peer.Name, false); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
}

func TestForkMatchesFreshRun(t *testing.T) {
	// A forked run and a fresh same-seed run must be indistinguishable:
	// same virtual clock, same fired counts, same FIBs after the same op.
	_, fresh := fullEmulation(t, Options{Seed: 7})
	o, parent := fullEmulation(t, Options{Seed: 7})
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forked, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	fe := forked.Orchestrator().Eng
	if fe.Now() != o.Eng.Now() || fe.Fired() != o.Eng.Fired() {
		t.Fatalf("forked engine now=%s fired=%d, want now=%s fired=%d",
			fe.Now(), fe.Fired(), o.Eng.Now(), o.Eng.Fired())
	}
	if !reflect.DeepEqual(forked.PullFIBs(), parent.PullFIBs()) {
		t.Fatal("forked FIBs differ from parent at snapshot point")
	}

	cutFirstUplink(t, fresh)
	cutFirstUplink(t, forked)

	if fe.Now() != fresh.Orchestrator().Eng.Now() {
		t.Fatalf("virtual clocks diverged after op: forked %s, fresh %s",
			fe.Now(), fresh.Orchestrator().Eng.Now())
	}
	if fe.Fired() != fresh.Orchestrator().Eng.Fired() {
		t.Fatalf("fired counts diverged after op: forked %d, fresh %d",
			fe.Fired(), fresh.Orchestrator().Eng.Fired())
	}
	if !reflect.DeepEqual(forked.PullFIBs(), fresh.PullFIBs()) {
		t.Fatal("forked FIBs differ from fresh run after identical op")
	}
	if !reflect.DeepEqual(forked.PullStates(), fresh.PullStates()) {
		t.Fatal("forked device stats differ from fresh run after identical op")
	}
	// The parent was never touched by the fork's activity.
	if got := parent.Devices["tor-p0-0"].PullStates().Established; got != 2 {
		t.Fatalf("parent sessions = %d after fork ran a failover, want 2", got)
	}
}

// TestForkIsolation pins what a fork owns and what it shares. Owned: every
// object a step can mutate in place — devices, containers, VMs, fabric,
// engine. Shared outright: immutable state (topology, configs). Shared
// copy-on-write, deliberately: the bulk routing state sealed at Checkpoint —
// FIB entries and trie nodes here; the BGP RIBs behind CowCopies — which a
// write replaces on the writer's side only.
func TestForkIsolation(t *testing.T) {
	o, parent := fullEmulation(t, Options{Seed: 3})
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forked, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range forked.Devices {
		if d == parent.Devices[name] {
			t.Fatalf("device %s shared with parent", name)
		}
		if d.FIB() == parent.Devices[name].FIB() || d.BGP() == parent.Devices[name].BGP() {
			t.Fatalf("device %s shares its FIB or BGP router object with parent", name)
		}
	}
	for name, ct := range forked.containers {
		if ct == parent.containers[name] {
			t.Fatalf("container %s shared with parent", name)
		}
	}
	for name, vm := range forked.vmOf {
		if vm == parent.vmOf[name] {
			t.Fatalf("VM of %s shared with parent", name)
		}
	}
	if forked.Fabric == parent.Fabric || forked.orch == parent.orch || forked.orch.Eng == parent.orch.Eng {
		t.Fatal("fabric/orchestrator/engine shared with parent")
	}
	// Heavy immutable state is shared outright.
	if forked.Network() != parent.Network() {
		t.Fatal("topology should be shared, not copied")
	}
	for name, cfg := range forked.prep.Configs {
		if cfg != parent.prep.Configs[name] {
			t.Fatalf("config %s copied, want shared pointer", name)
		}
	}

	// Routing state is shared until written: every FIB entry of every device
	// is the parent's own object, and nothing has been copied yet.
	shared := 0
	for name, d := range forked.Devices {
		pf := parent.Devices[name].FIB()
		d.FIB().Walk(func(e *rib.Entry) bool {
			if pe, ok := pf.Get(e.Prefix); !ok || pe != e {
				t.Fatalf("%s: entry %s copied at fork, want shared with parent", name, e.Prefix)
			}
			shared++
			return true
		})
	}
	if shared == 0 {
		t.Fatal("no FIB entries to share; the check checks nothing")
	}
	if c := forked.CowCopies(); c.Total() != 0 {
		t.Fatalf("an unwritten fork has copied state: %+v", c)
	}

	// A write separates exactly what it touches, on the writer's side.
	parentFIBs := parent.PullFIBs()
	cutFirstUplink(t, forked)
	c := forked.CowCopies()
	if c.TrieNodes == 0 || c.FIBEntries == 0 || c.RIBEntries == 0 || c.DenseTables == 0 {
		t.Fatalf("an uplink cut must copy some of each kind of shared state: %+v", c)
	}
	if !reflect.DeepEqual(parent.PullFIBs(), parentFIBs) {
		t.Fatal("parent FIBs changed by the fork's writes")
	}
	if c := parent.CowCopies(); c.Total() != 0 {
		t.Fatalf("parent copied state it never wrote: %+v", c)
	}
	// A device the cut never reached still shares every entry.
	far, pfar := forked.Devices["tor-p1-1"].FIB(), parent.Devices["tor-p1-1"].FIB()
	changed := 0
	far.Walk(func(e *rib.Entry) bool {
		if pe, _ := pfar.Get(e.Prefix); pe != e {
			changed++
		}
		return true
	})
	if changed >= far.Len() {
		t.Fatalf("tor-p1-1: all %d entries replaced by a cut in another pod", far.Len())
	}
}

// TestForkCostTracksWrites is the structural guard on the O(touched) fork:
// counts, not timings, so it repeats exactly. Forking S-DC allocates a
// bounded number of objects — the eager deep copy this replaced allocated
// 113,977 (one per Loc-RIB entry, candidate list, FIB entry and map bucket),
// more than ten times the bound — and a one-link flap on the fork copies on
// the order of 10^3 entries, not the fabric's 26,304 routes.
func TestForkCostTracksWrites(t *testing.T) {
	o, parent := sdcEmulation(t, 1)
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	routes := 0
	for _, d := range parent.Devices {
		routes += d.FIB().Len()
	}
	const maxForkAllocs = 11000
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := o.Fork(snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxForkAllocs {
		t.Fatalf("Fork of S-DC (%d routes) made %.0f allocations, want <= %d: something is copied per route again",
			routes, allocs, maxForkAllocs)
	}

	flap := func() CowCopies {
		fork, err := o.Fork(snap)
		if err != nil {
			t.Fatal(err)
		}
		cutFirstUplink(t, fork)
		return fork.CowCopies()
	}
	c := flap()
	if again := flap(); again != c {
		t.Fatalf("copy counts do not repeat: %+v then %+v", c, again)
	}
	t.Logf("S-DC: %d routes, fork %.0f allocs, one-link flap copies %+v", routes, allocs, c)
	if c.FIBEntries == 0 || c.FIBEntries > routes/10 {
		t.Fatalf("flap copied %d FIB entries of %d routes, want a small non-zero share", c.FIBEntries, routes)
	}
	if c.RIBEntries == 0 || c.RIBEntries > routes/4 {
		t.Fatalf("flap copied %d Loc-RIB entries of %d routes, want a small non-zero share", c.RIBEntries, routes)
	}
	// A path copy is at most the trie's depth per written prefix.
	if c.TrieNodes > 33*(c.FIBEntries+len(parent.Devices)) {
		t.Fatalf("flap copied %d trie nodes for %d rewritten entries", c.TrieNodes, c.FIBEntries)
	}
}

func TestClearAfterForkLeavesParentUntouched(t *testing.T) {
	o, parent := fullEmulation(t, Options{Seed: 5})
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forked, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	parentNow := o.Eng.Now()
	parentFIBs := parent.PullFIBs()

	done := false
	forked.Clear(func() { done = true })
	forked.Orchestrator().Eng.Run(0)
	if !done || forked.ClearedAt == 0 {
		t.Fatal("forked clear did not complete")
	}
	for name, d := range forked.Devices {
		if d.State() != firmware.DeviceStopped {
			t.Fatalf("forked %s not stopped after clear", name)
		}
	}

	// The parent saw none of it: clock untouched, devices running,
	// containers attached, link fabric intact, VMs still up.
	if o.Eng.Now() != parentNow || o.Eng.Pending() != 0 {
		t.Fatalf("parent engine advanced by forked clear: now=%s pending=%d", o.Eng.Now(), o.Eng.Pending())
	}
	for name, d := range parent.Devices {
		if d.State() != firmware.DeviceRunning {
			t.Fatalf("parent %s state %v after forked clear", name, d.State())
		}
	}
	for name, ct := range parent.containers {
		if !ct.Attached() {
			t.Fatalf("parent container %s detached by forked clear", name)
		}
		if parent.Fabric.Host(ct.Host.Name).Container(name) != ct {
			t.Fatalf("parent container %s removed from its host", name)
		}
	}
	for k, vl := range parent.vlinks {
		if !vl.Up() {
			t.Fatalf("parent link %v downed by forked clear", k)
		}
	}
	if got := o.Cloud.Running(); got == 0 {
		t.Fatal("parent VMs stopped by forked clear")
	}
	if !reflect.DeepEqual(parent.PullFIBs(), parentFIBs) {
		t.Fatal("parent FIBs changed by forked clear")
	}
}

func TestConcurrentForksIndependent(t *testing.T) {
	// N forks of one snapshot run concurrently (the chaos-campaign shape);
	// go test -race over this package is part of scripts/check.sh.
	o, parent := fullEmulation(t, Options{Seed: 9})
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		established int
		now         string
	}
	results := parallel.Map(4, 4, func(i int) result {
		forked, err := o.Fork(snap)
		if err != nil {
			t.Error(err)
			return result{}
		}
		cutFirstUplink(t, forked)
		return result{
			established: forked.Devices["tor-p0-0"].PullStates().Established,
			now:         forked.Orchestrator().Eng.Now().String(),
		}
	})
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("fork %d diverged: %+v vs %+v", i, r, results[0])
		}
		if r.established != 1 {
			t.Fatalf("fork %d established = %d after uplink cut, want 1", i, r.established)
		}
	}
}
