//go:build !race && !crystaldebug

package rib

import (
	"runtime"
	"testing"

	"crystalnet/internal/netpkt"
)

// TestAllocBudgetReinstallSeenGroup: reprogramming a prefix over a hop group
// the table has sorted before costs the Entry and nothing else — no copy,
// sort, hash or probe of the group. (The race detector and crystaldebug's
// memo check allocate on their own account; this builds without either.)
func TestAllocBudgetReinstallSeenGroup(t *testing.T) {
	var caller HopSetTable
	group := caller.Canonical([]NextHop{{IP: 3, Interface: "et2"}, {IP: 1, Interface: "et0"}, {IP: 2, Interface: "et1"}})
	f := NewFIB()
	p := netpkt.MustParsePrefix("10.0.0.0/24")
	f.InstallGroup(p, ProtoBGP, group)
	if got := testing.AllocsPerRun(1000, func() {
		if f.InstallGroup(p, ProtoBGP, group) != nil {
			t.Fatal("install failed")
		}
	}); got != 1 {
		t.Errorf("reinstall over a seen group allocates %.1f times, want 1 (the Entry)", got)
	}
}

// TestAllocBudgetCloneReinstallsParentGroup: a clone reprogramming a prefix
// over a hop group its sealed parent had installed finds the parent's
// sorted, canonical group in the memos it shares frozen, so the write costs
// the Entry and nothing else. The clone's first three writes are left out of
// the count: the first copies the trie path, and they grow the write log to
// four slots; the fourth, over a group the clone has not used, is counted.
func TestAllocBudgetCloneReinstallsParentGroup(t *testing.T) {
	var caller HopSetTable
	a := caller.Canonical([]NextHop{{IP: 2, Interface: "et1"}, {IP: 1, Interface: "et0"}})
	b := caller.Canonical([]NextHop{{IP: 3, Interface: "et2"}})
	f := NewFIB()
	p, q := netpkt.MustParsePrefix("10.0.0.0/24"), netpkt.MustParsePrefix("10.0.1.0/24")
	f.InstallGroup(p, ProtoBGP, a)
	f.InstallGroup(q, ProtoBGP, b)
	f.Seal()
	var ms runtime.MemStats
	total := uint64(0)
	const runs = 100
	for i := 0; i < runs; i++ {
		c := f.Clone()
		for range 3 {
			c.InstallGroup(p, ProtoBGP, a)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if c.InstallGroup(p, ProtoBGP, b) != nil {
			t.Fatal("install failed")
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	if got := float64(total) / runs; got != 1 {
		t.Errorf("a clone's reinstall over its parent's group allocates %.1f times, want 1 (the Entry)", got)
	}
}
