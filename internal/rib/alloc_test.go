//go:build !race && !crystaldebug

package rib

import (
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
