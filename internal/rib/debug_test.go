//go:build crystaldebug

package rib

import (
	"testing"

	"crystalnet/internal/netpkt"
)

// TestEntryMutationCaught is the regression the crystaldebug assertion
// exists for: code that edits an entry it got from Get, Lookup, Walk or a
// Snapshot would silently rewrite every snapshot, saved baseline and fork
// sharing it. Under -tags crystaldebug the table's next Snapshot, Seal or
// DiffAgainst panics — whether the edit hit the entry or the hop group it
// aliases, and whether the entry is still installed or only a snapshot
// holds it.
func TestEntryMutationCaught(t *testing.T) {
	install := func() *FIB {
		f := NewFIB()
		f.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", 0, "1.1.1.1", "2.2.2.2").NextHops)
		f.InstallHops(pfx("10.1.0.0/16"), ProtoBGP, entry("0.0.0.0/0", 0, "1.1.1.1").NextHops)
		return f
	}
	caught := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: edit of an installed entry was not caught", name)
			}
		}()
		fn()
	}

	f := install()
	e, _ := f.Get(pfx("10.0.0.0/8"))
	e.Proto = ProtoStatic
	caught("Snapshot", func() { f.Snapshot() })
	caught("Seal", func() { f.Seal() })

	f = install()
	e, _ = f.Lookup(netpkt.MustParseIP("10.1.2.3"))
	e.NextHops[0].IP = 9 // the canonical group, through an aliasing entry
	caught("DiffAgainst, live side", func() { f.DiffAgainst(nil, Strict) })

	f = install()
	snap := f.Snapshot()
	f.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, nil) // snap[0] is no longer installed
	snap[0].Prefix.Len = 9
	caught("DiffAgainst, saved side", func() { f.DiffAgainst(snap, Strict) })
}

// TestEntryUnmutatedPasses pins the assertion down: reads, replacements and
// entries that never went through a FIB must not panic.
func TestEntryUnmutatedPasses(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoBGP, "2.2.2.2", "1.1.1.1"))
	snap := f.Snapshot()
	f.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, nil)
	f.Seal()
	c := f.Clone()
	c.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, snap[0].NextHops)
	if d := c.DiffAgainst(snap, Strict); len(d) != 0 {
		t.Fatalf("diff after restoring the hops: %v", d)
	}
	if d := f.DiffAgainst(Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1")}, Strict); len(d) != 1 {
		t.Fatalf("diff against a hand-built snapshot: %v", d)
	}
}

// TestSortedGroupMemoChecked: under the tag every InstallGroup hit on the
// sorted-group memo is checked against a fresh sort and canonicalisation,
// so a caller that edits a group it promised was immutable is caught at its
// next install over it, while honest reinstalls pass.
func TestSortedGroupMemoChecked(t *testing.T) {
	var caller HopSetTable
	group := caller.Canonical([]NextHop{{IP: 2, Interface: "et1"}, {IP: 1, Interface: "et0"}})
	f := NewFIB()
	f.InstallGroup(pfx("10.0.0.0/24"), ProtoBGP, group)
	f.InstallGroup(pfx("10.0.1.0/24"), ProtoBGP, group) // a memo hit, checked
	group[0].IP = 9
	defer func() {
		if recover() == nil {
			t.Fatal("an edited caller group was not caught on the memo hit")
		}
	}()
	f.InstallGroup(pfx("10.0.2.0/24"), ProtoBGP, group)
}
