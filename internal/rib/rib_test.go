package rib

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"crystalnet/internal/netpkt"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

func entry(p string, proto Proto, hops ...string) *Entry {
	e := &Entry{Prefix: pfx(p), Proto: proto}
	for _, h := range hops {
		e.NextHops = append(e.NextHops, NextHop{IP: netpkt.MustParseIP(h), Interface: "et0"})
	}
	return e
}

func TestInstallLookup(t *testing.T) {
	f := NewFIB()
	if err := f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Install(entry("10.1.0.0/16", ProtoBGP, "2.2.2.2")); err != nil {
		t.Fatal(err)
	}
	e, ok := f.Lookup(netpkt.MustParseIP("10.1.2.3"))
	if !ok || e.Prefix != pfx("10.1.0.0/16") {
		t.Fatalf("Lookup = %v, %v", e, ok)
	}
	e, ok = f.Lookup(netpkt.MustParseIP("10.2.0.1"))
	if !ok || e.Prefix != pfx("10.0.0.0/8") {
		t.Fatalf("Lookup fallback = %v, %v", e, ok)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestInstallCanonicalizesNextHops(t *testing.T) {
	f := NewFIB()
	e := entry("10.0.0.0/8", ProtoBGP, "9.9.9.9", "1.1.1.1", "5.5.5.5")
	f.Install(e)
	got, _ := f.Get(pfx("10.0.0.0/8"))
	if got.NextHops[0].IP != netpkt.MustParseIP("1.1.1.1") ||
		got.NextHops[2].IP != netpkt.MustParseIP("9.9.9.9") {
		t.Fatalf("next hops not sorted: %v", got.NextHops)
	}
}

func TestTrieBuiltLazily(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"))
	f.Install(entry("10.1.0.0/16", ProtoBGP, "2.2.2.2"))
	if f.t != nil {
		t.Fatal("trie built before any LPM query")
	}
	e, ok := f.Lookup(netpkt.MustParseIP("10.1.2.3"))
	if !ok || e.Prefix != pfx("10.1.0.0/16") {
		t.Fatalf("lazy trie returned %v, want 10.1.0.0/16", e)
	}
	if f.t == nil {
		t.Fatal("first Lookup must latch the trie")
	}
	// Installs after the build must keep the trie current.
	f.Install(entry("10.1.2.0/24", ProtoBGP, "3.3.3.3"))
	if e, ok := f.Lookup(netpkt.MustParseIP("10.1.2.3")); !ok || e.Prefix != pfx("10.1.2.0/24") {
		t.Fatalf("post-build install not visible to LPM: %v", e)
	}
}

func TestHopGroupSharing(t *testing.T) {
	f := NewFIB()
	f.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", ProtoBGP, "1.1.1.1", "2.2.2.2").NextHops)
	f.InstallHops(pfx("20.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", ProtoBGP, "1.1.1.1", "2.2.2.2").NextHops)
	a, _ := f.Get(pfx("10.0.0.0/8"))
	b, _ := f.Get(pfx("20.0.0.0/8"))
	if &a.NextHops[0] != &b.NextHops[0] {
		t.Fatal("equal hop groups must alias one canonical slice")
	}
}

// TestInstallGroupMatchesInstallHops: a table programmed through
// InstallGroup with immutable caller groups — a caller-side HopSetTable's,
// unsorted, as the BGP router hands them — holds exactly what InstallHops
// gives for the same writes, entry by entry, and entries over one group
// alias one canonical sorted slice. ErrFull and the version count agree too.
func TestInstallGroupMatchesInstallHops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var caller HopSetTable
	memo, plain := NewFIB(), NewFIB()
	memo.Capacity, plain.Capacity = 150, 150
	for i := 0; i < 2000; i++ {
		hops := make([]NextHop, 1+rng.Intn(4))
		for k := range hops {
			hops[k] = NextHop{IP: netpkt.IP(1 + rng.Intn(5)), Interface: fmt.Sprintf("et%d", rng.Intn(3))}
		}
		group := caller.Canonical(hops)
		p := netpkt.Prefix{Addr: netpkt.IP(rng.Intn(200)) << 8, Len: 24}
		errM, errP := memo.InstallGroup(p, ProtoBGP, group), plain.InstallHops(p, ProtoBGP, group)
		if errM != errP {
			t.Fatalf("write %d: InstallGroup %v, InstallHops %v", i, errM, errP)
		}
	}
	if memo.version != plain.version || memo.Snapshot().String() != plain.Snapshot().String() {
		t.Fatal("InstallGroup and InstallHops built different tables")
	}
	byGroup := map[string]*NextHop{}
	for _, e := range memo.Snapshot() {
		key := fmt.Sprint(e.NextHops)
		if first, ok := byGroup[key]; ok && first != &e.NextHops[0] {
			t.Fatalf("%s: equal groups do not alias one canonical slice", e.Prefix)
		}
		byGroup[key] = &e.NextHops[0]
	}
}

func TestCapacity(t *testing.T) {
	f := NewFIB()
	f.Capacity = 2
	if err := f.Install(entry("10.0.0.0/24", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Install(entry("10.0.1.0/24", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Install(entry("10.0.2.0/24", ProtoBGP, "1.1.1.1")); err != ErrFull {
		t.Fatalf("overflow error = %v, want ErrFull", err)
	}
	// Replacement of an existing prefix is allowed at capacity.
	if err := f.Install(entry("10.0.1.0/24", ProtoBGP, "2.2.2.2")); err != nil {
		t.Fatalf("replace at capacity failed: %v", err)
	}
	// Removing frees a slot.
	f.Remove(pfx("10.0.0.0/24"))
	if err := f.Install(entry("10.0.2.0/24", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatalf("install after remove failed: %v", err)
	}
}

func TestRemove(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoStatic, "1.1.1.1"))
	if !f.Remove(pfx("10.0.0.0/8")) {
		t.Fatal("Remove existing = false")
	}
	if f.Remove(pfx("10.0.0.0/8")) {
		t.Fatal("Remove absent = true")
	}
	if _, ok := f.Lookup(netpkt.MustParseIP("10.0.0.1")); ok {
		t.Fatal("entry still visible after remove")
	}
}

// TestSnapshotStableUnderWrites is the property sharing rests on: a
// Snapshot hands out the table's own entries, so it stays a point-in-time
// view only if no later write — reprogram, replace, remove, in any index
// state — edits what it points at.
func TestSnapshotStableUnderWrites(t *testing.T) {
	hops := func(rng *rand.Rand) []NextHop {
		nhs := make([]NextHop, rng.Intn(4))
		for i := range nhs {
			nhs[i] = NextHop{IP: netpkt.IP(1 + rng.Intn(6)), Interface: fmt.Sprintf("et%d", rng.Intn(3))}
		}
		return nhs
	}
	prefix := func(rng *rand.Rand) netpkt.Prefix {
		return netpkt.Prefix{Addr: netpkt.IP(rng.Intn(32)) << 24, Len: uint8(4 + rng.Intn(5))}
	}
	write := func(f *FIB, rng *rand.Rand) {
		switch p := prefix(rng); rng.Intn(3) {
		case 0:
			f.InstallHops(p, ProtoBGP, hops(rng))
		case 1:
			f.Install(&Entry{Prefix: p, Proto: ProtoStatic, NextHops: hops(rng)})
		case 2:
			f.Remove(p)
		}
	}
	states := map[string]func(*FIB) *FIB{
		"unsealed": func(f *FIB) *FIB { return f },
		"sealed":   func(f *FIB) *FIB { f.Seal(); return f },
		"clone":    func(f *FIB) *FIB { f.Seal(); return f.Clone() },
	}
	for name, enter := range states {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			f := NewFIB()
			for i := 0; i < 40; i++ {
				write(f, rng)
			}
			f = enter(f)
			snap := f.Snapshot()
			want := snap.String()
			for i := 0; i < 200; i++ {
				write(f, rng)
				if i%50 == 49 && snap.String() != want {
					t.Fatalf("%s, seed %d: snapshot changed after %d writes:\n%s\nwant:\n%s", name, seed, i+1, snap, want)
				}
			}
			if f.Snapshot().String() == want {
				t.Fatalf("%s, seed %d: 200 random writes left the table unchanged", name, seed)
			}
		}
	}
}

func TestSnapshotStringFormat(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1", "2.2.2.2"))
	f.Install(&Entry{Prefix: pfx("10.9.0.0/16"), Proto: ProtoConnected, NextHops: []NextHop{{Interface: "et1"}}})
	s := f.Snapshot().String()
	if !strings.Contains(s, "10.0.0.0/8 via 1.1.1.1@et0 2.2.2.2@et0 [bgp]") {
		t.Fatalf("snapshot string missing BGP line:\n%s", s)
	}
	if !strings.Contains(s, "direct@et1 [connected]") {
		t.Fatalf("snapshot string missing connected line:\n%s", s)
	}
}

func TestProtoNamesAndDistance(t *testing.T) {
	if ProtoBGP.String() != "bgp" || ProtoConnected.String() != "connected" {
		t.Fatal("proto names wrong")
	}
	if Proto(77).String() == "" {
		t.Fatal("unknown proto should still format")
	}
}

func TestCompareIdentical(t *testing.T) {
	a := Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1", "2.2.2.2")}
	b := Snapshot{entry("10.0.0.0/8", ProtoBGP, "2.2.2.2", "1.1.1.1")}
	for _, e := range a {
		e.canonicalize()
	}
	for _, e := range b {
		e.canonicalize()
	}
	if d := Compare(a, b, Strict); len(d) != 0 {
		t.Fatalf("identical snapshots differ: %v", d)
	}
}

func TestCompareMissing(t *testing.T) {
	a := Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"), entry("10.1.0.0/16", ProtoBGP, "1.1.1.1")}
	b := Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"), entry("10.2.0.0/16", ProtoBGP, "1.1.1.1")}
	d := Compare(a, b, Strict)
	if len(d) != 2 {
		t.Fatalf("diffs = %v, want 2", d)
	}
	var missLeft, missRight bool
	for _, x := range d {
		switch x.Kind {
		case DiffMissingLeft:
			missLeft = x.Prefix == pfx("10.2.0.0/16")
		case DiffMissingRight:
			missRight = x.Prefix == pfx("10.1.0.0/16")
		}
	}
	if !missLeft || !missRight {
		t.Fatalf("wrong diff classification: %v", d)
	}
}

func TestCompareStrictVsECMPAware(t *testing.T) {
	// ECMP non-determinism (§9): both sides picked a different subset of the
	// same candidate set; they share 2.2.2.2.
	a := Snapshot{entry("100.64.0.0/24", ProtoBGP, "1.1.1.1", "2.2.2.2")}
	b := Snapshot{entry("100.64.0.0/24", ProtoBGP, "2.2.2.2", "3.3.3.3")}
	if d := Compare(a, b, Strict); len(d) != 1 || d[0].Kind != DiffNextHops {
		t.Fatalf("strict diff = %v, want one nexthop-mismatch", d)
	}
	if d := Compare(a, b, ECMPAware); len(d) != 0 {
		t.Fatalf("ECMP-aware diff = %v, want none (overlapping sets)", d)
	}
	// Disjoint sets are a real divergence in both modes.
	c := Snapshot{entry("100.64.0.0/24", ProtoBGP, "7.7.7.7")}
	if d := Compare(a, c, ECMPAware); len(d) != 1 {
		t.Fatalf("disjoint ECMP-aware diff = %v, want 1", d)
	}
}

func TestCompareDiffOrderingDeterministic(t *testing.T) {
	a := Snapshot{
		entry("10.2.0.0/16", ProtoBGP, "1.1.1.1"),
		entry("10.0.0.0/16", ProtoBGP, "1.1.1.1"),
		entry("10.1.0.0/16", ProtoBGP, "1.1.1.1"),
	}
	d := Compare(a, Snapshot{}, Strict)
	if len(d) != 3 {
		t.Fatalf("diffs = %d", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1].Prefix.Addr > d[i].Prefix.Addr {
			t.Fatal("diffs not sorted by prefix")
		}
	}
	if d[0].String() != "missing-right 10.0.0.0/16" {
		t.Fatalf("diff string = %q", d[0].String())
	}
}

func TestEmptyNextHopsECMPAware(t *testing.T) {
	a := Snapshot{{Prefix: pfx("10.0.0.0/8"), Proto: ProtoBGP}}
	b := Snapshot{{Prefix: pfx("10.0.0.0/8"), Proto: ProtoBGP}}
	if d := Compare(a, b, ECMPAware); len(d) != 0 {
		t.Fatalf("two empty next-hop sets should match: %v", d)
	}
}

func TestPropertyCompareReflexive(t *testing.T) {
	f := func(addrs []uint32) bool {
		var s Snapshot
		for i, a := range addrs {
			p := netpkt.Prefix{Addr: netpkt.IP(a), Len: uint8(8 + i%25)}
			p.Addr &= p.MaskIP()
			s = append(s, &Entry{Prefix: p, Proto: ProtoBGP,
				NextHops: []NextHop{{IP: netpkt.IP(a ^ 0xff), Interface: "et0"}}})
		}
		return len(Compare(s, s, Strict)) == 0 && len(Compare(s, s, ECMPAware)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareSymmetricCount(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		mk := func(vals []uint32) Snapshot {
			var s Snapshot
			seen := map[netpkt.Prefix]bool{}
			for _, v := range vals {
				p := netpkt.Prefix{Addr: netpkt.IP(v), Len: 24}
				p.Addr &= p.MaskIP()
				if seen[p] {
					continue
				}
				seen[p] = true
				s = append(s, &Entry{Prefix: p, Proto: ProtoBGP, NextHops: []NextHop{{IP: 1, Interface: "e"}}})
			}
			return s
		}
		a, b := mk(xs), mk(ys)
		return len(Compare(a, b, Strict)) == len(Compare(b, a, Strict))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSealedFIBSharesEntries pins the sealed state of a FIB: the trie is the
// table, a clone shares every node and entry, and neither the parent nor a
// clone ever edits an *Entry the other can see.
func TestSealedFIBSharesEntries(t *testing.T) {
	parent := NewFIB()
	parent.Capacity = 4
	parent.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", 0, "1.1.1.1", "2.2.2.2").NextHops)
	parent.InstallHops(pfx("10.1.0.0/16"), ProtoBGP, entry("0.0.0.0/0", 0, "1.1.1.1").NextHops)
	parent.Install(entry("192.168.0.0/24", ProtoConnected, "0.0.0.0"))
	if parent.t != nil {
		t.Fatal("trie built before Seal or any query")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Clone of an unsealed FIB did not panic")
			}
		}()
		parent.Clone()
	}()

	parent.Seal()
	if parent.byPrefix != nil || parent.t == nil || parent.Len() != 3 {
		t.Fatalf("sealed FIB: map %v, trie %v, len %d", parent.byPrefix != nil, parent.t != nil, parent.Len())
	}
	before := parent.Snapshot().String()
	a, b := parent.Clone(), parent.Clone()
	pe, _ := parent.Get(pfx("10.0.0.0/8"))
	ae, _ := a.Get(pfx("10.0.0.0/8"))
	if pe != ae {
		t.Fatal("a clone must share its parent's entries until it writes them")
	}

	// Reprogram, add, remove on a.
	a.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", 0, "3.3.3.3").NextHops)
	a.InstallHops(pfx("10.2.0.0/16"), ProtoBGP, entry("0.0.0.0/0", 0, "3.3.3.3").NextHops)
	if !a.Remove(pfx("10.1.0.0/16")) || a.Remove(pfx("10.1.0.0/16")) {
		t.Fatal("Remove on a sealed clone")
	}
	if pe.NextHops[0].IP != netpkt.MustParseIP("1.1.1.1") || len(pe.NextHops) != 2 {
		t.Fatalf("a clone's reprogram edited the shared entry: %v", pe.NextHops)
	}
	if got := parent.Snapshot().String(); got != before {
		t.Fatalf("parent changed by a clone's writes:\n%s", got)
	}
	if got := b.Snapshot().String(); got != before {
		t.Fatalf("sibling changed by a clone's writes:\n%s", got)
	}
	if e, ok := a.Lookup(netpkt.MustParseIP("10.1.2.3")); !ok || e.Prefix != pfx("10.0.0.0/8") || e.NextHops[0].IP != netpkt.MustParseIP("3.3.3.3") {
		t.Fatalf("clone LPM after its writes: %v", e)
	}
	if a.Len() != 3 || parent.Len() != 3 {
		t.Fatalf("len: clone %d parent %d", a.Len(), parent.Len())
	}
	nodes, entries := a.Copies()
	if entries != 1 || nodes == 0 || nodes > 3*33 {
		t.Fatalf("clone copies: %d nodes, %d entries; want one entry and a few paths", nodes, entries)
	}
	if n, e := b.Copies(); n != 0 || e != 0 {
		t.Fatalf("unwritten clone paid %d nodes, %d entries", n, e)
	}

	// Capacity counts the trie once the map is gone.
	b.InstallHops(pfx("10.3.0.0/16"), ProtoBGP, entry("0.0.0.0/0", 0, "3.3.3.3").NextHops)
	if err := b.InstallHops(pfx("10.4.0.0/16"), ProtoBGP, nil); err != ErrFull {
		t.Fatalf("full sealed table: err = %v", err)
	}
	if err := b.Install(entry("10.5.0.0/16", ProtoBGP, "1.1.1.1")); err != ErrFull {
		t.Fatalf("full sealed table Install: err = %v", err)
	}
	if err := b.InstallHops(pfx("10.3.0.0/16"), ProtoBGP, nil); err != nil {
		t.Fatalf("reprogram in a full table: %v", err)
	}

	// The parent moving on after its clones were taken reaches none of them,
	// and re-sealing makes the new state cloneable.
	afterA := a.Snapshot().String()
	parent.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", 0, "4.4.4.4").NextHops)
	if a.Snapshot().String() != afterA {
		t.Fatal("a parent's write after cloning reached a clone")
	}
	if pe.NextHops[0].IP != netpkt.MustParseIP("1.1.1.1") {
		t.Fatal("a sealed parent edited an entry in place")
	}
	parent.Seal()
	if e, _ := parent.Clone().Get(pfx("10.0.0.0/8")); e.NextHops[0].IP != netpkt.MustParseIP("4.4.4.4") {
		t.Fatal("clone of a re-sealed parent misses the parent's later write")
	}
}
