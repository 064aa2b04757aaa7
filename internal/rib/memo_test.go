package rib

import (
	"testing"

	"crystalnet/internal/netpkt"
)

// TestMemoForksKeepOwnLayersApart pins Memo's two layers: forks read what
// the last Seal froze, what any side adds after stays its own, and a later
// Seal on one side changes nothing another side reads.
func TestMemoForksKeepOwnLayersApart(t *testing.T) {
	var m Memo[int, string]
	m.Put(1, "one")
	m.Seal()
	a, b := m.Fork(), m.Fork()
	a.Put(2, "a")
	b.Put(2, "b")
	m.Put(3, "parent")
	get := func(m *Memo[int, string], k int) string {
		v, ok := m.Get(k)
		if !ok {
			return "-"
		}
		return v
	}
	for _, c := range []struct {
		name string
		m    *Memo[int, string]
		want [3]string
	}{{"parent", &m, [3]string{"one", "-", "parent"}}, {"a", &a, [3]string{"one", "a", "-"}}, {"b", &b, [3]string{"one", "b", "-"}}} {
		for k := 1; k <= 3; k++ {
			if got := get(c.m, k); got != c.want[k-1] {
				t.Fatalf("%s: key %d = %q, want %q", c.name, k, got, c.want[k-1])
			}
		}
	}
	// A fork of a fork reads both of its parent's layers once they are
	// sealed; sealing the root again leaves the first fork's view as it was.
	a.Seal()
	aa := a.Fork()
	m.Seal()
	if get(&aa, 1) != "one" || get(&aa, 2) != "a" || get(&a, 3) != "-" {
		t.Fatalf("after re-seals: aa 1=%q 2=%q, a 3=%q", get(&aa, 1), get(&aa, 2), get(&a, 3))
	}
}

// TestCloneSiblingsKeepOwnGroupsApart: two clones of one sealed table both
// find the parent's canonical hop groups, but a group either canonicalises
// on its own lands in its own layer, which the sibling and the parent never
// see.
func TestCloneSiblingsKeepOwnGroupsApart(t *testing.T) {
	p, q := netpkt.MustParsePrefix("10.0.0.0/24"), netpkt.MustParsePrefix("10.0.1.0/24")
	old := []NextHop{{IP: 1, Interface: "et0"}}
	fresh := []NextHop{{IP: 3, Interface: "et2"}, {IP: 2, Interface: "et1"}}
	f := NewFIB()
	f.InstallHops(p, ProtoBGP, old)
	f.Seal()
	a, b := f.Clone(), f.Clone()
	group := func(f *FIB, p netpkt.Prefix) *NextHop {
		e, ok := f.Get(p)
		if !ok {
			t.Fatalf("%s not installed", p)
		}
		return &e.NextHops[0]
	}
	for _, c := range []*FIB{a, b} {
		c.InstallHops(q, ProtoBGP, old)
		if group(c, q) != group(f, p) {
			t.Fatal("a clone built its own copy of a group its parent holds")
		}
		c.InstallHops(q, ProtoBGP, fresh)
	}
	f.InstallHops(q, ProtoBGP, fresh)
	if ga, gb, gf := group(a, q), group(b, q), group(f, q); ga == gb || ga == gf || gb == gf {
		t.Fatal("a group one side canonicalised after the clone showed up on another side")
	}
}
