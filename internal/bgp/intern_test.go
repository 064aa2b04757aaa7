package bgp

import (
	"sync"
	"testing"

	"crystalnet/internal/netpkt"
)

// tableSize counts the canonical objects and the wire-index entries t holds,
// in both layers.
func tableSize(t *AttrTable) (values, wire int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.frozen.m) + len(t.own.m), len(t.frozen.wire) + len(t.own.wire)
}

// oneASN returns a fresh, uninterned attribute set over the path {asn}.
func oneASN(asn uint32) *Attrs { return &Attrs{Origin: OriginIGP, Path: NewPath(asn)} }

// updateOver encodes an UPDATE for 10.0.0.0/8 over attrs, next hop 10.0.0.1.
func updateOver(attrs *Attrs) []byte {
	return MarshalUpdate(&Update{Attrs: attrs, NextHop: ip("10.0.0.1"), NLRI: []netpkt.Prefix{pfx("10.0.0.0/8")}})
}

// decodedAttrs decodes msg through tab and returns its attributes.
func decodedAttrs(t *testing.T, tab *AttrTable, msg []byte) *Attrs {
	t.Helper()
	d, err := decode(msg, tab)
	if err != nil {
		t.Fatal(err)
	}
	return d.Update.Attrs
}

func TestInternCanonicalizes(t *testing.T) {
	tab := NewAttrTable()
	mk := func() *Attrs {
		return &Attrs{Origin: OriginIGP, Path: NewPath(65001, 65002), NextHop: netpkt.IPFromBytes(10, 0, 0, 1)}
	}
	hits0, misses0, size0 := InternStats()
	a := tab.Intern(mk())
	b := tab.Intern(mk())
	if a != b {
		t.Fatalf("structurally equal attrs did not intern to one object")
	}
	if a.memo.ekey == "" || a.memo.wire == nil {
		t.Fatalf("interned attrs must have the memo filled")
	}
	hits, misses, size := InternStats()
	if hits-hits0 != 1 || misses-misses0 != 1 || size-size0 != 1 {
		t.Fatalf("stats: %d hits, %d misses, %d created; want 1/1/1", hits-hits0, misses-misses0, size-size0)
	}
	if n, _ := tableSize(tab); n != 1 {
		t.Fatalf("table holds %d objects, want 1", n)
	}
}

func TestInternDistinguishesAggID(t *testing.T) {
	// The wire-grouping fingerprint omits the AGGREGATOR router ID, but two
	// attribute sets differing only in AggID are different route attributes
	// and must not unify in the intern table.
	tab := NewAttrTable()
	mk := func(id netpkt.IP) *Attrs {
		return &Attrs{Origin: OriginIGP, Path: EmptyPath, AggAS: 65010, AggID: id}
	}
	a := tab.Intern(mk(netpkt.IPFromBytes(1, 1, 1, 1)))
	b := tab.Intern(mk(netpkt.IPFromBytes(2, 2, 2, 2)))
	if a == b {
		t.Fatalf("attrs differing only in AggID interned to one object")
	}
	if attrsKey(a) != attrsKey(b) {
		t.Fatalf("ekey should still group the two for UPDATE packing")
	}
}

// TestDecodeInternsUpdateAttrs: two decodes of one UPDATE through a table
// share its canonical object; the public Decode, which has no table, parses
// an equal object of its own every time and leaves every table alone.
func TestDecodeInternsUpdateAttrs(t *testing.T) {
	tab := NewAttrTable()
	wire := updateOver(&Attrs{Origin: OriginIGP, Path: NewPath(65100), NextHop: netpkt.IPFromBytes(10, 1, 2, 3)})
	a := decodedAttrs(t, tab, wire)
	if b := decodedAttrs(t, tab, wire); a != b {
		t.Fatalf("two decodes of the same UPDATE through one table allocated distinct attrs")
	}
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.Update.Attrs == a || !attrsEqual(d.Update.Attrs, a) {
		t.Fatalf("Decode: canonical %v, equal %v", d.Update.Attrs == a, attrsEqual(d.Update.Attrs, a))
	}
	if n, w := tableSize(tab); n != 1 || w != 1 {
		t.Fatalf("table holds %d objects and %d wire keys, want 1 and 1", n, w)
	}
}

// TestAttrTableForkSharesSealedObjects: a fork resolves every value its
// parent held at Seal — by value and from the wire — to the parent's
// canonical pointer, which is what the RIBs it shares hold.
func TestAttrTableForkSharesSealedObjects(t *testing.T) {
	parent := NewAttrTable()
	byValue := parent.Intern(oneASN(65001))
	fromWire := decodedAttrs(t, parent, updateOver(oneASN(65002)))
	parent.Seal()
	for i, fork := range []*AttrTable{parent.Fork(), parent.Fork()} {
		if fork.Intern(oneASN(65001)) != byValue {
			t.Fatalf("fork %d re-issued a sealed value", i)
		}
		_, misses0, _ := InternStats()
		if decodedAttrs(t, fork, updateOver(oneASN(65002))) != fromWire {
			t.Fatalf("fork %d decoded a sealed attribute list to a new object", i)
		}
		if _, misses, _ := InternStats(); misses != misses0 {
			t.Fatalf("fork %d missed its parent's wire index", i)
		}
		if n, w := tableSize(fork); n != 2 || w != 1 {
			t.Fatalf("fork %d holds %d objects and %d wire keys, want its parent's 2 and 1", i, n, w)
		}
	}
}

// TestAttrTableForksAreIsolated: what a fork adds its parent and its
// siblings never see, and what the parent adds after the checkpoint no fork
// already taken sees — each side has its own object for the value.
func TestAttrTableForksAreIsolated(t *testing.T) {
	parent := NewAttrTable()
	parent.Intern(oneASN(65001))
	parent.Seal()
	a, b := parent.Fork(), parent.Fork()

	fromA := a.Intern(oneASN(65100))
	if parent.Intern(oneASN(65100)) == fromA || b.Intern(oneASN(65100)) == fromA {
		t.Fatal("a fork's new entry reached its parent or a sibling")
	}
	wireA := decodedAttrs(t, a, updateOver(oneASN(65101)))
	if decodedAttrs(t, parent, updateOver(oneASN(65101))) == wireA || decodedAttrs(t, b, updateOver(oneASN(65101))) == wireA {
		t.Fatal("a fork's wire-index entry reached its parent or a sibling")
	}

	late := parent.Intern(oneASN(65200))
	if a.Intern(oneASN(65200)) == late || b.Intern(oneASN(65200)) == late {
		t.Fatal("the parent's entry added after the checkpoint reached a fork taken before it")
	}
	// A later checkpoint hands it to the forks taken from then on, and
	// leaves the earlier forks' view as it was.
	parent.Seal()
	if parent.Fork().Intern(oneASN(65200)) != late {
		t.Fatal("a fork taken after the second checkpoint re-issued a sealed value")
	}
	if n, _ := tableSize(a); n != 4 {
		t.Fatalf("the first fork holds %d objects, want 4 (1 sealed, 3 its own)", n)
	}
}

// TestAttrTableConcurrentInterning: the domain engines of a sharded
// emulation intern into their emulation's one table at once. N goroutines
// interning and decoding the same values in different orders over a sealed
// table come to one pointer per value (check.sh runs this under -race).
func TestAttrTableConcurrentInterning(t *testing.T) {
	const goroutines, values = 8, 200
	tab := NewAttrTable()
	for v := 0; v < values; v += 2 {
		tab.Intern(oneASN(uint32(65000 + v)))
	}
	tab.Seal()
	got := make([][]*Attrs, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*Attrs, values)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < values; i++ {
				v := (i*7 + g*31) % values
				if (i+g)%2 == 0 {
					got[g][v] = tab.Intern(oneASN(uint32(65000 + v)))
				} else if d, err := decode(updateOver(oneASN(uint32(65000+v))), tab); err == nil {
					got[g][v] = d.Update.Attrs
				}
			}
		}()
	}
	wg.Wait()
	for v := 0; v < values; v++ {
		for g := range got {
			if got[g][v] == nil || got[g][v] != got[0][v] {
				t.Fatalf("value %d: goroutine %d got %p, goroutine 0 got %p", v, g, got[g][v], got[0][v])
			}
		}
		if want := NewPath(uint32(65000 + v)); !got[0][v].Path.Equal(want) {
			t.Fatalf("value %d resolved to path %s, want %s", v, got[0][v].Path, want)
		}
	}
	if n, _ := tableSize(tab); n != values {
		t.Fatalf("table holds %d objects for %d values", n, values)
	}
}
