package bgp

import (
	"testing"

	"crystalnet/internal/netpkt"
)

// resetInternTable empties the process-wide intern table and zeroes its
// counters, so a test's hit/miss/size assertions start from a known state.
func resetInternTable() {
	internTab.Lock()
	internTab.m = make(map[internKey]*Attrs)
	internTab.wire = make(map[string]*Attrs)
	internSize.Store(0)
	internHits.Store(0)
	internMisses.Store(0)
	internTab.Unlock()
}

func TestInternCanonicalizes(t *testing.T) {
	resetInternTable()

	mk := func() *Attrs {
		return &Attrs{Origin: OriginIGP, Path: NewPath(65001, 65002), NextHop: netpkt.IPFromBytes(10, 0, 0, 1)}
	}
	a := Intern(mk())
	b := Intern(mk())
	if a != b {
		t.Fatalf("structurally equal attrs did not intern to one object")
	}
	if a.memo.ekey == "" || a.memo.wire == nil {
		t.Fatalf("interned attrs must have the memo filled")
	}
	hits, misses, size := InternStats()
	if hits == 0 || misses == 0 || size == 0 {
		t.Fatalf("stats not accounted: hits=%d misses=%d size=%d", hits, misses, size)
	}
}

func TestInternDistinguishesAggID(t *testing.T) {
	// The wire-grouping fingerprint omits the AGGREGATOR router ID, but two
	// attribute sets differing only in AggID are different route attributes
	// and must not unify in the intern table.
	resetInternTable()

	mk := func(id netpkt.IP) *Attrs {
		return &Attrs{Origin: OriginIGP, Path: EmptyPath, AggAS: 65010, AggID: id}
	}
	a := Intern(mk(netpkt.IPFromBytes(1, 1, 1, 1)))
	b := Intern(mk(netpkt.IPFromBytes(2, 2, 2, 2)))
	if a == b {
		t.Fatalf("attrs differing only in AggID interned to one object")
	}
	if attrsKey(a) != attrsKey(b) {
		t.Fatalf("ekey should still group the two for UPDATE packing")
	}
}

func TestDecodeInternsUpdateAttrs(t *testing.T) {
	resetInternTable()

	attrs := &Attrs{Origin: OriginIGP, Path: NewPath(65100), NextHop: netpkt.IPFromBytes(10, 1, 2, 3)}
	wire := MarshalUpdate(&Update{Attrs: attrs, NLRI: []netpkt.Prefix{{Addr: netpkt.IPFromBytes(10, 9, 0, 0), Len: 16}}})
	d1, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Update.Attrs != d2.Update.Attrs {
		t.Fatalf("two decodes of the same UPDATE allocated distinct attrs")
	}
}
