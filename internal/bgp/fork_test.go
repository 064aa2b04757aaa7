package bgp

import (
	"testing"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

// TestForkUpdateCopiesOnePage: a forked router that takes a one-prefix
// UPDATE copies the Loc-RIB entry it rewrites and the one 64-slot page of the
// entry vector that holds it, not the vector of 1,000 entries, and the
// router it was forked from reads on unchanged.
func TestForkUpdateCopiesOnePage(t *testing.T) {
	tbl := NewAttrTable()
	r := New(Config{Name: "r", AS: 65001, RouterID: 1}, sim.NewEngine(1), &testHooks{}, tbl)
	p := r.AddPeer(PeerConfig{Name: "n", LocalIP: 1, RemoteIP: 2, RemoteAS: 65002, Interface: "et0"})
	p.state = StateEstablished
	const n = 1000
	nlri := make([]netpkt.Prefix, n)
	for i := range nlri {
		nlri[i] = netpkt.Prefix{Addr: netpkt.IPFromBytes(100, 64, 0, 0) + netpkt.IP(i)<<8, Len: 24}
	}
	for i := 0; i < n; i += 250 {
		p.HandleMessage(MarshalUpdate(&Update{Attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65002)}, NextHop: 2, NLRI: nlri[i : i+250]}))
	}
	if r.LocRIB() != n {
		t.Fatalf("LocRIB = %d, want %d", r.LocRIB(), n)
	}
	r.Seal()
	tbl.Seal()

	f := r.Fork(sim.NewEngine(1), &testHooks{}, tbl.Fork())
	moved := nlri[500]
	f.Peer(0).HandleMessage(MarshalUpdate(&Update{Attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65002, 65100)}, NextHop: 2, NLRI: []netpkt.Prefix{moved}}))
	if entries, pages := f.Copies(); entries != 1 || pages != 1 {
		t.Fatalf("a one-prefix UPDATE copied %d entries and %d pages, want 1 and 1", entries, pages)
	}
	if a, _ := f.BestRoute(moved); a.Path.Length() != 2 {
		t.Fatalf("fork's best path for %v: %v", moved, a.Path)
	}
	if a, _ := r.BestRoute(moved); a.Path.Length() != 1 {
		t.Fatalf("the fork's UPDATE reached its parent: %v", a.Path)
	}
	if f.LocRIB() != n || r.LocRIB() != n {
		t.Fatalf("LocRIB after the fork's UPDATE: fork %d, parent %d, want %d", f.LocRIB(), r.LocRIB(), n)
	}
}
