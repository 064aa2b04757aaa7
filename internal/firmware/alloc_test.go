//go:build !race && !crystaldebug

package firmware

import (
	"testing"

	"crystalnet/internal/bgp"
	"crystalnet/internal/netpkt"
)

// TestAllocBudgetFrameDelivery: once a BGP message is encoded behind the
// frame headroom (one buffer, the only allocation a flush makes per message:
// bgp's TestAllocBudgetFlush), everything up to and including the receiver's
// HandleMessage allocates nothing — the IPv4 and Ethernet headers written in
// place, the VXLAN encap and decap in the same buffer, the delivery queued on
// the link's lane, the received message queued on the device's lane for the
// VM core it is charged to, and the decode of a short UPDATE on the
// receiver's stack. The UPDATE re-announces a route the receiver holds, so
// its RIB has nothing to do. (The race detector and crystaldebug allocate on
// their own account; this builds without either.)
func TestAllocBudgetFrameDelivery(t *testing.T) {
	p := newVMPair(t)
	route := netpkt.MustParsePrefix("100.64.0.0/24")
	attrs, ok := p.b.bgp.BestRoute(route)
	if !ok {
		t.Fatal("b has no route to a's servers")
	}
	peer := p.a.bgp.Peers()[0]
	frame := framed(bgp.MarshalUpdate(&bgp.Update{Attrs: attrs, NextHop: p.a.ifaceAddr[p.a.peerIface[peer.Index]].Addr, NLRI: []netpkt.Prefix{route}}))
	msgsIn, lastChange := p.b.bgp.Peers()[0].MsgsIn, p.b.LastFIBChange
	deliver := func() {
		p.a.sendBGP(peer.Index, frame)
		p.eng.Run(0)
	}
	deliver()
	if got := testing.AllocsPerRun(1000, deliver); got != 0 {
		t.Errorf("delivering a framed UPDATE to HandleMessage allocates %.1f times, want 0", got)
	}
	if in := p.b.bgp.Peers()[0].MsgsIn - msgsIn; in != 1002 || p.b.LastFIBChange != lastChange {
		t.Fatalf("b handled %d of 1002 messages (FIB changed: %v)", in, p.b.LastFIBChange != lastChange)
	}
	if p.fabric.EncapFrames == 0 {
		t.Fatal("the pair's frames did not cross the underlay")
	}
}
