package ospf

import (
	"testing"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

func ip(s string) netpkt.IP      { return netpkt.MustParseIP(s) }
func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

// ---- codec tests ----

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{
		Router: ip("10.0.0.1"), Priority: 5,
		DR: ip("10.0.0.9"), BDR: ip("10.0.0.8"),
		Neighbors: []RouterID{ip("10.0.0.2"), ip("10.0.0.3")},
	}
	d, err := DecodePacket(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != PktHello || d.Router != h.Router {
		t.Fatalf("header mismatch: %+v", d)
	}
	g := d.Hello
	if g.Priority != 5 || g.DR != h.DR || g.BDR != h.BDR || len(g.Neighbors) != 2 ||
		g.Neighbors[0] != h.Neighbors[0] || g.Neighbors[1] != h.Neighbors[1] {
		t.Fatalf("hello mismatch: %+v", g)
	}
}

func TestLSUpdateRoundTrip(t *testing.T) {
	lsas := []*LSA{
		{
			Type: LSARouter, ID: ip("10.0.0.1"), Adv: ip("10.0.0.1"), Seq: 7,
			Links: []Link{
				{Type: LinkP2P, ID: ip("10.0.0.2"), Data: uint32(ip("10.128.0.0")), Cost: 10},
				{Type: LinkStub, ID: ip("10.9.0.0"), Data: 24, Cost: 1},
			},
		},
		{
			Type: LSANetwork, ID: ip("10.200.0.0"), Adv: ip("10.0.0.1"), Seq: 3,
			MaskLen: 24, Attached: []RouterID{ip("10.0.0.1"), ip("10.0.0.2")},
		},
	}
	d, err := DecodePacket(MarshalLSUpdate(ip("10.0.0.1"), lsas))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.LSAs) != 2 {
		t.Fatalf("LSAs = %d", len(d.LSAs))
	}
	r := d.LSAs[0]
	if r.Type != LSARouter || r.Seq != 7 || len(r.Links) != 2 || r.Links[1].Data != 24 {
		t.Fatalf("router LSA mismatch: %+v", r)
	}
	n := d.LSAs[1]
	if n.Type != LSANetwork || n.MaskLen != 24 || len(n.Attached) != 2 {
		t.Fatalf("network LSA mismatch: %+v", n)
	}
	if r.Key() == n.Key() {
		t.Fatal("keys must differ")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodePacket([]byte{1, 2}); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	b := MarshalHello(&Hello{Router: 1})
	b[0] = 3
	if _, err := DecodePacket(b); err == nil {
		t.Fatal("bad version accepted")
	}
	b = MarshalHello(&Hello{Router: 1})
	b[1] = 99
	if _, err := DecodePacket(b); err == nil {
		t.Fatal("bad type accepted")
	}
}

// ---- harness: instances over a simulated fabric ----

// onode is one instance on the test fabric, and its Hooks.
type onode struct {
	name string
	net  *onet
	in   *Instance
	fib  map[netpkt.Prefix][]rib.NextHop
	// wires[i] maps local iface i to the segment it attaches to.
	wires []*segment
}

func (nd *onode) Send(ifaceIdx int, dst RouterID, data []byte) {
	for _, m := range nd.wires[ifaceIdx].members {
		if m.node == nd || dst != 0 && m.rid != dst {
			continue
		}
		nd.net.eng.After(time.Millisecond, func() {
			m.node.in.HandlePacket(m.iface, data)
		})
	}
}

func (nd *onode) InstallRoute(p netpkt.Prefix, nhs []rib.NextHop) error {
	nd.fib[p] = nhs
	return nil
}

func (nd *onode) RemoveRoute(p netpkt.Prefix) { delete(nd.fib, p) }

func (nd *onode) Logf(string, ...any) {}

type segment struct {
	// members: (node, ifaceIdx, router ID)
	members []segMember
}

type segMember struct {
	node  *onode
	iface int
	rid   RouterID
}

type onet struct {
	t     *testing.T
	eng   *sim.Engine
	nodes map[string]*onode
}

func newOnet(t *testing.T) *onet {
	return &onet{t: t, eng: sim.NewEngine(1), nodes: map[string]*onode{}}
}

func (n *onet) add(name string, rid string) *onode {
	nd := &onode{name: name, net: n, fib: map[netpkt.Prefix][]rib.NextHop{}}
	nd.in = New(Config{Name: name, RouterID: ip(rid)}, n.eng, nd)
	nd.in.AddStub(netpkt.Prefix{Addr: ip(rid), Len: 32})
	n.nodes[name] = nd
	return nd
}

var osubnet uint32 = 0x0A800000 // 10.128.0.0, /31 or /24 carved sequentially

// p2p joins two nodes with a /31.
func (n *onet) p2p(aName, bName string, cost uint16) {
	a, b := n.nodes[aName], n.nodes[bName]
	base := netpkt.IP(osubnet)
	osubnet += 256
	seg := &segment{}
	ai := a.in.AddInterface(IfaceConfig{Name: ifname(len(a.wires)), Addr: netpkt.Prefix{Addr: base, Len: 31}, Type: P2P, Cost: cost})
	bi := b.in.AddInterface(IfaceConfig{Name: ifname(len(b.wires)), Addr: netpkt.Prefix{Addr: base + 1, Len: 31}, Type: P2P, Cost: cost})
	seg.members = []segMember{
		{node: a, iface: ai, rid: a.in.cfg.RouterID},
		{node: b, iface: bi, rid: b.in.cfg.RouterID},
	}
	a.wires = append(a.wires, seg)
	b.wires = append(b.wires, seg)
}

// lan joins several nodes on one broadcast /24.
func (n *onet) lan(names []string, prios []uint8) {
	base := netpkt.IP(osubnet)
	osubnet += 256
	seg := &segment{}
	for i, name := range names {
		nd := n.nodes[name]
		addr := base + netpkt.IP(i) + 1
		idx := nd.in.AddInterface(IfaceConfig{
			Name: ifname(len(nd.wires)), Addr: netpkt.Prefix{Addr: addr, Len: 24},
			Type: Broadcast, Cost: 10, Priority: prios[i],
		})
		seg.members = append(seg.members, segMember{node: nd, iface: idx, rid: nd.in.cfg.RouterID})
		nd.wires = append(nd.wires, seg)
	}
}

func ifname(i int) string { return []string{"et0", "et1", "et2", "et3", "et4", "et5"}[i] }

func (n *onet) start() {
	for _, nd := range n.nodes {
		nd.in.Start()
	}
	if _, err := n.eng.Run(500_000); err != nil {
		n.t.Fatalf("ospf did not converge: %v", err)
	}
}

// ---- behaviour tests ----

func TestP2PAdjacencyAndRoute(t *testing.T) {
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	b := n.add("b", "10.0.0.2")
	n.p2p("a", "b", 10)
	n.start()

	// Each learns the other's loopback.
	if hops, ok := a.fib[pfx("10.0.0.2/32")]; !ok || len(hops) != 1 {
		t.Fatalf("a FIB: %v", a.fib)
	}
	if _, ok := b.fib[pfx("10.0.0.1/32")]; !ok {
		t.Fatalf("b FIB: %v", b.fib)
	}
	// LSDBs are synchronized.
	if len(a.in.lsdb) != len(b.in.lsdb) {
		t.Fatalf("LSDB sizes differ: %d vs %d", len(a.in.lsdb), len(b.in.lsdb))
	}
}

func TestLineTopologyTransit(t *testing.T) {
	// a - b - c: a must reach c's loopback via b.
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	n.add("b", "10.0.0.2")
	c := n.add("c", "10.0.0.3")
	n.p2p("a", "b", 10)
	n.p2p("b", "c", 10)
	n.start()

	hops, ok := a.fib[pfx("10.0.0.3/32")]
	if !ok || len(hops) != 1 {
		t.Fatalf("a cannot reach c: %v", a.fib)
	}
	if hops[0].Interface != "et0" {
		t.Fatalf("wrong egress: %+v", hops)
	}
	// c's p2p subnet to b is also known to a.
	found := false
	for p := range a.fib {
		if p.Len == 31 && p.Contains(hops[0].IP) == false {
			found = true
		}
	}
	if !found {
		t.Fatalf("remote p2p stub missing from a's table: %v", a.fib)
	}
	if _, ok := c.fib[pfx("10.0.0.1/32")]; !ok {
		t.Fatal("reverse direction broken")
	}
}

func TestCostAffectsPathChoice(t *testing.T) {
	// a-b cost 100 direct; a-c-b cost 10+10: SPF must go via c.
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	n.add("b", "10.0.0.2")
	n.add("c", "10.0.0.3")
	n.p2p("a", "b", 100)
	n.p2p("a", "c", 10)
	n.p2p("c", "b", 10)
	n.start()

	hops := a.fib[pfx("10.0.0.2/32")]
	if len(hops) != 1 || hops[0].Interface != "et1" {
		t.Fatalf("a routes to b via %v, want via c (et1)", hops)
	}
}

func TestECMPEqualCost(t *testing.T) {
	// a reaches d via b and c at equal cost.
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	n.add("b", "10.0.0.2")
	n.add("c", "10.0.0.3")
	n.add("d", "10.0.0.4")
	n.p2p("a", "b", 10)
	n.p2p("a", "c", 10)
	n.p2p("b", "d", 10)
	n.p2p("c", "d", 10)
	n.start()

	hops := a.fib[pfx("10.0.0.4/32")]
	if len(hops) != 2 {
		t.Fatalf("ECMP hops = %v, want 2", hops)
	}
}

func TestDRBDRElection(t *testing.T) {
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	b := n.add("b", "10.0.0.2")
	c := n.add("c", "10.0.0.3")
	n.lan([]string{"a", "b", "c"}, []uint8{1, 1, 1})
	n.start()

	// Highest router ID wins with equal priorities: c is DR, b is BDR.
	for _, nd := range []*onode{a, b, c} {
		i := nd.in.ifaces[0]
		if i.dr != ip("10.0.0.3") {
			t.Fatalf("%s sees DR=%v, want c", nd.name, i.dr)
		}
		if i.bdr != ip("10.0.0.2") {
			t.Fatalf("%s sees BDR=%v, want b", nd.name, i.bdr)
		}
	}
	// Routes across the LAN: a reaches b and c loopbacks.
	if _, ok := a.fib[pfx("10.0.0.2/32")]; !ok {
		t.Fatalf("a missing b loopback: %v", a.fib)
	}
	if _, ok := a.fib[pfx("10.0.0.3/32")]; !ok {
		t.Fatal("a missing c loopback")
	}
}

func TestElectionPriorityWins(t *testing.T) {
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	n.add("b", "10.0.0.2")
	n.add("c", "10.0.0.3")
	n.lan([]string{"a", "b", "c"}, []uint8{10, 1, 1}) // a has top priority
	n.start()
	if a.in.ifaces[0].dr != ip("10.0.0.1") {
		t.Fatalf("DR = %v, want a (priority 10)", a.in.ifaces[0].dr)
	}
}

func TestPriorityZeroNeverDR(t *testing.T) {
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	n.add("b", "10.0.0.2")
	n.lan([]string{"a", "b"}, []uint8{0, 1})
	n.start()
	if dr := a.in.ifaces[0].dr; dr != ip("10.0.0.2") {
		t.Fatalf("DR = %v, want b (a has priority 0)", dr)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	// Square: a-b, b-d, a-c, c-d. Fail a-b; a must reroute to d via c.
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	b := n.add("b", "10.0.0.2")
	n.add("c", "10.0.0.3")
	n.add("d", "10.0.0.4")
	n.p2p("a", "b", 1) // preferred
	n.p2p("b", "d", 1)
	n.p2p("a", "c", 10)
	n.p2p("c", "d", 10)
	n.start()

	if hops := a.fib[pfx("10.0.0.4/32")]; len(hops) != 1 || hops[0].Interface != "et0" {
		t.Fatalf("setup: a to d = %v, want via b", hops)
	}
	// Fail the a-b link on both ends.
	a.in.InterfaceDown(0)
	b.in.InterfaceDown(0)
	if _, err := n.eng.Run(500_000); err != nil {
		t.Fatal(err)
	}
	hops := a.fib[pfx("10.0.0.4/32")]
	if len(hops) != 1 || hops[0].Interface != "et1" {
		t.Fatalf("after failure a to d = %v, want via c (et1)", hops)
	}
	// b's loopback is still reachable the long way.
	if _, ok := a.fib[pfx("10.0.0.2/32")]; !ok {
		t.Fatal("b unreachable after single link failure")
	}
}

func TestInterfaceUpRestores(t *testing.T) {
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	b := n.add("b", "10.0.0.2")
	n.p2p("a", "b", 1)
	n.start()
	a.in.InterfaceDown(0)
	b.in.InterfaceDown(0)
	n.eng.Run(500_000)
	if _, ok := a.fib[pfx("10.0.0.2/32")]; ok {
		t.Fatal("route survived link failure")
	}
	a.in.InterfaceUp(0)
	b.in.InterfaceUp(0)
	n.eng.Run(500_000)
	if _, ok := a.fib[pfx("10.0.0.2/32")]; !ok {
		t.Fatal("route not restored after interface up")
	}
}

func TestStubPrefixPropagation(t *testing.T) {
	n := newOnet(t)
	a := n.add("a", "10.0.0.1")
	b := n.add("b", "10.0.0.2")
	b.in.AddStub(pfx("100.64.7.0/24"))
	n.p2p("a", "b", 10)
	n.start()
	if _, ok := a.fib[pfx("100.64.7.0/24")]; !ok {
		t.Fatalf("stub prefix not learned: %v", a.fib)
	}
	// Local stubs are never self-installed.
	if _, ok := b.fib[pfx("100.64.7.0/24")]; ok {
		t.Fatal("local stub installed into own FIB")
	}
}
