package bgp

import (
	"fmt"
	"testing"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// ---- test harness: routers wired over a simulated message fabric ----

type simClock struct{ e *sim.Engine }

func (c simClock) After(d time.Duration, fn func()) Timer { return c.e.After(d, fn) }

type tnode struct {
	name string
	r    *Router
	fib  map[netpkt.Prefix][]rib.NextHop
	// peerWire[i] = delivery function towards the remote end of peer i.
	peerWire   []func(data []byte)
	installErr error // injected FIB error
}

type tnet struct {
	t     *testing.T
	eng   *sim.Engine
	nodes map[string]*tnode
	delay time.Duration
}

func newTnet(t *testing.T) *tnet {
	return &tnet{t: t, eng: sim.NewEngine(1), nodes: map[string]*tnode{}, delay: time.Millisecond}
}

func (n *tnet) add(name string, as uint32, mutate func(*Config)) *tnode {
	cfg := Config{
		Name: name, AS: as,
		RouterID: netpkt.IPFromBytes(10, 0, byte(len(n.nodes)), 1),
		MaxPaths: 8,
		MRAI:     10 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	nd := &tnode{name: name, fib: map[netpkt.Prefix][]rib.NextHop{}}
	nd.r = New(cfg, simClock{n.eng}, Hooks{
		SendToPeer: func(i int, frame []byte) {
			wire, msg := nd.peerWire[i], frame[netpkt.FrameHeadroom:]
			n.eng.After(n.delay, func() { wire(msg) })
		},
		InstallRoute: func(p netpkt.Prefix, nhs []rib.NextHop) error {
			if nd.installErr != nil {
				return nd.installErr
			}
			nd.fib[p] = append([]rib.NextHop(nil), nhs...)
			return nil
		},
		RemoveRoute: func(p netpkt.Prefix) { delete(nd.fib, p) },
	})
	n.nodes[name] = nd
	return nd
}

var linkCount int

// connect wires an eBGP session between a and b and starts both ends.
func (n *tnet) connect(aName, bName string, policies ...*Policy) (pa, pb *Peer) {
	a, b := n.nodes[aName], n.nodes[bName]
	linkCount++
	aIP := netpkt.IPFromBytes(10, 128, byte(linkCount), 0)
	bIP := aIP + 1
	var expPolA, expPolB *Policy
	if len(policies) > 0 {
		expPolA = policies[0]
	}
	if len(policies) > 1 {
		expPolB = policies[1]
	}
	pa = a.r.AddPeer(PeerConfig{
		Name: bName, LocalIP: aIP, RemoteIP: bIP, RemoteAS: b.r.cfg.AS,
		Interface: fmt.Sprintf("et%d", len(a.peerWire)), ExportPolicy: expPolA,
	})
	pb = b.r.AddPeer(PeerConfig{
		Name: aName, LocalIP: bIP, RemoteIP: aIP, RemoteAS: a.r.cfg.AS,
		Interface: fmt.Sprintf("et%d", len(b.peerWire)), ExportPolicy: expPolB,
	})
	a.peerWire = append(a.peerWire, func(data []byte) { pb.HandleMessage(data) })
	b.peerWire = append(b.peerWire, func(data []byte) { pa.HandleMessage(data) })
	pa.Start()
	pb.Start()
	return pa, pb
}

func (n *tnet) run() {
	if _, err := n.eng.Run(2_000_000); err != nil {
		n.t.Fatalf("simulation did not converge: %v", err)
	}
}

// ---- session establishment ----

func TestSessionEstablishment(t *testing.T) {
	n := newTnet(t)
	n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	pa, pb := n.connect("a", "b")
	n.run()
	if pa.State() != StateEstablished || pb.State() != StateEstablished {
		t.Fatalf("states = %v / %v", pa.State(), pb.State())
	}
	if pa.remoteID != n.nodes["b"].r.cfg.RouterID {
		t.Fatal("remote ID not learned")
	}
}

func TestASMismatchResetsSession(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	// a expects the wrong AS for b.
	pa := a.r.AddPeer(PeerConfig{Name: "b", LocalIP: 1, RemoteIP: 2, RemoteAS: 64999, Interface: "et0"})
	pb := b.r.AddPeer(PeerConfig{Name: "a", LocalIP: 2, RemoteIP: 1, RemoteAS: 65001, Interface: "et0"})
	a.peerWire = append(a.peerWire, func(d []byte) { n.eng.After(0, func() { pb.HandleMessage(d) }) })
	b.peerWire = append(b.peerWire, func(d []byte) { n.eng.After(0, func() { pa.HandleMessage(d) }) })
	pa.Start()
	pb.Start()
	n.run()
	if pa.State() == StateEstablished || pb.State() == StateEstablished {
		t.Fatal("session with AS mismatch established")
	}
}

func TestPassivePeerEstablishes(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	pa := a.r.AddPeer(PeerConfig{Name: "b", LocalIP: 1, RemoteIP: 2, RemoteAS: 65002, Interface: "et0"})
	pb := b.r.AddPeer(PeerConfig{Name: "a", LocalIP: 2, RemoteIP: 1, RemoteAS: 65001, Interface: "et0", Passive: true})
	a.peerWire = append(a.peerWire, func(d []byte) { n.eng.After(0, func() { pb.HandleMessage(d) }) })
	b.peerWire = append(b.peerWire, func(d []byte) { n.eng.After(0, func() { pa.HandleMessage(d) }) })
	pb.Start() // passive: stays idle
	if pb.State() != StateIdle {
		t.Fatal("passive peer should stay Idle")
	}
	pa.Start()
	n.run()
	if pa.State() != StateEstablished || pb.State() != StateEstablished {
		t.Fatalf("states = %v / %v", pa.State(), pb.State())
	}
}

// ---- route propagation ----

func TestRoutePropagationTwoHops(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	c := n.add("c", 65003, nil)
	n.connect("a", "b")
	pbc, _ := n.connect("b", "c")
	n.run()

	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()

	// b learned it from a with path {65001}.
	attrs, ok := b.r.BestRoute(p)
	if !ok {
		t.Fatal("b did not learn route")
	}
	if attrs.Path.String() != "65001" {
		t.Fatalf("b path = %q", attrs.Path)
	}
	// c learned it via b with path {65002 65001} and b's next-hop-self.
	attrs, ok = c.r.BestRoute(p)
	if !ok {
		t.Fatal("c did not learn route")
	}
	if attrs.Path.String() != "65002 65001" {
		t.Fatalf("c path = %q", attrs.Path)
	}
	// RIB-resident attrs are session-independent (next-hop rides the wire
	// message, not the canonical attribute object).
	if attrs.NextHop != 0 {
		t.Fatalf("c RIB attrs carry a next hop (%v); want session-independent attrs", attrs.NextHop)
	}
	// c's FIB has the route.
	if hops := c.fib[p]; len(hops) != 1 || hops[0].IP != pbc.Config.LocalIP {
		t.Fatalf("c FIB = %v", c.fib[p])
	}
	// a must NOT have its own route echoed back into its FIB.
	if _, echoed := a.fib[p]; echoed {
		t.Fatal("origin got its own route installed via peer")
	}
}

func TestWithdrawalPropagates(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	c := n.add("c", 65003, nil)
	n.add("b", 65002, nil)
	n.connect("a", "b")
	n.connect("b", "c")
	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()
	if _, ok := c.r.BestRoute(p); !ok {
		t.Fatal("setup: c missing route")
	}
	a.r.WithdrawLocal(p)
	n.run()
	if _, ok := c.r.BestRoute(p); ok {
		t.Fatal("withdrawal did not propagate to c")
	}
	if _, ok := c.fib[p]; ok {
		t.Fatal("stale FIB entry on c")
	}
}

func TestLoopPrevention(t *testing.T) {
	// Ring a-b-c-a: updates must not cycle forever (the Run event cap
	// catches livelock) and each router holds at most the two useful paths.
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	c := n.add("c", 65003, nil)
	n.connect("a", "b")
	n.connect("b", "c")
	n.connect("c", "a")
	p := pfx("100.64.9.0/24")
	a.r.Originate(p)
	n.run()
	for _, nd := range []*tnode{b, c} {
		attrs, ok := nd.r.BestRoute(p)
		if !ok {
			t.Fatalf("%s missing route", nd.name)
		}
		if attrs.Path.Length() != 1 {
			t.Fatalf("%s best path %q, want direct", nd.name, attrs.Path)
		}
		if attrs.Path.Contains(nd.r.cfg.AS) {
			t.Fatalf("%s accepted looped path %q", nd.name, attrs.Path)
		}
	}
}

func TestSameASPeersDoNotExchangeLoopedRoutes(t *testing.T) {
	// Two spines in the same AS behind a common leaf: leaf must not relay
	// spine1's routes to spine2 (sender-side check), and spines discard
	// paths containing their own AS (receiver-side check).
	n := newTnet(t)
	s1 := n.add("spine1", 65100, nil)
	n.add("spine2", 65100, nil)
	leaf := n.add("leaf", 65201, nil)
	n.connect("spine1", "leaf")
	n.connect("spine2", "leaf")
	p := pfx("100.64.1.0/24")
	s1.r.Originate(p)
	n.run()
	if _, ok := leaf.r.BestRoute(p); !ok {
		t.Fatal("leaf missing route")
	}
	s2 := n.nodes["spine2"]
	if _, ok := s2.r.BestRoute(p); ok {
		t.Fatal("spine2 received a route that would loop through AS 65100")
	}
}

func TestECMPMultipath(t *testing.T) {
	// d reaches a's prefix via b and c with equal-length paths -> 2 next hops.
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	n.add("c", 65003, nil)
	d := n.add("d", 65004, nil)
	n.connect("a", "b")
	n.connect("a", "c")
	pdb, _ := n.connect("d", "b")
	pdc, _ := n.connect("d", "c")
	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()

	hops := d.fib[p]
	if len(hops) != 2 {
		t.Fatalf("d FIB hops = %v, want ECMP pair", hops)
	}
	ips := map[netpkt.IP]bool{hops[0].IP: true, hops[1].IP: true}
	if !ips[pdb.Config.RemoteIP] || !ips[pdc.Config.RemoteIP] {
		t.Fatalf("hops %v do not match b/c session IPs", hops)
	}
}

func TestMaxPathsOneDisablesECMP(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	n.add("c", 65003, nil)
	d := n.add("d", 65004, func(c *Config) { c.MaxPaths = 1 })
	n.connect("a", "b")
	n.connect("a", "c")
	n.connect("d", "b")
	n.connect("d", "c")
	a.r.Originate(pfx("100.64.0.0/24"))
	n.run()
	if hops := d.fib[pfx("100.64.0.0/24")]; len(hops) != 1 {
		t.Fatalf("MaxPaths=1 FIB hops = %v", hops)
	}
}

// ---- decision process ----

func TestDecisionShorterPathWins(t *testing.T) {
	// d: direct path via b (len 2) vs via c-e (len 3).
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	n.add("c", 65003, nil)
	n.add("e", 65005, nil)
	d := n.add("d", 65004, nil)
	n.connect("a", "b")
	n.connect("a", "e")
	n.connect("e", "c")
	pdb, _ := n.connect("d", "b")
	n.connect("d", "c")
	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()
	attrs, ok := d.r.BestRoute(p)
	if !ok || attrs.Path.String() != "65002 65001" {
		t.Fatalf("best path = %v", attrs)
	}
	if hops := d.fib[p]; len(hops) != 1 || hops[0].IP != pdb.Config.RemoteIP {
		t.Fatalf("FIB = %v, want single hop via b", d.fib[p])
	}
}

func TestDecisionLocalPrefBeatsPathLength(t *testing.T) {
	// Import policy on the long path sets LP 200, overriding length.
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	n.add("c", 65003, nil)
	n.add("e", 65005, nil)
	d := n.add("d", 65004, nil)
	n.connect("a", "b")
	n.connect("a", "e")
	n.connect("e", "c")
	n.connect("d", "b")

	// d's session to c carries an import policy raising LOCAL_PREF.
	dn, cn := n.nodes["d"], n.nodes["c"]
	linkCount++
	dIP := netpkt.IPFromBytes(10, 128, byte(linkCount), 0)
	cIP := dIP + 1
	pdc := dn.r.AddPeer(PeerConfig{
		Name: "c", LocalIP: dIP, RemoteIP: cIP, RemoteAS: 65003, Interface: "etX",
		ImportPolicy: &Policy{Rules: []Rule{{Action: Permit, SetLocalPref: u32(200)}}},
	})
	pcd := cn.r.AddPeer(PeerConfig{Name: "d", LocalIP: cIP, RemoteIP: dIP, RemoteAS: 65004, Interface: "etX"})
	dn.peerWire = append(dn.peerWire, func(data []byte) { n.eng.After(n.delay, func() { pcd.HandleMessage(data) }) })
	cn.peerWire = append(cn.peerWire, func(data []byte) { n.eng.After(n.delay, func() { pdc.HandleMessage(data) }) })
	pdc.Start()
	pcd.Start()

	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()
	attrs, ok := d.r.BestRoute(p)
	if !ok {
		t.Fatal("no route")
	}
	if attrs.EffectiveLocalPref() != 200 || attrs.Path.Length() != 3 {
		t.Fatalf("LP did not win: %v", attrs)
	}
}

func TestDecisionOriginAndMED(t *testing.T) {
	r := New(Config{Name: "x", AS: 65000, MaxPaths: 1}, nil, Hooks{})
	p1 := r.AddPeer(PeerConfig{Name: "p1", RemoteAS: 65001, RemoteIP: 1, Interface: "et0"})
	p2 := r.AddPeer(PeerConfig{Name: "p2", RemoteAS: 65001, RemoteIP: 2, Interface: "et1"})
	p1.remoteID, p2.remoteID = 10, 20

	igp := &candidate{peerIdx: int32(p1.Index), attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65001)}}
	egp := &candidate{peerIdx: int32(p2.Index), attrs: &Attrs{Origin: OriginEGP, Path: NewPath(65001)}}
	if !r.better(igp, egp) || r.better(egp, igp) {
		t.Fatal("IGP origin must beat EGP")
	}

	med5 := &candidate{peerIdx: int32(p1.Index), attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65001), MED: 5, HasMED: true}}
	med9 := &candidate{peerIdx: int32(p2.Index), attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65001), MED: 9, HasMED: true}}
	if !r.better(med5, med9) || r.better(med9, med5) {
		t.Fatal("lower MED must win within same neighbor AS")
	}

	// Different neighbor AS: MED not compared; falls to router ID.
	medOther := &candidate{peerIdx: int32(p2.Index), attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65002), MED: 1, HasMED: true}}
	if !r.better(med5, medOther) {
		t.Fatal("router-ID tiebreak should pick p1 (lower ID)")
	}
}

// ---- session teardown / flap ----

func TestSessionStopWithdrawsRoutes(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	c := n.add("c", 65003, nil)
	pab, pba := n.connect("a", "b")
	n.connect("b", "c")
	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()
	if _, ok := c.r.BestRoute(p); !ok {
		t.Fatal("setup failed")
	}

	// Link a-b dies: both ends reset.
	pab.Stop("link down")
	pba.Stop("link down")
	n.run()
	if _, ok := b.r.BestRoute(p); ok {
		t.Fatal("b kept route after session loss")
	}
	if _, ok := c.r.BestRoute(p); ok {
		t.Fatal("withdrawal did not reach c")
	}
	if pab.State() != StateIdle {
		t.Fatal("peer not idle after stop")
	}
}

func TestSessionReestablishResendsRoutes(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	pab, pba := n.connect("a", "b")
	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()
	pab.Stop("flap")
	pba.Stop("flap")
	n.run()
	if _, ok := b.r.BestRoute(p); ok {
		t.Fatal("route survived flap")
	}
	pab.Start()
	pba.Start()
	n.run()
	if _, ok := b.r.BestRoute(p); !ok {
		t.Fatal("route not re-learned after re-establish")
	}
}

// ---- policies on sessions ----

func TestExportPolicyFiltersRoutes(t *testing.T) {
	blocked := pfx("100.64.1.0/24")
	pol := &Policy{
		Rules:         []Rule{{Match: Match{Prefix: &blocked, Exact: true}, Action: Deny}},
		DefaultAction: Permit,
	}
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	n.connect("a", "b", pol, nil) // a's export policy
	a.r.Originate(blocked)
	a.r.Originate(pfx("100.64.2.0/24"))
	n.run()
	if _, ok := b.r.BestRoute(blocked); ok {
		t.Fatal("export deny leaked")
	}
	if _, ok := b.r.BestRoute(pfx("100.64.2.0/24")); !ok {
		t.Fatal("permitted route missing")
	}
}

func TestExportPolicyChangeTriggersWithdraw(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	pab, _ := n.connect("a", "b")
	p := pfx("100.64.1.0/24")
	a.r.Originate(p)
	n.run()
	if _, ok := b.r.BestRoute(p); !ok {
		t.Fatal("setup failed")
	}
	// Operator applies a deny-all export policy and the router re-flushes.
	pab.SetExportPolicy(DenyAll)
	n.run()
	if _, ok := b.r.BestRoute(p); ok {
		t.Fatal("route not withdrawn after policy change")
	}
}

// ---- FIB interaction ----

func TestFIBInstallErrorKeepsRIB(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	c := n.add("c", 65003, nil)
	n.connect("a", "b")
	n.connect("b", "c")
	b.installErr = rib.ErrFull
	p := pfx("100.64.0.0/24")
	a.r.Originate(p)
	n.run()
	if _, ok := b.fib[p]; ok {
		t.Fatal("FIB entry installed despite error")
	}
	// The RIB keeps the route and still advertises it downstream — exactly
	// the §2 black-hole anatomy.
	if _, ok := b.r.BestRoute(p); !ok {
		t.Fatal("RIB lost route on FIB error")
	}
	if _, ok := c.r.BestRoute(p); !ok {
		t.Fatal("route not advertised past the full-FIB router")
	}
}

// ---- aggregation (Figure 1) ----

func TestAggregationInheritSelected(t *testing.T) {
	agg := pfx("100.64.0.0/23")
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("r6", 65006, func(c *Config) {
		c.AggregationMode = AggInheritSelected
		c.Aggregates = []AggregateSpec{{Prefix: agg, SummaryOnly: true}}
	})
	r8 := n.add("r8", 65008, nil)
	n.connect("a", "r6")
	n.connect("r6", "r8")
	a.r.Originate(pfx("100.64.0.0/24"))
	a.r.Originate(pfx("100.64.1.0/24"))
	n.run()

	attrs, ok := r8.r.BestRoute(agg)
	if !ok {
		t.Fatal("aggregate not announced")
	}
	if attrs.Path.String() != "65006 65001" {
		t.Fatalf("inherit-selected path = %q, want {65006 65001}", attrs.Path)
	}
	// Summary-only: contributors suppressed.
	if _, ok := r8.r.BestRoute(pfx("100.64.0.0/24")); ok {
		t.Fatal("contributor leaked past summary-only aggregate")
	}
	if attrs.AggAS != 65006 {
		t.Fatalf("aggregator AS = %d", attrs.AggAS)
	}
}

func TestAggregationBarePath(t *testing.T) {
	agg := pfx("100.64.0.0/23")
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("r7", 65007, func(c *Config) {
		c.AggregationMode = AggBarePath
		c.Aggregates = []AggregateSpec{{Prefix: agg, SummaryOnly: true}}
	})
	r8 := n.add("r8", 65008, nil)
	n.connect("a", "r7")
	n.connect("r7", "r8")
	a.r.Originate(pfx("100.64.0.0/24"))
	a.r.Originate(pfx("100.64.1.0/24"))
	n.run()

	attrs, ok := r8.r.BestRoute(agg)
	if !ok {
		t.Fatal("aggregate not announced")
	}
	if attrs.Path.String() != "65007" {
		t.Fatalf("bare path = %q, want {65007}", attrs.Path)
	}
	if !attrs.Atomic {
		t.Fatal("ATOMIC_AGGREGATE not set")
	}
}

func TestAggregateWithdrawnWhenContributorsGone(t *testing.T) {
	agg := pfx("100.64.0.0/23")
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("r6", 65006, func(c *Config) {
		c.Aggregates = []AggregateSpec{{Prefix: agg, SummaryOnly: true}}
	})
	r8 := n.add("r8", 65008, nil)
	n.connect("a", "r6")
	n.connect("r6", "r8")
	a.r.Originate(pfx("100.64.0.0/24"))
	n.run()
	if _, ok := r8.r.BestRoute(agg); !ok {
		t.Fatal("aggregate missing")
	}
	a.r.WithdrawLocal(pfx("100.64.0.0/24"))
	n.run()
	if _, ok := r8.r.BestRoute(agg); ok {
		t.Fatal("aggregate survived contributor withdrawal")
	}
}

// TestFigure1Imbalance reproduces the paper's Figure 1: R6 (inherit mode)
// and R7 (bare mode) both aggregate P1/P2 into P3; R8 prefers R7's shorter
// path, causing the traffic imbalance.
func TestFigure1Imbalance(t *testing.T) {
	p1, p2 := pfx("100.64.0.0/24"), pfx("100.64.1.0/24")
	p3 := pfx("100.64.0.0/23")
	n := newTnet(t)
	r1 := n.add("r1", 1, nil)
	for i, as := range []uint32{2, 3, 4, 5} {
		n.add(fmt.Sprintf("r%d", i+2), as, nil)
	}
	n.add("r6", 6, func(c *Config) {
		c.AggregationMode = AggInheritSelected
		c.Aggregates = []AggregateSpec{{Prefix: p3, SummaryOnly: true}}
	})
	n.add("r7", 7, func(c *Config) {
		c.AggregationMode = AggBarePath
		c.Aggregates = []AggregateSpec{{Prefix: p3, SummaryOnly: true}}
	})
	r8 := n.add("r8", 8, nil)
	// Figure 1 wiring: R1 under R2,R3 (feeding R6) and R4,R5 (feeding R7).
	n.connect("r1", "r2")
	n.connect("r1", "r3")
	n.connect("r1", "r4")
	n.connect("r1", "r5")
	n.connect("r2", "r6")
	n.connect("r3", "r6")
	n.connect("r4", "r7")
	n.connect("r5", "r7")
	_, p8r6 := n.connect("r6", "r8")
	_, p8r7 := n.connect("r7", "r8")
	_ = p8r6
	r1.r.Originate(p1)
	r1.r.Originate(p2)
	n.run()

	attrs, ok := r8.r.BestRoute(p3)
	if !ok {
		t.Fatal("R8 missing aggregate")
	}
	// R7's bare path {7} (length 1) beats R6's {6,2,1}/{6,3,1} (length 3).
	if attrs.Path.String() != "7" {
		t.Fatalf("R8 best path = %q, want R7's {7}", attrs.Path)
	}
	hops := n.nodes["r8"].fib[p3]
	if len(hops) != 1 || hops[0].IP != p8r7.Config.RemoteIP {
		t.Fatalf("R8 forwards via %v, want all traffic pinned to R7 (imbalance)", hops)
	}
}

// ---- stats and misc ----

func TestStatsAndString(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	n.connect("a", "b")
	a.r.Originate(pfx("100.64.0.0/24"))
	n.run()
	st := a.r.Stats()
	if st.Established != 1 || st.LocRIB != 1 || st.AS != 65001 {
		t.Fatalf("stats = %+v", st)
	}
	if a.r.String() != "bgp(a AS65001)" {
		t.Fatalf("String = %q", a.r.String())
	}
	if len(a.r.Prefixes()) != 1 {
		t.Fatal("Prefixes wrong")
	}
	pa := a.r.Peer(0)
	if pa.MsgsIn == 0 || pa.MsgsOut == 0 {
		t.Fatal("message counters not incremented")
	}
	if pa.AdvertisedLen() != 1 {
		t.Fatalf("AdvertisedLen = %d", pa.AdvertisedLen())
	}
	if n.nodes["b"].r.Peer(0).AdjInLen() != 1 {
		t.Fatal("AdjInLen wrong")
	}
}

func TestLargeTableBatching(t *testing.T) {
	// 2000 prefixes must converge with far fewer UPDATE messages than
	// prefixes, proving NLRI batching works.
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	b := n.add("b", 65002, nil)
	pab, _ := n.connect("a", "b")
	n.run()
	for i := 0; i < 2000; i++ {
		a.r.Originate(netpkt.Prefix{Addr: netpkt.IPFromBytes(100, 64, 0, 0) + netpkt.IP(i*256), Len: 24})
	}
	n.run()
	if got := b.r.LocRIB(); got != 2000 {
		t.Fatalf("b LocRIB = %d, want 2000", got)
	}
	if pab.MsgsOut > 40 {
		t.Fatalf("%d messages for 2000 prefixes; batching broken", pab.MsgsOut)
	}
}

func TestNonDeterministicTiesFollowArrival(t *testing.T) {
	r := New(Config{Name: "x", AS: 65000, MaxPaths: 1, NonDeterministicTies: true}, nil, Hooks{})
	pA := r.AddPeer(PeerConfig{Name: "A", RemoteAS: 65001, RemoteIP: 9, Interface: "et0"})
	pB := r.AddPeer(PeerConfig{Name: "B", RemoteAS: 65002, RemoteIP: 1, Interface: "et1"})
	pA.remoteID, pB.remoteID = 9, 1
	p := pfx("100.64.0.0/24")
	// B's candidate would win on router-ID, but A's arrived first.
	r.upsertCandidate(p, pA, &Attrs{Origin: OriginIGP, Path: NewPath(65001)})
	r.upsertCandidate(p, pB, &Attrs{Origin: OriginIGP, Path: NewPath(65002)})
	attrs, _ := r.BestRoute(p)
	if attrs.Path.First() != 65001 {
		t.Fatalf("arrival-order tiebreak broken: best via %d", attrs.Path.First())
	}
}

func BenchmarkDecisionProcess(b *testing.B) {
	r := New(Config{Name: "bench", AS: 65000, MaxPaths: 8}, nil, Hooks{})
	var peers []*Peer
	for i := 0; i < 8; i++ {
		p := r.AddPeer(PeerConfig{Name: "p", RemoteAS: uint32(65001 + i), RemoteIP: netpkt.IP(i + 1), Interface: "et0"})
		p.remoteID = netpkt.IP(100 + i)
		peers = append(peers, p)
	}
	attrs := make([]*Attrs, 8)
	for i := range attrs {
		attrs[i] = &Attrs{Origin: OriginIGP, Path: NewPath(uint32(65001+i), 4200000000), NextHop: netpkt.IP(i + 1)}
	}
	p := pfx("100.64.0.0/24")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.upsertCandidate(p, peers[i%8], attrs[i%8])
	}
}
