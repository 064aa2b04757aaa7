package batfish

import (
	"fmt"
	"testing"

	"crystalnet/internal/bgp"
	"crystalnet/internal/config"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/topo"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

func small() (*topo.Network, map[string]*config.DeviceConfig) {
	n := topo.GenerateClos(topo.ClosSpec{
		Name: "mini", Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2,
		SpineGroups: 1, SpinesPerPlane: 2, BordersPerGroup: 2,
		PrefixesPerToR: 1,
	})
	return n, config.Generate(n)
}

func TestSimulateConverges(t *testing.T) {
	n, cfgs := small()
	fibs := Simulate(n, cfgs)
	if len(fibs) != n.NumDevices() {
		t.Fatalf("fibs = %d", len(fibs))
	}
	// Every device reaches every ToR server prefix (unique ToR ASes).
	for _, d := range n.DevicesByLayer(topo.LayerToR) {
		for name := range cfgs {
			if name == d.Name {
				continue
			}
			found := false
			for _, e := range fibs[name] {
				if e.Prefix == d.Originated[0] {
					found = true
					if len(e.NextHops) == 0 {
						t.Fatalf("%s: empty next hops for %v", name, e.Prefix)
					}
				}
			}
			if !found {
				t.Fatalf("%s missing route to %v", name, d.Originated[0])
			}
		}
	}
}

func TestSimulateECMP(t *testing.T) {
	n, cfgs := small()
	fibs := Simulate(n, cfgs)
	// A ToR reaches a remote pod prefix via both its leaves.
	remote := n.MustDevice("tor-p1-0").Originated[0]
	for _, e := range fibs["tor-p0-0"] {
		if e.Prefix == remote {
			if len(e.NextHops) != 2 {
				t.Fatalf("ECMP hops = %v", e.NextHops)
			}
			return
		}
	}
	t.Fatal("route missing")
}

func TestSimulateMatchesEmulationIdealCase(t *testing.T) {
	// On a bug-free network, the idealized simulator and the emulation
	// should agree (the §10 point that verification remains useful as a
	// first, low-fidelity check). Spot-check path shape: a border's route
	// to a ToR prefix goes via a spine.
	n, cfgs := small()
	fibs := Simulate(n, cfgs)
	dst := n.MustDevice("tor-p0-0").Originated[0]
	for _, e := range fibs["border-g0-0"] {
		if e.Prefix == dst {
			for _, nh := range e.NextHops {
				if nh.IP == 0 {
					t.Fatal("border route should have a next hop")
				}
			}
			return
		}
	}
	t.Fatal("border missing ToR route")
}

func TestSimulateAppliesExportPolicy(t *testing.T) {
	n, cfgs := small()
	// Deny everything pod 0's leaves export toward the spines: the pod's
	// prefixes must vanish from the rest of the fabric while intra-pod
	// routing (ToR-facing sessions) stays intact.
	for _, name := range []string{"leaf-p0-0", "leaf-p0-1"} {
		c := cfgs[name]
		c.RouteMaps["BLOCK"] = &bgp.Policy{Name: "deny-all", DefaultAction: bgp.Deny}
		for i := range c.Neighbors {
			if c.Neighbors[i].RemoteAS == topo.SpineAS {
				c.Neighbors[i].ExportPolicy = "BLOCK"
			}
		}
	}
	fibs := Simulate(n, cfgs)
	victim := n.MustDevice("tor-p0-0").Originated[0]
	for _, e := range fibs["border-g0-0"] {
		if e.Prefix == victim {
			t.Fatal("export deny leaked through the ideal simulator")
		}
	}
	// Intra-pod routing is unaffected (import side untouched).
	found := false
	for _, e := range fibs["tor-p0-1"] {
		if e.Prefix == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("intra-pod route lost")
	}
}

func TestReachableWalk(t *testing.T) {
	n, cfgs := small()
	fibs := Simulate(n, cfgs)
	dst := n.MustDevice("tor-p1-1").Originated[0].Addr + 5
	w := NewWalker(fibs, cfgs)
	path, ok := w.Reachable("tor-p0-0", dst)
	if !ok {
		t.Fatalf("unreachable, path %v", path)
	}
	if len(path) != 5 || path[0] != "tor-p0-0" || path[len(path)-1] != "tor-p1-1" {
		t.Fatalf("path = %v", path)
	}
	// Unknown destination fails.
	if _, ok := w.Reachable("tor-p0-0", netpkt.MustParseIP("203.0.113.1")); ok {
		t.Fatal("bogus destination reachable")
	}
}

func TestIdealSimulatorMissesFigure1(t *testing.T) {
	// Figure 1 rebuilt as configs: R6 and R7 both aggregate P1/P2 into P3.
	// The idealized simulator treats both vendors identically, so R8 sees
	// two equal aggregates and load-balances — it cannot predict the real
	// imbalance the emulation reproduces (TestFigure1Imbalance in the bgp
	// package). This test pins the *miss*.
	n := topo.NewNetwork("fig1")
	r1 := n.AddDevice("r1", topo.LayerToR, 1, "ctnra")
	r1.Originated = append(r1.Originated, pfx("100.64.0.0/24"), pfx("100.64.1.0/24"))
	mk := func(name string, as uint32) *topo.Device { return n.AddDevice(name, topo.LayerLeaf, as, "ctnra") }
	r2, r3, r4, r5 := mk("r2", 2), mk("r3", 3), mk("r4", 4), mk("r5", 5)
	r6 := n.AddDevice("r6", topo.LayerSpine, 6, "ctnra")
	r7 := n.AddDevice("r7", topo.LayerSpine, 7, "vma")
	r8 := n.AddDevice("r8", topo.LayerBorder, 8, "ctnra")
	n.Connect(r1, r2)
	n.Connect(r1, r3)
	n.Connect(r1, r4)
	n.Connect(r1, r5)
	n.Connect(r2, r6)
	n.Connect(r3, r6)
	n.Connect(r4, r7)
	n.Connect(r5, r7)
	n.Connect(r6, r8)
	n.Connect(r7, r8)
	cfgs := config.Generate(n)
	agg := config.Aggregate{Prefix: pfx("100.64.0.0/23"), SummaryOnly: true}
	cfgs["r6"].Aggregates = append(cfgs["r6"].Aggregates, agg)
	cfgs["r7"].Aggregates = append(cfgs["r7"].Aggregates, agg)
	// NOTE: the idealized simulator below does not even model aggregation
	// (like config-only tools, custom/ambiguous behaviour is out of scope);
	// R8 simply sees the two /24s via both R6 and R7 with equal-length
	// paths and ECMPs across them. Either way: no imbalance predicted.
	fibs := Simulate(n, cfgs)
	for _, e := range fibs["r8"] {
		if e.Prefix == pfx("100.64.0.0/24") || e.Prefix == pfx("100.64.1.0/24") {
			if len(e.NextHops) != 2 {
				t.Fatalf("ideal model should balance across R6/R7, got %v", e.NextHops)
			}
		}
		if e.Prefix == pfx("100.64.0.0/23") {
			t.Fatal("ideal model unexpectedly produced the vendor aggregate")
		}
	}
}

func TestSnapshotContainsConnected(t *testing.T) {
	n, cfgs := small()
	fibs := Simulate(n, cfgs)
	found := false
	for _, e := range fibs["tor-p0-0"] {
		if e.Proto == rib.ProtoConnected {
			found = true
		}
	}
	if !found {
		t.Fatal("connected routes missing from snapshot")
	}
}

// TestVerdictsPastTheHopBoundIgnoreQueryOrder: on a 70-device chain that only
// its last device delivers, the first six devices are more than maxHops hops
// from delivery. A Walker's verdict for a device must not depend on which
// devices were queried before it, and must equal the sweep table's.
func TestVerdictsPastTheHopBoundIgnoreQueryOrder(t *testing.T) {
	const chain = 70
	dst := netpkt.MustParseIP("100.64.0.1")
	// Device i owns 10.1.0.0+2i on "in" and forwards dst to device i+1.
	addr := func(i int) netpkt.IP { return netpkt.MustParseIP("10.1.0.0") + netpkt.IP(2*i) }
	name := func(i int) string { return fmt.Sprintf("d%03d", i) }
	cfgs := map[string]*config.DeviceConfig{}
	fibs := map[string]*rib.FIB{}
	for i := 0; i < chain; i++ {
		c := &config.DeviceConfig{Hostname: name(i), Interfaces: []config.InterfaceConfig{
			{Name: "in", Addr: netpkt.Prefix{Addr: addr(i), Len: 31}},
		}}
		f := rib.NewFIB()
		if i == chain-1 {
			c.Networks = []netpkt.Prefix{pfx("100.64.0.0/24")}
		} else if err := f.InstallHops(pfx("100.64.0.0/24"), rib.ProtoBGP, []rib.NextHop{{IP: addr(i + 1), Interface: "out"}}); err != nil {
			t.Fatal(err)
		}
		f.Seal()
		cfgs[name(i)], fibs[name(i)] = c, f
	}
	ix := config.NewIndex(cfgs)
	sweep, _ := (*Sweep)(nil).Update(ix, []netpkt.IP{dst}, func(dev string) *rib.FIB { return fibs[dev] })
	lookup := func(dev string, ip netpkt.IP) (*rib.Entry, bool) { return fibs[dev].Lookup(ip) }

	for _, order := range []string{"forward", "reverse"} {
		w := NewIndexWalker(lookup, ix)
		for k := 0; k < chain; k++ {
			i := k
			if order == "reverse" {
				i = chain - 1 - k
			}
			id, _ := ix.ID(name(i))
			got, want := w.Delivered(name(i), dst), sweep.Delivered(id, 0)
			if got != want {
				t.Errorf("%s order: Walker says %s delivered=%v, sweep says %v", order, name(i), got, want)
			}
			if want != (i >= chain-maxHops) {
				t.Errorf("sweep says %s delivered=%v, %d hops from delivery", name(i), want, chain-i)
			}
		}
	}
}
