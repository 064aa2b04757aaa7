package topo

import (
	"fmt"
	"strings"
	"testing"

	"crystalnet/internal/netpkt"
)

func TestAddDeviceAndLookup(t *testing.T) {
	n := NewNetwork("test")
	d := n.AddDevice("r1", LayerSpine, 65100, "ctnra")
	if n.Device("r1") != d {
		t.Fatal("Device lookup failed")
	}
	if n.Device("nope") != nil {
		t.Fatal("missing device should be nil")
	}
	if d.Index != 0 || d.Pod != -1 {
		t.Fatalf("defaults wrong: index=%d pod=%d", d.Index, d.Pod)
	}
	if d.Loopback.Len != 32 || d.Loopback.Addr == 0 {
		t.Fatalf("loopback not assigned: %v", d.Loopback)
	}
}

func TestDuplicateDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddDevice did not panic")
		}
	}()
	n := NewNetwork("test")
	n.AddDevice("r1", LayerToR, 1, "ctnra")
	n.AddDevice("r1", LayerToR, 2, "ctnra")
}

func TestConnectAllocatesP2P(t *testing.T) {
	n := NewNetwork("test")
	a := n.AddDevice("a", LayerToR, 1, "ctnra")
	b := n.AddDevice("b", LayerLeaf, 2, "ctnra")
	l := n.Connect(a, b)

	ia, ib := l.A, l.B
	if ia.Peer != ib || ib.Peer != ia {
		t.Fatal("peers not wired")
	}
	if ia.Addr.Len != 31 || ib.Addr.Len != 31 {
		t.Fatal("expected /31 addressing")
	}
	if ia.Addr.Addr+1 != ib.Addr.Addr {
		t.Fatalf("not adjacent /31 pair: %v %v", ia.Addr, ib.Addr)
	}
	// Second link must use a different subnet.
	l2 := n.Connect(a, b)
	if l2.Subnet.Addr == l.Subnet.Addr {
		t.Fatal("subnet reuse")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceNamesAndMACs(t *testing.T) {
	n := NewNetwork("test")
	a := n.AddDevice("a", LayerToR, 1, "ctnra")
	b := n.AddDevice("b", LayerLeaf, 2, "ctnra")
	n.Connect(a, b)
	n.Connect(a, b)
	if a.Interfaces[0].Name != "et0" || a.Interfaces[1].Name != "et1" {
		t.Fatalf("interface names: %s %s", a.Interfaces[0].Name, a.Interfaces[1].Name)
	}
	if a.Intf("et1") != a.Interfaces[1] || a.Intf("nope") != nil {
		t.Fatal("Intf lookup wrong")
	}
	if a.Interfaces[0].MAC == a.Interfaces[1].MAC {
		t.Fatal("MAC collision on same device")
	}
	if a.Interfaces[0].MAC == b.Interfaces[0].MAC {
		t.Fatal("MAC collision across devices")
	}
	if a.Interfaces[0].FullName() != "a:et0" {
		t.Fatalf("FullName = %q", a.Interfaces[0].FullName())
	}
}

func TestNeighborsAndUpperNeighbors(t *testing.T) {
	n := NewNetwork("test")
	tor := n.AddDevice("tor", LayerToR, 1, "ctnra")
	leaf1 := n.AddDevice("leaf1", LayerLeaf, 2, "ctnra")
	leaf2 := n.AddDevice("leaf2", LayerLeaf, 3, "ctnra")
	host := n.AddDevice("host", LayerHost, 0, "host")
	n.Connect(tor, leaf1)
	n.Connect(tor, leaf2)
	n.Connect(tor, leaf1) // second parallel link must not duplicate neighbor
	n.Connect(host, tor)

	if got := tor.Neighbors(); len(got) != 3 {
		t.Fatalf("Neighbors = %d, want 3", len(got))
	}
	up := n.UpperNeighbors(tor)
	if len(up) != 2 {
		t.Fatalf("UpperNeighbors = %d, want 2 (leaves only)", len(up))
	}
	for _, d := range up {
		if d.Layer != LayerLeaf {
			t.Fatalf("upper neighbor on layer %v", d.Layer)
		}
	}
}

func TestLayerString(t *testing.T) {
	if LayerSpine.String() != "spine" || Layer(99).String() != "layer(99)" {
		t.Fatal("Layer.String wrong")
	}
}

func TestGenerateClosSDCShape(t *testing.T) {
	spec := SDC()
	n := GenerateClos(spec)
	counts := n.LayerCounts()
	if counts[LayerBorder] != 2 {
		t.Errorf("borders = %d, want 2", counts[LayerBorder])
	}
	if counts[LayerSpine] != 4 {
		t.Errorf("spines = %d, want 4", counts[LayerSpine])
	}
	if counts[LayerLeaf] != 16 {
		t.Errorf("leaves = %d, want 16", counts[LayerLeaf])
	}
	if counts[LayerToR] != 96 {
		t.Errorf("tors = %d, want 96", counts[LayerToR])
	}
	if n.NumDevices() != spec.NumDevices() {
		t.Errorf("NumDevices = %d, spec says %d", n.NumDevices(), spec.NumDevices())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateClosConnectivity(t *testing.T) {
	n := GenerateClos(SDC())
	// Every ToR connects to exactly LeavesPerPod leaves, all in its pod.
	for _, tor := range n.DevicesByLayer(LayerToR) {
		nbrs := tor.Neighbors()
		if len(nbrs) != 2 {
			t.Fatalf("%s has %d neighbors, want 2 leaves", tor.Name, len(nbrs))
		}
		for _, nb := range nbrs {
			if nb.Layer != LayerLeaf || nb.Pod != tor.Pod {
				t.Fatalf("%s connected to %s (layer %v pod %d)", tor.Name, nb.Name, nb.Layer, nb.Pod)
			}
		}
	}
	// Every leaf connects to its pod's ToRs plus SpinesPerPlane spines.
	for _, leaf := range n.DevicesByLayer(LayerLeaf) {
		var tors, spines int
		for _, nb := range leaf.Neighbors() {
			switch nb.Layer {
			case LayerToR:
				tors++
			case LayerSpine:
				spines++
			default:
				t.Fatalf("%s connected to unexpected layer %v", leaf.Name, nb.Layer)
			}
		}
		if tors != 12 || spines != 2 {
			t.Fatalf("%s: tors=%d spines=%d, want 12/2", leaf.Name, tors, spines)
		}
	}
	// Every spine connects to all its group's borders.
	for _, sp := range n.DevicesByLayer(LayerSpine) {
		var borders int
		for _, nb := range sp.Neighbors() {
			if nb.Layer == LayerBorder {
				borders++
				if nb.Group != sp.Group {
					t.Fatalf("%s connected to border of group %d", sp.Name, nb.Group)
				}
			}
		}
		if borders != 2 {
			t.Fatalf("%s: borders=%d, want 2", sp.Name, borders)
		}
	}
}

func TestGenerateClosASPlan(t *testing.T) {
	n := GenerateClos(SDC())
	seenToR := map[uint32]bool{}
	for _, d := range n.Devices() {
		switch d.Layer {
		case LayerBorder:
			if d.ASN != BorderAS {
				t.Fatalf("%s ASN %d, want BorderAS", d.Name, d.ASN)
			}
		case LayerSpine:
			if d.ASN != SpineAS {
				t.Fatalf("%s ASN %d, want SpineAS", d.Name, d.ASN)
			}
		case LayerLeaf:
			if d.ASN != PodAS(d.Pod) {
				t.Fatalf("%s ASN %d, want %d", d.Name, d.ASN, PodAS(d.Pod))
			}
		case LayerToR:
			if seenToR[d.ASN] {
				t.Fatalf("duplicate ToR ASN %d", d.ASN)
			}
			seenToR[d.ASN] = true
		}
	}
}

func TestGenerateClosOriginatedPrefixes(t *testing.T) {
	n := GenerateClos(SDC())
	seen := map[netpkt.Prefix]string{}
	for _, d := range n.DevicesByLayer(LayerToR) {
		if len(d.Originated) != 1 {
			t.Fatalf("%s originates %d prefixes, want 1", d.Name, len(d.Originated))
		}
		for _, p := range d.Originated {
			if p.Len != 24 {
				t.Fatalf("%s originates %v, want /24", d.Name, p)
			}
			if prev, dup := seen[p]; dup {
				t.Fatalf("prefix %v reused by %s and %s", p, prev, d.Name)
			}
			seen[p] = d.Name
		}
	}
	// Non-ToR devices originate nothing.
	for _, d := range n.DevicesByLayer(LayerSpine) {
		if len(d.Originated) != 0 {
			t.Fatalf("%s should not originate prefixes", d.Name)
		}
	}
}

func TestLDCPodMatchesTable4(t *testing.T) {
	spec := LDCScaled(10) // shape-preserving scale-down
	n := GenerateClos(spec)
	// A single pod's upward closure must be 4 leaves + 16? ToRs... verified
	// in the boundary package; here verify the upper-layer shape feeding it:
	// the pod's group has 4 planes x 16 spines and 4 borders (Table 4 row 1).
	var spines, borders int
	for _, d := range n.Devices() {
		if d.Group == 0 {
			switch d.Layer {
			case LayerSpine:
				spines++
			case LayerBorder:
				borders++
			}
		}
	}
	if spines != 64 || borders != 4 {
		t.Fatalf("group 0: spines=%d borders=%d, want 64/4 (Table 4 Case-1)", spines, borders)
	}
}

func TestLDCFullShapeIsTable3Order(t *testing.T) {
	spec := LDC()
	if spec.NumDevices() != 4636 {
		t.Fatalf("L-DC devices = %d, want 4636", spec.NumDevices())
	}
	c := spec // shape sanity without generating 5k devices
	if c.Pods*c.ToRsPerPod != 3600 {
		t.Fatalf("L-DC ToRs = %d, want 3600 (O(3000))", c.Pods*c.ToRsPerPod)
	}
	if got := c.SpineGroups * c.LeavesPerPod * c.SpinesPerPlane; got != 128 {
		t.Fatalf("L-DC spines = %d, want 128 (O(100))", got)
	}
	if r := spec.EstimatedRoutes(); r < 10_000_000 {
		t.Fatalf("L-DC estimated routes = %d, want O(20M)", r)
	}
	if r := MDC().EstimatedRoutes(); r < 300_000 || r > 3_000_000 {
		t.Fatalf("M-DC estimated routes = %d, want O(1M)", r)
	}
	if r := SDC().EstimatedRoutes(); r < 10_000 || r > 100_000 {
		t.Fatalf("S-DC estimated routes = %d, want O(50K)", r)
	}
}

func TestLDCScaledMinimumPods(t *testing.T) {
	s := LDCScaled(1000)
	if s.Pods != 2*s.SpineGroups {
		t.Fatalf("Pods = %d, want %d", s.Pods, 2*s.SpineGroups)
	}
	if LDCScaled(1).Name != "L-DC" {
		t.Fatal("factor 1 must not rename")
	}
}

func TestAttachWAN(t *testing.T) {
	spec := SDC()
	n := GenerateClos(spec)
	wans := AttachWAN(n, spec, 2)
	if len(wans) != 2 {
		t.Fatalf("wans = %d, want 2", len(wans))
	}
	for _, w := range wans {
		if w.Layer != LayerExternal {
			t.Fatal("WAN device not external")
		}
		nbrs := w.Neighbors()
		if len(nbrs) != 2 {
			t.Fatalf("%s neighbors = %d, want all 2 borders", w.Name, len(nbrs))
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.HighestLayer() != LayerBorder {
		t.Fatalf("HighestLayer = %v, want border (externals excluded)", n.HighestLayer())
	}
}

func TestGenerateRegion(t *testing.T) {
	spec := RegionSpec{
		Name: "region-east", DCs: 2,
		DCSpec:          SDC(),
		BackboneRouters: 4, WANCores: 2,
	}
	n := GenerateRegion(spec)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := n.LayerCounts()
	if counts[LayerBackbone] != 4 || counts[LayerWAN] != 2 {
		t.Fatalf("backbone=%d wan=%d", counts[LayerBackbone], counts[LayerWAN])
	}
	if counts[LayerBorder] != 4 { // 2 DCs x 2 borders
		t.Fatalf("borders = %d, want 4", counts[LayerBorder])
	}
	// Every DC border connects to all backbones and all WAN cores.
	for _, d := range n.DevicesByLayer(LayerBorder) {
		var bb, wan int
		for _, nb := range d.Neighbors() {
			switch nb.Layer {
			case LayerBackbone:
				bb++
			case LayerWAN:
				wan++
			}
		}
		if bb != 4 || wan != 2 {
			t.Fatalf("%s: backbone=%d wan=%d", d.Name, bb, wan)
		}
	}
	// ToR server prefixes must not collide across DCs.
	seen := map[netpkt.Prefix]string{}
	for _, d := range n.DevicesByLayer(LayerToR) {
		for _, p := range d.Originated {
			if prev, dup := seen[p]; dup {
				t.Fatalf("prefix %v reused by %s and %s", p, prev, d.Name)
			}
			seen[p] = d.Name
		}
	}
	// AS numbers of same-role devices differ across DCs.
	if n.MustDevice("dc0-border-g0-0").ASN == n.MustDevice("dc1-border-g0-0").ASN {
		t.Fatal("border AS collision across DCs")
	}
}

func TestDevicesInPod(t *testing.T) {
	n := GenerateClos(SDC())
	pod := n.DevicesInPod(3)
	if len(pod) != 14 { // 12 ToRs + 2 leaves
		t.Fatalf("pod devices = %d, want 14", len(pod))
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	n := NewNetwork("bad")
	a := n.AddDevice("a", LayerToR, 1, "x")
	b := n.AddDevice("b", LayerToR, 2, "x")
	l := n.Connect(a, b)
	l.B.Peer = nil // corrupt
	if err := n.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric link")
	}
}

// TestCloneGrowsApart: a clone reads as its source does, grows exactly as
// the source would (same indices, addresses and MACs), and growing it
// writes nothing the source holds.
func TestCloneGrowsApart(t *testing.T) {
	describe := func(n *Network) string {
		var b strings.Builder
		for _, d := range n.Devices() {
			fmt.Fprintf(&b, "%s %d %v %v %v\n", d.Name, d.Index, d.Loopback, d.Originated, n.Device(d.Name) == d)
			for _, in := range d.Interfaces {
				peer := ""
				if in.Peer != nil {
					peer = in.Peer.FullName()
				}
				fmt.Fprintf(&b, "  %s %d %v %v %s %v\n", in.FullName(), in.Index, in.Addr, in.MAC, peer, in.Device == d)
			}
		}
		for _, l := range n.Links {
			fmt.Fprintf(&b, "%s %v\n", l, l.A.Peer == l.B && l.B.Peer == l.A)
		}
		return b.String()
	}
	grow := func(n *Network) {
		d := n.AddDevice("tor-new", LayerToR, ToRAS(999), "ctnrb")
		d.Originated = append(d.Originated, netpkt.MustParsePrefix("100.64.99.0/24"))
		n.Connect(d, n.MustDevice("leaf-p0-0"))
		n.Connect(d, n.MustDevice("leaf-p0-1"))
	}
	n := GenerateClos(SDC())
	before := describe(n)
	c := n.Clone()
	if describe(c) != before {
		t.Fatal("clone reads differently from its source")
	}
	grow(c)
	if describe(n) != before {
		t.Fatal("growing the clone wrote its source")
	}
	grow(n)
	if got, want := describe(c), describe(n); got != want {
		t.Fatalf("clone grew differently from its source:\n%s\nwant:\n%s", got, want)
	}
}
