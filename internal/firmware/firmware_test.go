package firmware

import (
	"strings"
	"testing"
	"time"

	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/topo"
)

// testImage is a fast-booting image for unit tests.
func testImage() VendorImage {
	return VendorImage{
		Name: "test", Version: "1.0", Kind: ContainerImage,
		BootFixed: time.Second, BootJitter: time.Second, BootWork: 0,
		MsgWork: 0, RouteWork: 0,
	}
}

// rig builds a fabric of devices from a topology, one container per device,
// all on a single host, with generated configs.
type rig struct {
	t       *testing.T
	eng     *sim.Engine
	fabric  *phynet.Fabric
	devices map[string]*Device
	cfgs    map[string]*config.DeviceConfig
	links   []*phynet.VirtualLink
}

func buildRig(t *testing.T, netw *topo.Network, imageFor func(d *topo.Device) VendorImage) *rig {
	r := &rig{
		t: t, eng: sim.NewEngine(1),
		devices: map[string]*Device{},
		cfgs:    config.Generate(netw),
	}
	r.fabric = phynet.NewFabric(r.eng, phynet.LinuxBridge)
	host := r.fabric.AddHost("vm-0")
	containers := map[string]*phynet.Container{}
	for _, d := range netw.Devices() {
		if d.Layer == topo.LayerExternal {
			continue
		}
		c := host.AddContainer(d.Name)
		containers[d.Name] = c
		for _, intf := range d.Interfaces {
			c.AddIface(intf.Name, intf.MAC)
		}
	}
	for _, l := range netw.Links {
		ca, cb := containers[l.A.Device.Name], containers[l.B.Device.Name]
		if ca == nil || cb == nil {
			continue
		}
		r.links = append(r.links, r.fabric.Connect(ca.Iface(l.A.Name), cb.Iface(l.B.Name)))
	}
	for _, d := range netw.Devices() {
		if d.Layer == topo.LayerExternal {
			continue
		}
		img := testImage()
		if imageFor != nil {
			img = imageFor(d)
		}
		dev := New(d.Name, img, r.cfgs[d.Name], r.eng, r.fabric, containers[d.Name], nil, nil)
		r.devices[d.Name] = dev
	}
	return r
}

func (r *rig) bootAll() {
	for _, d := range r.devices {
		d.Boot(nil)
	}
	r.run()
}

func (r *rig) run() {
	if _, err := r.eng.Run(20_000_000); err != nil {
		r.t.Fatalf("did not converge: %v", err)
	}
}

// pair returns a trivial two-device topology.
func pairTopo() *topo.Network {
	n := topo.NewNetwork("pair")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	b := n.AddDevice("b", topo.LayerLeaf, 65002, "test")
	a.Originated = append(a.Originated, netpkt.MustParsePrefix("100.64.0.0/24"))
	n.Connect(a, b)
	return n
}

func TestBootAndSessionOverRealFrames(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a, b := r.devices["a"], r.devices["b"]
	if a.State() != DeviceRunning || b.State() != DeviceRunning {
		t.Fatalf("states: %v %v", a.State(), b.State())
	}
	sa, sb := a.PullStates(), b.PullStates()
	if sa.Established != 1 || sb.Established != 1 {
		t.Fatalf("established: %d %d", sa.Established, sb.Established)
	}
	// b learned a's loopback and server prefix over the wire; with b's own
	// loopback that is 3 usable prefixes.
	if sb.LocRIB != 3 {
		t.Fatalf("b LocRIB = %d, want 3", sb.LocRIB)
	}
	entry, ok := b.FIB().Lookup(netpkt.MustParseIP("100.64.0.9"))
	if !ok {
		t.Fatal("b FIB missing a's server prefix")
	}
	if len(entry.NextHops) != 1 || entry.NextHops[0].Interface != "et0" {
		t.Fatalf("b FIB entry: %+v", entry)
	}
	// ARP was really exchanged.
	if len(a.arp.m) == 0 || len(b.arp.m) == 0 {
		t.Fatal("ARP caches empty — frames not exchanged?")
	}
}

// smallClos is a 14-device Clos for integration tests.
func smallClos() topo.ClosSpec {
	return topo.ClosSpec{
		Name: "mini", Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2,
		SpineGroups: 1, SpinesPerPlane: 2, BordersPerGroup: 2,
		PrefixesPerToR: 1,
	}
}

func TestClosFullConvergence(t *testing.T) {
	netw := topo.GenerateClos(smallClos())
	r := buildRig(t, netw, nil)
	r.bootAll()

	// Every device must reach every ToR loopback and server prefix (ToR
	// ASes are unique, so eBGP propagates them fabric-wide; shared-AS
	// loopbacks — two borders, a pod's leaves — legitimately stay mutually
	// unreachable under RFC 7938 loop prevention).
	type dest struct {
		p  netpkt.Prefix
		as uint32
	}
	var dests []dest
	for _, d := range netw.DevicesByLayer(topo.LayerToR) {
		dests = append(dests, dest{d.Loopback, d.ASN})
		for _, p := range d.Originated {
			dests = append(dests, dest{p, d.ASN})
		}
	}
	if len(dests) != 8 {
		t.Fatalf("dests = %d", len(dests))
	}
	for name, dev := range r.devices {
		for _, ds := range dests {
			if dev.Config().ASN == ds.as {
				continue
			}
			if _, ok := dev.FIB().Lookup(ds.p.Addr); !ok {
				t.Fatalf("%s cannot reach %v", name, ds.p)
			}
		}
	}
	// ECMP in effect: a ToR reaches a remote prefix via both its leaves.
	tor := r.devices["tor-p0-0"]
	remote := r.devices["tor-p1-0"].Config().Networks[1]
	e, _ := tor.FIB().Lookup(remote.Addr)
	if len(e.NextHops) != 2 {
		t.Fatalf("tor-p0-0 to remote pod: %d hops, want 2 (ECMP)", len(e.NextHops))
	}
}

func TestTelemetryPathTrace(t *testing.T) {
	netw := topo.GenerateClos(smallClos())
	r := buildRig(t, netw, nil)
	r.bootAll()

	src := r.devices["tor-p0-0"]
	dstPrefix := r.devices["tor-p1-1"].Config().Networks[1]
	src.InjectPacket(dataplane.PacketMeta{
		Src: src.Config().Loopback.Addr, Dst: dstPrefix.Addr + 9,
		Proto: netpkt.ProtoUDP, SrcPort: 7777, DstPort: 7, TTL: 64,
	}, 42, 1)
	r.run()

	// Gather captures: expect tor -> leaf -> spine -> leaf -> tor (5 hops).
	var path []CaptureRecord
	for _, d := range r.devices {
		path = append(path, d.PullPackets()...)
	}
	if len(path) != 5 {
		t.Fatalf("captured %d hops, want 5: %+v", len(path), path)
	}
	var terminated bool
	for _, rec := range path {
		if rec.FlowID != 42 || rec.Seq != 1 {
			t.Fatalf("signature corrupted: %+v", rec)
		}
		if rec.Egress == ServerIface {
			terminated = true
			if rec.Device != "tor-p1-1" {
				t.Fatalf("terminated at %s", rec.Device)
			}
		}
	}
	if !terminated {
		t.Fatalf("packet never reached the destination rack: %+v", path)
	}
	// Buffers drained.
	for _, d := range r.devices {
		if len(d.PullPackets()) != 0 {
			t.Fatal("PullPackets did not drain")
		}
	}
}

func TestPingOverFabric(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a, b := r.devices["a"], r.devices["b"]
	echo := &netpkt.ICMPMessage{Type: netpkt.ICMPEchoRequest, ID: 7, Seq: 1}
	out := &netpkt.IPv4Packet{
		TTL: 64, Protocol: netpkt.ProtoICMP,
		Src: a.Config().Loopback.Addr, Dst: b.Config().Loopback.Addr,
		Payload: echo.Marshal(),
	}
	toA, toB := countFrames(a), countFrames(b)
	a.sendFromSelf(out)
	r.run()
	// Request + reply crossed the fabric.
	if *toB == 0 || *toA == 0 {
		t.Fatalf("frames delivered: %d to b, %d to a, want request+reply", *toB, *toA)
	}
}

// countFrames re-attaches d's container through a counter of the frames the
// fabric delivers to it.
func countFrames(d *Device) *int {
	n := new(int)
	d.container.Attach(func(iface string, frame []byte) {
		*n++
		d.handleFrame(iface, frame)
	})
	return n
}

func TestStopDetachesButNamespaceSurvives(t *testing.T) {
	netw := pairTopo()
	r := buildRig(t, netw, nil)
	r.bootAll()
	a := r.devices["a"]
	c := a.container
	a.Stop("test")
	if a.State() != DeviceStopped || c.Attached() {
		t.Fatal("stop did not detach")
	}
	for _, intf := range netw.MustDevice("a").Interfaces {
		if c.Iface(intf.Name) == nil {
			t.Fatalf("interface %s destroyed on stop — two-layer design violated", intf.Name)
		}
	}
	// b's session eventually drops (notification was sent on Stop).
	r.run()
	if r.devices["b"].PullStates().Established != 0 {
		t.Fatal("b still established after a stopped")
	}
}

func TestReloadThreeSecondsAndReconverge(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a := r.devices["a"]
	start := r.eng.Now()
	ready := sim.Time(0)
	a.Reload(nil, func() { ready = r.eng.Now() })
	r.run()
	if got := ready.Sub(start); got != ReloadDuration {
		t.Fatalf("reload took %v, want %v", got, ReloadDuration)
	}
	if a.PullStates().Established != 1 {
		t.Fatal("session not re-established after reload")
	}
}

func TestReloadAppliesNewConfig(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a, b := r.devices["a"], r.devices["b"]
	newCfg := a.Config().Clone()
	newCfg.Networks = append(newCfg.Networks, netpkt.MustParsePrefix("100.99.0.0/24"))
	a.Reload(newCfg, nil)
	r.run()
	if _, ok := b.FIB().Lookup(netpkt.MustParseIP("100.99.0.5")); !ok {
		t.Fatal("new network not announced after reload")
	}
}

func TestLinkDownUpFailover(t *testing.T) {
	// a has two parallel links to b; kill one.
	n := topo.NewNetwork("dual")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	b := n.AddDevice("b", topo.LayerLeaf, 65002, "test")
	a.Originated = append(a.Originated, netpkt.MustParsePrefix("100.64.0.0/24"))
	l1 := n.Connect(a, b)
	n.Connect(a, b)
	r := buildRig(t, n, nil)
	r.bootAll()

	db := r.devices["b"]
	e, _ := db.FIB().Lookup(netpkt.MustParseIP("100.64.0.1"))
	if len(e.NextHops) != 2 {
		t.Fatalf("want 2 ECMP paths before failure, got %+v", e)
	}
	// Cut link 1: notify firmware on both sides (the orchestrator's job)
	// and drop the fabric link.
	var vlink *phynet.VirtualLink
	for _, vl := range r.links {
		if vl.A.Container.Name == "a" && vl.A.Name == l1.A.Name {
			vlink = vl
		}
	}
	r.fabric.SetLinkState(vlink, false)
	r.devices["a"].LinkDown(l1.A.Name)
	db.LinkDown(l1.B.Name)
	r.run()
	e, ok := db.FIB().Lookup(netpkt.MustParseIP("100.64.0.1"))
	if !ok || len(e.NextHops) != 1 {
		t.Fatalf("after failure: %+v", e)
	}
	// Restore.
	r.fabric.SetLinkState(vlink, true)
	r.devices["a"].LinkUp(l1.A.Name)
	db.LinkUp(l1.B.Name)
	r.run()
	e, _ = db.FIB().Lookup(netpkt.MustParseIP("100.64.0.1"))
	if len(e.NextHops) != 2 {
		t.Fatalf("after recovery: %+v", e)
	}
}

// ---- vendor bugs ----

func TestBugSilentFIBOverflowBlackholes(t *testing.T) {
	n := topo.NewNetwork("overflow")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	mid := n.AddDevice("mid", topo.LayerLeaf, 65002, "test")
	c := n.AddDevice("c", topo.LayerSpine, 65003, "test")
	for i := 0; i < 100; i++ {
		a.Originated = append(a.Originated, netpkt.Prefix{Addr: netpkt.IPFromBytes(100, 64, byte(i), 0), Len: 24})
	}
	n.Connect(a, mid)
	n.Connect(mid, c)
	r := buildRig(t, n, func(d *topo.Device) VendorImage {
		img := testImage()
		if d.Name == "mid" {
			img.FIBCapacity = 50
			img.Bugs.SilentFIBOverflow = true
		}
		return img
	})
	r.bootAll()

	dm, dc := r.devices["mid"], r.devices["c"]
	if dm.FIB().Len() != 50 {
		t.Fatalf("mid FIB = %d, want capacity 50", dm.FIB().Len())
	}
	// BGP kept everything and advertised downstream — c believes all is
	// reachable; mid black-holes the missing prefixes.
	if got := dm.PullStates().LocRIB; got < 100 {
		t.Fatalf("mid RIB = %d, want >= 100", got)
	}
	missing := 0
	for i := 0; i < 100; i++ {
		p := netpkt.IPFromBytes(100, 64, byte(i), 1)
		_, inC := dc.FIB().Lookup(p)
		if !inC {
			t.Fatalf("c missing route %v — bug should be invisible upstream", p)
		}
		if _, inMid := dm.FIB().Lookup(p); !inMid {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("no black-holed prefixes — overflow did not happen")
	}
	// A probe to a black-holed prefix dies at mid with no-route.
	var hole netpkt.IP
	for i := 0; i < 100; i++ {
		p := netpkt.IPFromBytes(100, 64, byte(i), 1)
		if _, ok := dm.FIB().Lookup(p); !ok {
			hole = p
			break
		}
	}
	dc.InjectPacket(dataplane.PacketMeta{Src: dc.Config().Loopback.Addr, Dst: hole, Proto: netpkt.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64}, 7, 1)
	r.run()
	recs := dm.PullPackets()
	if len(recs) != 1 || recs[0].Verdict != dataplane.VerdictNoRoute {
		t.Fatalf("mid verdict = %+v, want no-route black hole", recs)
	}
}

func TestBugARPTrapBrokenBlocksSessions(t *testing.T) {
	r := buildRig(t, pairTopo(), func(d *topo.Device) VendorImage {
		img := testImage()
		if d.Name == "b" {
			img.Bugs.ARPTrapBroken = true
		}
		return img
	})
	r.bootAll()
	if r.devices["a"].PullStates().Established != 0 {
		t.Fatal("session established despite broken ARP trap")
	}
	// The buggy device ignores ARP replies, so its own resolution attempts
	// exhaust and it logs the drop.
	if !strings.Contains(strings.Join(r.devices["b"].Logs, "\n"), "arp: resolution") {
		t.Fatal("ARP failure not logged on the buggy device")
	}
}

func TestBugDefaultRouteNotProgrammed(t *testing.T) {
	n := topo.NewNetwork("default")
	a := n.AddDevice("a", topo.LayerBorder, 65001, "test")
	b := n.AddDevice("b", topo.LayerToR, 65002, "test")
	a.Originated = append(a.Originated, netpkt.MustParsePrefix("0.0.0.0/0"))
	n.Connect(a, b)
	r := buildRig(t, n, func(d *topo.Device) VendorImage {
		img := testImage()
		if d.Name == "b" {
			img.Bugs.DefaultRouteBroken = true
		}
		return img
	})
	r.bootAll()
	db := r.devices["b"]
	// RIB has the default; FIB does not — §7 Case 2.
	if _, ok := db.BGP().BestRoute(netpkt.MustParsePrefix("0.0.0.0/0")); !ok {
		t.Fatal("RIB missing default (propagation broken, not the bug)")
	}
	if _, ok := db.FIB().Lookup(netpkt.MustParseIP("8.8.8.8")); ok {
		t.Fatal("default route programmed despite bug")
	}
	// A healthy image programs it.
	r2 := buildRig(t, n, nil)
	r2.bootAll()
	if _, ok := r2.devices["b"].FIB().Lookup(netpkt.MustParseIP("8.8.8.8")); !ok {
		t.Fatal("healthy image missing default route")
	}
}

func TestBugCrashAfterFlaps(t *testing.T) {
	r := buildRig(t, pairTopo(), func(d *topo.Device) VendorImage {
		img := testImage()
		if d.Name == "b" {
			img.Bugs.CrashAfterFlaps = 3
		}
		return img
	})
	r.bootAll()
	a, b := r.devices["a"], r.devices["b"]
	for i := 0; i < 3 && b.State() == DeviceRunning; i++ {
		a.Reload(nil, nil) // each reload flaps b's session
		r.run()
	}
	if b.State() != DeviceCrashed {
		t.Fatalf("b state = %v, want crashed after 3 flaps", b.State())
	}
}

func TestBugStopAnnouncingOddPrefixes(t *testing.T) {
	n := topo.NewNetwork("odd")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	b := n.AddDevice("b", topo.LayerLeaf, 65002, "test")
	a.Originated = append(a.Originated,
		netpkt.MustParsePrefix("100.64.2.0/24"), // even: announced
		netpkt.MustParsePrefix("100.64.3.0/24"), // odd: silently dropped
	)
	n.Connect(a, b)
	r := buildRig(t, n, func(d *topo.Device) VendorImage {
		img := testImage()
		if d.Name == "a" {
			img.Bugs.StopAnnouncingOddPrefixes = true
		}
		return img
	})
	r.bootAll()
	db := r.devices["b"]
	if _, ok := db.FIB().Lookup(netpkt.MustParseIP("100.64.2.1")); !ok {
		t.Fatal("even prefix missing")
	}
	if _, ok := db.FIB().Lookup(netpkt.MustParseIP("100.64.3.1")); ok {
		t.Fatal("odd prefix announced despite firmware bug")
	}
}

func TestBugARPRefreshBrokenAfterReload(t *testing.T) {
	// a(image with bug) - b, and a second link a - c configured only after
	// a reload: the new neighbor needs fresh ARP, which the bug suppresses.
	n := topo.NewNetwork("arpfresh")
	a := n.AddDevice("a", topo.LayerLeaf, 65001, "test")
	b := n.AddDevice("b", topo.LayerToR, 65002, "test")
	c := n.AddDevice("c", topo.LayerToR, 65003, "test")
	n.Connect(a, b)
	n.Connect(a, c)
	r := buildRig(t, n, func(d *topo.Device) VendorImage {
		img := testImage()
		if d.Name == "a" {
			img.Bugs.ARPRefreshBroken = true
		}
		return img
	})
	// First boot: a peers only with b; the a-c link is physically down (the
	// new peering has not been cabled into service yet).
	var acLink *phynet.VirtualLink
	for _, vl := range r.links {
		if vl.A.Container.Name == "a" && vl.B.Container.Name == "c" {
			acLink = vl
		}
	}
	r.fabric.SetLinkState(acLink, false)
	full := r.cfgs["a"]
	initial := full.Clone()
	initial.Neighbors = initial.Neighbors[:1]
	r.devices["a"].cfg = initial
	r.bootAll()
	if r.devices["a"].PullStates().Established != 1 {
		t.Fatal("setup: a-b session missing")
	}
	// Operator turns up the new peering and reloads a with it configured.
	r.fabric.SetLinkState(acLink, true)
	r.devices["a"].Reload(full, nil)
	r.devices["c"].LinkUp("et0")
	r.run()
	st := r.devices["a"].PullStates()
	if st.Established != 1 {
		t.Fatalf("established = %d; the a-c session should be stuck on ARP", st.Established)
	}
	if !strings.Contains(strings.Join(r.devices["a"].Logs, "\n"), "BUG arp-refresh") {
		t.Fatal("bug not logged")
	}
}

func TestCrashNoGracefulTeardown(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a, b := r.devices["a"], r.devices["b"]
	a.Crash("test")
	r.run()
	if a.State() != DeviceCrashed {
		t.Fatal("not crashed")
	}
	// No NOTIFICATION was sent: b still believes the session is up until
	// liveness detection (health monitor) intervenes.
	if b.PullStates().Established != 1 {
		t.Fatal("crash should not gracefully close the peer session")
	}
}

func TestMistypedACLDropsLegitimateTraffic(t *testing.T) {
	// The §2 human-error scenario end-to-end: an operator intends to block
	// 10.0.0.0/20 but types /2, black-holing nearly a quarter of the space.
	n := pairTopo()
	r := buildRig(t, n, nil)
	typo := netpkt.MustParsePrefix("10.0.0.0/2")
	cfg := r.cfgs["b"]
	cfg.ACLs["OOPS"] = &dataplane.ACL{
		Name:          "OOPS",
		Rules:         []dataplane.ACLRule{{Action: dataplane.ACLDeny, Dst: &typo}},
		DefaultAction: dataplane.ACLPermit,
	}
	cfg.Bindings = append(cfg.Bindings, config.ACLBinding{ACLName: "OOPS", Interface: "et0", Direction: config.In})
	r.bootAll()

	// A probe from a to b's loopback (10.0.0.x, inside the typo's /2) dies.
	a := r.devices["a"]
	a.InjectPacket(dataplane.PacketMeta{
		Src: a.Config().Loopback.Addr, Dst: r.devices["b"].Config().Loopback.Addr,
		Proto: netpkt.ProtoUDP, SrcPort: 5, DstPort: 6, TTL: 8,
	}, 9, 1)
	r.run()
	recs := r.devices["b"].PullPackets()
	if len(recs) != 1 || recs[0].Verdict != dataplane.VerdictACLDenied {
		t.Fatalf("b verdict = %+v, want acl-denied", recs)
	}
}

func TestVendorImageSemantics(t *testing.T) {
	if DeviceRunning.String() != "running" || DeviceState(9).String() != "unknown" {
		t.Fatal("state names")
	}
}

// TestHandleFrameRejectsJunk exercises the NIC-level guards: frames for
// other MACs, truncated ethernet, unknown ethertypes and frames arriving
// while the firmware is down are all dropped without side effects.
func TestHandleFrameRejectsJunk(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a := r.devices["a"]
	before := len(a.Captures)

	// Unicast to someone else's MAC.
	other := &netpkt.EthernetFrame{Dst: netpkt.MAC{9, 9, 9, 9, 9, 9}, EtherType: netpkt.EtherTypeIPv4,
		Payload: (&netpkt.IPv4Packet{TTL: 4, Protocol: netpkt.ProtoUDP, Src: 1, Dst: 2}).Marshal()}
	a.handleFrame("et0", other.Marshal())
	// Truncated frame.
	a.handleFrame("et0", []byte{1, 2, 3})
	// Unknown ethertype.
	weird := &netpkt.EthernetFrame{Dst: a.container.Iface("et0").MAC, EtherType: 0x86dd, Payload: []byte{0}}
	a.handleFrame("et0", weird.Marshal())
	// Unknown interface name.
	a.handleFrame("et99", weird.Marshal())
	// Corrupt IPv4 payload.
	bad := &netpkt.EthernetFrame{Dst: a.container.Iface("et0").MAC, EtherType: netpkt.EtherTypeIPv4, Payload: []byte{0x45, 0}}
	a.handleFrame("et0", bad.Marshal())

	if len(a.Captures) != before {
		t.Fatal("junk frames were captured")
	}
	// Stopped firmware ignores everything.
	a.Stop("test")
	a.handleFrame("et0", weird.Marshal())
}
