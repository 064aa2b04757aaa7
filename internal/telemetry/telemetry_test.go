package telemetry

import (
	"testing"
	"time"

	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/topo"
)

// line builds a 3-device chain a-b-c with a server prefix on c.
func line(t *testing.T) (*sim.Engine, map[string]*firmware.Device) {
	n := topo.NewNetwork("line")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	b := n.AddDevice("b", topo.LayerLeaf, 65002, "test")
	c := n.AddDevice("c", topo.LayerToR, 65003, "test")
	c.Originated = append(c.Originated, netpkt.MustParsePrefix("100.64.0.0/24"))
	n.Connect(a, b)
	n.Connect(b, c)

	eng := sim.NewEngine(1)
	fabric := phynet.NewFabric(eng, phynet.LinuxBridge)
	host := fabric.AddHost("vm-0")
	devs := map[string]*firmware.Device{}
	containers := map[string]*phynet.Container{}
	for _, d := range n.Devices() {
		ct := host.AddContainer(d.Name)
		containers[d.Name] = ct
		for _, intf := range d.Interfaces {
			ct.AddIface(intf.Name, intf.MAC)
		}
	}
	for _, l := range n.Links {
		fabric.Connect(containers[l.A.Device.Name].Iface(l.A.Name), containers[l.B.Device.Name].Iface(l.B.Name))
	}
	img := firmware.VendorImage{Name: "test", Version: "1", BootFixed: time.Second, BootJitter: time.Second}
	for _, d := range n.Devices() {
		dev := firmware.New(d.Name, img, config.GenerateDevice(d), eng, fabric, containers[d.Name])
		devs[d.Name] = dev
		dev.Boot(nil)
	}
	if _, err := eng.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	return eng, devs
}

func devList(m map[string]*firmware.Device) []*firmware.Device {
	var out []*firmware.Device
	for _, d := range m {
		out = append(out, d)
	}
	return out
}

func TestInjectAndCollect(t *testing.T) {
	eng, devs := line(t)
	inj := NewInjector(eng)
	meta := dataplane.PacketMeta{
		Src: devs["a"].Config().Loopback.Addr, Dst: netpkt.MustParseIP("100.64.0.9"),
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 80, TTL: 32,
	}
	flow := inj.Inject(devs["a"], meta, 3, 10*time.Millisecond)
	if flow == 0 {
		t.Fatal("flow id 0")
	}
	eng.Run(5_000_000)
	recs := Collect(devList(devs))
	// 3 probes x 3 devices = 9 records.
	if len(recs) != 9 {
		t.Fatalf("records = %d, want 9", len(recs))
	}
	// Sorted by (flow, seq, time).
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq < recs[i-1].Seq {
			t.Fatal("records not sorted by seq")
		}
	}
}

func TestComputePaths(t *testing.T) {
	eng, devs := line(t)
	inj := NewInjector(eng)
	meta := dataplane.PacketMeta{
		Src: devs["a"].Config().Loopback.Addr, Dst: netpkt.MustParseIP("100.64.0.9"),
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 80, TTL: 32,
	}
	inj.Inject(devs["a"], meta, 2, time.Millisecond)
	eng.Run(5_000_000)
	paths := ComputePaths(Collect(devList(devs)))
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p.Hops) != 3 {
			t.Fatalf("hops = %d, want a->b->c", len(p.Hops))
		}
		if p.Hops[0].Device != "a" || p.Hops[1].Device != "b" || p.Hops[2].Device != "c" {
			t.Fatalf("path = %s", p)
		}
		if !p.Delivered {
			t.Fatalf("probe not delivered: %s", p)
		}
		if p.String() == "" {
			t.Fatal("empty path string")
		}
	}
}

func TestPathOfDroppedProbe(t *testing.T) {
	eng, devs := line(t)
	inj := NewInjector(eng)
	// Destination with no route anywhere.
	meta := dataplane.PacketMeta{
		Src: devs["a"].Config().Loopback.Addr, Dst: netpkt.MustParseIP("203.0.113.1"),
		Proto: netpkt.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 32,
	}
	inj.Inject(devs["a"], meta, 1, time.Millisecond)
	eng.Run(5_000_000)
	paths := ComputePaths(Collect(devList(devs)))
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	p := paths[0]
	if p.Delivered || p.FinalVerdict != dataplane.VerdictNoRoute {
		t.Fatalf("expected undelivered no-route, got %s", p)
	}
	if len(p.Hops) != 1 || p.Hops[0].Device != "a" {
		t.Fatalf("drop should happen at a: %s", p)
	}
}

func TestTTLExpiryMidPath(t *testing.T) {
	eng, devs := line(t)
	inj := NewInjector(eng)
	meta := dataplane.PacketMeta{
		Src: devs["a"].Config().Loopback.Addr, Dst: netpkt.MustParseIP("100.64.0.9"),
		Proto: netpkt.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 2,
	}
	inj.Inject(devs["a"], meta, 1, time.Millisecond)
	eng.Run(5_000_000)
	paths := ComputePaths(Collect(devList(devs)))
	p := paths[0]
	if p.FinalVerdict != dataplane.VerdictTTLExpired {
		t.Fatalf("verdict = %v, want ttl-expired (TTL 2 dies at b)", p.FinalVerdict)
	}
	if p.Hops[len(p.Hops)-1].Device != "b" {
		t.Fatalf("expiry at %s, want b", p.Hops[len(p.Hops)-1].Device)
	}
}

func TestCountersAndLoadShare(t *testing.T) {
	eng, devs := line(t)
	inj := NewInjector(eng)
	meta := dataplane.PacketMeta{
		Src: devs["a"].Config().Loopback.Addr, Dst: netpkt.MustParseIP("100.64.0.9"),
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 80, TTL: 32,
	}
	flow := inj.Inject(devs["a"], meta, 4, time.Millisecond)
	eng.Run(5_000_000)
	recs := Collect(devList(devs))
	// Every probe of the flow is captured once per device it crosses.
	counts := map[string]int{}
	for _, r := range recs {
		if r.FlowID == flow {
			counts[r.Device]++
		}
	}
	if counts["a"] != 4 || counts["b"] != 4 || counts["c"] != 4 {
		t.Fatalf("counters = %v", counts)
	}
	// All probes traverse b, none traverse a hypothetical "x".
	share := LoadShare(recs, []string{"b", "x"})
	if share["b"] != 1.0 || share["x"] != 0.0 {
		t.Fatalf("share = %v", share)
	}
}

func TestDistinctFlowIDs(t *testing.T) {
	eng, devs := line(t)
	inj := NewInjector(eng)
	meta := dataplane.PacketMeta{Src: 1, Dst: 2, Proto: netpkt.ProtoUDP, TTL: 4}
	f1 := inj.Inject(devs["a"], meta, 1, time.Millisecond)
	f2 := inj.Inject(devs["a"], meta, 1, time.Millisecond)
	if f1 == f2 {
		t.Fatal("flow IDs must be distinct")
	}
	eng.Run(5_000_000)
}
