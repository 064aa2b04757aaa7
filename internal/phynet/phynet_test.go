package phynet

import (
	"bytes"
	"testing"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

func build(t *testing.T, backend BridgeBackend) (*sim.Engine, *Fabric, *Container, *Container, *VirtualLink) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, backend)
	h1 := f.AddHost("vm-a")
	h2 := f.AddHost("vm-b")
	c1 := h1.AddContainer("t1")
	c2 := h2.AddContainer("t2")
	i1 := c1.AddIface("et0", netpkt.MAC{2, 0, 0, 0, 0, 1})
	i2 := c2.AddIface("et0", netpkt.MAC{2, 0, 0, 0, 0, 2})
	l := f.Connect(i1, i2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return eng, f, c1, c2, l
}

func TestCrossVMDeliveryWithVXLAN(t *testing.T) {
	eng, f, c1, c2, _ := build(t, LinuxBridge)
	var got []byte
	var gotIface string
	c2.Attach(func(iface string, frame []byte) { gotIface, got = iface, frame })

	frame := (&netpkt.EthernetFrame{Dst: netpkt.BroadcastMAC, Src: netpkt.MAC{2, 0, 0, 0, 0, 1}, EtherType: netpkt.EtherTypeARP, Payload: make([]byte, 28)}).Marshal()
	f.Send(c1.Iface("et0"), frame)
	if got != nil {
		t.Fatal("delivery must be asynchronous")
	}
	eng.Run(0)
	if gotIface != "et0" || !bytes.Equal(got, frame) {
		t.Fatalf("frame corrupted: %v / %q", got, gotIface)
	}
	if f.EncapFrames != 1 {
		t.Fatalf("EncapFrames = %d, want 1 (cross-VM)", f.EncapFrames)
	}
	if f.FramesDelivered != 1 {
		t.Fatalf("FramesDelivered = %d", f.FramesDelivered)
	}
}

func TestIntraVMDeliveryNoEncap(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, LinuxBridge)
	h := f.AddHost("vm-a")
	c1 := h.AddContainer("t1")
	c2 := h.AddContainer("t2")
	i1 := c1.AddIface("et0", netpkt.MAC{2, 0, 0, 0, 0, 1})
	i2 := c2.AddIface("et0", netpkt.MAC{2, 0, 0, 0, 0, 2})
	f.Connect(i1, i2)
	seen := false
	c2.Attach(func(string, []byte) { seen = true })
	f.Send(i1, []byte("frame"))
	eng.Run(0)
	if !seen {
		t.Fatal("intra-VM frame lost")
	}
	if f.EncapFrames != 0 {
		t.Fatal("intra-VM frames must not be encapsulated")
	}
}

func TestLatencyModel(t *testing.T) {
	eng, f, c1, c2, _ := build(t, LinuxBridge)
	var at sim.Time
	c2.Attach(func(string, []byte) { at = eng.Now() })
	f.Send(c1.Iface("et0"), []byte("x"))
	eng.Run(0)
	if at != sim.Time(f.InterVMLatency) {
		t.Fatalf("cross-VM delivery at %v, want %v", at, f.InterVMLatency)
	}
}

func TestDetachedFirmwareDropsFrames(t *testing.T) {
	eng, f, c1, c2, _ := build(t, LinuxBridge)
	// No handler attached on c2.
	f.Send(c1.Iface("et0"), []byte("x"))
	eng.Run(0)
	if f.FramesDropped != 1 || f.FramesDelivered != 0 {
		t.Fatalf("dropped=%d delivered=%d", f.FramesDropped, f.FramesDelivered)
	}
	// Attach later: new frames flow; namespace survived.
	ok := false
	c2.Attach(func(string, []byte) { ok = true })
	if !c2.Attached() {
		t.Fatal("Attached false")
	}
	f.Send(c1.Iface("et0"), []byte("y"))
	eng.Run(0)
	if !ok {
		t.Fatal("frame lost after attach")
	}
	c2.Detach()
	if c2.Attached() {
		t.Fatal("Detach failed")
	}
}

func TestLinkDownDrops(t *testing.T) {
	eng, f, c1, c2, l := build(t, LinuxBridge)
	c2.Attach(func(string, []byte) { t.Fatal("frame crossed a down link") })
	f.SetLinkState(l, false)
	if l.Up() {
		t.Fatal("link still up")
	}
	f.Send(c1.Iface("et0"), []byte("x"))
	eng.Run(0)
	if f.FramesDropped != 1 {
		t.Fatalf("dropped = %d", f.FramesDropped)
	}
}

func TestLinkCutMidFlight(t *testing.T) {
	eng, f, c1, c2, l := build(t, LinuxBridge)
	c2.Attach(func(string, []byte) { t.Fatal("in-flight frame delivered across cut link") })
	f.Send(c1.Iface("et0"), []byte("x"))
	f.SetLinkState(l, false) // cut before delivery event fires
	eng.Run(0)
	if f.FramesDropped != 1 {
		t.Fatal("in-flight frame not dropped")
	}
}

func TestUnconnectedIfaceDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, LinuxBridge)
	h := f.AddHost("vm-a")
	c := h.AddContainer("t1")
	i := c.AddIface("et0", netpkt.MAC{})
	f.Send(i, []byte("x"))
	if f.FramesDropped != 1 {
		t.Fatal("send on unconnected iface should drop")
	}
}

func TestSetupCostOVSHigher(t *testing.T) {
	_, fl, _, _, _ := build(t, LinuxBridge)
	_, fo, _, _, _ := build(t, OVS)
	var linuxCost, ovsCost float64
	for _, h := range []string{"vm-a", "vm-b"} {
		linuxCost += fl.Host(h).SetupCost()
		ovsCost += fo.Host(h).SetupCost()
	}
	if ovsCost <= linuxCost {
		t.Fatalf("OVS setup cost %f should exceed Linux bridge %f", ovsCost, linuxCost)
	}
	if fl.Backend() != LinuxBridge || fo.Backend() != OVS {
		t.Fatal("Backend accessor wrong")
	}
}

func TestPlumbingInventory(t *testing.T) {
	_, f, _, _, _ := build(t, LinuxBridge)
	veth, bridges, tunnels := f.Host("vm-a").Plumbing()
	if veth != 1 || bridges != 1 || tunnels != 1 {
		t.Fatalf("vm-a plumbing = %d/%d/%d, want 1/1/1", veth, bridges, tunnels)
	}
	if f.Host("vm-a").Containers() != 1 {
		t.Fatal("container count wrong")
	}
}

func TestVNIUniqueAndValidate(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, LinuxBridge)
	h := f.AddHost("vm-a")
	seen := map[uint32]bool{}
	var prev *VIface
	for i := 0; i < 50; i++ {
		c := h.AddContainer(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		v := c.AddIface("et0", netpkt.MAC{byte(i)})
		if prev != nil {
			l := f.Connect(prev, v)
			if seen[l.VNI] {
				t.Fatal("VNI reuse")
			}
			seen[l.VNI] = true
			prev = nil
		} else {
			prev = v
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleConnectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	eng := sim.NewEngine(1)
	f := NewFabric(eng, LinuxBridge)
	h := f.AddHost("vm-a")
	c1 := h.AddContainer("t1")
	c2 := h.AddContainer("t2")
	c3 := h.AddContainer("t3")
	i1 := c1.AddIface("et0", netpkt.MAC{1})
	i2 := c2.AddIface("et0", netpkt.MAC{2})
	i3 := c3.AddIface("et0", netpkt.MAC{3})
	f.Connect(i1, i2)
	f.Connect(i1, i3)
}

func TestRemoveContainerDownsLinks(t *testing.T) {
	_, f, c1, _, l := build(t, LinuxBridge)
	c1.Host.RemoveContainer("t1")
	if l.Up() {
		t.Fatal("link survived container removal")
	}
	if f.Host("vm-a").Containers() != 0 {
		t.Fatal("container not removed")
	}
	f.Host("vm-a").RemoveContainer("absent") // no-op
}

func TestSendCopiesFrame(t *testing.T) {
	eng, f, c1, c2, _ := build(t, LinuxBridge)
	var got []byte
	c2.Attach(func(_ string, fr []byte) { got = fr })
	frame := []byte{1, 2, 3, 4}
	f.Send(c1.Iface("et0"), frame)
	frame[0] = 99 // mutate after send
	eng.Run(0)
	if got[0] != 1 {
		t.Fatal("fabric aliases sender's buffer")
	}
}

func TestIfaceAccessors(t *testing.T) {
	_, _, c1, _, l := build(t, LinuxBridge)
	i := c1.Iface("et0")
	if i.FullName() != "t1:et0" {
		t.Fatalf("FullName = %q", i.FullName())
	}
	if i.Link() != l || l.Other(i) == nil || l.Other(&VIface{}) != nil {
		t.Fatal("link accessors wrong")
	}
	if c1.NumIfaces() != 1 || c1.Iface("nope") != nil {
		t.Fatal("iface lookup wrong")
	}
}

func TestLatencyConfigurable(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, LinuxBridge)
	f.IntraVMLatency = 2 * time.Millisecond
	h := f.AddHost("vm-a")
	c1, c2 := h.AddContainer("a"), h.AddContainer("b")
	i1 := c1.AddIface("et0", netpkt.MAC{1})
	i2 := c2.AddIface("et0", netpkt.MAC{2})
	f.Connect(i1, i2)
	var at sim.Time
	c2.Attach(func(string, []byte) { at = eng.Now() })
	f.Send(i1, []byte("x"))
	eng.Run(0)
	if at != sim.Time(2*time.Millisecond) {
		t.Fatalf("delivery at %v", at)
	}
}

func TestCrossCloudAndRemoteLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, LinuxBridge)
	h1 := f.AddHost("vm-a")
	h2 := f.AddHost("vm-b")
	h3 := f.AddHost("fanout")
	h1.Region, h2.Region = "azure", "other-cloud"
	h3.Remote = true

	ca := h1.AddContainer("a")
	i1 := ca.AddIface("et0", netpkt.MAC{1})
	i1b := ca.AddIface("et1", netpkt.MAC{9})
	cb := h2.AddContainer("b")
	i2 := cb.AddIface("et0", netpkt.MAC{2})
	cc := h3.AddContainer("c")
	i3 := cc.AddIface("et0", netpkt.MAC{3})
	f.Connect(i1, i2)
	f.Connect(i1b, i3)

	var at sim.Time
	cb.Attach(func(string, []byte) { at = eng.Now() })
	f.Send(i1, []byte("x"))
	eng.Run(0)
	if at != sim.Time(f.CrossCloudLatency) {
		t.Fatalf("cross-cloud delivery at %v, want %v", at, f.CrossCloudLatency)
	}
	cc.Attach(func(string, []byte) { at = eng.Now() })
	start := eng.Now()
	f.Send(i1b, []byte("y"))
	eng.Run(0)
	if at.Sub(start) != f.RemoteLatency {
		t.Fatalf("remote delivery took %v, want %v", at.Sub(start), f.RemoteLatency)
	}
}

// TestOversizedCrossVMFrameDropped: a frame too long for the underlay's
// 16-bit length fields used to cross with its lengths wrapped and arrive
// truncated (70,000 bytes in, 4,464 out). It is now dropped at the sender
// and counted.
func TestOversizedCrossVMFrameDropped(t *testing.T) {
	eng, f, c1, c2, _ := build(t, LinuxBridge)
	c2.Attach(func(_ string, fr []byte) { t.Fatalf("an oversized frame was delivered as %d bytes", len(fr)) })
	f.Send(c1.Iface("et0"), make([]byte, 70_000))
	eng.Run(0)
	if f.FramesDropped != 1 || f.EncapFrames != 0 || f.FramesDelivered != 0 {
		t.Fatalf("dropped=%d encap=%d delivered=%d, want 1/0/0", f.FramesDropped, f.EncapFrames, f.FramesDelivered)
	}
}

// TestSendFramedEncapsulatesInPlace: with the underlay's headroom in front of
// the frame, the fabric writes the VXLAN headers there and the receiver gets
// the frame in the sender's own buffer; the headers are EncapVXLAN's.
func TestSendFramedEncapsulatesInPlace(t *testing.T) {
	eng, f, c1, c2, l := build(t, LinuxBridge)
	var got []byte
	c2.Attach(func(_ string, fr []byte) { got = fr })
	const room = netpkt.UnderlayHeaderLen
	buf := make([]byte, room+64)
	for i := range buf {
		buf[i] = byte(i) // dirty headroom, a frame behind it
	}
	frame := append([]byte(nil), buf[room:]...)
	from, to := c1.Iface("et0"), c2.Iface("et0")
	f.SendFramed(from, buf, room)
	eng.Run(0)
	if !bytes.Equal(got, frame) || &got[0] != &buf[room] {
		t.Fatal("the receiver did not get the frame in the sender's buffer")
	}
	want := netpkt.EncapVXLAN(l.VNI, from.Container.Host.UnderlayIP, to.Container.Host.UnderlayIP,
		netpkt.MAC{0x02, 0xee, 0, 0, 0, 1}, netpkt.MAC{0x02, 0xee, 0, 0, 0, 2}, uint16(32768+l.VNI%16384), frame)
	if !bytes.Equal(buf, want) {
		t.Fatalf("in-place encapsulation\n% x\nEncapVXLAN\n% x", buf, want)
	}
}
