package firmware

import (
	"bytes"
	"math/rand"
	"testing"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
)

// vmPair is pairTopo's two devices on two hosts, each with a cloud VM of its
// own, converged: every BGP frame between them crosses the VXLAN underlay,
// and every receive is charged to a VM core.
type vmPair struct {
	eng    *sim.Engine
	fabric *phynet.Fabric
	a, b   *Device
}

func newVMPair(t *testing.T) *vmPair {
	t.Helper()
	netw := pairTopo()
	cfgs := config.Generate(netw)
	eng := sim.NewEngine(1)
	fabric := phynet.NewFabric(eng, phynet.LinuxBridge)
	vms := cloud.NewProvider(eng).Provision(2, cloud.SKUStandard, "test", nil)
	eng.Run(0)
	p := &vmPair{eng: eng, fabric: fabric}
	containers := map[string]*phynet.Container{}
	for i, name := range []string{"a", "b"} {
		c := fabric.AddHost(vms[i].Name).AddContainer(name)
		for _, intf := range netw.MustDevice(name).Interfaces {
			c.AddIface(intf.Name, intf.MAC)
		}
		containers[name] = c
	}
	for _, l := range netw.Links {
		fabric.Connect(containers[l.A.Device.Name].Iface(l.A.Name), containers[l.B.Device.Name].Iface(l.B.Name))
	}
	p.a = New("a", testImage(), cfgs["a"], eng, fabric, containers["a"], vms[0], nil)
	p.b = New("b", testImage(), cfgs["b"], eng, fabric, containers["b"], vms[1], nil)
	p.a.Boot(nil)
	p.b.Boot(nil)
	if _, err := eng.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.a.PullStates().Established != 1 || p.b.PullStates().Established != 1 {
		t.Fatal("pair did not establish")
	}
	return p
}

// framed is the buffer a bgp.Peer hands its SendToPeer hook for msg.
func framed(msg []byte) []byte {
	return append(make([]byte, netpkt.FrameHeadroom, netpkt.FrameHeadroom+len(msg)), msg...)
}

// randomUpdate draws an UPDATE the fabric could carry: withdrawals, or
// announcements under an AS path, MED and aggregator of rng's choosing.
func randomUpdate(rng *rand.Rand) *bgp.Update {
	pfxs := func(n int) []netpkt.Prefix {
		out := make([]netpkt.Prefix, n)
		for i := range out {
			l := uint8(8 + rng.Intn(25))
			p := netpkt.Prefix{Addr: netpkt.IP(rng.Uint32()), Len: l}
			p.Addr &= p.MaskIP()
			out[i] = p
		}
		return out
	}
	u := &bgp.Update{Withdrawn: pfxs(rng.Intn(4))}
	if rng.Intn(4) == 0 {
		return u
	}
	asns := make([]uint32, 1+rng.Intn(8))
	for i := range asns {
		asns[i] = 64512 + uint32(rng.Intn(1000))
	}
	a := &bgp.Attrs{Origin: bgp.Origin(rng.Intn(3)), Path: bgp.NewPath(asns...)}
	if rng.Intn(2) == 0 {
		a.MED, a.HasMED = rng.Uint32(), true
	}
	if rng.Intn(4) == 0 {
		a.AggAS, a.AggID = 65000, netpkt.IP(rng.Uint32())
	}
	u.Attrs, u.NextHop, u.NLRI = a, netpkt.IP(rng.Uint32()), pfxs(1+rng.Intn(60))
	return u
}

// TestFramePathMatchesLayeredEncoding: a BGP message sent behind the frame
// headroom — IPv4 and Ethernet headers written in place by the firmware, the
// underlay's by the fabric — reaches the receiving container as the very
// inner frame the layered chain builds: MarshalUpdate, then the IPv4 packet
// marshalled behind room for Ethernet, the Ethernet header, EncapVXLAN and
// DecapVXLAN.
func TestFramePathMatchesLayeredEncoding(t *testing.T) {
	p := newVMPair(t)
	peer := p.a.bgp.Peers()[0]
	iface := peer.Config.Interface
	src, dst := p.a.ifaceAddr[iface].Addr, peer.Config.RemoteIP
	out := p.a.container.Iface(iface)
	link := out.Link()
	to := link.Other(out)
	var got []byte
	to.Container.Attach(func(_ string, frame []byte) { got = append([]byte(nil), frame...) })

	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 500; i++ {
		msg := bgp.MarshalUpdate(randomUpdate(rng))
		pkt := netpkt.IPv4Packet{TTL: 64, Protocol: netpkt.ProtoTCP, Src: src, Dst: dst, Payload: msg}
		layered := pkt.MarshalFramed(netpkt.EthernetHeaderLen)
		netpkt.PutEthernetHeader(layered, p.a.arp.m[dst], out.MAC, netpkt.EtherTypeIPv4)
		enc := netpkt.EncapVXLAN(link.VNI, out.Container.Host.UnderlayIP, to.Container.Host.UnderlayIP,
			netpkt.MAC{0x02, 0xee, 0, 0, 0, 1}, netpkt.MAC{0x02, 0xee, 0, 0, 0, 2},
			uint16(32768+link.VNI%16384), layered)
		_, want, err := netpkt.DecapVXLAN(enc)
		if err != nil {
			t.Fatal(err)
		}

		got = nil
		p.a.sendBGP(peer.Index, framed(msg))
		p.eng.Run(0)
		if !bytes.Equal(got, want) {
			t.Fatalf("update %d: delivered inner frame\n% x\nlayered chain\n% x", i, got, want)
		}
	}
}
