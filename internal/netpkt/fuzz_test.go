package netpkt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// pktGen draws packet fields from fuzz bytes, reading zeros once they run
// out, so every input names exactly one packet of each kind.
type pktGen struct{ b []byte }

func (g *pktGen) take(n int) []byte {
	out := make([]byte, n)
	g.b = g.b[copy(out, g.b):]
	return out
}

func (g *pktGen) u8() uint8   { return g.take(1)[0] }
func (g *pktGen) u16() uint16 { return binary.BigEndian.Uint16(g.take(2)) }
func (g *pktGen) u32() uint32 { return binary.BigEndian.Uint32(g.take(4)) }
func (g *pktGen) mac() MAC    { return MAC(g.take(6)) }

// payload is a length byte (times 8) and then that many bytes.
func (g *pktGen) payload() []byte { return g.take(8 * int(g.u8())) }

// FuzzNetpkt: the decoders never panic on arbitrary bytes; packets generated
// from the same bytes decode back to what was encoded, layer by layer and
// through a VXLAN encap/decap; EncapVXLAN's underlay is the four layers
// marshalled one by one; and the in-place header writers, run over headroom
// left dirty, put down exactly the bytes the allocating encoders (Marshal,
// MarshalFramed, EncapVXLAN) produce for the same packet.
func FuzzNetpkt(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncapVXLAN(0xABCDE, 1, 2, MAC{3}, MAC{4}, 40000,
		(&EthernetFrame{Dst: BroadcastMAC, Src: MAC{1}, EtherType: EtherTypeARP,
			Payload: (&ARPPacket{Op: ARPRequest, SenderMAC: MAC{1}, SenderIP: 5, TargetIP: 6}).Marshal()}).Marshal()))
	f.Add((&IPv4Packet{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2,
		Payload: (&UDPDatagram{SrcPort: 1, DstPort: VXLANPort, Payload: []byte("payload")}).Marshal()}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: errors are fine, panics are not.
		UnmarshalEthernet(data)
		UnmarshalARP(data)
		UnmarshalIPv4(data)
		UnmarshalUDP(data)
		UnmarshalICMP(data)
		UnmarshalVXLAN(data)
		DecapVXLAN(data)

		g := &pktGen{b: data}
		eth := EthernetFrame{Dst: g.mac(), Src: g.mac(), EtherType: g.u16(), Payload: g.payload()}
		if got, err := UnmarshalEthernet(eth.Marshal()); err != nil || got.Dst != eth.Dst || got.Src != eth.Src ||
			got.EtherType != eth.EtherType || !bytes.Equal(got.Payload, eth.Payload) {
			t.Fatalf("Ethernet round trip: %+v, %v; sent %+v", got, err, eth)
		}
		arp := ARPPacket{Op: g.u16(), SenderMAC: g.mac(), SenderIP: IP(g.u32()), TargetMAC: g.mac(), TargetIP: IP(g.u32())}
		if got, err := UnmarshalARP(arp.Marshal()); err != nil || *got != arp {
			t.Fatalf("ARP round trip: %+v, %v; sent %+v", got, err, arp)
		}
		udp := UDPDatagram{SrcPort: g.u16(), DstPort: g.u16(), Payload: g.payload()}
		if got, err := UnmarshalUDP(udp.Marshal()); err != nil || got.SrcPort != udp.SrcPort ||
			got.DstPort != udp.DstPort || !bytes.Equal(got.Payload, udp.Payload) {
			t.Fatalf("UDP round trip: %+v, %v; sent %+v", got, err, udp)
		}
		ip := IPv4Packet{TOS: g.u8(), ID: g.u16(), TTL: g.u8(), Protocol: g.u8(), Src: IP(g.u32()), Dst: IP(g.u32()), Payload: g.payload()}
		wire := ip.Marshal()
		if got, err := UnmarshalIPv4(wire); err != nil || got.TOS != ip.TOS || got.ID != ip.ID || got.TTL != ip.TTL ||
			got.Protocol != ip.Protocol || got.Src != ip.Src || got.Dst != ip.Dst || !bytes.Equal(got.Payload, ip.Payload) {
			t.Fatalf("IPv4 round trip: %+v, %v; sent %+v", got, err, ip)
		}
		vni, srcIP, dstIP, srcMAC, dstMAC, port := g.u32()&0xffffff, IP(g.u32()), IP(g.u32()), g.mac(), g.mac(), g.u16()
		inner := (&EthernetFrame{Dst: eth.Dst, Src: eth.Src, EtherType: EtherTypeIPv4, Payload: wire}).Marshal()
		enc := EncapVXLAN(vni, srcIP, dstIP, srcMAC, dstMAC, port, inner)
		if gotVNI, got, err := DecapVXLAN(enc); err != nil || gotVNI != vni || !bytes.Equal(got, inner) {
			t.Fatalf("VXLAN round trip: vni %#x, %v; sent %#x", gotVNI, err, vni)
		}
		// The underlay is the four layers marshalled one by one.
		layered := (&EthernetFrame{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4, Payload: (&IPv4Packet{
			TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP, Payload: (&UDPDatagram{
				SrcPort: port, DstPort: VXLANPort, Payload: (&VXLANHeader{VNI: vni}).Marshal(inner),
			}).Marshal(),
		}).Marshal()}).Marshal()
		if !bytes.Equal(enc, layered) {
			t.Fatalf("EncapVXLAN\n% x\nlayer by layer\n% x", enc, layered)
		}

		// The same packet built in place behind FrameHeadroom bytes of junk.
		buf := make([]byte, FrameHeadroom+len(ip.Payload))
		for i := 0; i < FrameHeadroom; i++ {
			buf[i] = 0xa5 ^ byte(i)
			if len(data) > 0 {
				buf[i] ^= data[i%len(data)]
			}
		}
		copy(buf[FrameHeadroom:], ip.Payload)
		ipAt := FrameHeadroom - IPv4HeaderLen
		if err := PutIPv4Header(buf[ipAt:], ip.TOS, ip.ID, ip.TTL, ip.Protocol, ip.Src, ip.Dst, len(ip.Payload)); err != nil ||
			!bytes.Equal(buf[ipAt:], wire) || !bytes.Equal(buf[ipAt:], ip.MarshalFramed(ipAt)[ipAt:]) {
			t.Fatalf("PutIPv4Header over dirty headroom (%v):\n% x\nMarshal:\n% x", err, buf[ipAt:], wire)
		}
		ethAt := ipAt - EthernetHeaderLen
		PutEthernetHeader(buf[ethAt:], eth.Dst, eth.Src, EtherTypeIPv4)
		if !bytes.Equal(buf[ethAt:], inner) {
			t.Fatalf("PutEthernetHeader over dirty headroom:\n% x\nMarshal:\n% x", buf[ethAt:], inner)
		}
		if err := PutVXLANHeaders(buf, vni, srcIP, dstIP, srcMAC, dstMAC, port, len(inner)); err != nil || !bytes.Equal(buf, enc) {
			t.Fatalf("PutVXLANHeaders over dirty headroom (%v):\n% x\nEncapVXLAN:\n% x", err, buf, enc)
		}
	})
}

// TestOversizedPacketsRefused is the regression for lengths that wrapped
// their 16-bit fields: a 70,000-byte inner frame used to come back from
// EncapVXLAN and DecapVXLAN as 4,464 bytes with no error, and an IPv4 or
// UDP Marshal of such a payload decoded as a valid, truncated packet. Now the
// header writers refuse it and the encoders return nil, which no decoder
// accepts.
func TestOversizedPacketsRefused(t *testing.T) {
	big := make([]byte, 70_000)
	enc := EncapVXLAN(77, 1, 2, MAC{3}, MAC{4}, 40000, big)
	if enc != nil {
		t.Fatalf("EncapVXLAN of a %d-byte frame gave %d bytes", len(big), len(enc))
	}
	if _, inner, err := DecapVXLAN(enc); err == nil {
		t.Fatalf("DecapVXLAN accepted the refused encapsulation: %d bytes", len(inner))
	}
	if err := PutVXLANHeaders(make([]byte, UnderlayHeaderLen), 77, 1, 2, MAC{3}, MAC{4}, 40000, len(big)); err != ErrTooLong {
		t.Fatalf("PutVXLANHeaders: %v, want ErrTooLong", err)
	}
	ip := &IPv4Packet{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2, Payload: big}
	if b := ip.Marshal(); b != nil {
		t.Fatalf("IPv4 Marshal of a %d-byte payload gave %d bytes", len(big), len(b))
	}
	if _, err := UnmarshalIPv4(ip.Marshal()); err == nil {
		t.Fatal("UnmarshalIPv4 accepted the refused packet")
	}
	if err := PutIPv4Header(make([]byte, IPv4HeaderLen), 0, 0, 64, ProtoUDP, 1, 2, len(big)); err != ErrTooLong {
		t.Fatalf("PutIPv4Header: %v, want ErrTooLong", err)
	}
	if b := (&UDPDatagram{SrcPort: 1, DstPort: 2, Payload: big}).Marshal(); b != nil {
		t.Fatalf("UDP Marshal of a %d-byte payload gave %d bytes", len(big), len(b))
	}
	// The largest payloads that fit still encode, and round-trip whole.
	fit := make([]byte, 0xffff-IPv4HeaderLen)
	if got, err := UnmarshalIPv4((&IPv4Packet{TTL: 1, Payload: fit}).Marshal()); err != nil || len(got.Payload) != len(fit) {
		t.Fatalf("largest IPv4 payload: %v", err)
	}
	fitInner := make([]byte, 0xffff-(UnderlayHeaderLen-EthernetHeaderLen))
	if _, inner, err := DecapVXLAN(EncapVXLAN(77, 1, 2, MAC{3}, MAC{4}, 40000, fitInner)); err != nil || len(inner) != len(fitInner) {
		t.Fatalf("largest VXLAN inner frame: %v", err)
	}
}
