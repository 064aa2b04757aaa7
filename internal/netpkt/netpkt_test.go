package netpkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestParseIP(t *testing.T) {
	cases := []struct {
		in   string
		want IP
		ok   bool
	}{
		{"10.0.0.1", IPFromBytes(10, 0, 0, 1), true},
		{"255.255.255.255", IP(0xffffffff), true},
		{"0.0.0.0", 0, true},
		{"192.168.1.200", IPFromBytes(192, 168, 1, 200), true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
		{"1..2.3", 0, false},
		{"1.2.3.", 0, false},
		{"1234.1.1.1", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIP(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseIP(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", c.in)
		}
	}
}

func TestIPStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/24")
	if p.Addr != IPFromBytes(10, 1, 2, 0) || p.Len != 24 {
		t.Fatalf("prefix = %v, want 10.1.2.0/24 (host bits masked)", p)
	}
	if p.String() != "10.1.2.0/24" {
		t.Fatalf("String = %q", p.String())
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/", "10.0.0.0/x", "/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
	zero := MustParsePrefix("0.0.0.0/0")
	if !zero.Contains(IPFromBytes(200, 1, 1, 1)) {
		t.Fatal("default route must contain everything")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseIP("10.1.255.1")) {
		t.Fatal("10.1.0.0/16 should contain 10.1.255.1")
	}
	if p.Contains(MustParseIP("10.2.0.1")) {
		t.Fatal("10.1.0.0/16 should not contain 10.2.0.1")
	}
	if !p.ContainsPrefix(MustParsePrefix("10.1.4.0/24")) {
		t.Fatal("10.1.0.0/16 should contain 10.1.4.0/24")
	}
	if p.ContainsPrefix(MustParsePrefix("10.0.0.0/8")) {
		t.Fatal("/16 should not contain its /8 supernet")
	}
	if !p.ContainsPrefix(p) {
		t.Fatal("prefix should contain itself")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	f := &EthernetFrame{
		Dst:       MAC{0, 1, 2, 3, 4, 5},
		Src:       MAC{6, 7, 8, 9, 10, 11},
		EtherType: EtherTypeIPv4,
		Payload:   []byte("hello"),
	}
	got, err := UnmarshalEthernet(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.EtherType != f.EtherType || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	if _, err := UnmarshalEthernet(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("short frame error = %v, want ErrTruncated", err)
	}
}

func TestMACHelpers(t *testing.T) {
	if BroadcastMAC.String() != "ff:ff:ff:ff:ff:ff" {
		t.Fatalf("broadcast MAC string = %q", BroadcastMAC.String())
	}
	if !BroadcastMAC.IsBroadcast() || (MAC{}).IsBroadcast() {
		t.Fatal("IsBroadcast wrong")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARPPacket{
		Op:        ARPRequest,
		SenderMAC: MAC{1, 2, 3, 4, 5, 6},
		SenderIP:  MustParseIP("10.0.0.1"),
		TargetIP:  MustParseIP("10.0.0.2"),
	}
	got, err := UnmarshalARP(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
	if _, err := UnmarshalARP(make([]byte, 27)); err != ErrTruncated {
		t.Fatal("want ErrTruncated for short ARP")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	p := &IPv4Packet{
		TOS: 0x10, ID: 777, TTL: 63, Protocol: ProtoUDP,
		Src: MustParseIP("192.168.0.1"), Dst: MustParseIP("10.9.8.7"),
		Payload: []byte{1, 2, 3, 4},
	}
	b := p.Marshal()
	got, err := UnmarshalIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.TTL != p.TTL || got.Protocol != p.Protocol ||
		got.ID != p.ID || got.TOS != p.TOS || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestIPv4ChecksumDetection(t *testing.T) {
	p := &IPv4Packet{TTL: 64, Protocol: ProtoTCP, Src: 1, Dst: 2}
	b := p.Marshal()
	b[16] ^= 0xff // corrupt destination
	if _, err := UnmarshalIPv4(b); err != ErrBadChecksum {
		t.Fatalf("corrupted header error = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4BadVersionAndTruncation(t *testing.T) {
	p := (&IPv4Packet{TTL: 1, Protocol: 6}).Marshal()
	p[0] = 0x65 // version 6
	if _, err := UnmarshalIPv4(p); err != ErrBadVersion {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
	if _, err := UnmarshalIPv4(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	// Total length field larger than buffer.
	q := (&IPv4Packet{TTL: 1, Protocol: 6, Payload: []byte{1, 2, 3}}).Marshal()
	if _, err := UnmarshalIPv4(q[:len(q)-2]); err != ErrTruncated {
		t.Fatalf("want ErrTruncated for short total length, got %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDPDatagram{SrcPort: 33333, DstPort: VXLANPort, Payload: []byte("payload")}
	got, err := UnmarshalUDP(u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != u.SrcPort || got.DstPort != u.DstPort || !bytes.Equal(got.Payload, u.Payload) {
		t.Fatal("round trip mismatch")
	}
	if _, err := UnmarshalUDP([]byte{0, 0, 0}); err != ErrTruncated {
		t.Fatal("want ErrTruncated for short UDP")
	}
}

func TestICMPRoundTripAndChecksum(t *testing.T) {
	m := &ICMPMessage{Type: ICMPEchoRequest, ID: 42, Seq: 7, Payload: []byte("ping")}
	b := m.Marshal()
	got, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.ID != m.ID || got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("round trip mismatch")
	}
	b[4] ^= 0x01
	if _, err := UnmarshalICMP(b); err != ErrBadChecksum {
		t.Fatalf("want ErrBadChecksum, got %v", err)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd-length input.
	if got := Checksum([]byte{0x01}); got != ^uint16(0x0100) {
		t.Fatalf("odd checksum = %#04x", got)
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	inner := (&EthernetFrame{Dst: BroadcastMAC, Src: MAC{1, 1, 1, 1, 1, 1}, EtherType: EtherTypeARP, Payload: make([]byte, 28)}).Marshal()
	b := EncapVXLAN(0xABCDE, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"),
		MAC{2, 2, 2, 2, 2, 2}, MAC{3, 3, 3, 3, 3, 3}, 55555, inner)
	vni, got, err := DecapVXLAN(b)
	if err != nil {
		t.Fatal(err)
	}
	if vni != 0xABCDE {
		t.Fatalf("VNI = %#x, want 0xABCDE", vni)
	}
	if !bytes.Equal(got, inner) {
		t.Fatal("inner frame corrupted through encap/decap")
	}
}

func TestVXLAN24BitVNI(t *testing.T) {
	v := VXLANHeader{VNI: 0x00FFFFFF}
	hdr, _, err := UnmarshalVXLAN(v.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.VNI != 0x00FFFFFF {
		t.Fatalf("VNI = %#x, want 0xFFFFFF", hdr.VNI)
	}
}

func TestVXLANErrors(t *testing.T) {
	if _, _, err := UnmarshalVXLAN([]byte{1, 2, 3}); err != ErrTruncated {
		t.Fatal("want ErrTruncated")
	}
	b := make([]byte, 8) // I flag clear
	if _, _, err := UnmarshalVXLAN(b); err == nil {
		t.Fatal("want error for clear I flag")
	}
	// Decap of a non-IPv4 underlay frame.
	f := (&EthernetFrame{EtherType: EtherTypeARP, Payload: make([]byte, 28)}).Marshal()
	if _, _, err := DecapVXLAN(f); err == nil {
		t.Fatal("want error for ARP underlay")
	}
}

func TestPropertyEthernetRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16, payload []byte) bool {
		fr := &EthernetFrame{Dst: MAC(dst), Src: MAC(src), EtherType: et, Payload: payload}
		got, err := UnmarshalEthernet(fr.Marshal())
		return err == nil && got.Dst == fr.Dst && got.Src == fr.Src &&
			got.EtherType == et && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIPv4ChecksumAlwaysValidates(t *testing.T) {
	f := func(src, dst uint32, ttl, proto uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := &IPv4Packet{Src: IP(src), Dst: IP(dst), TTL: ttl, Protocol: proto, Payload: payload}
		got, err := UnmarshalIPv4(p.Marshal())
		return err == nil && got.Src == p.Src && got.Dst == p.Dst && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPrefixMaskIdempotent(t *testing.T) {
	f := func(addr uint32, l uint8) bool {
		p := Prefix{Addr: IP(addr), Len: l % 33}
		masked := p.Addr & p.MaskIP()
		q := Prefix{Addr: masked, Len: p.Len}
		return q.Addr&q.MaskIP() == masked && q.Contains(IP(addr)) == (IP(addr)&p.MaskIP() == masked)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVXLANEncapDecap(b *testing.B) {
	inner := (&EthernetFrame{Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeIPv4,
		Payload: (&IPv4Packet{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2, Payload: make([]byte, 256)}).Marshal()}).Marshal()
	b.SetBytes(int64(len(inner)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncapVXLAN(77, 1, 2, MAC{3}, MAC{4}, 40000, inner)
		if _, _, err := DecapVXLAN(enc); err != nil {
			b.Fatal(err)
		}
	}
}
