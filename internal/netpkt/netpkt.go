// Package netpkt implements the binary wire formats CrystalNet's virtual
// physical network carries: Ethernet II frames, ARP, IPv4, UDP, ICMP and
// VXLAN (RFC 7348) encapsulation.
//
// The emulator encodes every packet that crosses a virtual link to real
// bytes and decodes it on the far side, exactly as the paper's veth/bridge/
// VXLAN data plane does (§4.2). This keeps device firmware honest: a
// firmware bug that corrupts a header corrupts it on the wire.
//
// DESIGN.md §2 (substrates) places the wire formats in the system inventory.
package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IP is an IPv4 address in host-independent big-endian form.
type IP uint32

// IPFromBytes builds an IP from 4 octets.
func IPFromBytes(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIP parses dotted-quad notation. It returns an error for anything that
// is not exactly four octets in range.
func ParseIP(s string) (IP, error) {
	var parts [4]uint32
	idx := 0
	cur := uint32(0)
	digits := 0
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch >= '0' && ch <= '9':
			cur = cur*10 + uint32(ch-'0')
			digits++
			if cur > 255 || digits > 3 {
				return 0, fmt.Errorf("netpkt: invalid IPv4 %q", s)
			}
		case ch == '.':
			if digits == 0 || idx >= 3 {
				return 0, fmt.Errorf("netpkt: invalid IPv4 %q", s)
			}
			parts[idx] = cur
			idx++
			cur, digits = 0, 0
		default:
			return 0, fmt.Errorf("netpkt: invalid IPv4 %q", s)
		}
	}
	if idx != 3 || digits == 0 {
		return 0, fmt.Errorf("netpkt: invalid IPv4 %q", s)
	}
	parts[3] = cur
	return IP(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseIP is ParseIP that panics on error; for constants in tests and
// generators.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String formats the address as a dotted quad.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Octets returns the four address octets, most significant first.
func (ip IP) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr IP
	Len  uint8
}

// Key packs the prefix into one word, address above length: distinct prefixes
// have distinct keys, and a map keyed by it hashes and compares a machine word
// where the struct itself (5 bytes in 8) takes the runtime's generic path.
func (p Prefix) Key() uint64 { return uint64(p.Addr)<<8 | uint64(p.Len) }

// ParsePrefix parses "a.b.c.d/len". The address is masked to the prefix
// length, so "10.0.1.1/24" yields 10.0.1.0/24.
func ParsePrefix(s string) (Prefix, error) {
	slash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netpkt: prefix %q missing /len", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	l := 0
	for i := slash + 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return Prefix{}, fmt.Errorf("netpkt: invalid prefix length in %q", s)
		}
		l = l*10 + int(s[i]-'0')
		if l > 32 {
			return Prefix{}, fmt.Errorf("netpkt: prefix length %d > 32 in %q", l, s)
		}
	}
	if slash+1 >= len(s) {
		return Prefix{}, fmt.Errorf("netpkt: empty prefix length in %q", s)
	}
	p := Prefix{Addr: ip, Len: uint8(l)}
	p.Addr = p.Addr & p.MaskIP()
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// MaskIP returns the netmask of the prefix as an IP.
func (p Prefix) MaskIP() IP {
	if p.Len == 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - p.Len))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&p.MaskIP() == p.Addr&p.MaskIP()
}

// ContainsPrefix reports whether q is fully inside p (p is a supernet of q,
// or equal).
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// EtherType values used by the emulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers used by the emulator.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
	ProtoOSPF uint8 = 89
)

// VXLANPort is the IANA-assigned UDP destination port for VXLAN.
const VXLANPort = 4789

var (
	// ErrTruncated indicates a packet shorter than its header demands.
	ErrTruncated = errors.New("netpkt: truncated packet")
	// ErrBadChecksum indicates an IPv4 header checksum mismatch.
	ErrBadChecksum = errors.New("netpkt: bad IPv4 header checksum")
	// ErrBadVersion indicates a non-IPv4 version nibble.
	ErrBadVersion = errors.New("netpkt: unsupported IP version")
	// ErrTooLong indicates a packet whose length does not fit the 16-bit
	// length field of its IPv4 or UDP header. The header writers refuse it
	// rather than emit a wrapped length that a receiver would read as a
	// valid, shorter packet.
	ErrTooLong = errors.New("netpkt: packet too long for a 16-bit length field")
)

// maxLength is the largest value a 16-bit IPv4 total-length or UDP length
// field holds.
const maxLength = 0xffff

// EthernetFrame is an Ethernet II frame.
type EthernetFrame struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
	Payload   []byte
}

const ethernetHeaderLen = 14

// EthernetHeaderLen is the wire size of an Ethernet II header — the
// headroom senders reserve when building a frame in a single buffer.
const EthernetHeaderLen = ethernetHeaderLen

// The frame-headroom contract (DESIGN.md §10): a packet that will cross the
// fabric is encoded once, behind enough headroom for every header anyone in
// front of it writes — its IPv4 header, the inner Ethernet header and, on a
// cross-VM link, the VXLAN underlay's outer Ethernet, IPv4, UDP and VXLAN
// headers — and each layer writes its header into that headroom in place.
const (
	// IPv4HeaderLen is the wire size of an option-less IPv4 header.
	IPv4HeaderLen = ipv4HeaderLen
	// UnderlayHeaderLen is what VXLAN encapsulation puts in front of an
	// inner Ethernet frame: outer Ethernet, IPv4, UDP and VXLAN headers.
	UnderlayHeaderLen = ethernetHeaderLen + ipv4HeaderLen + udpHeaderLen + vxlanHeaderLen
	// FrameHeadroom is the headroom in front of an IPv4 payload: room for
	// the IPv4 header, the inner Ethernet header and the underlay headers.
	FrameHeadroom = UnderlayHeaderLen + ethernetHeaderLen + ipv4HeaderLen
)

// PutEthernetHeader encodes an Ethernet II header into b[:14].
func PutEthernetHeader(b []byte, dst, src MAC, etherType uint16) {
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[12:14], etherType)
}

// Marshal encodes the frame to wire bytes.
func (f *EthernetFrame) Marshal() []byte {
	b := make([]byte, ethernetHeaderLen+len(f.Payload))
	PutEthernetHeader(b, f.Dst, f.Src, f.EtherType)
	copy(b[14:], f.Payload)
	return b
}

// UnmarshalEthernet decodes an Ethernet II frame. The returned frame's
// Payload aliases b.
func UnmarshalEthernet(b []byte) (*EthernetFrame, error) {
	if len(b) < ethernetHeaderLen {
		return nil, ErrTruncated
	}
	f := &EthernetFrame{EtherType: binary.BigEndian.Uint16(b[12:14]), Payload: b[14:]}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	return f, nil
}

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPPacket is an IPv4-over-Ethernet ARP packet.
type ARPPacket struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IP
	TargetMAC MAC
	TargetIP  IP
}

const arpLen = 28

// Marshal encodes the ARP packet.
func (a *ARPPacket) Marshal() []byte {
	b := make([]byte, arpLen)
	binary.BigEndian.PutUint16(b[0:2], 1)                    // HTYPE: Ethernet
	binary.BigEndian.PutUint16(b[2:4], EtherTypeIPv4)        // PTYPE
	b[4], b[5] = 6, 4                                        // HLEN, PLEN
	binary.BigEndian.PutUint16(b[6:8], a.Op)                 // OPER
	copy(b[8:14], a.SenderMAC[:])                            // SHA
	binary.BigEndian.PutUint32(b[14:18], uint32(a.SenderIP)) // SPA
	copy(b[18:24], a.TargetMAC[:])                           // THA
	binary.BigEndian.PutUint32(b[24:28], uint32(a.TargetIP)) // TPA
	return b
}

// UnmarshalARP decodes an ARP packet.
func UnmarshalARP(b []byte) (*ARPPacket, error) {
	if len(b) < arpLen {
		return nil, ErrTruncated
	}
	a := &ARPPacket{
		Op:       binary.BigEndian.Uint16(b[6:8]),
		SenderIP: IP(binary.BigEndian.Uint32(b[14:18])),
		TargetIP: IP(binary.BigEndian.Uint32(b[24:28])),
	}
	copy(a.SenderMAC[:], b[8:14])
	copy(a.TargetMAC[:], b[18:24])
	return a, nil
}

// IPv4Packet is an IPv4 datagram without options.
type IPv4Packet struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src      IP
	Dst      IP
	Payload  []byte
}

const ipv4HeaderLen = 20

// PutIPv4Header encodes an option-less IPv4 header for a payload of plen
// bytes into b[:20], computing the checksum. b may be dirty; every header
// byte is written. A payload too long for the total-length field is refused
// with ErrTooLong, and b is left untouched.
func PutIPv4Header(b []byte, tos uint8, id uint16, ttl, proto uint8, src, dst IP, plen int) error {
	if plen < 0 || ipv4HeaderLen+plen > maxLength {
		return ErrTooLong
	}
	b[0] = 0x45 // version 4, IHL 5
	b[1] = tos
	binary.BigEndian.PutUint16(b[2:4], uint16(ipv4HeaderLen+plen))
	binary.BigEndian.PutUint16(b[4:6], id)
	b[6], b[7] = 0, 0 // flags/fragment offset
	b[8] = ttl
	b[9] = proto
	b[10], b[11] = 0, 0 // checksum, computed below
	binary.BigEndian.PutUint32(b[12:16], uint32(src))
	binary.BigEndian.PutUint32(b[16:20], uint32(dst))
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[:ipv4HeaderLen]))
	return nil
}

// Marshal encodes the datagram, computing the header checksum. It returns
// nil for a payload too long for IPv4 (see ErrTooLong).
func (p *IPv4Packet) Marshal() []byte { return p.MarshalFramed(0) }

// MarshalFramed encodes the datagram like Marshal, but leaves room bytes of
// headroom in front of the IP header, so outer headers (Ethernet, and the
// underlay's on a cross-VM link) can be filled into the same buffer later
// without re-copying the packet. It returns nil for a payload too long for
// IPv4.
func (p *IPv4Packet) MarshalFramed(room int) []byte {
	if ipv4HeaderLen+len(p.Payload) > maxLength {
		return nil
	}
	b := make([]byte, room+ipv4HeaderLen+len(p.Payload))
	PutIPv4Header(b[room:], p.TOS, p.ID, p.TTL, p.Protocol, p.Src, p.Dst, len(p.Payload))
	copy(b[room+ipv4HeaderLen:], p.Payload)
	return b
}

// UnmarshalIPv4 decodes an IPv4 datagram, validating version, length and
// header checksum. Options are accepted and skipped. Payload aliases b.
func UnmarshalIPv4(b []byte) (*IPv4Packet, error) {
	p := &IPv4Packet{}
	if err := p.Unmarshal(b); err != nil {
		return nil, err
	}
	return p, nil
}

// Unmarshal is UnmarshalIPv4 into a packet the caller already has — a local
// variable on a receive path that decodes one per frame. p is unchanged on
// error.
func (p *IPv4Packet) Unmarshal(b []byte) error {
	if len(b) < ipv4HeaderLen {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return ErrTruncated
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return ErrTruncated
	}
	if Checksum(b[:ihl]) != 0 {
		return ErrBadChecksum
	}
	*p = IPv4Packet{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		TTL:      b[8],
		Protocol: b[9],
		Src:      IP(binary.BigEndian.Uint32(b[12:16])),
		Dst:      IP(binary.BigEndian.Uint32(b[16:20])),
		Payload:  b[ihl:total],
	}
	return nil
}

// Checksum computes the RFC 1071 Internet checksum of b. Computing it over a
// header with its checksum field populated yields zero iff the checksum is
// valid.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// UDPDatagram is a UDP datagram. The emulator does not compute the UDP
// checksum (legal for IPv4: all-zero means unused), matching Linux VXLAN's
// default of zero outer UDP checksums.
type UDPDatagram struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

const udpHeaderLen = 8

// Marshal encodes the datagram. It returns nil for a payload too long for
// the 16-bit length field (see ErrTooLong).
func (u *UDPDatagram) Marshal() []byte {
	if udpHeaderLen+len(u.Payload) > maxLength {
		return nil
	}
	b := make([]byte, udpHeaderLen+len(u.Payload))
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(b)))
	copy(b[8:], u.Payload)
	return b
}

// UnmarshalUDP decodes a UDP datagram. Payload aliases b.
func UnmarshalUDP(b []byte) (*UDPDatagram, error) {
	if len(b) < udpHeaderLen {
		return nil, ErrTruncated
	}
	l := int(binary.BigEndian.Uint16(b[4:6]))
	if l < udpHeaderLen || l > len(b) {
		return nil, ErrTruncated
	}
	return &UDPDatagram{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[udpHeaderLen:l],
	}, nil
}

// ICMP types used by the emulator.
const (
	ICMPEchoReply    uint8 = 0
	ICMPUnreachable  uint8 = 3
	ICMPEchoRequest  uint8 = 8
	ICMPTimeExceeded uint8 = 11
)

// ICMPMessage is an ICMP message.
type ICMPMessage struct {
	Type    uint8
	Code    uint8
	ID      uint16
	Seq     uint16
	Payload []byte
}

const icmpHeaderLen = 8

// Marshal encodes the message with a valid checksum.
func (m *ICMPMessage) Marshal() []byte {
	b := make([]byte, icmpHeaderLen+len(m.Payload))
	b[0] = m.Type
	b[1] = m.Code
	binary.BigEndian.PutUint16(b[4:6], m.ID)
	binary.BigEndian.PutUint16(b[6:8], m.Seq)
	copy(b[8:], m.Payload)
	binary.BigEndian.PutUint16(b[2:4], Checksum(b))
	return b
}

// UnmarshalICMP decodes an ICMP message and validates its checksum.
func UnmarshalICMP(b []byte) (*ICMPMessage, error) {
	if len(b) < icmpHeaderLen {
		return nil, ErrTruncated
	}
	if Checksum(b) != 0 {
		return nil, ErrBadChecksum
	}
	return &ICMPMessage{
		Type:    b[0],
		Code:    b[1],
		ID:      binary.BigEndian.Uint16(b[4:6]),
		Seq:     binary.BigEndian.Uint16(b[6:8]),
		Payload: b[8:],
	}, nil
}

// VXLANHeader is the 8-byte RFC 7348 VXLAN header. Only the I flag and the
// 24-bit VNI are meaningful.
type VXLANHeader struct {
	VNI uint32
}

const vxlanHeaderLen = 8

// Marshal encodes the header followed by the inner Ethernet frame.
func (v *VXLANHeader) Marshal(inner []byte) []byte {
	b := make([]byte, vxlanHeaderLen+len(inner))
	b[0] = 0x08 // flags: I bit set
	b[4] = byte(v.VNI >> 16)
	b[5] = byte(v.VNI >> 8)
	b[6] = byte(v.VNI)
	copy(b[8:], inner)
	return b
}

// UnmarshalVXLAN decodes a VXLAN header, returning the VNI and the inner
// frame bytes (aliasing b).
func UnmarshalVXLAN(b []byte) (VXLANHeader, []byte, error) {
	if len(b) < vxlanHeaderLen {
		return VXLANHeader{}, nil, ErrTruncated
	}
	if b[0]&0x08 == 0 {
		return VXLANHeader{}, nil, errors.New("netpkt: VXLAN I flag not set")
	}
	vni := uint32(b[4])<<16 | uint32(b[5])<<8 | uint32(b[6])
	return VXLANHeader{VNI: vni}, b[8:], nil
}

// EncapVXLAN wraps an inner Ethernet frame in VXLAN/UDP/IPv4/Ethernet for
// transport over the underlay, as the paper's virtual links do (§4.2,
// Figure 5). It copies inner behind PutVXLANHeaders' headers in one buffer;
// an inner frame too long for the outer IPv4 length field yields nil.
func EncapVXLAN(vni uint32, srcIP, dstIP IP, srcMAC, dstMAC MAC, srcPort uint16, inner []byte) []byte {
	b := make([]byte, UnderlayHeaderLen+len(inner))
	if PutVXLANHeaders(b, vni, srcIP, dstIP, srcMAC, dstMAC, srcPort, len(inner)) != nil {
		return nil
	}
	copy(b[UnderlayHeaderLen:], inner)
	return b
}

// PutVXLANHeaders writes the underlay headers for an inner Ethernet frame of
// innerLen bytes into b[:UnderlayHeaderLen] — outer Ethernet, IPv4 (no
// options, checksummed), UDP (zero checksum, as Linux VXLAN defaults) and
// VXLAN — so a frame built behind FrameHeadroom is encapsulated in place.
// b may be dirty; every header byte is written. An inner frame too long for
// the outer IPv4 length field is refused with ErrTooLong, b untouched.
func PutVXLANHeaders(b []byte, vni uint32, srcIP, dstIP IP, srcMAC, dstMAC MAC, srcPort uint16, innerLen int) error {
	ipLen := UnderlayHeaderLen - ethernetHeaderLen + innerLen
	if innerLen < 0 || ipLen > maxLength {
		return ErrTooLong
	}
	h := (*[UnderlayHeaderLen]byte)(b)
	PutEthernetHeader(h[:], dstMAC, srcMAC, EtherTypeIPv4)
	PutIPv4Header(h[ethernetHeaderLen:], 0, 0, 64, ProtoUDP, srcIP, dstIP, ipLen-ipv4HeaderLen)
	udp := h[ethernetHeaderLen+ipv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], srcPort)
	binary.BigEndian.PutUint16(udp[2:4], VXLANPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(ipLen-ipv4HeaderLen))
	udp[6], udp[7] = 0, 0
	// VXLAN: the I flag, then the 24-bit VNI between reserved bytes.
	binary.BigEndian.PutUint32(udp[8:12], 0x08000000)
	binary.BigEndian.PutUint32(udp[12:16], vni<<8)
	return nil
}

// DecapVXLAN unwraps a full underlay frame produced by EncapVXLAN, returning
// the VNI and inner Ethernet frame bytes.
func DecapVXLAN(b []byte) (vni uint32, inner []byte, err error) {
	eth, err := UnmarshalEthernet(b)
	if err != nil {
		return 0, nil, err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return 0, nil, fmt.Errorf("netpkt: underlay ethertype %#04x is not IPv4", eth.EtherType)
	}
	ip, err := UnmarshalIPv4(eth.Payload)
	if err != nil {
		return 0, nil, err
	}
	if ip.Protocol != ProtoUDP {
		return 0, nil, fmt.Errorf("netpkt: underlay protocol %d is not UDP", ip.Protocol)
	}
	udp, err := UnmarshalUDP(ip.Payload)
	if err != nil {
		return 0, nil, err
	}
	if udp.DstPort != VXLANPort {
		return 0, nil, fmt.Errorf("netpkt: underlay UDP port %d is not VXLAN", udp.DstPort)
	}
	hdr, inner, err := UnmarshalVXLAN(udp.Payload)
	if err != nil {
		return 0, nil, err
	}
	return hdr.VNI, inner, nil
}
