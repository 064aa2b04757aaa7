package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"crystalnet/internal/netpkt"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         uint8 = 1
	MsgUpdate       uint8 = 2
	MsgNotification uint8 = 3
	MsgKeepalive    uint8 = 4
)

// Protocol constants.
const (
	Version       = 4
	ASTrans       = 23456 // RFC 6793 placeholder for 4-octet AS speakers
	headerLen     = 19
	maxMessageLen = 4096
	markerLen     = 16
)

// Path attribute type codes.
const (
	attrOrigin     uint8 = 1
	attrASPath     uint8 = 2
	attrNextHop    uint8 = 3
	attrMED        uint8 = 4
	attrLocalPref  uint8 = 5
	attrAtomicAgg  uint8 = 6
	attrAggregator uint8 = 7
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagExtLen     uint8 = 0x10
)

// Capability codes carried in OPEN optional parameters.
const (
	capFourOctetAS uint8 = 65
	// capConnGen is a private-use capability carrying the sender's
	// connection generation — the emulator's stand-in for TCP connection
	// identity, letting a receiver distinguish a duplicate OPEN of the
	// current connection from a genuinely new one after a peer restart.
	capConnGen uint8 = 0xF0
)

// Errors surfaced by the codec. Real firmware sends NOTIFICATION with
// error codes; the emulator maps decode failures onto these.
var (
	ErrBadMarker  = errors.New("bgp: connection not synchronized (bad marker)")
	ErrBadLength  = errors.New("bgp: bad message length")
	ErrBadType    = errors.New("bgp: bad message type")
	ErrMalformed  = errors.New("bgp: malformed attribute list")
	ErrBadVersion = errors.New("bgp: unsupported version number")
)

// Open is a BGP OPEN message.
type Open struct {
	AS       uint32 // full 4-octet AS
	HoldTime uint16
	BGPID    netpkt.IP
	// Gen identifies the connection incarnation (see capConnGen).
	Gen uint32
}

// Update is a BGP UPDATE message: withdrawals plus announcements sharing one
// attribute set. An Update with only withdrawals has nil Attrs.
//
// NextHop carries the NEXT_HOP path attribute. It rides the Update rather
// than the Attrs: the fabric is next-hop-self on every session (RFC 7938),
// so a route's next hop is a property of the announcing session, not of the
// route — the sender stamps its session address here at marshal time and
// the receiver recovers it from the peer that delivered the message. Keeping
// it out of Attrs is what lets one canonical interned attribute object be
// shared by every session and every device in the process (DESIGN.md §10).
type Update struct {
	Withdrawn []netpkt.Prefix
	Attrs     *Attrs
	NextHop   netpkt.IP
	NLRI      []netpkt.Prefix
}

// Notification is a BGP NOTIFICATION message; sending one closes the session.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes (RFC 4271 §4.5).
const (
	NotifMsgHeader   uint8 = 1
	NotifOpenError   uint8 = 2
	NotifUpdateError uint8 = 3
	NotifHoldTimer   uint8 = 4
	NotifFSMError    uint8 = 5
	NotifCease       uint8 = 6
)

func putHeader(b []byte, msgType uint8) {
	for i := 0; i < markerLen; i++ {
		b[i] = 0xff
	}
	binary.BigEndian.PutUint16(b[16:18], uint16(len(b)))
	b[18] = msgType
}

// MarshalOpen encodes an OPEN with the 4-octet-AS and connection-generation
// capabilities.
func MarshalOpen(o *Open) []byte {
	// Optional parameter: type 2 (capability), two capabilities.
	capData := make([]byte, 4)
	binary.BigEndian.PutUint32(capData, o.AS)
	optParams := []byte{2, 12, capFourOctetAS, 4}
	optParams = append(optParams, capData...)
	genData := make([]byte, 4)
	binary.BigEndian.PutUint32(genData, o.Gen)
	optParams = append(optParams, capConnGen, 4)
	optParams = append(optParams, genData...)

	b := make([]byte, headerLen+10+len(optParams))
	p := b[headerLen:]
	p[0] = Version
	as2 := o.AS
	if as2 > 0xffff {
		as2 = ASTrans
	}
	binary.BigEndian.PutUint16(p[1:3], uint16(as2))
	binary.BigEndian.PutUint16(p[3:5], o.HoldTime)
	binary.BigEndian.PutUint32(p[5:9], uint32(o.BGPID))
	p[9] = byte(len(optParams))
	copy(p[10:], optParams)
	putHeader(b, MsgOpen)
	return b
}

// MarshalKeepalive encodes a KEEPALIVE.
func MarshalKeepalive() []byte {
	b := make([]byte, headerLen)
	putHeader(b, MsgKeepalive)
	return b
}

// MarshalNotification encodes a NOTIFICATION.
func MarshalNotification(n *Notification) []byte {
	b := make([]byte, headerLen+2+len(n.Data))
	b[headerLen] = n.Code
	b[headerLen+1] = n.Subcode
	copy(b[headerLen+2:], n.Data)
	putHeader(b, MsgNotification)
	return b
}

func marshalPrefixes(dst []byte, ps []netpkt.Prefix) []byte {
	for _, p := range ps {
		dst = append(dst, p.Len)
		oct := p.Addr.Octets()
		dst = append(dst, oct[:(p.Len+7)/8]...)
	}
	return dst
}

// prefixesWireLen returns the encoded size of ps.
func prefixesWireLen(ps []netpkt.Prefix) int {
	n := len(ps)
	for _, p := range ps {
		n += int(p.Len+7) / 8
	}
	return n
}

// parsePrefixes decodes a withdrawn-routes or NLRI field. A first pass
// validates and counts, so the result goes into buf when it fits (capacity
// clipped) and is allocated once at its final size otherwise.
func parsePrefixes(b []byte, buf []netpkt.Prefix) ([]netpkt.Prefix, error) {
	n := 0
	for i := 0; i < len(b); n++ {
		if b[i] > 32 {
			return nil, ErrMalformed
		}
		i += 1 + int(b[i]+7)/8
		if i > len(b) {
			return nil, ErrMalformed
		}
	}
	if n == 0 {
		return nil, nil
	}
	var out []netpkt.Prefix
	if n <= len(buf) {
		out = buf[:n:n]
	} else {
		out = make([]netpkt.Prefix, n)
	}
	for k := range out {
		l := b[0]
		end := 1 + int(l+7)/8
		var oct [4]byte
		copy(oct[:], b[1:end])
		p := netpkt.Prefix{Addr: netpkt.IPFromBytes(oct[0], oct[1], oct[2], oct[3]), Len: l}
		p.Addr &= p.MaskIP()
		out[k] = p
		b = b[end:]
	}
	return out, nil
}

// MarshalUpdate encodes an UPDATE. AS numbers in AS_PATH are 4 octets (both
// ends of every emulated session negotiate the AS4 capability). The message is
// sized exactly and allocated once; the attributes are u.Attrs' memoised wire
// image with u.NextHop patched in, so u.Attrs must not be edited afterwards
// (see Attrs.memo).
func MarshalUpdate(u *Update) []byte { return marshalUpdate(u, 0) }

// marshalUpdate is MarshalUpdate encoding the message behind room bytes of
// headroom in the one buffer it allocates: a Peer sends every UPDATE behind
// netpkt.FrameHeadroom, so the frame around it is built in place.
func marshalUpdate(u *Update, room int) []byte {
	var image []byte
	nhOff := 0
	if u.Attrs != nil {
		image, nhOff = wireImage(u.Attrs)
	}
	wl := prefixesWireLen(u.Withdrawn)
	b := make([]byte, room+headerLen, room+headerLen+4+wl+len(image)+prefixesWireLen(u.NLRI))
	b = append(b, byte(wl>>8), byte(wl))
	b = marshalPrefixes(b, u.Withdrawn)
	b = append(b, byte(len(image)>>8), byte(len(image)))
	nhOff += len(b)
	b = append(b, image...)
	if u.Attrs != nil {
		binary.BigEndian.PutUint32(b[nhOff:], uint32(u.NextHop))
	}
	b = marshalPrefixes(b, u.NLRI)
	putHeader(b[room:], MsgUpdate)
	return b
}

// wireImage returns a's encoded path attributes with a zero NEXT_HOP and the
// offset of the NEXT_HOP value in them, filling the memo on first use. The
// image is shared by every message built from a: read-only.
func wireImage(a *Attrs) (image []byte, nhOff int) {
	if a.memo.wire == nil {
		a.memo.wire, a.memo.nhOff = marshalAttrs(a, 0)
	} else if debugAttrs {
		assertSealed(a)
	}
	return a.memo.wire, a.memo.nhOff
}

func appendAttr(dst []byte, flags, typ uint8, data []byte) []byte {
	if len(data) > 255 {
		flags |= flagExtLen
		dst = append(dst, flags, typ, byte(len(data)>>8), byte(len(data)))
	} else {
		dst = append(dst, flags, typ, byte(len(data)))
	}
	return append(dst, data...)
}

// marshalAttrs is the path-attribute encoder: everything on the wire comes
// from it, through wireImage. nhOff is the offset of the NEXT_HOP value.
func marshalAttrs(a *Attrs, nextHop netpkt.IP) (out []byte, nhOff int) {
	out = appendAttr(out, flagTransitive, attrOrigin, []byte{byte(a.Origin)})

	var pathData []byte
	if a.Path != nil {
		for _, seg := range a.Path.Segments {
			pathData = append(pathData, byte(seg.Type), byte(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				var v [4]byte
				binary.BigEndian.PutUint32(v[:], asn)
				pathData = append(pathData, v[:]...)
			}
		}
	}
	out = appendAttr(out, flagTransitive, attrASPath, pathData)

	var nh [4]byte
	binary.BigEndian.PutUint32(nh[:], uint32(nextHop))
	nhOff = len(out) + 3
	out = appendAttr(out, flagTransitive, attrNextHop, nh[:])

	if a.HasMED {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.MED)
		out = appendAttr(out, flagOptional, attrMED, v[:])
	}
	if a.HasLP {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.LocalPref)
		out = appendAttr(out, flagTransitive, attrLocalPref, v[:])
	}
	if a.Atomic {
		out = appendAttr(out, flagTransitive, attrAtomicAgg, nil)
	}
	if a.AggAS != 0 {
		var v [8]byte
		binary.BigEndian.PutUint32(v[0:4], a.AggAS)
		binary.BigEndian.PutUint32(v[4:8], uint32(a.AggID))
		out = appendAttr(out, flagOptional|flagTransitive, attrAggregator, v[:])
	}
	return out, nhOff
}

// maxIndexedAttrs is the longest attribute list Decode looks up by its bytes;
// it sizes a stack buffer. A fabric path of a few ASNs encodes in under 64
// octets; longer lists go straight to parseAttrs.
const maxIndexedAttrs = 256

// decodeAttrs returns the canonical attribute set and the NEXT_HOP that the
// attribute list b encodes. The dominant cost at scale used to be every
// neighbor of every device re-parsing the same bytes into a fresh Attrs only
// for Intern to discard it on a hit, so b is first looked up as bytes, with
// the NEXT_HOP value (the one part that differs per session) masked out, in
// the intern table's wire index. Only a miss runs the parser, and registers b
// for next time. An indexed list is one parseAttrs has accepted before, and
// parseAttrs does not look at the NEXT_HOP value, so a hit skips no check.
func decodeAttrs(b []byte) (*Attrs, netpkt.IP, error) {
	var buf [maxIndexedAttrs]byte
	key, nextHop, ok := maskNextHop(&buf, b)
	if ok {
		if a := lookupWire(key); a != nil {
			if debugAttrs {
				assertWireHit(a, nextHop, b)
			}
			return a, nextHop, nil
		}
	}
	a, nextHop, err := parseAttrs(b)
	if err != nil {
		return nil, 0, err
	}
	return intern(a, key), nextHop, nil
}

// maskNextHop copies the attribute list b into buf with the NEXT_HOP value
// zeroed — the form of a wire image, and the wire index's key — and returns
// that copy and the next hop it held. ok is false, and key nil, when b is
// longer than buf or the walk cannot place exactly one four-octet NEXT_HOP;
// the caller then parses b in full, and parseAttrs owns every error. The walk
// indexes by lengths read from b and checks each against what is left.
func maskNextHop(buf *[maxIndexedAttrs]byte, b []byte) (key []byte, nextHop netpkt.IP, ok bool) {
	if len(b) > len(buf) {
		return nil, 0, false
	}
	nhOff := -1
	for i := 0; i < len(b); {
		if len(b)-i < 3 {
			return nil, 0, false
		}
		hdr, alen := 3, int(b[i+2])
		if b[i]&flagExtLen != 0 {
			if len(b)-i < 4 {
				return nil, 0, false
			}
			hdr, alen = 4, int(binary.BigEndian.Uint16(b[i+2:i+4]))
		}
		if len(b)-i-hdr < alen {
			return nil, 0, false
		}
		if b[i+1] == attrNextHop {
			if nhOff >= 0 || alen != 4 {
				return nil, 0, false
			}
			nhOff = i + hdr
		}
		i += hdr + alen
	}
	if nhOff < 0 {
		return nil, 0, false
	}
	key = buf[:copy(buf[:], b)]
	nextHop = netpkt.IP(binary.BigEndian.Uint32(key[nhOff:]))
	clear(key[nhOff : nhOff+4])
	return key, nextHop, true
}

func parseAttrs(b []byte) (*Attrs, netpkt.IP, error) {
	var nextHop netpkt.IP
	a := &Attrs{Path: EmptyPath}
	sawOrigin, sawPath, sawNextHop := false, false, false
	for len(b) > 0 {
		if len(b) < 3 {
			return nil, 0, ErrMalformed
		}
		flags, typ := b[0], b[1]
		var alen int
		var rest []byte
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return nil, 0, ErrMalformed
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			rest = b[4:]
		} else {
			alen = int(b[2])
			rest = b[3:]
		}
		if len(rest) < alen {
			return nil, 0, ErrMalformed
		}
		data := rest[:alen]
		b = rest[alen:]

		switch typ {
		case attrOrigin:
			if alen != 1 || data[0] > 2 {
				return nil, 0, ErrMalformed
			}
			a.Origin = Origin(data[0])
			sawOrigin = true
		case attrASPath:
			path := &ASPath{}
			d := data
			for len(d) > 0 {
				if len(d) < 2 {
					return nil, 0, ErrMalformed
				}
				st, cnt := SegmentType(d[0]), int(d[1])
				if st != ASSet && st != ASSequence {
					return nil, 0, ErrMalformed
				}
				if len(d) < 2+4*cnt {
					return nil, 0, ErrMalformed
				}
				seg := Segment{Type: st, ASNs: make([]uint32, cnt)}
				for i := 0; i < cnt; i++ {
					seg.ASNs[i] = binary.BigEndian.Uint32(d[2+4*i : 6+4*i])
				}
				path.Segments = append(path.Segments, seg)
				d = d[2+4*cnt:]
			}
			a.Path = path
			sawPath = true
		case attrNextHop:
			if alen != 4 {
				return nil, 0, ErrMalformed
			}
			nextHop = netpkt.IP(binary.BigEndian.Uint32(data))
			sawNextHop = true
		case attrMED:
			if alen != 4 {
				return nil, 0, ErrMalformed
			}
			a.MED, a.HasMED = binary.BigEndian.Uint32(data), true
		case attrLocalPref:
			if alen != 4 {
				return nil, 0, ErrMalformed
			}
			a.LocalPref, a.HasLP = binary.BigEndian.Uint32(data), true
		case attrAtomicAgg:
			a.Atomic = true
		case attrAggregator:
			if alen != 8 {
				return nil, 0, ErrMalformed
			}
			a.AggAS = binary.BigEndian.Uint32(data[0:4])
			a.AggID = netpkt.IP(binary.BigEndian.Uint32(data[4:8]))
		default:
			// Unknown optional attributes are ignored; unknown well-known
			// attributes are an error per RFC 4271.
			if flags&flagOptional == 0 {
				return nil, 0, ErrMalformed
			}
		}
	}
	if !sawOrigin || !sawPath || !sawNextHop {
		return nil, 0, ErrMalformed
	}
	return a, nextHop, nil
}

// Decoded is the result of decoding one message.
type Decoded struct {
	Type   uint8
	Open   *Open
	Update *Update
	Notif  *Notification
}

// smallPrefixes is how many withdrawn plus announced prefixes a decode
// takes room for up front: the fabric's UPDATEs carry fewer than two on
// average.
const smallPrefixes = 8

// body is a decoded message by value, less its prefix lists: its type and
// whichever body it has, an UPDATE's as its attributes and next hop. Its
// byte fields alias the message.
type body struct {
	typ     uint8
	attrs   *Attrs
	nextHop netpkt.IP
	o       Open
	n       Notification
}

// Decode parses a single complete BGP message.
func Decode(b []byte) (*Decoded, error) {
	m, withdrawn, nlri, err := decodeBody(b, nil)
	if err != nil {
		return nil, err
	}
	switch m.typ {
	case MsgOpen:
		o := m.o
		return &Decoded{Type: MsgOpen, Open: &o}, nil
	case MsgUpdate:
		u := &struct {
			d Decoded
			u Update
		}{}
		u.u = Update{Withdrawn: withdrawn, Attrs: m.attrs, NextHop: m.nextHop, NLRI: nlri}
		u.d = Decoded{Type: MsgUpdate, Update: &u.u}
		return &u.d, nil
	case MsgNotification:
		n := m.n
		return &Decoded{Type: MsgNotification, Notif: &n}, nil
	}
	return &Decoded{Type: m.typ}, nil
}

// decodeBody is Decode without the Decoded view, returning the body by value
// and an UPDATE's prefix lists on their own, in buf where they fit: a caller
// decoding into its own frame (Peer.HandleMessage) allocates nothing for a
// short UPDATE. (Returned apart from the body, the lists do not share a
// variable with the attributes pointer, so escape analysis can keep buf on
// the caller's stack.)
func decodeBody(b []byte, buf []netpkt.Prefix) (m body, withdrawn, nlri []netpkt.Prefix, err error) {
	if len(b) < headerLen {
		return m, nil, nil, ErrBadLength
	}
	for i := 0; i < markerLen; i++ {
		if b[i] != 0xff {
			return m, nil, nil, ErrBadMarker
		}
	}
	l := int(binary.BigEndian.Uint16(b[16:18]))
	if l < headerLen || l > maxMessageLen || l != len(b) {
		return m, nil, nil, ErrBadLength
	}
	m.typ = b[18]
	msg := b[headerLen:]
	switch m.typ {
	case MsgOpen:
		if len(msg) < 10 {
			return m, nil, nil, ErrBadLength
		}
		if msg[0] != Version {
			return m, nil, nil, ErrBadVersion
		}
		m.o = Open{
			AS:       uint32(binary.BigEndian.Uint16(msg[1:3])),
			HoldTime: binary.BigEndian.Uint16(msg[3:5]),
			BGPID:    netpkt.IP(binary.BigEndian.Uint32(msg[5:9])),
		}
		optLen := int(msg[9])
		if len(msg) < 10+optLen {
			return m, nil, nil, ErrBadLength
		}
		opts := msg[10 : 10+optLen]
		for len(opts) >= 2 {
			ptype, plen := opts[0], int(opts[1])
			if len(opts) < 2+plen {
				return m, nil, nil, ErrMalformed
			}
			if ptype == 2 { // capabilities
				caps := opts[2 : 2+plen]
				for len(caps) >= 2 {
					code, clen := caps[0], int(caps[1])
					if len(caps) < 2+clen {
						return m, nil, nil, ErrMalformed
					}
					if code == capFourOctetAS && clen == 4 {
						m.o.AS = binary.BigEndian.Uint32(caps[2:6])
					}
					if code == capConnGen && clen == 4 {
						m.o.Gen = binary.BigEndian.Uint32(caps[2:6])
					}
					caps = caps[2+clen:]
				}
			}
			opts = opts[2+plen:]
		}
		return m, nil, nil, nil
	case MsgUpdate:
		if len(msg) < 4 {
			return m, nil, nil, ErrBadLength
		}
		wl := int(binary.BigEndian.Uint16(msg[0:2]))
		if len(msg) < 2+wl+2 {
			return m, nil, nil, ErrMalformed
		}
		if withdrawn, err = parsePrefixes(msg[2:2+wl], buf); err != nil {
			return m, nil, nil, err
		}
		al := int(binary.BigEndian.Uint16(msg[2+wl : 4+wl]))
		if len(msg) < 4+wl+al {
			return m, nil, nil, ErrMalformed
		}
		attrBytes := msg[4+wl : 4+wl+al]
		nlriBytes := msg[4+wl+al:]
		if len(nlriBytes) > 0 && al == 0 {
			return m, nil, nil, ErrMalformed
		}
		if al > 0 {
			if m.attrs, m.nextHop, err = decodeAttrs(attrBytes); err != nil {
				return m, nil, nil, err
			}
		}
		if len(withdrawn) <= len(buf) {
			buf = buf[len(withdrawn):]
		}
		nlri, err = parsePrefixes(nlriBytes, buf)
		return m, withdrawn, nlri, err
	case MsgKeepalive:
		if l != headerLen {
			return m, nil, nil, ErrBadLength
		}
		return m, nil, nil, nil
	case MsgNotification:
		if len(msg) < 2 {
			return m, nil, nil, ErrBadLength
		}
		m.n = Notification{Code: msg[0], Subcode: msg[1], Data: msg[2:]}
		return m, nil, nil, nil
	default:
		return m, nil, nil, ErrBadType
	}
}

// MaxNLRIPerUpdate bounds how many prefixes fit into one UPDATE given the
// 4096-byte message cap; routers split larger batches. A nil attrs computes
// the bound for withdrawal-only messages.
func MaxNLRIPerUpdate(attrs *Attrs) int {
	overhead := headerLen + 4
	if attrs != nil {
		image, _ := wireImage(attrs)
		overhead += len(image)
	}
	per := 5 // worst case /32: 1 length byte + 4 octets
	return (maxMessageLen - overhead) / per
}

// String summarizes a decoded message for logs.
func (d *Decoded) String() string {
	switch d.Type {
	case MsgOpen:
		return fmt.Sprintf("OPEN as=%d id=%s hold=%d", d.Open.AS, d.Open.BGPID, d.Open.HoldTime)
	case MsgUpdate:
		return fmt.Sprintf("UPDATE nlri=%d withdrawn=%d", len(d.Update.NLRI), len(d.Update.Withdrawn))
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgNotification:
		return fmt.Sprintf("NOTIFICATION code=%d/%d", d.Notif.Code, d.Notif.Subcode)
	}
	return "UNKNOWN"
}
