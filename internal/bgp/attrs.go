// Package bgp implements the BGP-4 control plane that runs inside every
// emulated device: the RFC 4271 message codec (with 4-octet AS numbers per
// RFC 6793), the session state machine, the decision process with ECMP
// multipath, export policies, and the prefix-aggregation engine whose
// vendor-selectable AS-path behaviour reproduces the Figure 1 incident.
//
// The fabric follows RFC 7938 ("BGP in large-scale data centers"): eBGP on
// every link, next-hop-self everywhere, unique ASNs per the topo package's
// AS plan.
//
// DESIGN.md §2 places this substrate in the system inventory; §4 records the
// RFC-condensation decisions.
package bgp

import (
	"fmt"
	"strings"

	"crystalnet/internal/netpkt"
)

// Origin is the BGP ORIGIN attribute.
type Origin uint8

// Origin values, in decision-process preference order (lower preferred).
const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

// String returns the conventional origin letter.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "i"
	case OriginEGP:
		return "e"
	}
	return "?"
}

// SegmentType distinguishes AS_PATH segment kinds.
type SegmentType uint8

// AS_PATH segment types (RFC 4271 §4.3).
const (
	ASSet      SegmentType = 1
	ASSequence SegmentType = 2
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type SegmentType
	ASNs []uint32
}

// ASPath is a sequence of segments. Paths are treated as immutable once
// built; routers share them freely across RIB entries to keep L-DC-scale
// tables affordable.
type ASPath struct {
	Segments []Segment
}

// EmptyPath is the zero-length AS path used for locally originated routes.
var EmptyPath = &ASPath{}

// NewPath returns an AS_SEQUENCE path of the given ASNs.
func NewPath(asns ...uint32) *ASPath {
	if len(asns) == 0 {
		return EmptyPath
	}
	return &ASPath{Segments: []Segment{{Type: ASSequence, ASNs: asns}}}
}

// Length returns the decision-process path length: each AS_SEQUENCE member
// counts 1, each AS_SET counts 1 in total (RFC 4271 §9.1.2.2).
func (p *ASPath) Length() int {
	n := 0
	for _, s := range p.Segments {
		if s.Type == ASSet {
			n++
		} else {
			n += len(s.ASNs)
		}
	}
	return n
}

// Contains reports whether asn appears anywhere in the path — the BGP loop
// check Proposition 5.2's proof relies on.
func (p *ASPath) Contains(asn uint32) bool {
	for _, s := range p.Segments {
		for _, a := range s.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// Prepend returns a new path with asn prepended as an AS_SEQUENCE element.
// The receiver is not modified.
func (p *ASPath) Prepend(asn uint32) *ASPath {
	if len(p.Segments) > 0 && p.Segments[0].Type == ASSequence {
		seg := Segment{Type: ASSequence, ASNs: make([]uint32, 0, len(p.Segments[0].ASNs)+1)}
		seg.ASNs = append(seg.ASNs, asn)
		seg.ASNs = append(seg.ASNs, p.Segments[0].ASNs...)
		out := &ASPath{Segments: make([]Segment, 0, len(p.Segments))}
		out.Segments = append(out.Segments, seg)
		out.Segments = append(out.Segments, p.Segments[1:]...)
		return out
	}
	out := &ASPath{Segments: make([]Segment, 0, len(p.Segments)+1)}
	out.Segments = append(out.Segments, Segment{Type: ASSequence, ASNs: []uint32{asn}})
	out.Segments = append(out.Segments, p.Segments...)
	return out
}

// First returns the leftmost AS of the path (the neighbor that sent it), or
// 0 for an empty path.
func (p *ASPath) First() uint32 {
	for _, s := range p.Segments {
		if len(s.ASNs) > 0 {
			return s.ASNs[0]
		}
	}
	return 0
}

// Last returns the rightmost AS (the originator), or 0 for an empty path.
func (p *ASPath) Last() uint32 {
	for i := len(p.Segments) - 1; i >= 0; i-- {
		if n := len(p.Segments[i].ASNs); n > 0 {
			return p.Segments[i].ASNs[n-1]
		}
	}
	return 0
}

// Equal reports structural equality.
func (p *ASPath) Equal(q *ASPath) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i := range p.Segments {
		if p.Segments[i].Type != q.Segments[i].Type || len(p.Segments[i].ASNs) != len(q.Segments[i].ASNs) {
			return false
		}
		for j := range p.Segments[i].ASNs {
			if p.Segments[i].ASNs[j] != q.Segments[i].ASNs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the path in show-command style: "65100 65200 {1 2}".
func (p *ASPath) String() string {
	if len(p.Segments) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Type == ASSet {
			b.WriteByte('{')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", a)
		}
		if s.Type == ASSet {
			b.WriteByte('}')
		}
	}
	return b.String()
}

// Attrs is the full path-attribute set of a route. Attrs values are shared
// between all NLRI of an UPDATE and between RIB entries; treat as immutable.
//
// NextHop is zero on every RIB-resident Attrs the router produces: the
// fabric is next-hop-self on all sessions, so the next hop is carried
// per-message (Update.NextHop) and derived from the owning session at
// FIB-install time. That session-independence is what lets one interned
// Attrs be shared by every device in the process (DESIGN.md §10). The field
// remains for models that build standalone attribute sets (batfish).
type Attrs struct {
	Origin    Origin
	Path      *ASPath
	NextHop   netpkt.IP
	MED       uint32
	HasMED    bool
	LocalPref uint32 // default 100 when absent
	HasLP     bool
	Atomic    bool // ATOMIC_AGGREGATE
	AggAS     uint32
	AggID     netpkt.IP // AGGREGATOR

	// memo caches what is derived from the fields above. Attrs are immutable
	// once shared, so each part is filled at most once — by Intern before it
	// publishes the object, or lazily on an object only one goroutine holds;
	// code that derives a new attribute set from an existing one starts from
	// editable, which clears it.
	memo attrsMemo
}

// attrsMemo is the derived state cached on an Attrs (see Attrs.memo).
type attrsMemo struct {
	// ekey is the attrsKey fingerprint ("" = not yet computed).
	ekey string
	// wire is the encoded path-attribute list as marshalAttrs writes it with
	// a zero NEXT_HOP, and nhOff the offset of the four NEXT_HOP octets in
	// it (nil = not yet computed; see wireImage). Every UPDATE carrying these
	// attributes is this image with the session's address patched in.
	wire  []byte
	nhOff int
}

// editable returns a copy of a that the caller may change before sharing it:
// the fields are a's, the memo is empty.
func (a *Attrs) editable() *Attrs {
	c := *a
	c.memo = attrsMemo{}
	return &c
}

// EffectiveLocalPref returns LOCAL_PREF or the conventional default 100.
func (a *Attrs) EffectiveLocalPref() uint32 {
	if a.HasLP {
		return a.LocalPref
	}
	return 100
}

// WithNextHop returns a copy of a with the next hop replaced.
func (a *Attrs) WithNextHop(nh netpkt.IP) *Attrs {
	c := a.editable()
	c.NextHop = nh
	return c
}

// WithPath returns a copy of a with the AS path replaced.
func (a *Attrs) WithPath(p *ASPath) *Attrs {
	c := a.editable()
	c.Path = p
	return c
}

// String summarizes the attributes for show commands and logs.
func (a *Attrs) String() string {
	s := fmt.Sprintf("nh=%s path=[%s] origin=%s lp=%d", a.NextHop, a.Path, a.Origin, a.EffectiveLocalPref())
	if a.HasMED {
		s += fmt.Sprintf(" med=%d", a.MED)
	}
	if a.Atomic {
		s += " atomic"
	}
	return s
}
