// Package dataplane implements the per-device forwarding engine: longest-
// prefix-match over the FIB, 5-tuple ECMP hashing, ACL evaluation and TTL
// handling. CrystalNet uses it to answer "where would this packet go" for
// the InjectPackets/PullPackets telemetry APIs (§3.3) — the paper
// explicitly does not model data-plane performance, only forwarding
// behaviour, and neither does this engine.
//
// DESIGN.md §1 records the forwarding-only substitution; §2 places the
// engine in the inventory.
package dataplane

import (
	"fmt"
	"hash/fnv"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

// ACLAction is an ACL rule verdict.
type ACLAction uint8

// ACL actions. Deny is the zero value so that an ACL's unset DefaultAction
// is the conventional implicit deny of production routers (a nil *ACL still
// permits — no ACL bound).
const (
	ACLDeny ACLAction = iota
	ACLPermit
)

// ACLRule matches packets by 5-tuple fields; nil/zero fields are wildcards.
type ACLRule struct {
	Action   ACLAction
	Src, Dst *netpkt.Prefix
	Proto    uint8 // 0 = any
	DstPort  uint16
	SrcPort  uint16
}

// Matches reports whether the rule matches the packet.
func (r *ACLRule) Matches(m *PacketMeta) bool {
	if r.Src != nil && !r.Src.Contains(m.Src) {
		return false
	}
	if r.Dst != nil && !r.Dst.Contains(m.Dst) {
		return false
	}
	if r.Proto != 0 && r.Proto != m.Proto {
		return false
	}
	if r.DstPort != 0 && r.DstPort != m.DstPort {
		return false
	}
	if r.SrcPort != 0 && r.SrcPort != m.SrcPort {
		return false
	}
	return true
}

// ACL is an ordered access control list. The conventional implicit action
// is deny, matching production router semantics.
type ACL struct {
	Name          string
	Rules         []ACLRule
	DefaultAction ACLAction
}

// Eval returns the verdict for the packet.
func (a *ACL) Eval(m *PacketMeta) ACLAction {
	if a == nil {
		return ACLPermit
	}
	for i := range a.Rules {
		if a.Rules[i].Matches(m) {
			return a.Rules[i].Action
		}
	}
	return a.DefaultAction
}

// PacketMeta is the 5-tuple plus TTL used for forwarding decisions.
type PacketMeta struct {
	Src, Dst         netpkt.IP
	Proto            uint8
	SrcPort, DstPort uint16
	TTL              uint8
}

// String renders the 5-tuple.
func (m *PacketMeta) String() string {
	return fmt.Sprintf("%s:%d > %s:%d proto=%d ttl=%d", m.Src, m.SrcPort, m.Dst, m.DstPort, m.Proto, m.TTL)
}

// Verdict classifies the outcome of a forwarding decision.
type Verdict uint8

// Forwarding outcomes.
const (
	VerdictForward Verdict = iota
	VerdictLocal           // destination is one of the device's own addresses
	VerdictNoRoute
	VerdictACLDenied
	VerdictTTLExpired
)

var verdictNames = [...]string{"forward", "local", "no-route", "acl-denied", "ttl-expired"}

// String returns the verdict name.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// Decision is the result of one hop's forwarding evaluation.
type Decision struct {
	Verdict Verdict
	// NextHop and Egress are set for VerdictForward.
	NextHop netpkt.IP
	Egress  string
	// Entry is the FIB entry that matched, if any.
	Entry *rib.Entry
	// ACL names the ACL responsible for a deny.
	ACL string
}

// Forwarder is the forwarding engine of one device. Its local-address set
// and ACL bindings are fixed when it is built (NewForwarder) and never
// written afterwards, so clones share them.
type Forwarder struct {
	fib      *rib.FIB
	local    map[netpkt.IP]bool // device-owned addresses (loopback, interfaces)
	inACL    map[string]*ACL    // per ingress interface
	outACL   map[string]*ACL    // per egress interface
	ecmpSeed uint32
}

// NewForwarder wraps a FIB. The seed perturbs ECMP hashing per device, as
// hardware hash seeds do. local is the set of the device's own addresses,
// and in and out bind ACLs to ingress and egress interfaces (an interface
// with no ACL, or a nil one, permits everything). The forwarder keeps the
// three maps and never writes them, and neither may the caller: a device
// builds them once per boot, and every clone of the forwarder shares them.
func NewForwarder(fib *rib.FIB, seed uint32, local map[netpkt.IP]bool, in, out map[string]*ACL) *Forwarder {
	return &Forwarder{fib: fib, local: local, inACL: in, outACL: out, ecmpSeed: seed}
}

// FIB returns the underlying forwarding table.
func (f *Forwarder) FIB() *rib.FIB { return f.fib }

// IsLocal reports whether ip is one of the device's own addresses.
func (f *Forwarder) IsLocal(ip netpkt.IP) bool { return f.local[ip] }

// Forward evaluates one packet arriving on ingress (empty string for
// locally injected packets). It does not mutate m; the caller decrements
// TTL when actually moving the packet.
func (f *Forwarder) Forward(ingress string, m *PacketMeta) Decision {
	if ingress != "" {
		if acl := f.inACL[ingress]; acl.Eval(m) == ACLDeny {
			return Decision{Verdict: VerdictACLDenied, ACL: acl.Name}
		}
	}
	if f.local[m.Dst] {
		return Decision{Verdict: VerdictLocal}
	}
	if m.TTL <= 1 {
		return Decision{Verdict: VerdictTTLExpired}
	}
	entry, ok := f.fib.Lookup(m.Dst)
	if !ok || len(entry.NextHops) == 0 {
		return Decision{Verdict: VerdictNoRoute}
	}
	nh := entry.NextHops[f.ecmpIndex(m, len(entry.NextHops))]
	if acl := f.outACL[nh.Interface]; acl.Eval(m) == ACLDeny {
		return Decision{Verdict: VerdictACLDenied, ACL: acl.Name, Entry: entry}
	}
	return Decision{Verdict: VerdictForward, NextHop: nh.IP, Egress: nh.Interface, Entry: entry}
}

// FlowShare is one slice of a batched forwarding split: Flows flows of an
// aggregate leaving via Hop. A Denied share was stopped by the egress ACL
// named in ACL instead of leaving.
type FlowShare struct {
	Hop    rib.NextHop
	Flows  uint64
	Denied bool
	ACL    string
}

// DeniesIngress evaluates the ingress ACL bound to iface against m,
// returning the denying ACL's name. The traffic walk uses it to apply
// ingress ACLs before its destination-delivery short-circuit, preserving
// the Forward prologue's evaluation order.
func (f *Forwarder) DeniesIngress(iface string, m *PacketMeta) (string, bool) {
	if iface == "" {
		return "", false
	}
	if acl := f.inACL[iface]; acl.Eval(m) == ACLDeny {
		return acl.Name, true
	}
	return "", false
}

// ForwardBatch evaluates an aggregate of n flows that share the 5-tuple
// shape m (the flow-class representative) arriving on ingress. It is the
// batched form of Forward the traffic plane uses: one LPM per aggregate
// instead of one per flow, and instead of hashing one 5-tuple to one ECMP
// bucket it spreads the n flows across the matched entry's whole hop group
// with SpreadFlows keyed by key (the aggregate's seeded identity). Egress
// ACLs are evaluated per share, so a deny on one ECMP branch loses only
// that branch's flows. Non-forward verdicts apply to the whole aggregate
// and return dst unchanged.
//
// The shares are appended to dst, given as a buffer's empty prefix
// (buf[:0]...) or not at all: a caller that reuses one buffer across
// aggregates forwards without allocating, for groups of up to spreadOnStack
// hops.
func (f *Forwarder) ForwardBatch(ingress string, m *PacketMeta, n uint64, key uint64, dst ...FlowShare) (Decision, []FlowShare) {
	if ingress != "" {
		if acl := f.inACL[ingress]; acl.Eval(m) == ACLDeny {
			return Decision{Verdict: VerdictACLDenied, ACL: acl.Name}, dst
		}
	}
	if f.local[m.Dst] {
		return Decision{Verdict: VerdictLocal}, dst
	}
	if m.TTL <= 1 {
		return Decision{Verdict: VerdictTTLExpired}, dst
	}
	entry, ok := f.fib.Lookup(m.Dst)
	if !ok || len(entry.NextHops) == 0 {
		return Decision{Verdict: VerdictNoRoute}, dst
	}
	var buf [spreadOnStack]uint64
	counts := SpreadFlows(buf[:0], key, entry.NextHops, n)
	for i, nh := range entry.NextHops {
		if counts[i] == 0 {
			continue
		}
		s := FlowShare{Hop: nh, Flows: counts[i]}
		if acl := f.outACL[nh.Interface]; acl.Eval(m) == ACLDeny {
			s.Denied, s.ACL = true, acl.Name
		}
		dst = append(dst, s)
	}
	return Decision{Verdict: VerdictForward, Entry: entry}, dst
}

// spreadOnStack is the widest hop group ForwardBatch splits without a heap
// allocation; the evaluation fabrics' groups are a few hops wide.
const spreadOnStack = 16

// SpreadFlows deterministically spreads n flows across a hop group's
// buckets, appending one count per hop to dst: every bucket gets n/k, and
// the n%k remainder lands on a rotation anchored by mixing the aggregate key
// with rib.HashHops over the group's *content*. Hashing values rather than
// the slice identity keeps the split byte-identical across forks and runs,
// and any FIB reprogram that changes the group re-anchors the rotation —
// flows visibly re-spread, as real ECMP rehashing does.
func SpreadFlows(dst []uint64, key uint64, nhs []rib.NextHop, n uint64) []uint64 {
	k := uint64(len(nhs))
	if k == 0 {
		return dst
	}
	base, rem := n/k, n%k
	var start uint64
	if rem > 0 {
		// splitmix64 finalizer over (key ⊕ group content) anchors the rotation.
		x := key ^ rib.HashHops(nhs)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		start = x % k
	}
	for i := uint64(0); i < k; i++ {
		c := base
		if (i+k-start)%k < rem {
			c++ // bucket i is among the rem that follow start, cyclically
		}
		dst = append(dst, c)
	}
	return dst
}

// ecmpIndex hashes the 5-tuple to pick one of n next hops. The hash is
// deterministic per (device seed, flow), so a flow always takes one path —
// matching real ECMP.
func (f *Forwarder) ecmpIndex(m *PacketMeta, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	var b [17]byte
	put32 := func(off int, v uint32) {
		b[off] = byte(v >> 24)
		b[off+1] = byte(v >> 16)
		b[off+2] = byte(v >> 8)
		b[off+3] = byte(v)
	}
	put32(0, uint32(m.Src))
	put32(4, uint32(m.Dst))
	put32(8, f.ecmpSeed)
	b[12] = m.Proto
	b[13] = byte(m.SrcPort >> 8)
	b[14] = byte(m.SrcPort)
	b[15] = byte(m.DstPort >> 8)
	b[16] = byte(m.DstPort)
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// Clone returns a forwarder over fib (the forked emulation's own table)
// with the same local-address set, ACL bindings and ECMP hash seed as f,
// sharing all three: nothing writes them after NewForwarder. ACL objects are
// immutable once bound too — config reloads build new ACLs and a new
// forwarder rather than editing rules in place.
func (f *Forwarder) Clone(fib *rib.FIB) *Forwarder {
	c := *f
	c.fib = fib
	return &c
}
