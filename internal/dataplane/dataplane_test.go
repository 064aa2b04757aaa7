package dataplane

import (
	"testing"
	"testing/quick"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }
func ip(s string) netpkt.IP      { return netpkt.MustParseIP(s) }

func newFwd(t *testing.T) *Forwarder {
	fib := rib.NewFIB()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fib.Install(&rib.Entry{
		Prefix: pfx("100.64.0.0/24"), Proto: rib.ProtoBGP,
		NextHops: []rib.NextHop{{IP: ip("10.128.0.1"), Interface: "et0"}},
	}))
	must(fib.Install(&rib.Entry{
		Prefix: pfx("100.65.0.0/24"), Proto: rib.ProtoBGP,
		NextHops: []rib.NextHop{
			{IP: ip("10.128.0.1"), Interface: "et0"},
			{IP: ip("10.128.0.3"), Interface: "et1"},
			{IP: ip("10.128.0.5"), Interface: "et2"},
			{IP: ip("10.128.0.7"), Interface: "et3"},
		},
	}))
	return NewForwarder(fib, 42, map[netpkt.IP]bool{ip("10.0.0.1"): true}, nil, nil)
}

// withACLs returns f with the given ACL bindings.
func withACLs(f *Forwarder, in, out map[string]*ACL) *Forwarder {
	return NewForwarder(f.fib, f.ecmpSeed, f.local, in, out)
}

func meta(dst string) *PacketMeta {
	return &PacketMeta{Src: ip("192.0.2.1"), Dst: ip(dst), Proto: netpkt.ProtoUDP, SrcPort: 1234, DstPort: 80, TTL: 64}
}

func TestForwardBasic(t *testing.T) {
	f := newFwd(t)
	d := f.Forward("et9", meta("100.64.0.55"))
	if d.Verdict != VerdictForward || d.NextHop != ip("10.128.0.1") || d.Egress != "et0" {
		t.Fatalf("decision = %+v", d)
	}
	if d.Entry == nil || d.Entry.Prefix != pfx("100.64.0.0/24") {
		t.Fatal("matched entry not reported")
	}
}

func TestLocalDelivery(t *testing.T) {
	f := newFwd(t)
	if d := f.Forward("et0", meta("10.0.0.1")); d.Verdict != VerdictLocal {
		t.Fatalf("verdict = %v, want local", d.Verdict)
	}
}

func TestNoRoute(t *testing.T) {
	f := newFwd(t)
	if d := f.Forward("et0", meta("203.0.113.5")); d.Verdict != VerdictNoRoute {
		t.Fatalf("verdict = %v, want no-route", d.Verdict)
	}
}

func TestTTLExpired(t *testing.T) {
	f := newFwd(t)
	m := meta("100.64.0.1")
	m.TTL = 1
	if d := f.Forward("et0", m); d.Verdict != VerdictTTLExpired {
		t.Fatalf("verdict = %v, want ttl-expired", d.Verdict)
	}
	// TTL does not gate local delivery.
	m2 := meta("10.0.0.1")
	m2.TTL = 1
	if d := f.Forward("et0", m2); d.Verdict != VerdictLocal {
		t.Fatal("TTL must not gate local delivery")
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	f := newFwd(t)
	m := meta("100.65.0.9")
	first := f.Forward("", m)
	for i := 0; i < 10; i++ {
		if d := f.Forward("", m); d.Egress != first.Egress {
			t.Fatal("same flow hashed to different paths")
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	f := newFwd(t)
	seen := map[string]int{}
	for port := uint16(1); port <= 200; port++ {
		m := meta("100.65.0.9")
		m.SrcPort = port
		d := f.Forward("", m)
		if d.Verdict != VerdictForward {
			t.Fatalf("verdict = %v", d.Verdict)
		}
		seen[d.Egress]++
	}
	if len(seen) != 4 {
		t.Fatalf("flows used %d of 4 paths: %v", len(seen), seen)
	}
	for eg, n := range seen {
		if n < 20 {
			t.Fatalf("path %s underused (%d/200): %v", eg, n, seen)
		}
	}
}

func TestECMPSeedChangesMapping(t *testing.T) {
	fib := rib.NewFIB()
	fib.Install(&rib.Entry{
		Prefix: pfx("100.65.0.0/24"), Proto: rib.ProtoBGP,
		NextHops: []rib.NextHop{
			{IP: 1, Interface: "et0"}, {IP: 2, Interface: "et1"},
			{IP: 3, Interface: "et2"}, {IP: 4, Interface: "et3"},
		},
	})
	a, b := NewForwarder(fib, 1, nil, nil, nil), NewForwarder(fib, 2, nil, nil, nil)
	diff := 0
	for port := uint16(1); port <= 64; port++ {
		m := meta("100.65.0.9")
		m.SrcPort = port
		if a.Forward("", m).Egress != b.Forward("", m).Egress {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical ECMP mapping for all flows")
	}
}

func TestIngressACLDeny(t *testing.T) {
	plain := newFwd(t)
	src := pfx("192.0.2.0/24")
	f := withACLs(plain, map[string]*ACL{"et9": {
		Name:          "edge-in",
		Rules:         []ACLRule{{Action: ACLDeny, Src: &src}},
		DefaultAction: ACLPermit,
	}}, nil)
	d := f.Forward("et9", meta("100.64.0.1"))
	if d.Verdict != VerdictACLDenied || d.ACL != "edge-in" {
		t.Fatalf("decision = %+v", d)
	}
	// Other ingress unaffected.
	if d := f.Forward("et8", meta("100.64.0.1")); d.Verdict != VerdictForward {
		t.Fatal("ACL leaked to other interface")
	}
	// The forwarder without the binding forwards.
	if d := plain.Forward("et9", meta("100.64.0.1")); d.Verdict != VerdictForward {
		t.Fatal("ACL leaked to a forwarder without it")
	}
}

func TestEgressACLDeny(t *testing.T) {
	f := withACLs(newFwd(t), nil, map[string]*ACL{"et0": {
		Name:          "out-guard",
		Rules:         []ACLRule{{Action: ACLDeny, Proto: netpkt.ProtoUDP, DstPort: 80}},
		DefaultAction: ACLPermit,
	}})
	d := f.Forward("", meta("100.64.0.1"))
	if d.Verdict != VerdictACLDenied || d.ACL != "out-guard" {
		t.Fatalf("decision = %+v", d)
	}
	m := meta("100.64.0.1")
	m.DstPort = 443
	if d := f.Forward("", m); d.Verdict != VerdictForward {
		t.Fatal("unrelated port blocked")
	}
}

func TestACLImplicitDeny(t *testing.T) {
	allowed := pfx("100.64.0.0/24")
	acl := &ACL{Name: "strict", Rules: []ACLRule{{Action: ACLPermit, Dst: &allowed}}}
	if acl.Eval(meta("100.64.0.1")) != ACLPermit {
		t.Fatal("permit rule missed")
	}
	if acl.Eval(meta("100.65.0.1")) != ACLDeny {
		t.Fatal("implicit deny missed")
	}
	var nilACL *ACL
	if nilACL.Eval(meta("1.2.3.4")) != ACLPermit {
		t.Fatal("nil ACL must permit")
	}
}

// TestMistypedACLBlackhole reproduces the paper's §2 human-error example:
// "deny 10.0.0.0/2" typed instead of "deny 10.0.0.0/20" blackholes a vast
// range.
func TestMistypedACLBlackhole(t *testing.T) {
	intended := pfx("10.0.0.0/20")
	typo := pfx("10.0.0.0/2")
	mk := func(p netpkt.Prefix) *ACL {
		return &ACL{Name: "guard", Rules: []ACLRule{{Action: ACLDeny, Dst: &p}}, DefaultAction: ACLPermit}
	}
	victim := meta("10.200.1.1") // inside /2, far outside /20
	if mk(intended).Eval(victim) != ACLPermit {
		t.Fatal("intended ACL should permit")
	}
	if mk(typo).Eval(victim) != ACLDeny {
		t.Fatal("typo ACL should (wrongly) deny — the incident CrystalNet catches")
	}
}

func TestVerdictAndMetaStrings(t *testing.T) {
	if VerdictForward.String() != "forward" || VerdictNoRoute.String() != "no-route" || Verdict(99).String() != "unknown" {
		t.Fatal("verdict names wrong")
	}
	m := meta("100.64.0.1")
	if m.String() == "" {
		t.Fatal("meta string empty")
	}
}

func TestPropertyECMPIndexInRange(t *testing.T) {
	fib := rib.NewFIB()
	f := NewForwarder(fib, 7, nil, nil, nil)
	fn := func(src, dst uint32, proto uint8, sp, dp uint16, n uint8) bool {
		paths := int(n%16) + 1
		m := &PacketMeta{Src: netpkt.IP(src), Dst: netpkt.IP(dst), Proto: proto, SrcPort: sp, DstPort: dp}
		i := f.ecmpIndex(m, paths)
		return i >= 0 && i < paths
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForward(b *testing.B) {
	f := NewForwarder(rib.NewFIB(), 3, nil, nil, nil)
	for i := 0; i < 10000; i++ {
		f.FIB().Install(&rib.Entry{
			Prefix:   netpkt.Prefix{Addr: netpkt.IP(0x64000000 + i*256), Len: 24},
			Proto:    rib.ProtoBGP,
			NextHops: []rib.NextHop{{IP: 1, Interface: "et0"}, {IP: 2, Interface: "et1"}},
		})
	}
	m := &PacketMeta{Src: 9, Dst: netpkt.IP(0x64000000 + 999*256 + 1), Proto: netpkt.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SrcPort = uint16(i)
		if d := f.Forward("et9", m); d.Verdict != VerdictForward {
			b.Fatal(d.Verdict)
		}
	}
}
