package dataplane

import (
	"reflect"
	"testing"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

func ecmpHops() []rib.NextHop {
	return []rib.NextHop{
		{IP: ip("10.128.0.1"), Interface: "et0"},
		{IP: ip("10.128.0.3"), Interface: "et1"},
		{IP: ip("10.128.0.5"), Interface: "et2"},
		{IP: ip("10.128.0.7"), Interface: "et3"},
	}
}

func TestSpreadFlowsConserves(t *testing.T) {
	nhs := ecmpHops()
	for _, n := range []uint64{0, 1, 3, 4, 5, 1000, 1001, 1 << 40} {
		counts := SpreadFlows(9, nhs, n)
		if len(counts) != len(nhs) {
			t.Fatalf("n=%d: %d buckets, want %d", n, len(counts), len(nhs))
		}
		var sum uint64
		for _, c := range counts {
			sum += c
			if c > n/uint64(len(nhs))+1 {
				t.Fatalf("n=%d: bucket %d overloaded: %v", n, c, counts)
			}
		}
		if sum != n {
			t.Fatalf("n=%d: flows not conserved: %v sums to %d", n, counts, sum)
		}
	}
}

func TestSpreadFlowsReanchorsOnGroupChange(t *testing.T) {
	// Same key, different hop-group content: at least some key re-anchors
	// its remainder rotation — flows visibly re-spread after a FIB
	// reprogram, as real ECMP rehashing does.
	orig := ecmpHops()
	repro := ecmpHops()
	repro[3] = rib.NextHop{IP: ip("10.128.0.9"), Interface: "et4"}
	moved := false
	for key := uint64(0); key < 32; key++ {
		if !reflect.DeepEqual(SpreadFlows(key, orig, 5), SpreadFlows(key, repro, 5)) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no key re-anchored its spread after the hop group changed")
	}
}

func TestForwardBatchSpreadsAcrossHops(t *testing.T) {
	f := newFwd(t)
	dec, shares := f.ForwardBatch("et9", meta("100.65.0.10"), 1000, 7)
	if dec.Verdict != VerdictForward {
		t.Fatalf("verdict = %v", dec.Verdict)
	}
	if len(shares) != 4 {
		t.Fatalf("%d shares, want 4 (all ECMP hops loaded)", len(shares))
	}
	var sum uint64
	for _, s := range shares {
		if s.Flows != 250 {
			t.Fatalf("uneven split of 1000 over 4: %+v", shares)
		}
		sum += s.Flows
	}
	if sum != 1000 {
		t.Fatalf("flows not conserved: %d", sum)
	}
}

func TestForwardBatchVerdictsMatchForward(t *testing.T) {
	f := newFwd(t)
	for _, tc := range []struct {
		name string
		m    *PacketMeta
	}{
		{"local", meta("10.0.0.1")},
		{"no-route", meta("203.0.113.9")},
		{"forward", meta("100.64.0.55")},
	} {
		want := f.Forward("et9", tc.m)
		got, _ := f.ForwardBatch("et9", tc.m, 10, 1)
		if got.Verdict != want.Verdict {
			t.Fatalf("%s: batch verdict %v != single %v", tc.name, got.Verdict, want.Verdict)
		}
	}
	expired := meta("100.64.0.55")
	expired.TTL = 1
	if got, _ := f.ForwardBatch("et9", expired, 10, 1); got.Verdict != VerdictTTLExpired {
		t.Fatalf("ttl: %v", got.Verdict)
	}
}

func TestForwardBatchEgressACLDeniesPerShare(t *testing.T) {
	// A deny on one ECMP branch must lose only that branch's flows.
	f := newFwd(t)
	src := pfx("192.0.2.0/24")
	f.SetOutACL("et1", &ACL{Name: "CUT", Rules: []ACLRule{{Action: ACLDeny, Src: &src}}, DefaultAction: ACLPermit})
	dec, shares := f.ForwardBatch("", meta("100.65.0.10"), 400, 7)
	if dec.Verdict != VerdictForward {
		t.Fatalf("verdict = %v", dec.Verdict)
	}
	denied := 0
	for _, s := range shares {
		if s.Denied {
			denied++
			if s.Hop.Interface != "et1" || s.ACL != "CUT" {
				t.Fatalf("wrong share denied: %+v", s)
			}
		}
	}
	if denied != 1 {
		t.Fatalf("%d shares denied, want exactly 1", denied)
	}
}

func TestForwardBatchIngressACLDropsWholeAggregate(t *testing.T) {
	f := newFwd(t)
	src := pfx("192.0.2.0/24")
	f.SetInACL("et9", &ACL{Name: "EDGE", Rules: []ACLRule{{Action: ACLDeny, Src: &src}}, DefaultAction: ACLPermit})
	dec, shares := f.ForwardBatch("et9", meta("100.65.0.10"), 400, 7)
	if dec.Verdict != VerdictACLDenied || dec.ACL != "EDGE" || shares != nil {
		t.Fatalf("decision = %+v shares = %v", dec, shares)
	}
}

// guard against unused import when test table shrinks
var _ = netpkt.ProtoTCP
