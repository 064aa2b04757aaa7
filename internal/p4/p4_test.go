package p4

import (
	"reflect"
	"testing"
	"testing/quick"

	"crystalnet/internal/netpkt"
)

func pkt(dst string, proto uint8, ttl uint8) *Packet {
	return NewPacket(netpkt.MustParseIP("192.0.2.1"), netpkt.MustParseIP(dst), proto, 1000, 80, ttl, 1)
}

func lpmForward(t *Table, cidr string, port uint32) {
	pfx := netpkt.MustParsePrefix(cidr)
	t.AddEntry(&Entry{
		Keys:   []Key{{Field: FieldDstIP, Kind: MatchLPM, Value: uint32(pfx.Addr), Mask: uint32(pfx.MaskIP())}},
		Action: Action{Kind: ActForward, Port: port},
	})
}

// switchProgram is a switch's pipeline: TrapProgram's ACL and CPU-trap
// stages, then a TTL stage and an IPv4 LPM stage that drops on a miss. It
// returns the program and its LPM stage.
func switchProgram(trapARP, trapBGP bool) (*Program, *Table) {
	prog := TrapProgram(trapARP, trapBGP)
	prog.AddTable("ttl", Action{Kind: ActDecTTL})
	return prog, prog.AddTable("ipv4_lpm", Action{Kind: ActDrop})
}

func TestReferenceProgramForwards(t *testing.T) {
	prog, lpm := switchProgram(true, true)
	lpmForward(lpm, "100.64.0.0/24", 3)
	lpmForward(lpm, "0.0.0.0/0", 9)

	r := prog.Run(pkt("100.64.0.7", netpkt.ProtoUDP, 64))
	if r.Verdict != Forwarded || r.Port != 3 {
		t.Fatalf("result = %+v", r)
	}
	// Default route catches the rest.
	r = prog.Run(pkt("8.8.8.8", netpkt.ProtoUDP, 64))
	if r.Verdict != Forwarded || r.Port != 9 {
		t.Fatalf("default route: %+v", r)
	}
	// LPM prefers the longer prefix even when added after.
	lpmForward(lpm, "100.64.0.0/28", 5)
	r = prog.Run(pkt("100.64.0.7", netpkt.ProtoUDP, 64))
	if r.Port != 5 {
		t.Fatalf("LPM ordering: %+v", r)
	}
}

func TestTTLDecrementAndExpiry(t *testing.T) {
	prog, lpm := switchProgram(true, true)
	lpmForward(lpm, "0.0.0.0/0", 1)

	p := pkt("8.8.8.8", netpkt.ProtoUDP, 64)
	if r := prog.Run(p); r.Verdict != Forwarded {
		t.Fatal("forward failed")
	}
	if p.Get(FieldTTL) != 63 {
		t.Fatalf("TTL = %d, want 63", p.Get(FieldTTL))
	}
	if r := prog.Run(pkt("8.8.8.8", netpkt.ProtoUDP, 1)); r.Verdict != Dropped {
		t.Fatalf("TTL 1 must drop: %+v", r)
	}
}

func TestCPUTrapPath(t *testing.T) {
	healthy, _ := switchProgram(true, true)
	// ARP (proto 0 in the parsed vector) punts to CPU.
	if r := healthy.Run(pkt("10.0.0.1", 0, 64)); r.Verdict != PuntedToCPU {
		t.Fatalf("ARP not trapped: %+v", r)
	}
	// BGP (TCP) punts too.
	if r := healthy.Run(pkt("10.0.0.1", netpkt.ProtoTCP, 64)); r.Verdict != PuntedToCPU {
		t.Fatal("BGP not trapped")
	}

	// The §7 Case-2 dev build: ARP trap missing — ARP falls through to the
	// LPM stage and (with no route) is dropped, never reaching the CPU.
	buggy, _ := switchProgram(false, true)
	if r := buggy.Run(pkt("10.0.0.1", 0, 64)); r.Verdict != Dropped {
		t.Fatalf("buggy build should drop ARP silently: %+v", r)
	}
}

func TestACLStage(t *testing.T) {
	prog, lpm := switchProgram(true, true)
	lpmForward(lpm, "0.0.0.0/0", 1)
	// Block UDP port 53 in the ACL stage.
	prog.Tables[0].AddEntry(&Entry{ // the ACL stage
		Keys: []Key{
			{Field: FieldProto, Kind: MatchExact, Value: uint32(netpkt.ProtoUDP)},
			{Field: FieldDstPort, Kind: MatchExact, Value: 53},
		},
		Action: Action{Kind: ActDrop},
	})
	p := NewPacket(1, 2, netpkt.ProtoUDP, 9, 53, 64, 1)
	if r := prog.Run(p); r.Verdict != Dropped {
		t.Fatal("ACL did not drop")
	}
	p2 := NewPacket(1, 2, netpkt.ProtoUDP, 9, 443, 64, 1)
	if r := prog.Run(p2); r.Verdict != Forwarded {
		t.Fatal("ACL overblocked")
	}
}

func TestSetFieldAction(t *testing.T) {
	prog := &Program{Name: "rewrite"}
	nat := prog.AddTable("nat", Action{Kind: ActNoOp})
	nat.AddEntry(&Entry{
		Keys:   []Key{{Field: FieldDstIP, Kind: MatchExact, Value: uint32(netpkt.MustParseIP("203.0.113.10"))}},
		Action: Action{Kind: ActSetField, Field: FieldDstIP, Value: uint32(netpkt.MustParseIP("10.0.0.10"))},
	})
	lpm := prog.AddTable("ipv4_lpm", Action{Kind: ActDrop})
	lpmForward(lpm, "10.0.0.0/8", 2)

	p := pkt("203.0.113.10", netpkt.ProtoTCP, 64)
	r := prog.Run(p)
	if r.Verdict != Forwarded || r.Port != 2 {
		t.Fatalf("NAT rewrite failed: %+v", r)
	}
	if netpkt.IP(p.Get(FieldDstIP)) != netpkt.MustParseIP("10.0.0.10") {
		t.Fatal("field not rewritten")
	}
}

func TestTernaryMatchAndPriority(t *testing.T) {
	prog := &Program{Name: "ternary"}
	tbl := prog.AddTable("t", Action{Kind: ActDrop})
	// Low-priority wildcard-ish ternary on the low byte...
	tbl.AddEntry(&Entry{
		Keys:     []Key{{Field: FieldDstIP, Kind: MatchTernary, Value: 0x01, Mask: 0xFF}},
		Action:   Action{Kind: ActForward, Port: 1},
		Priority: 1,
	})
	// ...beaten by an explicit higher-priority entry on the same packets.
	tbl.AddEntry(&Entry{
		Keys:     []Key{{Field: FieldDstIP, Kind: MatchTernary, Value: 0x01, Mask: 0x0F}},
		Action:   Action{Kind: ActForward, Port: 2},
		Priority: 9,
	})
	p := NewPacket(0, netpkt.IP(0xAABBCC01), 6, 1, 2, 64, 0)
	if r := prog.Run(p); r.Port != 2 {
		t.Fatalf("priority not honored: %+v", r)
	}
}

func TestCountersAndTrace(t *testing.T) {
	prog, lpm := switchProgram(true, true)
	lpmForward(lpm, "100.64.0.0/24", 3)
	prog.Run(pkt("100.64.0.1", netpkt.ProtoUDP, 64))
	prog.Run(pkt("9.9.9.9", netpkt.ProtoUDP, 64)) // miss -> default drop
	if lpm.Hits != 1 || lpm.Misses != 1 {
		t.Fatalf("counters = %d/%d", lpm.Hits, lpm.Misses)
	}
	r := prog.Run(pkt("100.64.0.1", netpkt.ProtoUDP, 64))
	want := []TraceStep{
		{Table: "acl", Action: Action{Kind: ActNoOp}},
		{Table: "cpu_trap", Action: Action{Kind: ActNoOp}},
		{Table: "ttl", Action: Action{Kind: ActDecTTL}},
		{Table: "ipv4_lpm", Hit: true, Action: Action{Kind: ActForward, Port: 3}},
	}
	if !reflect.DeepEqual(r.Trace, want) || r.Verdict != Forwarded || r.Port != 3 {
		t.Fatalf("result = %+v, want trace %+v forwarded to port 3", r, want)
	}
}

func TestEmptyProgramContinues(t *testing.T) {
	prog := &Program{Name: "empty"}
	if r := prog.Run(pkt("1.2.3.4", 6, 64)); r.Verdict != Continued {
		t.Fatal("front-end pipeline must fall through")
	}
}

func TestTrapProgram(t *testing.T) {
	healthy := TrapProgram(true, true)
	if r := healthy.Run(pkt("10.0.0.1", 0, 64)); r.Verdict != PuntedToCPU {
		t.Fatal("ARP not trapped")
	}
	if r := healthy.Run(pkt("10.0.0.1", netpkt.ProtoUDP, 64)); r.Verdict != Continued {
		t.Fatal("data traffic must fall through to the forwarder")
	}
	buggy := TrapProgram(false, true)
	if r := buggy.Run(pkt("10.0.0.1", 0, 64)); r.Verdict != Continued {
		t.Fatal("buggy trap program must let ARP fall to the data path (where it dies)")
	}
}

func TestStrings(t *testing.T) {
	if FieldDstIP.String() != "dst_ip" || Field(99).String() != "field?" {
		t.Fatal("field names")
	}
	if ActForward.String() != "forward" || ActionKind(99).String() != "action?" {
		t.Fatal("action names")
	}
	if Forwarded.String() != "forwarded" || Verdict(99).String() != "verdict?" {
		t.Fatal("verdict names")
	}
}

// Property: the pipeline's LPM table always picks the longest matching
// prefix, regardless of insertion order.
func TestPropertyLPMOrderIndependent(t *testing.T) {
	f := func(addr uint32, lens []uint8) bool {
		prog := &Program{}
		tbl := prog.AddTable("lpm", Action{Kind: ActDrop})
		best := -1
		for i, lRaw := range lens {
			if i >= 8 {
				break
			}
			l := int(lRaw % 33)
			pfx := netpkt.Prefix{Addr: netpkt.IP(addr), Len: uint8(l)}
			pfx.Addr &= pfx.MaskIP()
			tbl.AddEntry(&Entry{Keys: []Key{{Field: FieldDstIP, Kind: MatchLPM, Value: uint32(pfx.Addr), Mask: uint32(pfx.MaskIP())}}, Action: Action{Kind: ActForward, Port: uint32(l)}})
			if l > best {
				best = l
			}
		}
		if best < 0 {
			return true
		}
		r := prog.Run(NewPacket(0, netpkt.IP(addr), 6, 1, 2, 64, 0))
		return r.Verdict == Forwarded && int(r.Port) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipelineRun(b *testing.B) {
	prog, lpm := switchProgram(true, true)
	for i := 0; i < 1000; i++ {
		lpmForward(lpm, netpkt.Prefix{Addr: netpkt.IP(0x64000000 + i*256), Len: 24}.String(), uint32(i%32))
	}
	p := pkt("100.0.3.9", netpkt.ProtoUDP, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Set(FieldTTL, 64)
		prog.Run(p)
	}
}
