package config

import (
	"strings"
	"testing"
	"testing/quick"

	"crystalnet/internal/bgp"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/topo"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

func sampleConfig() *DeviceConfig {
	lp := uint32(200)
	src := pfx("192.0.2.0/24")
	dst := pfx("10.0.0.0/20")
	return &DeviceConfig{
		Hostname: "leaf-p0-0", Vendor: "ctnra", Version: "1.0",
		ASN: 65200, RouterID: netpkt.MustParseIP("10.0.0.3"),
		Loopback: pfx("10.0.0.3/32"),
		Interfaces: []InterfaceConfig{
			{Name: "lo", Addr: pfx("10.0.0.3/32")},
			{Name: "et0", Addr: pfx("10.128.0.0/31")},
			{Name: "et1", Addr: pfx("10.128.0.2/31")},
		},
		Neighbors: []BGPNeighbor{
			{IP: netpkt.MustParseIP("10.128.0.1"), RemoteAS: 65100, Interface: "et0", Desc: "spine-0", ExportPolicy: "GUARD"},
			{IP: netpkt.MustParseIP("10.128.0.3"), RemoteAS: 4200000000, Interface: "et1", ImportPolicy: "GUARD"},
		},
		Networks:   []netpkt.Prefix{pfx("10.0.0.3/32"), pfx("100.64.0.0/24")},
		Aggregates: []Aggregate{{Prefix: pfx("100.64.0.0/23"), SummaryOnly: true}},
		MaxPaths:   64,
		RouteMaps: map[string]*bgp.Policy{
			"GUARD": {
				Name: "GUARD",
				Rules: []bgp.Rule{
					{Name: "10", Action: bgp.Deny, Match: bgp.Match{PathContains: 65100}},
					{Name: "20", Action: bgp.Permit, SetLocalPref: &lp},
				},
				DefaultAction: bgp.Permit,
			},
		},
		ACLs: map[string]*dataplane.ACL{
			"EDGE": {
				Name: "EDGE",
				Rules: []dataplane.ACLRule{
					{Action: dataplane.ACLDeny, Src: &src, Dst: &dst, Proto: netpkt.ProtoUDP, DstPort: 53},
					{Action: dataplane.ACLPermit},
				},
				DefaultAction: dataplane.ACLPermit,
			},
		},
		Bindings:   []ACLBinding{{ACLName: "EDGE", Interface: "et0", Direction: In}},
		Credential: "crystal-ops",
	}
}

func TestRenderParseRoundTripNeutral(t *testing.T) {
	c := sampleConfig()
	d := Dialect{Vendor: "ctnrb", Version: "1.0"}
	text := Render(c, d)
	got, err := Parse(text, d)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	assertEqualConfig(t, c, got)
}

func TestRoundTripAllDialects(t *testing.T) {
	c := sampleConfig()
	for _, d := range dialects {
		text := Render(c, d)
		got, err := Parse(text, d)
		if err != nil {
			t.Fatalf("%v parse failed: %v", d, err)
		}
		assertEqualConfig(t, c, got)
	}
}

func TestACLDialectDriftIncident(t *testing.T) {
	// A config written for CTNR-A 1.x, parsed by 2.x firmware: the ACL's
	// src and dst are silently swapped — the §2 undocumented-format-change
	// incident.
	c := sampleConfig()
	oldText := Render(c, Dialect{Vendor: "ctnra", Version: "1.0"})
	misparsed, err := Parse(oldText, Dialect{Vendor: "ctnra", Version: "2.0"})
	if err != nil {
		t.Fatalf("the misparse is silent, not an error: %v", err)
	}
	want := c.ACLs["EDGE"].Rules[0]
	got := misparsed.ACLs["EDGE"].Rules[0]
	if got.Src == nil || got.Dst == nil {
		t.Fatal("prefixes lost")
	}
	if *got.Src != *want.Dst || *got.Dst != *want.Src {
		t.Fatalf("expected silent src/dst swap, got src=%v dst=%v", got.Src, got.Dst)
	}
	// The swapped ACL no longer matches the traffic the operator intended.
	victim := &dataplane.PacketMeta{
		Src: netpkt.MustParseIP("192.0.2.7"), Dst: netpkt.MustParseIP("10.0.1.1"),
		Proto: netpkt.ProtoUDP, DstPort: 53, TTL: 64,
	}
	if c.ACLs["EDGE"].Eval(victim) != dataplane.ACLDeny {
		t.Fatal("intended ACL should deny")
	}
	if misparsed.ACLs["EDGE"].Eval(victim) != dataplane.ACLPermit {
		t.Fatal("misparsed ACL should (wrongly) permit — the security hole")
	}
}

func TestVendorKeywordVariants(t *testing.T) {
	c := sampleConfig()
	vmbText := Render(c, Dialect{Vendor: "vmb", Version: "1"})
	if !strings.Contains(vmbText, "neighbour") {
		t.Fatal("vmb should spell neighbour")
	}
	vmaText := Render(c, Dialect{Vendor: "vma", Version: "1"})
	if !strings.Contains(vmaText, "maximum-paths") {
		t.Fatal("vma should use maximum-paths")
	}
	// Cross-parsing keyword variants works (they are documented aliases).
	if _, err := Parse(vmbText, Dialect{Vendor: "ctnrb", Version: "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	d := Dialect{Vendor: "ctnrb", Version: "1"}
	cases := []string{
		"frobnicate everything",
		"interface et0 addr 10.0.0.1/31",
		"bgp neighbor 10.0.0.300 remote-as 1",
		"bgp neighbor 10.0.0.1 remoteas 1",
		"acl X permit blah any any",
		"router-id not-an-ip",
	}
	for _, text := range cases {
		if _, err := Parse(text, d); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
	// Comments and blank lines are fine.
	if _, err := Parse("# comment\n\nhostname x\n", d); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFromTopology(t *testing.T) {
	n := topo.GenerateClos(topo.SDC())
	topo.AttachWAN(n, topo.SDC(), 2)
	cfgs := Generate(n)

	// Externals are not configured.
	if _, ok := cfgs["wan-g0-0"]; ok {
		t.Fatal("external device got a config")
	}
	// Every fabric device is.
	if len(cfgs) != n.NumDevices()-2 {
		t.Fatalf("configs = %d, want %d", len(cfgs), n.NumDevices()-2)
	}

	tor := cfgs["tor-p0-0"]
	if tor == nil {
		t.Fatal("tor config missing")
	}
	if tor.ASN != topo.ToRAS(0) {
		t.Fatalf("tor ASN = %d", tor.ASN)
	}
	// 2 leaves -> 2 neighbors; interfaces = lo + 2.
	if len(tor.Neighbors) != 2 || len(tor.Interfaces) != 3 {
		t.Fatalf("tor neighbors=%d interfaces=%d", len(tor.Neighbors), len(tor.Interfaces))
	}
	// Announces loopback + 1 server prefix.
	if len(tor.Networks) != 2 {
		t.Fatalf("tor networks = %v", tor.Networks)
	}
	if err := tor.Validate(); err != nil {
		t.Fatal(err)
	}
	// Border sees WAN neighbors too.
	border := cfgs["border-g0-0"]
	wantNbrs := 4 + 2 // all spines of the group + 2 WAN
	if len(border.Neighbors) != wantNbrs {
		t.Fatalf("border neighbors = %d, want %d", len(border.Neighbors), wantNbrs)
	}
	// Neighbor remote-AS values match the AS plan.
	for _, nb := range tor.Neighbors {
		if nb.RemoteAS != topo.PodAS(0) {
			t.Fatalf("tor neighbor AS = %d, want pod AS", nb.RemoteAS)
		}
	}
}

func TestGeneratedConfigsRenderAndParse(t *testing.T) {
	n := topo.GenerateClos(topo.SDC())
	cfgs := Generate(n)
	d := Dialect{Vendor: "ctnrb", Version: "1.0"}
	for name, c := range cfgs {
		text := Render(c, d)
		got, err := Parse(text, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Hostname != c.Hostname || got.ASN != c.ASN || len(got.Neighbors) != len(c.Neighbors) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestValidateCatchesDanglingRefs(t *testing.T) {
	c := sampleConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c.Clone()
	bad.Neighbors[0].ExportPolicy = "NOPE"
	if bad.Validate() == nil {
		t.Fatal("unknown route-map not caught")
	}
	bad2 := c.Clone()
	bad2.Bindings[0].ACLName = "NOPE"
	if bad2.Validate() == nil {
		t.Fatal("unknown ACL not caught")
	}
	bad3 := c.Clone()
	bad3.Interfaces = append(bad3.Interfaces, InterfaceConfig{Name: "et0"})
	if bad3.Validate() == nil {
		t.Fatal("duplicate interface not caught")
	}
	bad4 := c.Clone()
	bad4.Neighbors[0].Interface = "et99"
	if bad4.Validate() == nil {
		t.Fatal("unknown neighbor interface not caught")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := sampleConfig()
	d := c.Clone()
	d.Neighbors[0].RemoteAS = 1
	d.RouteMaps["GUARD"].Rules[0].Action = bgp.Permit
	d.ACLs["EDGE"].Rules[0].Action = dataplane.ACLPermit
	if c.Neighbors[0].RemoteAS == 1 ||
		c.RouteMaps["GUARD"].Rules[0].Action == bgp.Permit ||
		c.ACLs["EDGE"].Rules[0].Action == dataplane.ACLPermit {
		t.Fatal("Clone shares state with original")
	}
}

func TestInterfaceLookup(t *testing.T) {
	c := sampleConfig()
	if c.Interface("et0") == nil || c.Interface("et9") != nil {
		t.Fatal("Interface lookup wrong")
	}
}

func assertEqualConfig(t *testing.T, want, got *DeviceConfig) {
	t.Helper()
	if got.Hostname != want.Hostname || got.ASN != want.ASN || got.RouterID != want.RouterID {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if got.Credential != want.Credential {
		t.Fatal("credential lost")
	}
	if len(got.Interfaces) != len(want.Interfaces) {
		t.Fatalf("interfaces = %d, want %d", len(got.Interfaces), len(want.Interfaces))
	}
	if got.Loopback != want.Loopback {
		t.Fatal("loopback mismatch")
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Fatalf("neighbor %d: %+v vs %+v", i, got.Neighbors[i], want.Neighbors[i])
		}
	}
	if len(got.Networks) != len(want.Networks) || got.Networks[1] != want.Networks[1] {
		t.Fatal("networks mismatch")
	}
	if len(got.Aggregates) != 1 || got.Aggregates[0] != want.Aggregates[0] {
		t.Fatal("aggregates mismatch")
	}
	if got.MaxPaths != want.MaxPaths {
		t.Fatal("max-paths mismatch")
	}
	gp, wp := got.RouteMaps["GUARD"], want.RouteMaps["GUARD"]
	if gp == nil || len(gp.Rules) != len(wp.Rules) || gp.DefaultAction != wp.DefaultAction {
		t.Fatalf("route-map mismatch: %+v", gp)
	}
	if gp.Rules[0].Match.PathContains != 65100 || *gp.Rules[1].SetLocalPref != 200 {
		t.Fatalf("route-map rules mismatch: %+v", gp.Rules)
	}
	ga, wa := got.ACLs["EDGE"], want.ACLs["EDGE"]
	if ga == nil || len(ga.Rules) != len(wa.Rules) || ga.DefaultAction != wa.DefaultAction {
		t.Fatal("ACL mismatch")
	}
	if *ga.Rules[0].Src != *wa.Rules[0].Src || *ga.Rules[0].Dst != *wa.Rules[0].Dst || ga.Rules[0].DstPort != 53 {
		t.Fatalf("ACL rule mismatch: %+v", ga.Rules[0])
	}
	if len(got.Bindings) != 1 || got.Bindings[0] != want.Bindings[0] {
		t.Fatal("bindings mismatch")
	}
}

// TestParseNeverPanics fuzzes the parser with mangled config lines: the
// parser must return errors, never panic (operators feed it hand-edited
// files during incident mitigation).
func TestParseNeverPanics(t *testing.T) {
	d := Dialect{Vendor: "ctnrb", Version: "1.0"}
	base := strings.Split(Render(sampleConfig(), d), "\n")
	words := []string{"interface", "bgp", "acl", "route-map", "10.0.0.1",
		"10.0.0.0/8", "any", "permit", "deny", "match", "remote-as", "", "xyzzy", "-1", "4294967296"}
	f := func(lineIdx, wordIdx uint8, junk string) bool {
		lines := append([]string(nil), base...)
		i := int(lineIdx) % len(lines)
		fields := strings.Fields(lines[i])
		if len(fields) > 0 {
			fields[int(wordIdx)%len(fields)] = words[int(wordIdx)%len(words)] + junk
			lines[i] = strings.Join(fields, " ")
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %q: %v", lines[i], r)
			}
		}()
		Parse(strings.Join(lines, "\n"), d) // error or success both fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseTruncatedLines feeds every prefix of every rendered line.
func TestParseTruncatedLines(t *testing.T) {
	d := Dialect{Vendor: "vma", Version: "3.1"}
	text := Render(sampleConfig(), d)
	for _, line := range strings.Split(text, "\n") {
		for cut := 0; cut <= len(line); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on %q: %v", line[:cut], r)
					}
				}()
				Parse(line[:cut], d)
			}()
		}
	}
}

// TestInterfaceAddressKeepsHostBits pins the round-trip of odd /31 ends:
// an interface address is not a route prefix and must not be masked.
func TestInterfaceAddressKeepsHostBits(t *testing.T) {
	d := Dialect{Vendor: "ctnrb", Version: "1.0"}
	got, err := Parse("interface et2 address 10.128.0.25/31", d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interfaces[0].Addr.Addr != netpkt.MustParseIP("10.128.0.25") {
		t.Fatalf("host bits masked: %v", got.Interfaces[0].Addr)
	}
	if _, err := Parse("interface et2 address 10.128.0.25", d); err == nil {
		t.Fatal("missing /len accepted")
	}
	if _, err := Parse("interface et2 address 10.128.0.25/99", d); err == nil {
		t.Fatal("bad length accepted")
	}
}

func BenchmarkRenderParse(b *testing.B) {
	c := sampleConfig()
	d := Dialect{Vendor: "ctnra", Version: "2.0"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(Render(c, d), d); err != nil {
			b.Fatal(err)
		}
	}
}
