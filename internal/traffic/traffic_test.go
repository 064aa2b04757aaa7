package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }
func ip(s string) netpkt.IP      { return netpkt.MustParseIP(s) }

// twoNode builds a hand-wired two-device line: a <-> b over 10.128.0.0/31,
// a originating 100.64.0.0/24 and b originating 100.65.0.0/24.
func twoNode(t *testing.T) (*config.Index, map[string]*dataplane.Forwarder) {
	t.Helper()
	cfgs := map[string]*config.DeviceConfig{
		"a": {
			Hostname: "a", Loopback: pfx("10.255.0.1/32"),
			Networks:   []netpkt.Prefix{pfx("10.255.0.1/32"), pfx("100.64.0.0/24")},
			Interfaces: []config.InterfaceConfig{{Name: "et0", Addr: netpkt.Prefix{Addr: ip("10.128.0.0"), Len: 31}}},
		},
		"b": {
			Hostname: "b", Loopback: pfx("10.255.0.2/32"),
			Networks:   []netpkt.Prefix{pfx("10.255.0.2/32"), pfx("100.65.0.0/24")},
			Interfaces: []config.InterfaceConfig{{Name: "et0", Addr: netpkt.Prefix{Addr: ip("10.128.0.1"), Len: 31}}},
		},
	}
	mkFwd := func(dst netpkt.Prefix, via netpkt.IP) *dataplane.Forwarder {
		fib := rib.NewFIB()
		if err := fib.Install(&rib.Entry{
			Prefix: dst, Proto: rib.ProtoBGP,
			NextHops: []rib.NextHop{{IP: via, Interface: "et0"}},
		}); err != nil {
			t.Fatal(err)
		}
		return dataplane.NewForwarder(fib, 1, nil, nil, nil)
	}
	fwds := map[string]*dataplane.Forwarder{
		"a": mkFwd(pfx("100.65.0.0/24"), ip("10.128.0.1")),
		"b": mkFwd(pfx("100.64.0.0/24"), ip("10.128.0.0")),
	}
	return config.NewIndex(cfgs), fwds
}

func view(ix *config.Index, fwds map[string]*dataplane.Forwarder, now sim.Time) View {
	return View{
		Now:       now,
		Forwarder: func(name string) *dataplane.Forwarder { return fwds[name] },
		Index:     ix,
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero flows", Spec{}, false},
		{"plain", Spec{Flows: 10}, true},
		{"unnamed class", Spec{Flows: 10, Classes: []ClassSpec{{Share: 1}}}, false},
		{"zero share", Spec{Flows: 10, Classes: []ClassSpec{{Name: "x"}}}, false},
		{"dup class", Spec{Flows: 10, Classes: []ClassSpec{{Name: "x", Share: 1}, {Name: "x", Share: 2}}}, false},
		{"two classes", Spec{Flows: 10, Classes: []ClassSpec{{Name: "x", Share: 1}, {Name: "y", Share: 3}}}, true},
		{"most flows allowed", Spec{Flows: MaxFlows}, true},
		{"too many flows", Spec{Flows: MaxFlows + 1}, false},
		{"most classes allowed", Spec{Flows: 10, Classes: manyClasses(MaxClasses)}, true},
		{"too many classes", Spec{Flows: 10, Classes: manyClasses(MaxClasses + 1)}, false},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func manyClasses(n int) []ClassSpec {
	cs := make([]ClassSpec, n)
	for i := range cs {
		cs[i] = ClassSpec{Name: fmt.Sprint("c", i), Share: 1}
	}
	return cs
}

// TestNewMatrixSplitsHugeBudgets: flows x share is a 128-bit product. In 64
// bits {flows: 2^63, share: 4} wrapped to zero and the remainder loop handed
// the whole budget out one flow at a time — a request that never returned.
func TestNewMatrixSplitsHugeBudgets(t *testing.T) {
	cfgs, _ := twoNode(t)
	type split struct {
		flows  uint64
		shares []uint32
		want   []uint64 // per class
	}
	const maxShare = 1<<32 - 1
	cases := []split{
		{MaxFlows, []uint32{4}, []uint64{MaxFlows}},
		{MaxFlows, []uint32{maxShare, maxShare}, []uint64{MaxFlows / 2, MaxFlows / 2}},
		{MaxFlows, []uint32{maxShare, maxShare, maxShare}, []uint64{MaxFlows/3 + 1, MaxFlows / 3, MaxFlows / 3}},
		{10, []uint32{1, 1, 1, 1}, []uint64{3, 3, 2, 2}},
		{1001, []uint32{3, 1}, []uint64{751, 250}},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range cases {
			spec := Spec{Flows: c.flows}
			for i, s := range c.shares {
				spec.Classes = append(spec.Classes, ClassSpec{Name: fmt.Sprint("c", i), Share: s})
			}
			m, err := NewMatrix(spec, cfgs)
			if err != nil {
				t.Errorf("%+v: %v", c, err)
				continue
			}
			got := make([]uint64, len(c.shares))
			for i := range m.aggs {
				got[m.aggs[i].class] += m.aggs[i].flows
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("flows %d shares %v split %v, want %v", c.flows, c.shares, got, c.want)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("NewMatrix still splitting after 10s")
	}
	// What Validate turns away never reaches the split.
	if _, err := NewMatrix(Spec{Flows: 1 << 63, Classes: []ClassSpec{{Name: "x", Share: 4}}}, cfgs); err == nil {
		t.Fatal("NewMatrix accepted 2^63 flows")
	}
}

func TestNewMatrixConservesFlows(t *testing.T) {
	cfgs, _ := twoNode(t)
	spec := Spec{Flows: 1001, Classes: []ClassSpec{
		{Name: "web", Share: 3}, {Name: "bulk", Share: 1},
	}, Seed: 9}
	m, err := NewMatrix(spec, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flows() != 1001 {
		t.Fatalf("Flows() = %d, want 1001 (exact conservation incl. remainders)", m.Flows())
	}
	if m.Aggregates() == 0 || m.Aggregates() > 4 {
		t.Fatalf("Aggregates() = %d, want 1..4 (2 pairs x 2 classes)", m.Aggregates())
	}
}

func TestNewMatrixNeedsTwoEndpoints(t *testing.T) {
	cfgs, _ := twoNode(t)
	one := config.NewIndex(map[string]*config.DeviceConfig{"a": cfgs.Config("a")})
	if _, err := NewMatrix(Spec{Flows: 10}, one); err == nil {
		t.Fatal("matrix built with a single endpoint device")
	}
}

func TestSettleDeliversOnHealthyPath(t *testing.T) {
	cfgs, fwds := twoNode(t)
	m, err := NewMatrix(Spec{Flows: 1000, Seed: 4}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(view(cfgs, fwds, sim.Time(time.Second)))
	rep := m.Report()
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "best-effort" {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	c := rep.Classes[0]
	if c.Delivered != 1000 || c.Blackholed != 0 || c.Lost != 0 {
		t.Fatalf("accounting = %+v, want all 1000 delivered", c)
	}
	if c.AvgPathHops != 1 {
		t.Fatalf("avg path hops = %v, want 1 (one inter-device hop)", c.AvgPathHops)
	}
	if slo := m.SLO(0); slo.BlackholedPct != 0 || slo.LostPct != 0 {
		t.Fatalf("SLO = %+v", slo)
	}
}

func TestSettleBlackholesCrashedDevice(t *testing.T) {
	cfgs, fwds := twoNode(t)
	m, err := NewMatrix(Spec{Flows: 1000, Seed: 4}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(view(cfgs, fwds, sim.Time(time.Second)))

	// Crash b: its own flows and the a->b half both blackhole.
	dead := map[string]*dataplane.Forwarder{"a": fwds["a"]}
	m.Settle(view(cfgs, dead, sim.Time(2*time.Second)))
	c := m.Report().Classes[0]
	if c.Blackholed != 1000 || c.Delivered != 0 {
		t.Fatalf("accounting = %+v, want all 1000 blackholed", c)
	}
	// Window semantics: the black-hole just appeared, so a 2s window
	// filters it; after persisting 2s it counts.
	if slo := m.SLO(2 * time.Second); slo.BlackholedPct != 0 {
		t.Fatalf("fresh blackhole leaked through window: %+v", slo)
	}
	if slo := m.SLO(0); slo.BlackholedPct != 100 {
		t.Fatalf("window 0 should see everything: %+v", slo)
	}
	m.Settle(view(cfgs, dead, sim.Time(4*time.Second)))
	if slo := m.SLO(2 * time.Second); slo.BlackholedPct != 100 {
		t.Fatalf("persistent blackhole not counted after window: %+v", slo)
	}

	// Recovery clears blackSince: a fresh crash starts a new window.
	m.Settle(view(cfgs, fwds, sim.Time(5*time.Second)))
	m.Settle(view(cfgs, dead, sim.Time(6*time.Second)))
	if slo := m.SLO(2 * time.Second); slo.BlackholedPct != 0 {
		t.Fatalf("blackSince not reset by recovery: %+v", slo)
	}
}

func TestSettleCountsACLLoss(t *testing.T) {
	cfgs, fwds := twoNode(t)
	m, err := NewMatrix(Spec{Flows: 1000, Seed: 4}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	src := pfx("100.64.0.0/24")
	fwds["b"] = dataplane.NewForwarder(fwds["b"].FIB(), 1, nil, map[string]*dataplane.ACL{"et0": {
		Name:          "GUARD",
		Rules:         []dataplane.ACLRule{{Action: dataplane.ACLDeny, Src: &src}},
		DefaultAction: dataplane.ACLPermit,
	}}, nil)
	m.Settle(view(cfgs, fwds, sim.Time(time.Second)))
	c := m.Report().Classes[0]
	// The a->b half (sourced from 100.64.0.0/24) is denied at b's ingress;
	// the b->a half still delivers.
	if c.Lost == 0 || c.Lost+c.Delivered != 1000 || c.Blackholed != 0 {
		t.Fatalf("accounting = %+v, want lost+delivered=1000 with lost>0", c)
	}
	if slo := m.SLO(0); slo.LostPct == 0 {
		t.Fatalf("SLO = %+v, want lost flows visible", slo)
	}
}

func TestReroutedCountsFingerprintChanges(t *testing.T) {
	cfgs, fwds := twoNode(t)
	m, err := NewMatrix(Spec{Flows: 100, Seed: 4}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(view(cfgs, fwds, sim.Time(time.Second)))
	if r := m.Report().Classes[0].Rerouted; r != 0 {
		t.Fatalf("first settle counted %d rerouted flows", r)
	}
	dead := map[string]*dataplane.Forwarder{"a": fwds["a"]}
	m.Settle(view(cfgs, dead, sim.Time(2*time.Second)))
	if r := m.Report().Classes[0].Rerouted; r == 0 {
		t.Fatal("path change did not count as reroute")
	}
	// A settle with no change adds nothing.
	before := m.Report().Classes[0].Rerouted
	m.Settle(view(cfgs, dead, sim.Time(3*time.Second)))
	if r := m.Report().Classes[0].Rerouted; r != before {
		t.Fatalf("stable settle changed rerouted %d -> %d", before, r)
	}
}

func TestReportsAreSeedDeterministic(t *testing.T) {
	cfgs, fwds := twoNode(t)
	run := func() []byte {
		m, err := NewMatrix(Spec{Flows: 12345, Seed: 77, Classes: []ClassSpec{
			{Name: "web", Share: 7}, {Name: "bulk", Share: 2},
		}}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		m.Settle(view(cfgs, fwds, sim.Time(time.Second)))
		b, err := json.Marshal(m.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
}

func TestForkIsIndependent(t *testing.T) {
	cfgs, fwds := twoNode(t)
	m, err := NewMatrix(Spec{Flows: 1000, Seed: 4}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(view(cfgs, fwds, sim.Time(time.Second)))
	child := m.Fork()

	// Diverge the child: crash b there only.
	dead := map[string]*dataplane.Forwarder{"a": fwds["a"]}
	child.Settle(view(cfgs, dead, sim.Time(2*time.Second)))
	if got := child.Report().Classes[0].Blackholed; got != 1000 {
		t.Fatalf("child blackholed = %d", got)
	}
	if got := m.Report().Classes[0].Blackholed; got != 0 {
		t.Fatalf("child settle leaked into parent: %d blackholed", got)
	}
	if m.Settles() != 1 || child.Settles() != 2 {
		t.Fatalf("settles parent=%d child=%d", m.Settles(), child.Settles())
	}

	var nilM *Matrix
	if nilM.Fork() != nil || nilM.Report() != nil || nilM.Flows() != 0 {
		t.Fatal("nil matrix accessors must be nil-safe")
	}
}
