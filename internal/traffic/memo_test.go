package traffic

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// diamond is a hand-wired four-device fabric, a and b joined through two
// transit devices:
//
//	a:et0 10.128.0.0/31 -- 10.128.0.1 m1:et0    m1:et1 10.128.0.5 -- 10.128.0.4/31 b:et0
//	a:et1 10.128.0.2/31 -- 10.128.0.3 m2:et0    m2:et1 10.128.0.7 -- 10.128.0.6/31 b:et1
//
// a originates 100.64.0.0/24 and 100.64.1.0/24, b 100.65.0.0/24 and
// 100.65.1.0/24, so a matrix has eight aggregates: four a->b, four b->a.
// Each end reaches the other's /16 over both transits (ECMP); each transit
// has a /16 route down either side. Tables are sealed, as a checkpointed
// emulation's are, so they log their writes.
type diamond struct {
	t    *testing.T
	cfgs map[string]*config.DeviceConfig
	ix   *config.Index
	fwds map[string]*dataplane.Forwarder
	now  sim.Time
}

func link(name, addr string) config.InterfaceConfig {
	return config.InterfaceConfig{Name: name, Addr: netpkt.Prefix{Addr: ip(addr), Len: 31}}
}

func newDiamond(t *testing.T) *diamond {
	d := &diamond{t: t, cfgs: map[string]*config.DeviceConfig{
		"a": {
			Hostname: "a", Loopback: pfx("10.255.0.1/32"),
			Networks:   []netpkt.Prefix{pfx("10.255.0.1/32"), pfx("100.64.0.0/24"), pfx("100.64.1.0/24")},
			Interfaces: []config.InterfaceConfig{link("et0", "10.128.0.0"), link("et1", "10.128.0.2")},
		},
		"b": {
			Hostname: "b", Loopback: pfx("10.255.0.2/32"),
			Networks:   []netpkt.Prefix{pfx("10.255.0.2/32"), pfx("100.65.0.0/24"), pfx("100.65.1.0/24")},
			Interfaces: []config.InterfaceConfig{link("et0", "10.128.0.4"), link("et1", "10.128.0.6")},
		},
		"m1": {
			Hostname: "m1", Loopback: pfx("10.255.0.3/32"),
			Interfaces: []config.InterfaceConfig{link("et0", "10.128.0.1"), link("et1", "10.128.0.5")},
		},
		"m2": {
			Hostname: "m2", Loopback: pfx("10.255.0.4/32"),
			Interfaces: []config.InterfaceConfig{link("et0", "10.128.0.3"), link("et1", "10.128.0.7")},
		},
	}, fwds: map[string]*dataplane.Forwarder{}}
	for name := range d.cfgs {
		d.boot(name).Seal()
	}
	return d
}

// hop is a next hop by address and egress interface.
func hop(addr, iface string) rib.NextHop { return rib.NextHop{IP: ip(addr), Interface: iface} }

// boot gives a device a fresh table and a forwarder built from its current
// config the way firmware.finishBoot builds them: local addresses, ACL
// bindings, then the device's routes.
func (d *diamond) boot(name string) *rib.FIB {
	d.t.Helper()
	cfg := d.cfgs[name]
	fib := rib.NewFIB()
	local := map[netpkt.IP]bool{}
	for _, ic := range cfg.Interfaces {
		local[ic.Addr.Addr] = true
	}
	in, out := map[string]*dataplane.ACL{}, map[string]*dataplane.ACL{}
	for _, b := range cfg.Bindings {
		if b.Direction == config.In {
			in[b.Interface] = cfg.ACLs[b.ACLName]
		} else {
			out[b.Interface] = cfg.ACLs[b.ACLName]
		}
	}
	fwd := dataplane.NewForwarder(fib, 1, local, in, out)
	routes := map[string]map[string][]rib.NextHop{
		"a":  {"100.65.0.0/16": {hop("10.128.0.1", "et0"), hop("10.128.0.3", "et1")}},
		"b":  {"100.64.0.0/16": {hop("10.128.0.5", "et0"), hop("10.128.0.7", "et1")}},
		"m1": {"100.64.0.0/16": {hop("10.128.0.0", "et0")}, "100.65.0.0/16": {hop("10.128.0.4", "et1")}},
		"m2": {"100.64.0.0/16": {hop("10.128.0.2", "et0")}, "100.65.0.0/16": {hop("10.128.0.6", "et1")}},
	}[name]
	for p, nhs := range routes {
		if err := fib.InstallHops(pfx(p), rib.ProtoBGP, nhs); err != nil {
			d.t.Fatal(err)
		}
	}
	d.fwds[name] = fwd
	return fib
}

func (d *diamond) fib(name string) *rib.FIB { return d.fwds[name].FIB() }

// fork returns the fabric of a forked emulation: the same configs and index,
// over clones of d's tables as core.Fork makes them (the same lineages,
// continued) or, rebooted, over fresh tables of new lineages.
func (d *diamond) fork(rebooted bool) *diamond {
	c := &diamond{t: d.t, cfgs: d.cfgs, ix: d.ix, fwds: map[string]*dataplane.Forwarder{}, now: d.now}
	for name, fwd := range d.fwds {
		if rebooted {
			c.boot(name).Seal()
		} else {
			c.fwds[name] = fwd.Clone(fwd.FIB().Clone())
		}
	}
	return c
}

// widen gives a and b n server prefixes each, 100.64.i.0/24 and
// 100.65.i.0/24, all inside the /16s the fabric routes: a matrix then has
// 2n² aggregates per class. Call it before the first index.
func (d *diamond) widen(n int) {
	for name, base := range map[string]netpkt.IP{"a": ip("100.64.0.0"), "b": ip("100.65.0.0")} {
		cfg := d.cfgs[name].Clone()
		cfg.Networks = []netpkt.Prefix{cfg.Loopback}
		for i := 0; i < n; i++ {
			cfg.Networks = append(cfg.Networks, netpkt.Prefix{Addr: base + netpkt.IP(i)<<8, Len: 24})
		}
		d.cfgs[name] = cfg
	}
}

// index returns the fabric's index the way core.Emulation.Index keeps it:
// cached, and rebuilt once a config pointer has been swapped.
func (d *diamond) index() *config.Index {
	live := func(name string) *config.DeviceConfig { return d.cfgs[name] }
	if d.ix == nil || !d.ix.Same(len(d.cfgs), live) {
		d.ix = config.NewIndex(maps.Clone(d.cfgs))
	}
	return d.ix
}

func (d *diamond) view(rec *obs.Recorder) View {
	d.now += sim.Time(time.Second)
	v := view(d.index(), d.fwds, d.now)
	v.Rec = rec
	return v
}

// settle settles m at the fabric's current state, checks it against a
// matrix built and settled from scratch — every aggregate, field by field —
// and returns how many aggregates the settle walked.
func (d *diamond) settle(m *Matrix, spec Spec) uint64 {
	d.t.Helper()
	before, _ := m.Walks()
	v := d.view(nil)
	m.Settle(v)
	fresh, err := NewMatrix(spec, d.index())
	if err != nil {
		d.t.Fatal(err)
	}
	fresh.Settle(v)
	if len(m.aggs) != len(fresh.aggs) {
		d.t.Fatalf("%d aggregates, fresh matrix has %d", len(m.aggs), len(fresh.aggs))
	}
	for i := range m.aggs {
		got, want := &m.aggs[i], &fresh.aggs[i]
		if got.src != want.src || got.dstIP != want.dstIP || got.class != want.class {
			d.t.Fatalf("aggregate %d is %s->%s, fresh matrix has %s->%s", i, got.src, got.dstIP, want.src, want.dstIP)
		}
		if g, w := m.states.at(i).result, fresh.states.at(i).result; g != w {
			d.t.Fatalf("aggregate %d (%s->%s): incremental %+v, from scratch %+v", i, got.src, got.dstIP, g, w)
		}
	}
	after, _ := m.Walks()
	return after - before
}

func TestMemoWalksOnlyWhatMoved(t *testing.T) {
	d := newDiamond(t)
	spec := Spec{Flows: 8000, Seed: 3}
	m, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregates() != 8 {
		t.Fatalf("Aggregates() = %d, want 8", m.Aggregates())
	}
	expect := func(what string, want uint64) {
		t.Helper()
		if got := d.settle(m, spec); got != want {
			t.Fatalf("%s: settle walked %d aggregates, want %d", what, got, want)
		}
	}
	expect("first settle", 8)
	expect("no change", 0)
	if rep := m.Report().Classes[0]; rep.Delivered != 8000 {
		t.Fatalf("healthy diamond delivered %d of 8000", rep.Delivered)
	}

	// ECMP group shrink on a: a->b leaves over m1 only. The four b->a
	// aggregates consult a too, but for a destination the write does not
	// cover.
	if err := d.fib("a").InstallHops(pfx("100.65.0.0/16"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.1", "et0")}); err != nil {
		t.Fatal(err)
	}
	expect("ECMP group shrink", 4)

	// Route removal on m1: the half of b->a that crosses m1 blackholes.
	// a->b crosses m1 too, towards a destination the removed route did not
	// cover.
	if !d.fib("m1").Remove(pfx("100.64.0.0/16")) {
		t.Fatal("m1 had no 100.64.0.0/16")
	}
	expect("route removal", 4)
	if rep := m.Report().Classes[0]; rep.Blackholed == 0 {
		t.Fatal("removing m1's route down to a blackholed nothing")
	}

	// A more-specific route on b over 100.64.1.0/24 only: the two b->a
	// aggregates bound there re-resolve, the two bound for 100.64.0.0/24
	// keep the /16 and their result.
	if err := d.fib("b").InstallHops(pfx("100.64.1.0/24"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.7", "et1")}); err != nil {
		t.Fatal(err)
	}
	expect("more-specific prefix", 2)

	// Writes elsewhere in a table move nothing, up to the number a settle is
	// willing to match against destinations; past it the device is stale.
	for i := 0; i < maxScannedWrites; i++ {
		p := netpkt.Prefix{Addr: ip("172.16.0.0") + netpkt.IP(i)<<8, Len: 24}
		if err := d.fib("b").InstallHops(p, rib.ProtoBGP, []rib.NextHop{hop("10.128.0.5", "et0")}); err != nil {
			t.Fatal(err)
		}
	}
	expect("unrelated writes", 0)
	for i := 0; i < maxScannedWrites; i++ {
		d.fib("b").Remove(netpkt.Prefix{Addr: ip("172.16.0.0") + netpkt.IP(i)<<8, Len: 24})
	}
	if err := d.fib("b").InstallHops(pfx("172.16.0.0/24"), rib.ProtoBGP, nil); err != nil {
		t.Fatal(err)
	}
	expect("more unrelated writes than a settle scans", 8)

	// m2 goes down: everything that consulted it (all of b->a; a->b left it
	// at the group shrink) is walked, and again when it comes back on a
	// fresh table. A fresh table is unsealed and logs no writes, but one
	// that has not been written since the last settle is unchanged, sealed
	// or not (rib.FIB.Since).
	m2 := d.fwds["m2"]
	delete(d.fwds, "m2")
	expect("device stopped", 4)
	expect("device still stopped", 0)
	booted := d.boot("m2")
	if d.fwds["m2"] == m2 {
		t.Fatal("boot did not rebuild the forwarder")
	}
	expect("device rebooted", 4)
	expect("rebooted table unsealed", 0)
	// Unsealed, it cannot say what a write touched: every consulter walks.
	if err := booted.InstallHops(pfx("172.16.0.0/24"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.3", "et0")}); err != nil {
		t.Fatal(err)
	}
	expect("unrelated write to the unsealed table", 4)
	booted.Seal()
	expect("rebooted table sealed", 0)

	// m1 reboots onto a new config that denies 100.64.0.0/24 sources at its
	// ingress from a. Any config pointer change discards the memo.
	src := pfx("100.64.0.0/24")
	cfg := d.cfgs["m1"].Clone()
	cfg.ACLs = map[string]*dataplane.ACL{"GUARD": {
		Name:          "GUARD",
		Rules:         []dataplane.ACLRule{{Action: dataplane.ACLDeny, Src: &src}},
		DefaultAction: dataplane.ACLPermit,
	}}
	cfg.Bindings = []config.ACLBinding{{ACLName: "GUARD", Interface: "et0", Direction: config.In}}
	d.cfgs["m1"] = cfg
	d.boot("m1").Seal()
	expect("config swapped for one with a denying ACL", 8)
	if rep := m.Report().Classes[0]; rep.Lost == 0 {
		t.Fatal("the denying ACL lost nothing")
	}
	expect("no change after the swap", 0)

	// inject-traffic replaces the matrix: the new one starts with no memo.
	spec = Spec{Flows: 500, Seed: 9, Classes: []ClassSpec{{Name: "web", Share: 1}, {Name: "bulk", Share: 1}}}
	if m, err = NewMatrix(spec, d.index()); err != nil {
		t.Fatal(err)
	}
	expect("replacement matrix", 16)
	expect("replacement matrix, no change", 0)
}

// TestMemoForkContinuesLineage is the fork contract: a fork over clones of
// its parent's tables — the same lineages, continued — walks only what it
// wrote itself, a fork over tables of new lineages walks everything, and
// neither disturbs the parent or a sibling.
func TestMemoForkContinuesLineage(t *testing.T) {
	d := newDiamond(t)
	spec := Spec{Flows: 8000, Seed: 3}
	m, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	d.settle(m, spec)
	m.Seal()
	parentStates := make([]aggState, len(m.aggs))
	for i := range parentStates {
		parentStates[i] = *m.states.at(i)
	}

	fork := func(rebooted bool) (*diamond, *Matrix) { return d.fork(rebooted), m.Fork() }

	c1, m1 := fork(false)
	if got := c1.settle(m1, spec); got != 0 {
		t.Fatalf("fork's first settle walked %d aggregates, want 0", got)
	}
	if err := c1.fib("a").InstallHops(pfx("100.65.0.0/16"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.3", "et1")}); err != nil {
		t.Fatal(err)
	}
	if got := c1.settle(m1, spec); got != 4 {
		t.Fatalf("fork's settle after its own write walked %d aggregates, want 4", got)
	}

	c2, m2 := fork(true)
	if got := c2.settle(m2, spec); got != 8 {
		t.Fatalf("first settle of a fork over new tables walked %d aggregates, want all 8", got)
	}
	if got := c2.settle(m2, spec); got != 0 {
		t.Fatalf("second settle of a fork over new tables walked %d aggregates, want 0", got)
	}

	// A parent table that moved on after the parent's last settle clones into
	// a table whose writes since then the clone cannot account for.
	if err := d.fib("b").InstallHops(pfx("100.64.0.0/16"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.5", "et0")}); err != nil {
		t.Fatal(err)
	}
	d.fib("b").Seal()
	c3, m3 := fork(false)
	if got := c3.settle(m3, spec); got != 8 {
		t.Fatalf("fork of a parent written since its settle walked %d aggregates, want every consulter of b (8)", got)
	}

	for i := range parentStates {
		if *m.states.at(i) != parentStates[i] {
			t.Fatalf("a fork's settle reached the parent's aggregate %d", i)
		}
	}
	if got := d.settle(m, spec); got != 4 {
		t.Fatalf("parent's own settle after its write walked %d aggregates, want 4", got)
	}
}

// TestSealedMatrixSidesStayApart: after Seal, the parent and two sibling
// forks each settle a different write, and each ends where a matrix settled
// from scratch on its own fabric ends — none sees another's results, though
// all three started from one shared set of them.
func TestSealedMatrixSidesStayApart(t *testing.T) {
	d := newDiamond(t)
	spec := Spec{Flows: 8000, Seed: 3}
	m, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	d.settle(m, spec)
	m.Seal()
	c1, m1 := d.fork(false), m.Fork()
	c2, m2 := d.fork(false), m.Fork()

	// The parent loses m1's route down to a, the first fork shrinks a's
	// group towards b to m1, the second gives b a more-specific route.
	if !d.fib("m1").Remove(pfx("100.64.0.0/16")) {
		t.Fatal("m1 had no 100.64.0.0/16")
	}
	if err := c1.fib("a").InstallHops(pfx("100.65.0.0/16"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.1", "et0")}); err != nil {
		t.Fatal(err)
	}
	if err := c2.fib("b").InstallHops(pfx("100.64.1.0/24"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.7", "et1")}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		d    *diamond
		m    *Matrix
		want uint64
	}{{"parent", d, m, 4}, {"first fork", c1, m1, 4}, {"second fork", c2, m2, 2}} {
		if got := s.d.settle(s.m, spec); got != s.want {
			t.Fatalf("%s walked %d aggregates, want %d", s.name, got, s.want)
		}
	}
	// Settled again in the opposite order, each still matches its own
	// fabric and walks nothing.
	for _, s := range []struct {
		d *diamond
		m *Matrix
	}{{c2, m2}, {c1, m1}, {d, m}} {
		if got := s.d.settle(s.m, spec); got != 0 {
			t.Fatalf("an unchanged settle walked %d aggregates", got)
		}
	}
	if m.Report().Classes[0].Blackholed == 0 || m1.Report().Classes[0].Blackholed != 0 || m2.Report().Classes[0].Blackholed != 0 {
		t.Fatal("the parent's black hole is not the parent's alone")
	}
}

// TestFrontierVisitsInNameOrder: flows reach b on two interfaces, and with
// b's interface names swapped the walk adds them to its frontier in the
// opposite of (device name, interface) order — m1, visited first, hands its
// flows to b:et1. The fingerprints are pinned: a walk that visited its
// frontier in any other order, or keyed it otherwise, would hash a different
// sequence of decisions.
func TestFrontierVisitsInNameOrder(t *testing.T) {
	d := newDiamond(t)
	b := d.cfgs["b"].Clone()
	b.Interfaces = []config.InterfaceConfig{link("et1", "10.128.0.4"), link("et0", "10.128.0.6")}
	d.cfgs["b"] = b
	d.boot("b").Seal()
	m, err := NewMatrix(Spec{Flows: 8003, Seed: 3}, d.index())
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(d.view(nil))
	want := []uint64{
		0x10b287e443fbc18f, 0xd07166614a74ccb6, 0xd07166614a74ccb6, 0xd07166614a74ccb6,
		0xfa1be2bbd9bb6a13, 0xfa1be2bbd9bb6a13, 0x1a290390f00308, 0x1a290390f00308,
	}
	for i := range m.aggs {
		if got := m.states.at(i).fp; got != want[i] {
			t.Errorf("aggregate %d (%s->%s): fingerprint %#x, want %#x", i, m.aggs[i].src, m.aggs[i].dstIP, got, want[i])
		}
	}
	if rep := m.Report().Classes[0]; rep.Delivered != 8003 {
		t.Fatalf("delivered %d of 8003", rep.Delivered)
	}
}

// TestMemoReplaysLatencyInOrder pins the trace contract: a settle that
// reuses every aggregate leaves the recorder byte-identical to one that
// walked them all — histogram float sums included.
func TestMemoReplaysLatencyInOrder(t *testing.T) {
	d := newDiamond(t)
	spec := Spec{Flows: 12345, Seed: 77, Classes: []ClassSpec{{Name: "web", Share: 7}, {Name: "bulk", Share: 2}}}
	export := func(rec *obs.Recorder) []byte {
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	m, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(d.view(nil))
	reusedRec := obs.New()
	v := d.view(reusedRec)
	m.Settle(v)
	if walked, reused := m.Walks(); walked != 16 || reused != 16 {
		t.Fatalf("Walks() = %d, %d; want 16 walked (8 pairs x 2 classes) then 16 reused", walked, reused)
	}

	fresh, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	walkedRec := obs.New()
	v.Rec = walkedRec
	fresh.Settle(v)
	if !bytes.Contains(export(walkedRec), []byte("traffic.flow_latency")) {
		t.Fatal("recorder export carries no traffic.flow_latency")
	}
	// rerouted is a counter of changes, zero on both sides here: the fresh
	// matrix has no previous settle, the reused one no change.
	if !bytes.Equal(export(reusedRec), export(walkedRec)) {
		t.Fatalf("replayed observations differ from walked ones\nreused:\n%s\nwalked:\n%s", export(reusedRec), export(walkedRec))
	}
}

// TestMemoStaysBounded settles through many small changes: superseded
// records must be compacted away, not kept.
func TestMemoStaysBounded(t *testing.T) {
	d := newDiamond(t)
	spec := Spec{Flows: 8000, Seed: 3}
	m, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	d.settle(m, spec)
	groups := [][]rib.NextHop{{hop("10.128.0.1", "et0")}, {hop("10.128.0.3", "et1")}}
	for i := 0; i < 2*arenaChunk; i++ {
		if err := d.fib("a").InstallHops(pfx("100.65.0.0/16"), rib.ProtoBGP, groups[i%2]); err != nil {
			t.Fatal(err)
		}
		m.Settle(d.view(nil))
	}
	if walked, _ := m.Walks(); walked != 8+4*2*arenaChunk {
		t.Fatalf("walked %d aggregate-settles, want %d", walked, 8+4*2*arenaChunk)
	}
	for name, a := range map[string]struct{ size, live int }{
		"consulted": {m.consulted.size, m.consulted.live},
		"latency":   {m.latency.size, m.latency.live},
	} {
		if a.live <= 0 || a.size > 2*a.live+arenaChunk {
			t.Fatalf("%s arena holds %d records for %d live ones", name, a.size, a.live)
		}
	}
	if got := d.settle(m, spec); got != 0 {
		t.Fatalf("settle after compaction walked %d aggregates, want 0", got)
	}
}
