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
	fwd := dataplane.NewForwarder(fib, 1)
	for _, ic := range cfg.Interfaces {
		fwd.AddLocal(ic.Addr.Addr)
	}
	for _, b := range cfg.Bindings {
		if b.Direction == config.In {
			fwd.SetInACL(b.Interface, cfg.ACLs[b.ACLName])
		} else {
			fwd.SetOutACL(b.Interface, cfg.ACLs[b.ACLName])
		}
	}
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
		if got.result != want.result {
			d.t.Fatalf("aggregate %d (%s->%s): incremental %+v, from scratch %+v", i, got.src, got.dstIP, got.result, want.result)
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
	// fresh table. A fresh table is unsealed and cannot vouch for itself,
	// so its consulters are walked at every settle until it is sealed.
	m2 := d.fwds["m2"]
	delete(d.fwds, "m2")
	expect("device stopped", 4)
	expect("device still stopped", 0)
	booted := d.boot("m2")
	if d.fwds["m2"] == m2 {
		t.Fatal("boot did not rebuild the forwarder")
	}
	expect("device rebooted", 4)
	expect("rebooted table unsealed", 4)
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

// TestMemoForkRebind is the fork contract: a fork that rebinds to its cloned
// tables walks only what it wrote itself, a fork that does not walks
// everything, and neither disturbs the parent or a sibling.
func TestMemoForkRebind(t *testing.T) {
	d := newDiamond(t)
	spec := Spec{Flows: 8000, Seed: 3}
	m, err := NewMatrix(spec, d.index())
	if err != nil {
		t.Fatal(err)
	}
	d.settle(m, spec)
	parentAggs := append([]aggregate(nil), m.aggs...)

	fork := func(rebind bool) (*diamond, *Matrix) {
		c := &diamond{t: t, cfgs: d.cfgs, ix: d.ix, fwds: map[string]*dataplane.Forwarder{}, now: d.now}
		for name, fwd := range d.fwds {
			c.fwds[name] = fwd.Clone(fwd.FIB().Clone())
		}
		cm := m.Fork()
		if rebind {
			cm.Rebind(func(name string) (*rib.FIB, *rib.FIB) { return d.fib(name), c.fib(name) })
		}
		return c, cm
	}

	c1, m1 := fork(true)
	if got := c1.settle(m1, spec); got != 0 {
		t.Fatalf("rebound fork's first settle walked %d aggregates, want 0", got)
	}
	if err := c1.fib("a").InstallHops(pfx("100.65.0.0/16"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.3", "et1")}); err != nil {
		t.Fatal(err)
	}
	if got := c1.settle(m1, spec); got != 4 {
		t.Fatalf("fork's settle after its own write walked %d aggregates, want 4", got)
	}

	c2, m2 := fork(false)
	if got := c2.settle(m2, spec); got != 8 {
		t.Fatalf("unbound fork's first settle walked %d aggregates, want all 8", got)
	}
	if got := c2.settle(m2, spec); got != 0 {
		t.Fatalf("unbound fork's second settle walked %d aggregates, want 0", got)
	}

	// A parent table that moved on after the parent's last settle must not
	// be rebound: the clone carries writes the memo never saw.
	if err := d.fib("b").InstallHops(pfx("100.64.0.0/16"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.5", "et0")}); err != nil {
		t.Fatal(err)
	}
	d.fib("b").Seal()
	c3, m3 := fork(true)
	if got := c3.settle(m3, spec); got != 8 {
		t.Fatalf("fork of a parent written since its settle walked %d aggregates, want every consulter of b (8)", got)
	}

	for i := range parentAggs {
		if m.aggs[i] != parentAggs[i] {
			t.Fatalf("a fork's settle reached the parent's aggregate %d", i)
		}
	}
	if got := d.settle(m, spec); got != 4 {
		t.Fatalf("parent's own settle after its write walked %d aggregates, want 4", got)
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
