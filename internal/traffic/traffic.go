// Package traffic is CrystalNet's flow-level user-load emulation: a
// deterministic, seeded traffic matrix of modeled flows driven through the
// emulated devices' real FIBs, with per-flow-class delivery, loss, latency
// and black-hole accounting re-settled at every convergence point.
//
// The paper's end goal is preventing *user-visible* outages (§2), but the
// control-plane emulator only answers "where would this packet go" one
// frame at a time. This package scales that answer to production-sized
// load the way Kollaps-style flow-level emulators do: flows are never
// simulated individually. The matrix aggregates them per (ingress device,
// src/dst prefix pair, class) and forwards whole aggregates through the
// data plane with dataplane.ForwardBatch — one LPM per (device, dst
// prefix) and an ECMP hash-bucket spread over the entry's hop group — so
// settling cost scales with distinct paths, not packets. A million flows
// between 96 ToR prefixes is ~9k aggregates and a few tens of thousands of
// trie lookups.
//
// Determinism contract (the same one chaos campaigns rely on): a settle
// draws no engine randomness — every split is a pure hash of (seed,
// aggregate identity, hop-group content) — and walks devices in sorted
// order, so reports are byte-identical across worker counts and
// fork-vs-fresh, and attaching traffic never perturbs convergence
// event order. A forked rehearsal carries its load with it. The aggregates
// are immutable once built and every matrix of a lineage shares them; their
// results are sealed at each checkpoint (Seal) and shared frozen with the
// forks taken after, each of which copies only the results it rewrites.
//
// A settle walks only what moved (memo.go): each aggregate remembers the
// devices its last walk consulted, and is walked again only when one of
// them cannot account for what changed since (rib.FIB.Since) or logged a
// write to a prefix containing the aggregate's destination. Everything else keeps its last
// result, so settle cost scales with the aggregates a change touched.
//
// DESIGN.md §11 is the full traffic-plane write-up; docs/TRAFFIC.md is the
// user-facing guide (flow model, SLO assert ops, metrics).
package traffic

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/sim"
)

// HopLatency is the modeled per-hop forwarding latency, in virtual time.
// The paper deliberately does not model data-plane performance; the
// constant exists so per-class latency histograms reflect *path length*
// changes (reroutes onto longer paths) rather than pretending to measure
// queueing.
const HopLatency = time.Millisecond

// DefaultMaxHops bounds a flow's walk; an aggregate still in flight after
// this many hops is looping and counts as blackholed.
const DefaultMaxHops = 32

// Spec ceilings: a matrix is built and settled inside a rehearsal request,
// so what a spec can ask for is bounded. MaxFlows also keeps every flow
// sum (hops × flows, flows × share) far inside uint64.
const (
	MaxFlows   = 1 << 40
	MaxClasses = 16
)

// startTTL is the TTL the modeled flows carry; high enough that the
// MaxHops loop bound fires before TTL expiry under any sane MaxHops.
const startTTL = 255

// ClassSpec describes one traffic class: a named slice of the total flow
// count with a 5-tuple shape ACLs can match on.
type ClassSpec struct {
	Name string `json:"name"`
	// Share is the class's relative weight; flows are split proportionally.
	Share uint32 `json:"share"`
	// Proto defaults to TCP; DstPort defaults to 80.
	Proto   uint8  `json:"proto,omitempty"`
	DstPort uint16 `json:"dstPort,omitempty"`
}

// Spec declares a traffic matrix: how many modeled flows, in which
// classes, derived from which seed. The endpoint set is not declared —
// every emulated device that originates server prefixes is a source and a
// destination, all-to-all, which is the uniform east-west matrix the
// evaluation fabrics are built for.
type Spec struct {
	Flows   uint64      `json:"flows"`
	Classes []ClassSpec `json:"classes,omitempty"`
	// Seed perturbs flow placement and ECMP spreading. Zero inherits
	// whatever the caller resolves (scenario runs pass the run seed).
	Seed int64 `json:"seed,omitempty"`
	// MaxHops bounds each flow walk (default DefaultMaxHops).
	MaxHops int `json:"maxHops,omitempty"`
}

// Validate checks the spec's required fields.
func (s *Spec) Validate() error {
	if s.Flows == 0 {
		return fmt.Errorf("traffic: spec needs flows > 0")
	}
	if s.Flows > MaxFlows {
		return fmt.Errorf("traffic: %d flows exceeds the limit of %d", s.Flows, uint64(MaxFlows))
	}
	if len(s.Classes) > MaxClasses {
		return fmt.Errorf("traffic: %d classes exceeds the limit of %d", len(s.Classes), MaxClasses)
	}
	if s.MaxHops < 0 {
		return fmt.Errorf("traffic: negative maxHops")
	}
	seen := map[string]bool{}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("traffic: class %d needs a name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Share == 0 {
			return fmt.Errorf("traffic: class %q needs share > 0", c.Name)
		}
	}
	return nil
}

// Clone deep-copies the spec (scenario campaign expansion clones specs
// before mutating them).
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	c := *s
	c.Classes = append([]ClassSpec(nil), s.Classes...)
	return &c
}

// normalized returns a copy with defaults applied: a single best-effort
// class when none are declared, TCP/80 shapes, DefaultMaxHops.
func (s Spec) normalized() Spec {
	n := s
	n.Classes = append([]ClassSpec(nil), s.Classes...)
	if len(n.Classes) == 0 {
		n.Classes = []ClassSpec{{Name: "best-effort", Share: 1}}
	}
	for i := range n.Classes {
		if n.Classes[i].Proto == 0 {
			n.Classes[i].Proto = netpkt.ProtoTCP
		}
		if n.Classes[i].DstPort == 0 {
			n.Classes[i].DstPort = 80
		}
	}
	if n.MaxHops == 0 {
		n.MaxHops = DefaultMaxHops
	}
	return n
}

// View is the slice of an emulation a settle reads: the virtual clock, the
// metric recorder, and per-device forwarding engines and live configs. The
// core layer builds it; taking a narrow view instead of a *core.Emulation
// keeps the dependency pointing downward.
type View struct {
	Now sim.Time
	Rec *obs.Recorder
	// Forwarder returns a device's live forwarding engine, nil when the
	// device is stopped/crashed (its flows blackhole). The settle memo takes
	// the identity of the engine's table to stand for the engine's ACL
	// bindings and local addresses: whoever changes those hands out a new
	// forwarder over a new table, as firmware does on every boot.
	Forwarder func(name string) *dataplane.Forwarder
	// Index is the live fabric (core.Emulation.Index): delivery is "the
	// device's Networks contain the destination", the same convention the
	// batfish walker uses, and its address owners resolve next hops. The
	// index is immutable and its pointer is the fabric's identity: the settle
	// memo stands while the pointer does.
	Index *config.Index
}

// aggregate is one (ingress device, prefix pair, class) bundle of flows —
// the unit of batched forwarding. It is fixed when the matrix is built, so
// a matrix and all its forks share one slice of them; what settles write
// is its aggState, at the same index.
type aggregate struct {
	src          string
	class        int32
	dst          int32 // dstIP's index in the matrix's dsts
	srcIP, dstIP netpkt.IP
	flows        uint64
	key          uint64 // seeded identity; anchors ECMP spreading
}

// aggState is what settles have made of an aggregate.
type aggState struct {
	result              // of the last walk
	blackSince sim.Time // first settle of the current black-hole streak
	// What the last walk read, as spans of the matrix's arenas of the same
	// names: the devices it consulted and the latency observations it made,
	// in order.
	consulted, latency span
}

// result is what one walk of an aggregate yields.
type result struct {
	delivered, blackholed, lost uint64
	hopSum                      uint64 // Σ path-hops weighted by delivered flows
	fp                          uint64 // path fingerprint; a change means rerouted
}

// Matrix is an attached traffic load: the aggregates, cumulative accounting
// across settles, and the memo that lets a settle skip what did not move.
// It is mutated only by Settle, which the core layer calls at each
// convergence point, single-threaded.
type Matrix struct {
	spec Spec        // normalized
	aggs []aggregate // shared by every matrix of the lineage, never written
	// dsts is every aggregate's destination host, sorted, once: a settle
	// indexes the FIB writes it checks by destination (memo.go).
	dsts      []netpkt.IP
	states    states // by aggregate index
	settles   uint64
	settledAt sim.Time
	rerouted  []uint64 // cumulative flows rerouted, per class
	memo
}

// endpoint is one originated server prefix, represented by a host inside it.
type endpoint struct {
	dev  string
	host netpkt.IP
}

// NewMatrix builds the aggregate set from the spec against the emulation's
// live fabric: every device originating server prefixes (Networks beyond
// the loopback) is an endpoint, flows are spread all-to-all with seeded
// remainder placement. The matrix is empty of results until the first
// Settle.
func NewMatrix(spec Spec, ix *config.Index) (*Matrix, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := spec.normalized()

	var eps []endpoint
	for id := 0; id < ix.Len(); id++ {
		n := ix.Name(id)
		cfg := ix.Config(n)
		for _, p := range cfg.Networks {
			if p == cfg.Loopback {
				continue
			}
			host := p.Addr
			if p.Len < 31 {
				host++ // subnet base is not a host on broadcast subnets
			}
			eps = append(eps, endpoint{dev: n, host: host})
		}
	}
	if len(eps) < 2 {
		return nil, fmt.Errorf("traffic: %d endpoint prefix(es) originated; need at least 2", len(eps))
	}
	type pair struct{ src, dst int }
	var pairs []pair
	for i := range eps {
		for j := range eps {
			if eps[i].dev != eps[j].dev {
				pairs = append(pairs, pair{i, j})
			}
		}
	}

	// Split the flow budget across classes by share, remainder to the
	// earliest classes — exact and deterministic.
	var totalShare uint64
	for _, c := range sp.Classes {
		totalShare += uint64(c.Share)
	}
	classFlows := make([]uint64, len(sp.Classes))
	var assigned uint64
	for i, c := range sp.Classes {
		// 128-bit product: flows × share need not fit in 64 bits. The
		// quotient does (share <= totalShare), so Div64 cannot overflow.
		hi, lo := bits.Mul64(sp.Flows, uint64(c.Share))
		classFlows[i], _ = bits.Div64(hi, lo, totalShare)
		assigned += classFlows[i]
	}
	// Each floor above gave up less than one flow, so fewer than
	// len(classes) are left over.
	for i := uint64(0); i < sp.Flows-assigned; i++ {
		classFlows[i]++
	}

	m := &Matrix{spec: sp, rerouted: make([]uint64, len(sp.Classes))}
	for _, e := range eps {
		m.dsts = append(m.dsts, e.host)
	}
	slices.Sort(m.dsts)
	m.dsts = slices.Compact(m.dsts)
	nPairs := uint64(len(pairs))
	for ci, c := range sp.Classes {
		base, rem := classFlows[ci]/nPairs, classFlows[ci]%nPairs
		// The remainder lands on a seeded rotation of pairs, so different
		// seeds load different pairs unevenly — the controlled randomness.
		start := splitmix(uint64(sp.Seed)^fnvStr(fnvOffset, c.Name)) % nPairs
		for pi, p := range pairs {
			n := base
			if rem > 0 && inRotation(uint64(pi), start, rem, nPairs) {
				n++
			}
			if n == 0 {
				continue
			}
			src, dst := eps[p.src], eps[p.dst]
			id := fnvStr(fnvOffset, src.dev)
			id = fnvU64(id, uint64(src.host))
			id = fnvU64(id, uint64(dst.host))
			id = fnvStr(id, c.Name)
			dsti, _ := slices.BinarySearch(m.dsts, dst.host)
			m.aggs = append(m.aggs, aggregate{
				src:   src.dev,
				class: int32(ci),
				dst:   int32(dsti),
				srcIP: src.host,
				dstIP: dst.host,
				flows: n,
				key:   splitmix(uint64(sp.Seed) ^ id),
			})
		}
	}
	m.states.base = make([]aggState, len(m.aggs))
	return m, nil
}

// inRotation reports whether index i falls in the length-rem window
// starting at start, modulo n.
func inRotation(i, start, rem, n uint64) bool {
	d := (i - start + n) % n
	return d < rem
}

// Fork returns the matrix of a forked emulation. The aggregates are shared;
// the results of the last settle are shared frozen when m is sealed and
// unwritten since (states.fork), and the child copies one only when it
// rewrites it; the memo is shared under the write rule (memo.fork); the
// cumulative counters are the child's own. A fork's settle after a one-link
// flap so copies a few hundred results, not the matrix. Fork only reads m, so
// concurrent forks of one matrix are safe.
// Nil-safe: a parent without traffic forks to a child without traffic.
func (m *Matrix) Fork() *Matrix {
	if m == nil {
		return nil
	}
	c := *m
	c.spec.Classes = append([]ClassSpec(nil), m.spec.Classes...)
	c.states = m.states.fork()
	c.rerouted = append([]uint64(nil), m.rerouted...)
	c.memo = m.memo.fork()
	return &c
}

// Seal freezes the results of the last settle for sharing: forks taken from
// now on read them without copying, and this matrix, like each fork, writes
// a result by copying it into a layer of its own. core.Emulation.Checkpoint
// calls it beside the devices' and the attribute table's Seal. Nil-safe.
func (m *Matrix) Seal() {
	if m != nil {
		m.states.seal()
	}
}

// Flows returns the total modeled flow count.
func (m *Matrix) Flows() uint64 {
	if m == nil {
		return 0
	}
	var n uint64
	for i := range m.aggs {
		n += m.aggs[i].flows
	}
	return n
}

// Settles returns how many convergence points the matrix has been settled
// at.
func (m *Matrix) Settles() uint64 {
	if m == nil {
		return 0
	}
	return m.settles
}

// Aggregates returns the number of (ingress, prefix pair, class) bundles —
// the unit settling cost actually scales with.
func (m *Matrix) Aggregates() int {
	if m == nil {
		return 0
	}
	return len(m.aggs)
}

// node is one bucket of a walk's frontier: flows that arrived at a device,
// by config.Index id, on one ingress interface (ingress ACLs bind per
// interface).
type node struct {
	dev   int
	iface string
	flows uint64
}

// compareNodes orders a frontier by device, then interface. Ids are in name
// order, so this is (name, interface) order.
func compareNodes(x, y node) int {
	if c := cmp.Compare(x.dev, y.dev); c != 0 {
		return c
	}
	return cmp.Compare(x.iface, y.iface)
}

// add puts flows flows arriving at (dev, iface) into frontier f.
func add(f []node, dev int, iface string, flows uint64) []node {
	for i := range f {
		if f[i].dev == dev && f[i].iface == iface {
			f[i].flows += flows
			return f
		}
	}
	return append(f, node{dev: dev, iface: iface, flows: flows})
}

// Settle brings every aggregate up to date with the current FIBs —
// delivery/black-hole/loss accounting, reroute fingerprints and the
// traffic.* metrics — walking the aggregates the memo cannot vouch for and
// keeping the last result of the rest. Call at quiescence; it schedules no
// events and draws no randomness, so it is checkpoint-safe and invisible to
// convergence.
func (m *Matrix) Settle(v View) {
	if m == nil {
		return
	}
	var w walkLog
	ch := m.observe(v, &w)

	reroutedNow := make([]uint64, len(m.spec.Classes))
	hists := make([]*obs.Histogram, len(m.spec.Classes))
	if v.Rec != nil {
		for ci, c := range m.spec.Classes {
			hists[ci] = v.Rec.Histogram("traffic.flow_latency", c.Name)
		}
	}
	for i := range m.aggs {
		a, s := &m.aggs[i], m.states.at(i)
		next := s
		if m.moved(a, s, &ch) {
			n := aggState{result: m.walk(a, v, &w), consulted: s.consulted, latency: s.latency}
			if !slices.Equal(w.devs, m.consulted.get(s.consulted)) {
				n.consulted = m.consulted.put(s.consulted, w.devs)
			}
			if !slices.Equal(w.lat, m.latency.get(s.latency)) {
				n.latency = m.latency.put(s.latency, w.lat)
			}
			n.blackSince = streak(&n.result, s.blackSince, v.Now)
			next = &n
			m.walked++
		} else {
			m.reused++
			if debugMemo {
				m.crossCheck(a, s, v, &w)
			}
			if since := streak(&s.result, s.blackSince, v.Now); since != s.blackSince {
				n := *s
				n.blackSince = since
				next = &n
			}
		}
		// Walked or reused, the histogram sees the same observations in the
		// same order: float sums depend on it, and trace bytes on them.
		if h := hists[a.class]; h != nil {
			for _, o := range m.latency.get(next.latency) {
				h.ObserveN(float64(o.hop)*HopLatency.Seconds(), o.flows)
			}
		}
		if m.settles > 0 && next.fp != s.fp {
			reroutedNow[a.class] += a.flows
		}
		if *next != *s {
			m.states.set(i, *next)
		}
	}
	m.states.flush()
	m.compact()
	m.settles++
	m.settledAt = v.Now

	if v.Rec != nil {
		totals := make([]struct{ delivered, blackholed, lost uint64 }, len(m.spec.Classes))
		for i := range m.aggs {
			r, t := m.states.at(i), &totals[m.aggs[i].class]
			t.delivered += r.delivered
			t.blackholed += r.blackholed
			t.lost += r.lost
		}
		for ci, c := range m.spec.Classes {
			v.Rec.Gauge("traffic.flows_active", c.Name).Set(float64(totals[ci].delivered))
			v.Rec.Gauge("traffic.flows_blackholed", c.Name).Set(float64(totals[ci].blackholed))
			v.Rec.Gauge("traffic.flows_lost", c.Name).Set(float64(totals[ci].lost))
			v.Rec.Counter("traffic.flows_rerouted", c.Name).Add(reroutedNow[ci])
		}
	}
	for ci, n := range reroutedNow {
		m.rerouted[ci] += n
	}
}

// streak returns when the black-hole streak of an aggregate that yields r
// began, as of a settle at now, given that its last settle put the start at
// since (0 for no streak).
func streak(r *result, since, now sim.Time) sim.Time {
	switch {
	case r.blackholed == 0:
		return 0
	case since == 0:
		return now
	}
	return since
}

// walk drives one aggregate's flows hop by hop through the live FIBs and
// returns what became of them; log receives the devices consulted and the
// latency observations made. The frontier is a set of (device, ingress
// interface) → flow-count buckets, visited in (device name, interface)
// order; each hop forwards every bucket with one batched decision. The
// fingerprint hashes every decision the walk observes, so any path change —
// different hops, different split, new loss point — changes it.
//
// Everything a walk reads of a device — whether it is up, its ACL bindings,
// local addresses and Networks, the FIB entry matching dstIP — it reads
// after log.consult(device); the memo's staleness rule rests on that. It
// reads devices through log's per-settle tables by index id and allocates
// nothing once log's buffers have grown to the fabric's widest frontier.
func (m *Matrix) walk(a *aggregate, v View, log *walkLog) result {
	cls := &m.spec.Classes[a.class]
	var r result
	log.devs, log.lat = log.devs[:0], log.lat[:0]
	fp := fnvOffset

	src, ok := v.Index.ID(a.src)
	if !ok {
		// The ingress device left the fabric: its flows have nowhere to go.
		r.blackholed = a.flows
		r.fp = fnvU64(fnvU64(fnvStr(fp, a.src), a.flows), 'X')
		return r
	}
	frontier := append(log.frontier[:0], node{dev: src, flows: a.flows})
	next := log.next[:0]
	for hop := 0; hop <= m.spec.MaxHops && len(frontier) > 0; hop++ {
		slices.SortFunc(frontier, compareNodes)
		next = next[:0]
		for _, k := range frontier {
			n := k.flows
			fp = fnvStr(fp, v.Index.Name(k.dev))
			fp = fnvStr(fp, k.iface)
			fp = fnvU64(fp, n)
			log.consult(k.dev)
			fwd := log.fwds[k.dev]
			if fwd == nil {
				r.blackholed += n
				fp = fnvU64(fp, 'X')
				continue
			}
			meta := dataplane.PacketMeta{
				Src: a.srcIP, Dst: a.dstIP,
				Proto: cls.Proto, SrcPort: 33434, DstPort: cls.DstPort,
				TTL: uint8(startTTL - hop),
			}
			// Ingress ACLs bind ahead of delivery in the Forward prologue;
			// mirror that before the destination short-circuit below, which
			// is why ForwardBatch is not handed the ingress to check again.
			if name, denied := fwd.DeniesIngress(k.iface, &meta); denied {
				r.lost += n
				fp = fnvStr(fp, name)
				fp = fnvU64(fp, 'A')
				continue
			}
			if cfg := log.cfgs[k.dev]; containsHost(cfg.Networks, cfg.Loopback, a.dstIP) {
				r.delivered += n
				r.hopSum += uint64(hop) * n
				fp = fnvU64(fp, 'D')
				log.observe(hop, n)
				continue
			}
			var dec dataplane.Decision
			dec, log.shares = fwd.ForwardBatch("", &meta, n, a.key, log.shares[:0]...)
			fp = fnvU64(fp, uint64(dec.Verdict))
			switch dec.Verdict {
			case dataplane.VerdictLocal:
				r.delivered += n
				r.hopSum += uint64(hop) * n
				log.observe(hop, n)
			case dataplane.VerdictNoRoute:
				r.blackholed += n
			case dataplane.VerdictTTLExpired:
				r.lost += n
			case dataplane.VerdictForward:
				for _, s := range log.shares {
					fp = fnvU64(fp, uint64(s.Hop.IP))
					fp = fnvStr(fp, s.Hop.Interface)
					fp = fnvU64(fp, s.Flows)
					if s.Denied {
						r.lost += s.Flows
						fp = fnvStr(fp, s.ACL)
						continue
					}
					if s.Hop.IP == 0 {
						// Connected route: the destination subnet is on-link.
						// An emulated device owning the address picks the
						// flows up; otherwise they reach a server — delivered.
						if o, ok := v.Index.Owner(a.dstIP); ok {
							next = add(next, o.Dev, o.Iface, s.Flows)
						} else {
							r.delivered += s.Flows
							r.hopSum += uint64(hop+1) * s.Flows
							log.observe(hop+1, s.Flows)
						}
						continue
					}
					o, ok := v.Index.Owner(s.Hop.IP)
					if !ok {
						r.blackholed += s.Flows
						continue
					}
					next = add(next, o.Dev, o.Iface, s.Flows)
				}
			}
		}
		frontier, next = next, frontier
	}
	// Flows still in flight hit the hop bound: a forwarding loop.
	for _, k := range frontier {
		r.blackholed += k.flows
		fp = fnvU64(fp, 'L')
	}
	log.frontier, log.next = frontier, next
	r.fp = fp
	return r
}

// containsHost reports whether ip falls in any non-loopback network.
func containsHost(nets []netpkt.Prefix, loopback netpkt.Prefix, ip netpkt.IP) bool {
	for _, p := range nets {
		if p == loopback {
			continue
		}
		if p.Contains(ip) {
			return true
		}
	}
	return false
}

// SLO is a point-in-time service-level summary of the matrix.
type SLO struct {
	// BlackholedPct is the percentage of flows blackholed — continuously
	// for at least the requested window when one was given.
	BlackholedPct float64 `json:"blackholedPct"`
	// LostPct is the percentage of flows dropped by ACLs or TTL expiry at
	// the last settle.
	LostPct float64 `json:"lostPct"`
}

// SLO evaluates the matrix against a black-hole persistence window: with
// window zero every currently-blackholed flow counts; with a positive
// window only flows blackholed continuously for at least that long do, so
// transient convergence black-holes are tolerated and persistent ones are
// not — the assert-flow-slo semantics.
func (m *Matrix) SLO(window time.Duration) SLO {
	if m == nil {
		return SLO{}
	}
	var total, black, lost uint64
	for i := range m.aggs {
		s := m.states.at(i)
		total += m.aggs[i].flows
		lost += s.lost
		if s.blackholed == 0 {
			continue
		}
		if window <= 0 || (s.blackSince != 0 && m.settledAt.Sub(s.blackSince) >= window) {
			black += s.blackholed
		}
	}
	if total == 0 {
		return SLO{}
	}
	return SLO{
		BlackholedPct: 100 * float64(black) / float64(total),
		LostPct:       100 * float64(lost) / float64(total),
	}
}

// ClassReport is one class's cumulative accounting at the last settle.
type ClassReport struct {
	Class         string  `json:"class"`
	Flows         uint64  `json:"flows"`
	Delivered     uint64  `json:"delivered"`
	Blackholed    uint64  `json:"blackholed"`
	Lost          uint64  `json:"lost"`
	Rerouted      uint64  `json:"rerouted"`
	AvgPathHops   float64 `json:"avgPathHops"`
	BlackholedPct float64 `json:"blackholedPct"`
	LostPct       float64 `json:"lostPct"`
}

// Report is the per-class traffic summary embedded in scenario reports and
// the rehearsal JSON. It is fully determined by (spec, seed, emulation
// history): identically-seeded runs produce byte-identical JSON.
type Report struct {
	Flows      uint64        `json:"flows"`
	Aggregates int           `json:"aggregates"`
	Settles    uint64        `json:"settles"`
	Classes    []ClassReport `json:"classes"`
}

// Report summarizes the matrix at its last settle.
func (m *Matrix) Report() *Report {
	if m == nil {
		return nil
	}
	r := &Report{Flows: m.Flows(), Aggregates: len(m.aggs), Settles: m.settles}
	type tot struct{ flows, delivered, blackholed, lost, hopSum uint64 }
	totals := make([]tot, len(m.spec.Classes))
	for i := range m.aggs {
		a, s := &m.aggs[i], m.states.at(i)
		t := &totals[a.class]
		t.flows += a.flows
		t.delivered += s.delivered
		t.blackholed += s.blackholed
		t.lost += s.lost
		t.hopSum += s.hopSum
	}
	for ci, c := range m.spec.Classes {
		t := totals[ci]
		cr := ClassReport{
			Class: c.Name, Flows: t.flows,
			Delivered: t.delivered, Blackholed: t.blackholed, Lost: t.lost,
			Rerouted: m.rerouted[ci],
		}
		if t.delivered > 0 {
			cr.AvgPathHops = float64(t.hopSum) / float64(t.delivered)
		}
		if t.flows > 0 {
			cr.BlackholedPct = 100 * float64(t.blackholed) / float64(t.flows)
			cr.LostPct = 100 * float64(t.lost) / float64(t.flows)
		}
		r.Classes = append(r.Classes, cr)
	}
	return r
}

// FNV-1a, inlined to keep the hot settle path allocation-free.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// splitmix is the splitmix64 finalizer — the pure seeded mixer every
// placement and spreading decision derives from instead of engine RNG.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
