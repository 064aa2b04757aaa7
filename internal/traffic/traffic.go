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
// event order. A forked rehearsal carries its load with it: Fork copies the
// per-aggregate results and shares the rest.
//
// A settle walks only what moved (memo.go): each aggregate remembers the
// devices its last walk consulted, and is walked again only when one of
// them has a new table or logged a write (rib.FIB.WritesSince) to a prefix
// containing the aggregate's destination. Everything else keeps its last
// result, so settle cost scales with the aggregates a change touched.
//
// DESIGN.md §11 is the full traffic-plane write-up; docs/TRAFFIC.md is the
// user-facing guide (flow model, SLO assert ops, metrics).
package traffic

import (
	"fmt"
	"math/bits"
	"sort"
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
// the unit of batched forwarding. All fields are plain values so Fork is a
// slice copy.
type aggregate struct {
	src          string
	class        int
	srcIP, dstIP netpkt.IP
	flows        uint64
	key          uint64 // seeded identity; anchors ECMP spreading

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
	spec      Spec // normalized
	aggs      []aggregate
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
			m.aggs = append(m.aggs, aggregate{
				src:   src.dev,
				class: ci,
				srcIP: src.host,
				dstIP: dst.host,
				flows: n,
				key:   splitmix(uint64(sp.Seed) ^ id),
			})
		}
	}
	return m, nil
}

// inRotation reports whether index i falls in the length-rem window
// starting at start, modulo n.
func inRotation(i, start, rem, n uint64) bool {
	d := (i - start + n) % n
	return d < rem
}

// Fork copies the matrix for a forked emulation: the aggregates and the
// cumulative counters are the child's own, the memo is shared under the
// write rule (memo.fork). Fork only reads m, so concurrent forks of one
// matrix are safe.
// Nil-safe: a parent without traffic forks to a child without traffic.
func (m *Matrix) Fork() *Matrix {
	if m == nil {
		return nil
	}
	c := *m
	c.spec.Classes = append([]ClassSpec(nil), m.spec.Classes...)
	c.aggs = append([]aggregate(nil), m.aggs...)
	c.rerouted = append([]uint64(nil), m.rerouted...)
	c.memo = m.memo.fork()
	return &c
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

// nodeKey addresses one step of a flow walk: a device plus the ingress
// interface the flows arrived on (ingress ACLs bind per interface).
type nodeKey struct{ dev, iface string }

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
	ch := m.observe(v)

	reroutedNow := make([]uint64, len(m.spec.Classes))
	hists := make([]*obs.Histogram, len(m.spec.Classes))
	if v.Rec != nil {
		for ci, c := range m.spec.Classes {
			hists[ci] = v.Rec.Histogram("traffic.flow_latency", c.Name)
		}
	}
	var w walkLog
	for i := range m.aggs {
		a := &m.aggs[i]
		prevFP, prevSettled := a.fp, m.settles > 0
		if m.moved(a, ch) {
			a.result = m.walk(a, v, &w)
			a.consulted = m.consulted.put(a.consulted, w.devs)
			a.latency = m.latency.put(a.latency, w.lat)
			m.walked++
		} else {
			m.reused++
			if debugMemo {
				m.crossCheck(a, v, &w)
			}
		}
		// Walked or reused, the histogram sees the same observations in the
		// same order: float sums depend on it, and trace bytes on them.
		if h := hists[a.class]; h != nil {
			for _, o := range m.latency.get(a.latency) {
				h.ObserveN(float64(o.hop)*HopLatency.Seconds(), o.flows)
			}
		}
		if prevSettled && a.fp != prevFP {
			reroutedNow[a.class] += a.flows
		}
		if a.blackholed > 0 {
			if a.blackSince == 0 {
				a.blackSince = v.Now
			}
		} else {
			a.blackSince = 0
		}
	}
	m.compact()
	m.settles++
	m.settledAt = v.Now

	if v.Rec != nil {
		totals := make([]struct{ delivered, blackholed, lost uint64 }, len(m.spec.Classes))
		for i := range m.aggs {
			a := &m.aggs[i]
			totals[a.class].delivered += a.delivered
			totals[a.class].blackholed += a.blackholed
			totals[a.class].lost += a.lost
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

// walk drives one aggregate's flows hop by hop through the live FIBs and
// returns what became of them; log receives the devices consulted and the
// latency observations made. The frontier is a set of (device, ingress
// interface) → flow-count buckets; each hop forwards every bucket with one
// batched decision. The fingerprint hashes every decision the walk
// observes, so any path change — different hops, different split, new loss
// point — changes it.
//
// Everything a walk reads of a device — whether it is up, its ACL bindings,
// local addresses and Networks, the FIB entry matching dstIP — it reads
// after log.consult(device); the memo's staleness rule rests on that.
func (m *Matrix) walk(a *aggregate, v View, log *walkLog) result {
	cls := &m.spec.Classes[a.class]
	var r result
	log.devs, log.lat = log.devs[:0], log.lat[:0]
	fp := fnvOffset

	frontier := map[nodeKey]uint64{{dev: a.src}: a.flows}
	keys := make([]nodeKey, 0, 4)
	for hop := 0; hop <= m.spec.MaxHops && len(frontier) > 0; hop++ {
		keys = keys[:0]
		for k := range frontier {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].dev != keys[j].dev {
				return keys[i].dev < keys[j].dev
			}
			return keys[i].iface < keys[j].iface
		})
		next := make(map[nodeKey]uint64, len(frontier))
		for _, k := range keys {
			n := frontier[k]
			fp = fnvStr(fp, k.dev)
			fp = fnvStr(fp, k.iface)
			fp = fnvU64(fp, n)
			log.consult(v.Index, k.dev)
			fwd := v.Forwarder(k.dev)
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
			// mirror that before the destination short-circuit below.
			if name, denied := fwd.DeniesIngress(k.iface, &meta); denied {
				r.lost += n
				fp = fnvStr(fp, name)
				fp = fnvU64(fp, 'A')
				continue
			}
			if cfg := v.Index.Config(k.dev); cfg != nil && containsHost(cfg.Networks, cfg.Loopback, a.dstIP) {
				r.delivered += n
				r.hopSum += uint64(hop) * n
				fp = fnvU64(fp, 'D')
				log.observe(hop, n)
				continue
			}
			dec, shares := fwd.ForwardBatch(k.iface, &meta, n, a.key)
			fp = fnvU64(fp, uint64(dec.Verdict))
			switch dec.Verdict {
			case dataplane.VerdictLocal:
				r.delivered += n
				r.hopSum += uint64(hop) * n
				log.observe(hop, n)
			case dataplane.VerdictNoRoute:
				r.blackholed += n
			case dataplane.VerdictACLDenied, dataplane.VerdictTTLExpired:
				r.lost += n
			case dataplane.VerdictForward:
				for _, s := range shares {
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
							next[nodeKey{dev: v.Index.Name(o.Dev), iface: o.Iface}] += s.Flows
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
					next[nodeKey{dev: v.Index.Name(o.Dev), iface: o.Iface}] += s.Flows
				}
			}
		}
		frontier = next
	}
	// Flows still in flight hit the hop bound: a forwarding loop.
	for _, n := range frontier {
		r.blackholed += n
		fp = fnvU64(fp, 'L')
	}
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
		a := &m.aggs[i]
		total += a.flows
		lost += a.lost
		if a.blackholed == 0 {
			continue
		}
		if window <= 0 || (a.blackSince != 0 && m.settledAt.Sub(a.blackSince) >= window) {
			black += a.blackholed
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
		a := &m.aggs[i]
		t := &totals[a.class]
		t.flows += a.flows
		t.delivered += a.delivered
		t.blackholed += a.blackholed
		t.lost += a.lost
		t.hopSum += a.hopSum
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
