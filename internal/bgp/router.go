package bgp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// mrai is the min route advertisement interval a peer batches its UPDATEs
// over: the emulated firmware's timer, not a setting.
const mrai = 50 * time.Millisecond

// AggregationASPathMode selects the vendor-specific behaviour when building
// the AS path of an aggregate route — the root cause of the Figure 1
// traffic-imbalance incident.
type AggregationASPathMode uint8

// Aggregation modes.
const (
	// AggInheritSelected mirrors Vendor-A (R6 in Figure 1): the aggregate
	// inherits the AS path of one selected contributor, so the announced
	// path is {self, <contributor path...>}.
	AggInheritSelected AggregationASPathMode = iota
	// AggBarePath mirrors Vendor-C (R7 in Figure 1): the aggregate carries
	// an empty path with ATOMIC_AGGREGATE, so the announced path is just
	// {self} — shorter, and therefore preferred by upstream routers.
	AggBarePath
)

// AggregateSpec configures one "aggregate-address" statement.
type AggregateSpec struct {
	Prefix      netpkt.Prefix
	SummaryOnly bool // suppress advertisement of contributors
}

// Config parameterizes a router instance.
type Config struct {
	Name     string // device name, for logs
	AS       uint32
	RouterID netpkt.IP
	// MaxPaths is the ECMP width; 1 disables multipath.
	MaxPaths int
	// AggregationMode is the vendor quirk knob (Figure 1).
	AggregationMode AggregationASPathMode
	// Aggregates are the configured aggregate-address statements.
	Aggregates []AggregateSpec
	// NonDeterministicTies makes equal-candidate tie-breaks depend on
	// arrival order instead of router ID, reproducing the §9
	// non-determinism. Off by default so tests are reproducible.
	NonDeterministicTies bool
}

// Hooks connect the router to its hosting firmware: message transport, FIB
// programming and logging. All hooks must be non-nil.
type Hooks struct {
	// SendToPeer transmits an encoded BGP message towards peer i: the
	// message is frame[netpkt.FrameHeadroom:], and the bytes in front of it
	// are headroom the transport writes its own headers into, in place
	// (DESIGN.md §10). Ownership of frame passes to the hook.
	SendToPeer func(peerIdx int, frame []byte)
	// InstallRoute programs the FIB. An error is logged; the route stays in
	// the RIB (mirroring firmware that keeps RIB state when FIB programming
	// fails — the §2 black-hole incident comes from a vendor hook that
	// swallows this error silently). nhs is the router's canonical group for
	// the route's hops, in decision order: immutable and shared by every
	// entry over the same hops, so the callee may retain it and key on its
	// identity (rib.FIB.InstallGroup), but must never edit it.
	InstallRoute func(p netpkt.Prefix, nhs []rib.NextHop) error
	// RemoveRoute removes a previously installed route.
	RemoveRoute func(p netpkt.Prefix)
	// SessionEvent reports a session's state transition from one state to
	// another (for monitoring).
	SessionEvent func(peerIdx int, from, to SessionState)
	// Logf records diagnostics.
	Logf func(format string, args ...any)
	// Attrs is the emulation's attribute table: every attrs the router
	// decodes, imports, exports or originates is its canonical object.
	// New gives a router without one a private table; Fork requires one.
	Attrs *AttrTable
}

// candidate is one usable route for a prefix. The struct is kept to 16
// bytes — an M-DC fabric holds millions of candidates, so the 8 bytes a
// peer pointer would cost are measurable (DESIGN.md §10).
type candidate struct {
	attrs *Attrs
	// peerIdx indexes r.peers for the advertising session, or is -1 for
	// locally originated routes (including aggregates). Resolve through
	// Router.candPeer.
	peerIdx int32
	// seq is arrival order, for the non-deterministic tie mode. 32 bits
	// wrap only after 4 billion updates through one router — far beyond
	// any campaign the engine's event budget admits.
	seq uint32
}

// ribEntry is the per-prefix Loc-RIB state.
type ribEntry struct {
	// id is a dense, stable index assigned at creation; peers use it to
	// address their dirty bitsets without hashing the prefix.
	id         int
	candidates []candidate
	// best holds the indices of the current multipath winners;
	// best[0] is the primary best path (the one advertised). int32
	// halves the backing arrays across the Loc-RIB (candidate counts are
	// bounded by the peer count, nowhere near the 32-bit range).
	best []int32
	// installed caches the next hops programmed into the FIB. It aliases a
	// canonical group from the router's hopSets table (or is nil) — never
	// mutate it in place.
	installed []rib.NextHop
	// lastBest caches the previously advertised primary attrs so decide can
	// detect visible changes after candidates have been mutated.
	lastBest *Attrs
	// suppressed marks contributor prefixes hidden by a summary-only
	// aggregate.
	suppressed bool
}

// Router is one BGP speaker instance.
type Router struct {
	cfg   Config
	eng   *sim.Engine
	hooks Hooks
	peers []*Peer

	// The Loc-RIB is addressed by dense entry id: ids are assigned in
	// creation order and entries are never deleted, so entry(id) is the
	// entry, prefixByID[id] its prefix (which lets the peers' dense Adj-RIB
	// tables recover the prefix without storing it per route) and index the
	// way in from a prefix, keyed by Prefix.Key: a one-word key takes the
	// runtime's fast map path, which the 5-byte struct does not. Addressing
	// by id rather than by *ribEntry is what lets a fork share entries with
	// its checkpoint and replace one on first write (see fork.go and
	// DESIGN.md §6).
	index      map[uint64]int32
	entries    rib.Dense[*ribEntry]
	prefixByID []netpkt.Prefix
	seq        uint32
	// cow is set once the router has been sealed or is a fork: entries whose
	// bit is not in owned and the index map while indexShared may be
	// reachable from other routers and are replaced instead of written (the
	// entries vector's pages copy themselves on write).
	cow         bool
	indexShared bool
	owned       []uint64
	entryCopies int
	// exportCache memoizes the export template per (best attrs, policy,
	// locally-originated). One cached template serves every peer of the
	// router: with next-hop carried per-Update instead of per-Attrs, the
	// exported attribute set no longer varies by session, and the per-peer
	// differences (split horizon, loop avoidance, AdvertiseLocalOnly) are
	// allocation-free predicates checked before the cache. The keys are
	// canonical (interned) pointers, so a pointer stands for an attribute
	// value. A memo in two layers (rib.Memo): Seal freezes it and forks
	// share it, and the own layer is bounded, cleared wholesale when full.
	exportCache rib.Memo[exportKey, exportVal]
	// nhScratch is the reusable buffer nextHops fills on every decide; the
	// hops are copied out only when they actually change. hopSets interns
	// the distinct hop groups those copies land in, so the thousands of
	// entries forwarding over the same ECMP group share one slice; a fork
	// shares the groups sealed before it, so it hands the FIB the group
	// pointers the FIB's own sealed memo knows.
	nhScratch []rib.NextHop
	hopSets   rib.HopSetTable

	// flush is Peer.flush's working storage, shared by the router's peers.
	flush flushScratch

	// aggState tracks whether each configured aggregate is currently active
	// and with which attribute set.
	aggState []aggState

	// ExportFailures counts export computations that withheld a route
	// because its attributes cannot be encoded in one UPDATE (see
	// exportTemplate; a memoised verdict is counted once).
	ExportFailures uint64

	// Cached obs counter handles (nil when the engine has no recorder — Inc
	// on a nil counter is a no-op, keeping the disabled path
	// allocation-free).
	mMsgsIn, mMsgsOut       *obs.Counter
	mRoutesIn, mWithdrawsIn *obs.Counter
	mDecisions              *obs.Counter
}

// bindMetrics caches the router's counter handles against rec (nil-safe).
func (r *Router) bindMetrics(rec *obs.Recorder) {
	r.mMsgsIn = rec.Counter("bgp.msgs_in", r.cfg.Name)
	r.mMsgsOut = rec.Counter("bgp.msgs_out", r.cfg.Name)
	r.mRoutesIn = rec.Counter("bgp.routes_in", r.cfg.Name)
	r.mWithdrawsIn = rec.Counter("bgp.withdraws_in", r.cfg.Name)
	r.mDecisions = rec.Counter("bgp.decisions", r.cfg.Name)
}

type aggState struct {
	spec   AggregateSpec
	active bool
	// covered lists the ids of the Loc-RIB entries under the aggregate's
	// range, in creation order, so re-evaluating the aggregate no longer
	// scans the whole Loc-RIB. Append-only, like the ids themselves.
	covered []int32
}

// New creates a router that schedules its timers on eng and binds its
// counters to eng's recorder. Defaults: MaxPaths 1.
func New(cfg Config, eng *sim.Engine, hooks Hooks) *Router {
	if cfg.MaxPaths <= 0 {
		cfg.MaxPaths = 1
	}
	if hooks.Logf == nil {
		hooks.Logf = func(string, ...any) {}
	}
	if hooks.SessionEvent == nil {
		hooks.SessionEvent = func(int, SessionState, SessionState) {}
	}
	if hooks.Attrs == nil {
		hooks.Attrs = NewAttrTable()
	}
	r := &Router{
		cfg: cfg, eng: eng, hooks: hooks,
		index: map[uint64]int32{},
	}
	for _, a := range cfg.Aggregates {
		r.aggState = append(r.aggState, aggState{spec: a})
	}
	r.bindMetrics(eng.Recorder())
	return r
}

// AddPeer registers a neighbor and returns its index. Peers start Idle;
// call StartPeer once the transport is ready.
func (r *Router) AddPeer(cfg PeerConfig) *Peer {
	p := &Peer{
		router: r,
		Index:  len(r.peers),
		Config: &cfg,
		state:  StateIdle,
	}
	r.peers = append(r.peers, p)
	return p
}

// Peers returns all registered peers.
func (r *Router) Peers() []*Peer { return r.peers }

// Peer returns the peer with the given index.
func (r *Router) Peer(i int) *Peer { return r.peers[i] }

// Originate injects a locally originated route (network statement /
// redistributed connected). It triggers advertisement to all peers.
func (r *Router) Originate(p netpkt.Prefix) {
	a := r.hooks.Attrs.Intern(&Attrs{Origin: OriginIGP, Path: EmptyPath, NextHop: 0})
	r.upsertCandidate(p, nil, a)
}

// InjectLocal installs a locally originated route with arbitrary
// attributes — how a boundary speaker replays announcements recorded from
// production (§5.1). The AS path should exclude the speaker's own AS, which
// is prepended on export like any eBGP announcement.
func (r *Router) InjectLocal(p netpkt.Prefix, a *Attrs) {
	if a.Path == nil {
		a = a.WithPath(EmptyPath)
	}
	r.upsertCandidate(p, nil, r.hooks.Attrs.Intern(a))
}

// LocRIB returns the number of prefixes with at least one usable candidate.
func (r *Router) LocRIB() int {
	n := 0
	r.entries.Range(func(_ int, e *ribEntry) bool {
		if len(e.best) > 0 {
			n++
		}
		return true
	})
	return n
}

// entry returns Loc-RIB entry id for reading; writers go through writable.
func (r *Router) entry(id int) *ribEntry {
	e, _ := r.entries.Get(id)
	return e
}

// lookup returns the Loc-RIB entry for p for reading, or nil. The entry may
// be shared with a checkpoint and its forks: writers go through writable.
func (r *Router) lookup(p netpkt.Prefix) *ribEntry {
	if id, ok := r.index[p.Key()]; ok {
		return r.entry(int(id))
	}
	return nil
}

// BestRoute returns the primary best attrs for p and whether p is reachable.
func (r *Router) BestRoute(p netpkt.Prefix) (*Attrs, bool) {
	e := r.lookup(p)
	if e == nil || len(e.best) == 0 {
		return nil, false
	}
	return e.candidates[e.best[0]].attrs, true
}

// candPeer resolves a candidate's advertising peer (nil when locally
// originated).
func (r *Router) candPeer(c *candidate) *Peer {
	if c.peerIdx < 0 {
		return nil
	}
	return r.peers[c.peerIdx]
}

// entryFor returns the Loc-RIB entry for p ready for writing, creating it
// (with a fresh dense id, the prefixByID reverse mapping and aggregate
// coverage indexing) on first sight. Entries are never deleted, so ids stay
// stable for the router's lifetime.
func (r *Router) entryFor(p netpkt.Prefix) *ribEntry {
	key := p.Key()
	if id, ok := r.index[key]; ok {
		return r.writable(id)
	}
	id := int32(r.entries.Len())
	e := &ribEntry{id: int(id)}
	if r.indexShared {
		// The prefix index is shared with the checkpoint until the first
		// prefix this router adds on its own.
		own := make(map[uint64]int32, len(r.index)+1)
		for q, i := range r.index {
			own[q] = i
		}
		r.index, r.indexShared = own, false
	}
	r.index[key] = id
	r.entries.Set(int(id), e)
	r.prefixByID = append(r.prefixByID, p)
	if r.cow {
		r.setOwned(id)
	}
	for i := range r.aggState {
		st := &r.aggState[i]
		if st.spec.Prefix != p && st.spec.Prefix.ContainsPrefix(p) {
			st.covered = append(st.covered, id)
		}
	}
	return e
}

// writable returns entry id for writing in place. On a sealed or forked
// router the entry may be shared, so the first write replaces it with a
// private copy — the struct plus its candidates and best arrays, which
// decide edits in place; the attrs and hop group it points at are immutable
// and stay shared.
func (r *Router) writable(id int32) *ribEntry {
	e := r.entry(int(id))
	if !r.cow {
		return e
	}
	if w := int(id >> 6); w < len(r.owned) && r.owned[w]&(1<<(uint(id)&63)) != 0 {
		return e
	}
	c := *e
	c.candidates = append([]candidate(nil), e.candidates...)
	c.best = append([]int32(nil), e.best...)
	r.entries.Set(int(id), &c)
	r.setOwned(id)
	r.entryCopies++
	return &c
}

func (r *Router) setOwned(id int32) {
	w := int(id >> 6)
	for len(r.owned) <= w {
		r.owned = append(r.owned, 0)
	}
	r.owned[w] |= 1 << (uint(id) & 63)
}

// upsertCandidate installs or replaces the candidate from the given source
// (peer, or nil for local) and re-runs the decision process.
func (r *Router) upsertCandidate(p netpkt.Prefix, peer *Peer, a *Attrs) {
	e := r.entryFor(p)
	r.seq++
	idx := int32(-1)
	if peer != nil {
		idx = int32(peer.Index)
	}
	for i := range e.candidates {
		if e.candidates[i].peerIdx == idx {
			e.candidates[i].attrs = a
			e.candidates[i].seq = r.seq
			r.decide(p, e)
			return
		}
	}
	e.candidates = append(e.candidates, candidate{attrs: a, peerIdx: idx, seq: r.seq})
	r.decide(p, e)
}

// candidateOf reports whether the entry holds a route accepted from peer.
func (e *ribEntry) candidateOf(peer *Peer) bool {
	for i := range e.candidates {
		if int(e.candidates[i].peerIdx) == peer.Index {
			return true
		}
	}
	return false
}

// removeCandidate drops the candidate from the given source.
func (r *Router) removeCandidate(p netpkt.Prefix, peer *Peer) {
	e := r.lookup(p)
	if e == nil {
		return
	}
	idx := int32(-1)
	if peer != nil {
		idx = int32(peer.Index)
	}
	for i := range e.candidates {
		if e.candidates[i].peerIdx == idx {
			e = r.writable(int32(e.id))
			e.candidates = append(e.candidates[:i], e.candidates[i+1:]...)
			r.decide(p, e)
			return
		}
	}
}

// better reports whether candidate a beats candidate b in the RFC 4271 §9.1
// decision process (adapted: all-eBGP fabric).
func (r *Router) better(a, b *candidate) bool {
	aa, ba := a.attrs, b.attrs
	if la, lb := aa.EffectiveLocalPref(), ba.EffectiveLocalPref(); la != lb {
		return la > lb
	}
	// Locally originated wins.
	if (a.peerIdx < 0) != (b.peerIdx < 0) {
		return a.peerIdx < 0
	}
	if la, lb := aa.Path.Length(), ba.Path.Length(); la != lb {
		return la < lb
	}
	if aa.Origin != ba.Origin {
		return aa.Origin < ba.Origin
	}
	// MED comparison only between routes from the same neighboring AS.
	if aa.Path.First() != 0 && aa.Path.First() == ba.Path.First() {
		ma, mb := uint32(0), uint32(0)
		if aa.HasMED {
			ma = aa.MED
		}
		if ba.HasMED {
			mb = ba.MED
		}
		if ma != mb {
			return ma < mb
		}
	}
	if r.cfg.NonDeterministicTies {
		// Arrival order decides — models firmware whose tie-break depends
		// on timing (§9).
		return a.seq < b.seq
	}
	// Lowest peer router ID, then lowest peer address.
	ap, bp := r.candPeer(a), r.candPeer(b)
	ida, idb := peerID(ap), peerID(bp)
	if ida != idb {
		return ida < idb
	}
	return peerAddr(ap) < peerAddr(bp)
}

// multipathEligible reports whether two candidates can share the FIB entry.
func multipathEligible(a, b *candidate) bool {
	return a.attrs.EffectiveLocalPref() == b.attrs.EffectiveLocalPref() &&
		(a.peerIdx < 0) == (b.peerIdx < 0) &&
		a.attrs.Path.Length() == b.attrs.Path.Length() &&
		a.attrs.Origin == b.attrs.Origin
}

func peerID(p *Peer) netpkt.IP {
	if p == nil {
		return 0
	}
	return p.remoteID
}

func peerAddr(p *Peer) netpkt.IP {
	if p == nil {
		return 0
	}
	return p.Config.RemoteIP
}

// decide recomputes best paths for p, reprograms the FIB and schedules
// advertisements if the outcome changed.
func (r *Router) decide(p netpkt.Prefix, e *ribEntry) {
	r.mDecisions.Inc()
	prevBestAttrs := e.lastBest
	prevHops := e.installed

	e.best = e.best[:0]
	bi := -1
	for i := range e.candidates {
		if bi == -1 || r.better(&e.candidates[i], &e.candidates[bi]) {
			bi = i
		}
	}
	if bi >= 0 {
		e.best = append(e.best, int32(bi))
		if r.cfg.MaxPaths > 1 {
			for i := range e.candidates {
				if i != bi && len(e.best) < r.cfg.MaxPaths &&
					multipathEligible(&e.candidates[i], &e.candidates[bi]) {
					e.best = append(e.best, int32(i))
				}
			}
		}
	}

	// Program the FIB. nextHops fills a scratch buffer; on a change the
	// entry points at the canonical copy of that hop group, which is also
	// what the hook is handed (immutable, so the FIB may memoise on it).
	hops := r.nextHops(e)
	if !slices.Equal(hops, prevHops) {
		if len(hops) == 0 {
			if len(prevHops) > 0 && r.hooks.RemoveRoute != nil {
				r.hooks.RemoveRoute(p)
			}
			e.installed = nil
		} else {
			e.installed = r.hopSets.Canonical(hops)
			if r.hooks.InstallRoute != nil {
				if err := r.hooks.InstallRoute(p, e.installed); err != nil {
					r.hooks.Logf("bgp %s: FIB install %s failed: %v", r.cfg.Name, p, err)
				}
			}
		}
	}

	// Re-advertise if the exported view changed.
	newBestAttrs := r.primaryAttrs(e)
	e.lastBest = newBestAttrs
	if prevBestAttrs != newBestAttrs {
		for _, peer := range r.peers {
			peer.markDirty(e)
		}
	}

	// Aggregate maintenance: a change in a contributor may (de)activate an
	// aggregate.
	r.updateAggregates(p)
}

func (r *Router) primaryAttrs(e *ribEntry) *Attrs {
	if len(e.best) == 0 {
		return nil
	}
	return e.candidates[e.best[0]].attrs
}

// nextHops maps the best candidate set to FIB next hops. Locally originated
// routes have no next hops to program (they are connected/static in the FIB
// already). The returned slice aliases the router's scratch buffer and is
// only valid until the next call.
func (r *Router) nextHops(e *ribEntry) []rib.NextHop {
	out := r.nhScratch[:0]
	for _, i := range e.best {
		cp := r.candPeer(&e.candidates[i])
		if cp == nil {
			continue
		}
		// Next-hop-self on every session means the next hop of a learned
		// route is simply the address of the session it arrived on.
		out = append(out, rib.NextHop{IP: cp.Config.RemoteIP, Interface: cp.Config.Interface})
	}
	r.nhScratch = out
	return out
}

// updateAggregates re-evaluates aggregates whose range covers p.
func (r *Router) updateAggregates(p netpkt.Prefix) {
	for i := range r.aggState {
		st := &r.aggState[i]
		if !st.spec.Prefix.ContainsPrefix(p) || st.spec.Prefix == p {
			continue
		}
		attrs, nContrib := r.buildAggregate(st)
		if nContrib > 0 {
			// Only touch the RIB when the aggregate's attributes actually
			// changed, to avoid re-advertisement churn.
			if cur, ok := r.localCandidate(st.spec.Prefix); !st.active || !ok || attrsKey(cur) != attrsKey(attrs) {
				st.active = true
				r.upsertCandidate(st.spec.Prefix, nil, attrs)
			}
			if st.spec.SummaryOnly {
				r.setSuppression(st, true)
			}
		} else if st.active {
			st.active = false
			r.removeCandidate(st.spec.Prefix, nil)
			if st.spec.SummaryOnly {
				r.setSuppression(st, false)
			}
		}
	}
}

// localCandidate returns the locally originated attrs for p, if any.
func (r *Router) localCandidate(p netpkt.Prefix) (*Attrs, bool) {
	e := r.lookup(p)
	if e == nil {
		return nil, false
	}
	for i := range e.candidates {
		if e.candidates[i].peerIdx < 0 {
			return e.candidates[i].attrs, true
		}
	}
	return nil, false
}

// buildAggregate walks the aggregate's coverage index for contributors and
// builds the aggregate's attributes per the configured vendor mode. Ties
// between equally good contributors break towards the lowest prefix so the
// selection is independent of map iteration order.
func (r *Router) buildAggregate(st *aggState) (*Attrs, int) {
	var selected *candidate
	var selectedP netpkt.Prefix
	n := 0
	for _, id := range st.covered {
		p, e := r.prefixByID[id], r.entry(int(id))
		if len(e.best) == 0 {
			continue
		}
		c := &e.candidates[e.best[0]]
		if c.attrs.Path != nil && c.attrs.Path.Contains(r.cfg.AS) {
			continue
		}
		n++
		if selected == nil || r.better(c, selected) ||
			(!r.better(selected, c) && p.Key() < selectedP.Key()) {
			selected, selectedP = c, p
		}
	}
	if n == 0 {
		return nil, 0
	}
	a := &Attrs{Origin: OriginIGP, NextHop: 0, AggAS: r.cfg.AS, AggID: r.cfg.RouterID}
	switch r.cfg.AggregationMode {
	case AggInheritSelected:
		// Vendor-A behaviour: inherit the selected contributor's path.
		a.Path = selected.attrs.Path
	case AggBarePath:
		// Vendor-C behaviour: empty path + ATOMIC_AGGREGATE.
		a.Path = EmptyPath
		a.Atomic = true
	}
	return r.hooks.Attrs.Intern(a), n
}

// setSuppression flips the suppressed flag of contributors under a
// summary-only aggregate, queueing re-advertisement where it changed.
func (r *Router) setSuppression(st *aggState, suppress bool) {
	for _, id := range st.covered {
		if r.entry(int(id)).suppressed != suppress {
			e := r.writable(id)
			e.suppressed = suppress
			for _, peer := range r.peers {
				peer.markDirty(e)
			}
		}
	}
}

// maxExportCache bounds the own layer of the router's export-template memo.
// It is cleared wholesale when full — the working set in even L-DC mockups
// sits far below the limit.
const maxExportCache = 8192

// exportKey identifies one export-template computation: the best candidate's
// attrs, the export policy applied to them, and whether the route is locally
// originated (which controls MED stripping). Nothing else about the peer
// reaches the template — next-hop rides the Update, not the Attrs.
type exportKey struct {
	attrs *Attrs
	pol   *Policy
	local bool
}

// exportRoute computes what to announce to peer for prefix p, whose Loc-RIB
// entry is e (flush has it by id; no lookup). ok=false means "withdraw / do
// not advertise".
//
// The per-peer gates (split horizon, AdvertiseLocalOnly, loop avoidance) are
// allocation-free and run on every call; the expensive part — policy
// evaluation, the attribute copy, the AS prepend, interning — is a pure
// function of (best attrs, policy, locally-originated) and is memoized at
// router level when the policy is prefix-independent. The memo's keys are
// canonical (interned) pointers, so a best-path pointer identifies an
// attribute value across updates.
func (r *Router) exportRoute(peer *Peer, p netpkt.Prefix, e *ribEntry) (*Attrs, bool) {
	if len(e.best) == 0 || e.suppressed {
		return nil, false
	}
	best := &e.candidates[e.best[0]]
	// Split horizon: never reflect a route to the peer it came from.
	if best.peerIdx == int32(peer.Index) {
		return nil, false
	}
	// Static speakers only ever announce their installed routes (§5.1).
	if peer.Config.AdvertiseLocalOnly && best.peerIdx >= 0 {
		return nil, false
	}
	// Sender-side loop avoidance (the behaviour Proposition 5.2 relies on):
	// do not send a route whose path already contains the peer's AS.
	if best.attrs.Path.Contains(peer.Config.RemoteAS) || peer.Config.RemoteAS == r.cfg.AS {
		return nil, false
	}
	pol := peer.Config.ExportPolicy
	cacheable := pol.prefixIndependent()
	var key exportKey
	if cacheable {
		key = exportKey{attrs: best.attrs, pol: pol, local: best.peerIdx < 0}
		if v, hit := r.exportCache.Get(key); hit {
			return v.attrs, v.ok
		}
	}
	a, ok := r.exportTemplate(p, best, pol)
	if cacheable {
		if r.exportCache.Len() >= maxExportCache {
			r.exportCache.Drop()
		}
		r.exportCache.Put(key, exportVal{attrs: a, ok: ok})
	}
	return a, ok
}

// exportTemplate builds the peer-independent exported attribute set for the
// best candidate: policy rewrite, own-AS prepend, LOCAL_PREF strip, MED
// strip unless locally originated. The session next-hop is injected at
// marshal time by flush, never stored here.
func (r *Router) exportTemplate(p netpkt.Prefix, best *candidate, pol *Policy) (*Attrs, bool) {
	out, permit := pol.Apply(p, best.attrs)
	if !permit {
		return nil, false
	}
	c := out.editable()
	c.Path = c.Path.Prepend(r.cfg.AS)
	c.NextHop = 0
	c.HasLP, c.LocalPref = false, 0
	if best.peerIdx >= 0 {
		c.HasMED, c.MED = false, 0
	}
	// Intern the export: the same route exported by every device in a tier
	// produces the same attribute set, so the per-export allocation
	// collapses to the canonical object everyone shares.
	a := r.hooks.Attrs.Intern(c)
	if MaxNLRIPerUpdate(a) < 1 {
		// The attributes alone overflow the 4096-octet message (an AS path of
		// a thousand hops): no UPDATE can carry the route, and sending an
		// over-long one makes the receiver reset the session, forever. The
		// route stays in the RIB and is not advertised.
		r.ExportFailures++
		r.hooks.Logf("bgp %s: not advertising %s: attributes do not fit a %d-octet UPDATE", r.cfg.Name, p, maxMessageLen)
		return nil, false
	}
	return a, true
}

// attrsKey returns a compact binary fingerprint of exported attributes, used
// to group prefixes sharing one UPDATE. The fingerprint is memoized on the
// Attrs (it is never empty: the origin and next-hop bytes are unconditional).
func attrsKey(a *Attrs) string {
	if a.memo.ekey == "" {
		a.memo.ekey = computeAttrsKey(a)
	} else if debugAttrs {
		assertSealed(a)
	}
	return a.memo.ekey
}

func computeAttrsKey(a *Attrs) string {
	b := make([]byte, 0, 24)
	b = append(b, byte(a.Origin))
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(a.NextHop))
	b = append(b, tmp[:]...)
	if a.HasMED {
		binary.BigEndian.PutUint32(tmp[:], a.MED)
		b = append(b, 1)
		b = append(b, tmp[:]...)
	}
	if a.HasLP {
		binary.BigEndian.PutUint32(tmp[:], a.LocalPref)
		b = append(b, 2)
		b = append(b, tmp[:]...)
	}
	if a.Atomic {
		b = append(b, 3)
	}
	if a.AggAS != 0 {
		binary.BigEndian.PutUint32(tmp[:], a.AggAS)
		b = append(b, 4)
		b = append(b, tmp[:]...)
	}
	for _, seg := range a.Path.Segments {
		b = append(b, byte(seg.Type), byte(len(seg.ASNs)))
		for _, asn := range seg.ASNs {
			binary.BigEndian.PutUint32(tmp[:], asn)
			b = append(b, tmp[:]...)
		}
	}
	return string(b)
}

// Stats summarizes router state for PullStates.
type Stats struct {
	Name        string
	AS          uint32
	Established int
	LocRIB      int
}

// Stats returns a state summary.
func (r *Router) Stats() Stats {
	st := Stats{Name: r.cfg.Name, AS: r.cfg.AS, LocRIB: r.LocRIB()}
	for _, p := range r.peers {
		if p.state == StateEstablished {
			st.Established++
		}
	}
	return st
}

// String identifies the router in logs.
func (r *Router) String() string {
	return fmt.Sprintf("bgp(%s AS%d)", r.cfg.Name, r.cfg.AS)
}
