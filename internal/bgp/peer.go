package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

// SessionState is the BGP FSM state (RFC 4271 §8, condensed: the TCP
// Connect/Active states collapse into Idle because the emulator's transport
// is the virtual link itself).
type SessionState uint8

// FSM states.
const (
	StateIdle SessionState = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

var stateNames = [...]string{"Idle", "OpenSent", "OpenConfirm", "Established"}

// String returns the RFC state name.
func (s SessionState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// PeerConfig describes one configured neighbor.
type PeerConfig struct {
	Name      string // remote device name (informational)
	LocalIP   netpkt.IP
	RemoteIP  netpkt.IP
	RemoteAS  uint32
	Interface string // local egress interface
	// ImportPolicy/ExportPolicy default to permit-all when nil.
	ImportPolicy *Policy
	ExportPolicy *Policy
	// Passive peers never initiate; they wait for the remote OPEN
	// (boundary speaker sessions are configured active on the speaker side).
	Passive bool
	// AdvertiseLocalOnly restricts announcements to locally originated
	// routes: the static-speaker property (§5.1) — a speaker never reflects
	// what it learns from boundary devices.
	AdvertiseLocalOnly bool
}

// Peer is the per-neighbor state: FSM, Adj-RIB-In, Adj-RIB-Out and the
// dirty set batched into UPDATEs.
type Peer struct {
	router *Router
	Index  int
	Config PeerConfig

	state     SessionState
	remoteID  netpkt.IP
	openSent  bool
	localGen  uint32 // our connection incarnation, refreshed on Start
	remoteGen uint32 // the peer's incarnation, learned from its OPEN

	// adjIn tracks which Loc-RIB entry ids this peer has an accepted route
	// for — a dense presence bitset instead of a per-route hash map, the
	// §10 memory restructuring that makes M-DC RIBs fit. The accepted attrs
	// themselves live only in the Loc-RIB candidate list (keyed by this
	// peer), so the per-peer table stores zero bytes per route. advertised
	// holds the canonical attrs last announced per entry id; the flush
	// comparison falls back to attrsKey equality so the router stays live
	// even when interning is disabled (pointer inequality alone would
	// re-advertise identical routes forever).
	adjIn      rib.Dense[struct{}]
	advertised rib.Dense[*Attrs]
	// The dirty set is a bitset addressed by ribEntry.id plus the insertion-
	// order list of entry ids to visit at the next flush; marking a prefix
	// dirty on every peer is on the decide hot path, and the bit test is far
	// cheaper than a map assignment.
	dirtyBits  []uint64
	dirtyList  []int32
	flushTimer Timer
	// staleScratch is reused by reset to withdraw learned routes.
	staleScratch []netpkt.Prefix

	// Counters for monitoring and the CPU model.
	MsgsIn, MsgsOut       uint64
	RoutesIn, WithdrawsIn uint64
}

// State returns the current FSM state.
func (p *Peer) State() SessionState { return p.state }

// AdjInLen returns the number of routes accepted from this peer.
func (p *Peer) AdjInLen() int { return p.adjIn.Len() }

// AdvertisedLen returns the number of routes currently announced to this
// peer.
func (p *Peer) AdvertisedLen() int { return p.advertised.Len() }

// clearRIBs empties both Adj-RIBs.
func (p *Peer) clearRIBs() {
	p.adjIn.Clear()
	p.advertised.Clear()
}

// exportVal is one memoized export-template outcome (see Router.exportCache).
type exportVal struct {
	attrs *Attrs
	ok    bool
}

// connGen hands out process-unique connection generations. Each engine is
// single-threaded, but the experiment harness runs independent engines on
// parallel goroutines and only generation *equality* matters to the
// protocol, so an atomic counter keeps behaviour identical while staying
// race-free.
var connGen atomic.Uint32

// Start initiates the session (sends OPEN) unless the peer is passive.
func (p *Peer) Start() {
	if p.state != StateIdle {
		return
	}
	p.localGen = connGen.Add(1)
	p.clearRIBs()
	p.clearDirty()
	if p.Config.Passive {
		return
	}
	p.sendOpen()
	p.setState(StateOpenSent)
}

func (p *Peer) sendOpen() {
	if p.localGen == 0 {
		p.localGen = connGen.Add(1)
	}
	p.send(MarshalOpen(&Open{
		AS:       p.router.cfg.AS,
		HoldTime: p.router.cfg.HoldTime,
		BGPID:    p.router.cfg.RouterID,
		Gen:      p.localGen,
	}))
	p.openSent = true
}

// send transmits an OPEN, KEEPALIVE or NOTIFICATION. They are few, so they
// are encoded on their own and copied behind the frame headroom every
// message reaches SendToPeer with; UPDATEs are encoded behind it directly.
func (p *Peer) send(msg []byte) {
	frame := make([]byte, netpkt.FrameHeadroom+len(msg))
	copy(frame[netpkt.FrameHeadroom:], msg)
	p.sendFrame(frame)
}

// sendFrame hands the message frame[netpkt.FrameHeadroom:] to the transport.
func (p *Peer) sendFrame(frame []byte) {
	p.MsgsOut++
	p.router.mMsgsOut.Inc()
	p.router.hooks.SendToPeer(p.Index, frame)
}

func (p *Peer) setState(s SessionState) {
	if p.state == s {
		return
	}
	p.state = s
	p.router.hooks.SessionEvent(p.Index, s)
}

// Stop tears the session down (administrative shutdown or link failure).
// All routes learned from the peer are withdrawn from the Loc-RIB.
func (p *Peer) Stop(reason string) {
	if p.state == StateIdle && !p.openSent {
		return
	}
	if p.state == StateEstablished {
		p.send(MarshalNotification(&Notification{Code: NotifCease}))
	}
	p.reset(reason)
}

// reset clears session state and flushes learned routes.
func (p *Peer) reset(reason string) {
	p.router.hooks.Logf("bgp %s: session to %s reset: %s", p.router.cfg.Name, p.Config.Name, reason)
	p.openSent = false
	if p.flushTimer != nil {
		p.flushTimer.Cancel()
		p.flushTimer = nil
	}
	p.staleScratch = p.staleScratch[:0]
	p.adjIn.Range(func(id int, _ struct{}) bool {
		p.staleScratch = append(p.staleScratch, p.router.prefixByID[id])
		return true
	})
	p.clearRIBs()
	p.clearDirty()
	p.setState(StateIdle)
	for _, pfx := range p.staleScratch {
		p.router.removeCandidate(pfx, p)
	}
}

// HandleMessage processes one encoded BGP message from the wire. Decode or
// protocol errors reset the session, as a NOTIFICATION would. The message is
// decoded into this frame: a short UPDATE costs no allocation.
func (p *Peer) HandleMessage(data []byte) {
	p.MsgsIn++
	p.router.mMsgsIn.Inc()
	var buf [smallPrefixes]netpkt.Prefix
	m, withdrawn, nlri, err := decodeBody(data, buf[:])
	if err != nil {
		p.send(MarshalNotification(&Notification{Code: NotifMsgHeader}))
		p.reset(fmt.Sprintf("decode error: %v", err))
		return
	}
	switch m.typ {
	case MsgOpen:
		p.handleOpen(&m.o)
	case MsgKeepalive:
		p.handleKeepalive()
	case MsgUpdate:
		p.handleUpdate(withdrawn, m.attrs, nlri)
	case MsgNotification:
		p.reset(fmt.Sprintf("notification from peer: code=%d/%d", m.n.Code, m.n.Subcode))
	}
}

func (p *Peer) handleOpen(o *Open) {
	if p.Config.RemoteAS != 0 && o.AS != p.Config.RemoteAS {
		p.send(MarshalNotification(&Notification{Code: NotifOpenError, Subcode: 2})) // bad peer AS
		p.reset(fmt.Sprintf("AS mismatch: got %d want %d", o.AS, p.Config.RemoteAS))
		return
	}
	if p.state == StateEstablished {
		if o.Gen == p.remoteGen {
			// Late duplicate OPEN from the connection we already confirmed:
			// re-acknowledge and stay Established.
			p.send(MarshalKeepalive())
			return
		}
		// A new incarnation: the peer restarted and everything we learned
		// from it is stale. Reset quietly (no NOTIFICATION — the peer is
		// already in a fresh connection) and handshake anew.
		p.reset("peer re-opened session")
		p.remoteID, p.remoteGen = o.BGPID, o.Gen
		p.sendOpen()
		p.send(MarshalKeepalive())
		p.setState(StateOpenConfirm)
		return
	}
	freshConn := o.Gen != p.remoteGen
	p.remoteID, p.remoteGen = o.BGPID, o.Gen
	if !p.openSent || (p.state == StateOpenSent && freshConn) {
		// Respond with our own OPEN: the passive side's first, or a re-send
		// when the remote (re)connects while we linger in OpenSent — a
		// stale half-open session would otherwise deadlock, since the
		// emulator has no hold timer to clear it.
		p.sendOpen()
	}
	p.send(MarshalKeepalive())
	p.setState(StateOpenConfirm)
}

func (p *Peer) handleKeepalive() {
	switch p.state {
	case StateOpenConfirm:
		p.establish()
	case StateEstablished:
		// Hold-timer refresh would go here; the emulator models session
		// liveness via link state rather than timers (see DESIGN.md).
	}
}

// establish transitions to Established and schedules the initial full-table
// advertisement.
func (p *Peer) establish() {
	p.setState(StateEstablished)
	p.markAllDirty()
	p.scheduleFlush()
}

// handleUpdate applies an UPDATE's withdrawals and announcements; attrs is
// nil for a withdrawal-only message. The prefix lists are only read (they
// may sit on HandleMessage's stack).
func (p *Peer) handleUpdate(withdrawn []netpkt.Prefix, attrs *Attrs, nlri []netpkt.Prefix) {
	switch p.state {
	case StateOpenConfirm:
		// The peer has gone Established (our KEEPALIVE arrived; its own may
		// still be in flight on the virtual link). Treat the UPDATE as the
		// implicit confirmation instead of NOTIFYING a healthy session away
		// — the storm that would otherwise follow is exactly the stale-
		// session flap bug class §7 Case 2 hunts.
		p.establish()
	case StateEstablished:
	default:
		// Stale datagram from a previous session incarnation: drop.
		return
	}
	for _, pfx := range withdrawn {
		p.WithdrawsIn++
		p.router.mWithdrawsIn.Inc()
		if e := p.router.lookup(pfx); e != nil && p.adjIn.Delete(e.id) {
			p.router.removeCandidate(pfx, p)
		}
	}
	if attrs == nil || len(nlri) == 0 {
		return
	}
	// Receiver-side loop detection: discard routes containing our AS.
	if attrs.Path.Contains(p.router.cfg.AS) {
		return
	}
	for _, pfx := range nlri {
		p.RoutesIn++
		p.router.mRoutesIn.Inc()
		imported, permit := p.Config.ImportPolicy.Apply(pfx, attrs)
		if imported != attrs {
			// The import policy derived a modified attribute set; intern it
			// so policy-heavy fabrics share those too (attrs itself is
			// already canonical from the decoder).
			imported = Intern(imported)
		}
		if !permit {
			// Treat as unfeasible: remove any previous acceptance.
			if e := p.router.lookup(pfx); e != nil && p.adjIn.Delete(e.id) {
				p.router.removeCandidate(pfx, p)
			}
			continue
		}
		e := p.router.upsertCandidate(pfx, p, imported)
		// A replacement leaves the presence bit as it is; skipping the Set
		// keeps a forked session from copying its Adj-RIB-In for nothing.
		if _, had := p.adjIn.Get(e.id); !had {
			p.adjIn.Set(e.id, struct{}{})
		}
	}
}

// SetExportPolicy replaces the peer's export policy at runtime (an operator
// route-map edit) and queues every usable prefix for re-evaluation so
// withdraws and new announcements flow at the next flush. The router's
// export-template memo keys on the policy pointer, so the entries computed
// under the old policy simply become unreachable — no invalidation needed.
func (p *Peer) SetExportPolicy(pol *Policy) {
	p.Config.ExportPolicy = pol
	p.markAllDirty()
}

// markAllDirty queues every usable prefix for (re-)advertisement.
func (p *Peer) markAllDirty() {
	for _, e := range p.router.entries {
		if len(e.best) > 0 {
			p.markDirty(e)
		}
	}
}

// markDirty queues an entry's prefix for (re-)advertisement at the next
// flush. The entry's dense id addresses the peer's dirty bitset.
func (p *Peer) markDirty(e *ribEntry) {
	if p.state != StateEstablished {
		return
	}
	w, bit := uint(e.id)>>6, uint64(1)<<(uint(e.id)&63)
	for uint(len(p.dirtyBits)) <= w {
		p.dirtyBits = append(p.dirtyBits, 0)
	}
	if p.dirtyBits[w]&bit != 0 {
		return
	}
	p.dirtyBits[w] |= bit
	p.dirtyList = append(p.dirtyList, int32(e.id))
	p.scheduleFlush()
}

// clearDirty empties the dirty set, retaining its storage.
func (p *Peer) clearDirty() {
	clear(p.dirtyBits)
	p.dirtyList = p.dirtyList[:0]
}

func (p *Peer) scheduleFlush() {
	if p.flushTimer != nil {
		return
	}
	p.flushTimer = p.router.clock.After(p.router.cfg.MRAI, p.flush)
}

// exportGroup is the prefixes one flush announces under one attribute set.
type exportGroup struct {
	attrs    *Attrs
	prefixes []netpkt.Prefix
}

// flushScratch is the working storage of Peer.flush, owned by the router and
// reused by every flush of every peer (flushes run one at a time, and nothing
// a flush calls flushes again): the withdrawals and the UPDATE groups of the
// flush in progress, and the way to a group from its attrs pointer. A flush
// leaves all three empty with their storage in place.
type flushScratch struct {
	withdrawn []netpkt.Prefix
	groups    []exportGroup
	groupOf   map[*Attrs]int32
}

// flush drains the dirty set into batched UPDATE messages: one withdrawal
// message plus one message per distinct exported attribute set (split to
// respect the 4096-byte cap).
func (p *Peer) flush() {
	p.flushTimer = nil
	if p.state != StateEstablished || len(p.dirtyList) == 0 {
		p.clearDirty()
		return
	}
	r := p.router
	sc := &r.flush
	if sc.groupOf == nil {
		sc.groupOf = map[*Attrs]int32{}
	}
	withdrawals, groups := sc.withdrawn[:0], sc.groups[:0]

	for _, id32 := range p.dirtyList {
		id := int(id32)
		e, pfx := r.entries[id], r.prefixByID[id]
		attrs, ok := r.exportRoute(p, pfx, e)
		if !ok {
			if p.advertised.Delete(id) {
				withdrawals = append(withdrawals, pfx)
			}
			continue
		}
		// Interning makes the no-change test a pointer compare in the common
		// case; the attrsKey fallback covers canonical pointers that straddle
		// the intern table's wholesale clear at maxInternTable (equal bytes,
		// different pointers). The table is process-wide, so without it
		// whether a redundant UPDATE goes out would depend on what other
		// emulations in the process had interned.
		if prev, adv := p.advertised.Get(id); adv && (prev == attrs || attrsKey(prev) == attrsKey(attrs)) {
			continue // no visible change
		}
		p.advertised.Set(id, attrs)
		gi, ok := sc.groupOf[attrs]
		if !ok {
			gi = int32(len(groups))
			sc.groupOf[attrs] = gi
			if int(gi) < cap(groups) {
				// Take the slot back with whatever prefix storage it kept.
				groups = groups[:gi+1]
				groups[gi].attrs, groups[gi].prefixes = attrs, groups[gi].prefixes[:0]
			} else {
				groups = append(groups, exportGroup{attrs: attrs})
			}
		}
		groups[gi].prefixes = append(groups[gi].prefixes, pfx)
	}
	p.clearDirty()
	// Empty the pointer map key by key: its cost follows this flush's groups,
	// not the largest flush the router has ever seen.
	for i := range groups {
		delete(sc.groupOf, groups[i].attrs)
	}

	// Deterministic wire order: sorted withdrawals, then groups by key.
	if len(withdrawals) > 0 {
		sortPrefixes(withdrawals)
		p.sendChunks(nil, withdrawals)
	}
	// A group is identified by attrsKey, found above by pointer. The stable
	// sort keeps first-seen order among pointers with one key (they straddle
	// an intern-table clear, or differ in AGGREGATOR id alone), so folding
	// each run into its first member yields the group a key-indexed map
	// would have built, attrs and all.
	slices.SortStableFunc(groups, func(a, b exportGroup) int {
		return strings.Compare(attrsKey(a.attrs), attrsKey(b.attrs))
	})
	for i := 0; i < len(groups); {
		g := &groups[i]
		for i++; i < len(groups) && attrsKey(groups[i].attrs) == attrsKey(g.attrs); i++ {
			g.prefixes = append(g.prefixes, groups[i].prefixes...)
		}
		sortPrefixes(g.prefixes)
		p.sendChunks(g.attrs, g.prefixes)
	}
	sc.withdrawn, sc.groups = withdrawals[:0], groups[:0]
}

// sendChunks sends ps as UPDATEs of at most MaxNLRIPerUpdate prefixes each:
// announcements under attrs, or withdrawals when attrs is nil.
func (p *Peer) sendChunks(attrs *Attrs, ps []netpkt.Prefix) {
	// At least 1: exportTemplate withholds attrs that leave no room for NLRI.
	for max := MaxNLRIPerUpdate(attrs); len(ps) > 0; {
		chunk := ps[:min(max, len(ps))]
		ps = ps[len(chunk):]
		if attrs == nil {
			p.sendFrame(marshalUpdate(&Update{Withdrawn: chunk}, netpkt.FrameHeadroom))
			continue
		}
		// Next-hop-self: the session's local address is stamped onto the
		// wire here, so the RIB-resident attrs stay session-independent.
		p.sendFrame(marshalUpdate(&Update{Attrs: attrs, NextHop: p.Config.LocalIP, NLRI: chunk}, netpkt.FrameHeadroom))
	}
}

func sortPrefixes(ps []netpkt.Prefix) {
	slices.SortFunc(ps, func(a, b netpkt.Prefix) int { return cmp.Compare(a.Key(), b.Key()) })
}
