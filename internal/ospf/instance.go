package ospf

import (
	"sort"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// The emulated firmware's timers: a broadcast interface runs its DR
// election electionWait after coming up, and SPF recomputation is debounced
// by spfDelay.
const (
	electionWait = 3 * time.Second
	spfDelay     = 50 * time.Millisecond
)

// IfaceType distinguishes point-to-point links from broadcast segments.
type IfaceType uint8

// Interface types.
const (
	P2P IfaceType = iota
	Broadcast
)

// IfaceConfig describes one OSPF-enabled interface.
type IfaceConfig struct {
	Name     string
	Addr     netpkt.Prefix // interface address with mask
	Type     IfaceType
	Cost     uint16
	Priority uint8 // DR election priority (broadcast only); 0 = never DR
}

// NeighborState tracks adjacency progress (condensed FSM).
type NeighborState uint8

// Adjacency states.
const (
	NbrDown NeighborState = iota
	NbrInit               // their hello seen, they have not seen us
	NbrFull               // bidirectional + LSDB exchanged
)

type neighbor struct {
	id       RouterID
	priority uint8
	state    NeighborState
}

// Iface is the runtime state of one interface.
type Iface struct {
	cfg       IfaceConfig
	idx       int
	up        bool
	neighbors map[RouterID]*neighbor
	dr, bdr   RouterID
	elected   bool
}

// Config parameterizes an instance.
type Config struct {
	Name     string
	RouterID RouterID
}

// Hooks connect the instance to its hosting firmware.
type Hooks struct {
	// Send transmits a packet out interface i. dst 0 means every neighbor
	// on the segment (multicast).
	Send         func(ifaceIdx int, dst RouterID, data []byte)
	InstallRoute func(p netpkt.Prefix, nhs []rib.NextHop) error
	RemoveRoute  func(p netpkt.Prefix)
	Logf         func(format string, args ...any)
}

// Instance is one OSPF router.
type Instance struct {
	cfg   Config
	eng   *sim.Engine
	hooks Hooks

	ifaces []*Iface
	stubs  []netpkt.Prefix // loopbacks etc.
	lsdb   map[Key]*LSA
	seq    uint32

	spfTimer  *sim.Timer
	installed map[netpkt.Prefix][]rib.NextHop

	// Cached obs counter handles; nil (no-op) when the engine has no recorder.
	mPktsIn, mPktsOut *obs.Counter
	mSPFRuns          *obs.Counter
}

// bindMetrics caches the instance's counter handles against rec (nil-safe).
func (in *Instance) bindMetrics(rec *obs.Recorder) {
	in.mPktsIn = rec.Counter("ospf.pkts_in", in.cfg.Name)
	in.mPktsOut = rec.Counter("ospf.pkts_out", in.cfg.Name)
	in.mSPFRuns = rec.Counter("ospf.spf_runs", in.cfg.Name)
}

// send is the single egress choke point: every packet leaves through it so
// the out-counter stays exact.
func (in *Instance) send(ifaceIdx int, dst RouterID, data []byte) {
	in.mPktsOut.Inc()
	in.hooks.Send(ifaceIdx, dst, data)
}

// New creates an instance that schedules its timers on eng and binds its
// counters to eng's recorder.
func New(cfg Config, eng *sim.Engine, hooks Hooks) *Instance {
	if hooks.Logf == nil {
		hooks.Logf = func(string, ...any) {}
	}
	in := &Instance{
		cfg: cfg, eng: eng, hooks: hooks,
		lsdb:      map[Key]*LSA{},
		installed: map[netpkt.Prefix][]rib.NextHop{},
	}
	in.bindMetrics(eng.Recorder())
	return in
}

// AddInterface registers an interface; returns its index.
func (in *Instance) AddInterface(cfg IfaceConfig) int {
	if cfg.Cost == 0 {
		cfg.Cost = 10
	}
	i := &Iface{cfg: cfg, idx: len(in.ifaces), neighbors: map[RouterID]*neighbor{}}
	in.ifaces = append(in.ifaces, i)
	return i.idx
}

// AddStub originates a stub prefix (e.g. the loopback).
func (in *Instance) AddStub(p netpkt.Prefix) {
	in.stubs = append(in.stubs, p)
}

// Start brings all interfaces up: hellos go out and, on broadcast segments,
// DR election is scheduled after electionWait.
func (in *Instance) Start() {
	in.originateRouterLSA()
	for _, i := range in.ifaces {
		i.up = true
		in.sendHello(i)
		if i.cfg.Type == Broadcast {
			idx := i.idx
			in.eng.After(electionWait, func() { in.runElection(in.ifaces[idx]) })
		}
	}
}

// InterfaceDown simulates a link failure: adjacencies drop, LSAs
// re-originate, SPF reruns.
func (in *Instance) InterfaceDown(idx int) {
	i := in.ifaces[idx]
	if !i.up {
		return
	}
	i.up = false
	i.neighbors = map[RouterID]*neighbor{}
	wasDR := i.dr == in.cfg.RouterID
	i.dr, i.bdr, i.elected = 0, 0, false
	if wasDR {
		in.removeLSA(Key{Type: LSANetwork, ID: i.cfg.Addr.Addr & i.cfg.Addr.MaskIP(), Adv: in.cfg.RouterID})
	}
	in.originateRouterLSA()
	in.scheduleSPF()
}

// InterfaceUp restores a downed interface.
func (in *Instance) InterfaceUp(idx int) {
	i := in.ifaces[idx]
	if i.up {
		return
	}
	i.up = true
	in.sendHello(i)
	if i.cfg.Type == Broadcast {
		in.eng.After(electionWait, func() { in.runElection(i) })
	}
	in.originateRouterLSA()
}

func (in *Instance) sendHello(i *Iface) {
	h := &Hello{
		Router:   in.cfg.RouterID,
		Priority: i.cfg.Priority,
		DR:       i.dr,
		BDR:      i.bdr,
	}
	for id := range i.neighbors {
		h.Neighbors = append(h.Neighbors, id)
	}
	sort.Slice(h.Neighbors, func(a, b int) bool { return h.Neighbors[a] < h.Neighbors[b] })
	in.send(i.idx, 0, MarshalHello(h))
}

// HandlePacket processes an OSPF packet received on interface idx.
func (in *Instance) HandlePacket(idx int, data []byte) {
	in.mPktsIn.Inc()
	i := in.ifaces[idx]
	if !i.up {
		return
	}
	d, err := DecodePacket(data)
	if err != nil {
		in.hooks.Logf("ospf %s: drop packet on %s: %v", in.cfg.Name, i.cfg.Name, err)
		return
	}
	switch d.Type {
	case PktHello:
		in.handleHello(i, d.Hello)
	case PktLSUpdate:
		in.handleLSUpdate(i, d)
	}
}

func (in *Instance) handleHello(i *Iface, h *Hello) {
	nbr := i.neighbors[h.Router]
	isNew := nbr == nil
	if isNew {
		nbr = &neighbor{id: h.Router, priority: h.Priority, state: NbrInit}
		i.neighbors[h.Router] = nbr
	}
	nbr.priority = h.Priority
	seesUs := false
	for _, n := range h.Neighbors {
		if n == in.cfg.RouterID {
			seesUs = true
			break
		}
	}
	transitioned := false
	if seesUs && nbr.state != NbrFull {
		nbr.state = NbrFull
		transitioned = true
	}
	if isNew || transitioned {
		// Our view changed: tell the segment.
		in.sendHello(i)
	}
	if transitioned {
		// Adjacency complete: exchange the full LSDB and re-originate.
		in.sendLSDB(i, h.Router)
		in.originateRouterLSA()
		if i.cfg.Type == Broadcast && i.elected {
			in.runElection(i)
		}
	}
}

// sendLSDB pushes the entire database to a newly adjacent neighbor
// (collapsing RFC 2328's DD/request/ack exchange onto the reliable link).
func (in *Instance) sendLSDB(i *Iface, dst RouterID) {
	if len(in.lsdb) == 0 {
		return
	}
	lsas := make([]*LSA, 0, len(in.lsdb))
	for _, l := range in.lsdb {
		lsas = append(lsas, l)
	}
	sort.Slice(lsas, func(a, b int) bool {
		x, y := lsas[a].Key(), lsas[b].Key()
		if x.Type != y.Type {
			return x.Type < y.Type
		}
		if x.Adv != y.Adv {
			return x.Adv < y.Adv
		}
		return x.ID < y.ID
	})
	in.send(i.idx, dst, MarshalLSUpdate(in.cfg.RouterID, lsas))
}

func (in *Instance) handleLSUpdate(i *Iface, d *DecodedPacket) {
	var fresh []*LSA
	for _, l := range d.LSAs {
		cur := in.lsdb[l.Key()]
		if cur != nil && cur.Seq >= l.Seq {
			continue // stale or duplicate
		}
		in.lsdb[l.Key()] = l
		fresh = append(fresh, l)
	}
	if len(fresh) == 0 {
		return
	}
	// Flood fresh LSAs to every other interface (and other neighbors of the
	// receiving segment are reached by the sender's own flood).
	for _, other := range in.ifaces {
		if other == i || !other.up || len(other.neighbors) == 0 {
			continue
		}
		in.send(other.idx, 0, MarshalLSUpdate(in.cfg.RouterID, fresh))
	}
	in.scheduleSPF()
}

// installLSA stores a self-originated LSA and floods it everywhere.
func (in *Instance) installLSA(l *LSA) {
	in.lsdb[l.Key()] = l
	for _, i := range in.ifaces {
		if i.up && len(i.neighbors) > 0 {
			in.send(i.idx, 0, MarshalLSUpdate(in.cfg.RouterID, []*LSA{l}))
		}
	}
	in.scheduleSPF()
}

func (in *Instance) removeLSA(k Key) {
	if _, ok := in.lsdb[k]; ok {
		// MaxAge flush condensed to an explicit empty re-origination.
		in.seq++
		var l *LSA
		if k.Type == LSARouter {
			l = &LSA{Type: k.Type, ID: k.ID, Adv: k.Adv, Seq: in.seq}
		} else {
			l = &LSA{Type: k.Type, ID: k.ID, Adv: k.Adv, Seq: in.seq}
		}
		in.lsdb[k] = l
		for _, i := range in.ifaces {
			if i.up && len(i.neighbors) > 0 {
				in.send(i.idx, 0, MarshalLSUpdate(in.cfg.RouterID, []*LSA{l}))
			}
		}
		in.scheduleSPF()
	}
}

// originateRouterLSA rebuilds and floods this router's LSA.
func (in *Instance) originateRouterLSA() {
	in.seq++
	l := &LSA{Type: LSARouter, ID: netpkt.IP(in.cfg.RouterID), Adv: in.cfg.RouterID, Seq: in.seq}
	for _, p := range in.stubs {
		l.Links = append(l.Links, Link{Type: LinkStub, ID: p.Addr, Data: uint32(p.Len), Cost: 0})
	}
	for _, i := range in.ifaces {
		if !i.up {
			continue
		}
		subnet := netpkt.Prefix{Addr: i.cfg.Addr.Addr & i.cfg.Addr.MaskIP(), Len: i.cfg.Addr.Len}
		switch i.cfg.Type {
		case P2P:
			full := false
			for _, n := range i.neighbors {
				if n.state == NbrFull {
					l.Links = append(l.Links, Link{Type: LinkP2P, ID: netpkt.IP(n.id), Data: uint32(i.cfg.Addr.Addr), Cost: i.cfg.Cost})
					full = true
				}
			}
			_ = full
			l.Links = append(l.Links, Link{Type: LinkStub, ID: subnet.Addr, Data: uint32(subnet.Len), Cost: i.cfg.Cost})
		case Broadcast:
			if i.dr != 0 && (i.dr == in.cfg.RouterID || in.fullWith(i, i.dr)) {
				l.Links = append(l.Links, Link{Type: LinkTransit, ID: subnet.Addr, Data: uint32(i.cfg.Addr.Addr), Cost: i.cfg.Cost})
			} else {
				l.Links = append(l.Links, Link{Type: LinkStub, ID: subnet.Addr, Data: uint32(subnet.Len), Cost: i.cfg.Cost})
			}
		}
	}
	in.installLSA(l)
}

func (in *Instance) fullWith(i *Iface, id RouterID) bool {
	n := i.neighbors[id]
	return n != nil && n.state == NbrFull
}

// runElection performs DR/BDR election on a broadcast interface
// (RFC 2328 §9.4, condensed: highest priority wins, router ID breaks ties).
func (in *Instance) runElection(i *Iface) {
	if !i.up {
		return
	}
	type cand struct {
		id       RouterID
		priority uint8
	}
	cands := []cand{{in.cfg.RouterID, i.cfg.Priority}}
	for _, n := range i.neighbors {
		cands = append(cands, cand{n.id, n.priority})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].priority != cands[b].priority {
			return cands[a].priority > cands[b].priority
		}
		return cands[a].id > cands[b].id
	})
	var dr, bdr RouterID
	for _, c := range cands {
		if c.priority == 0 {
			continue
		}
		if dr == 0 {
			dr = c.id
		} else if bdr == 0 {
			bdr = c.id
			break
		}
	}
	changed := dr != i.dr || bdr != i.bdr
	i.dr, i.bdr, i.elected = dr, bdr, true
	if changed {
		in.hooks.Logf("ospf %s: %s DR=%s BDR=%s", in.cfg.Name, i.cfg.Name, dr, bdr)
		in.sendHello(i)
		in.originateRouterLSA()
	}
	// The DR refreshes the Network LSA even when the election outcome is
	// stable, so late-joining routers get listed as attached.
	if dr == in.cfg.RouterID {
		in.originateNetworkLSA(i)
	}
}

// originateNetworkLSA emits the Network LSA for a segment this router is
// DR of.
func (in *Instance) originateNetworkLSA(i *Iface) {
	in.seq++
	subnet := i.cfg.Addr.Addr & i.cfg.Addr.MaskIP()
	l := &LSA{
		Type: LSANetwork, ID: subnet, Adv: in.cfg.RouterID, Seq: in.seq,
		MaskLen:  i.cfg.Addr.Len,
		Attached: []RouterID{in.cfg.RouterID},
	}
	ids := make([]RouterID, 0, len(i.neighbors))
	for id, n := range i.neighbors {
		if n.state == NbrFull {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	l.Attached = append(l.Attached, ids...)
	in.installLSA(l)
}

func (in *Instance) scheduleSPF() {
	if in.spfTimer != nil {
		return
	}
	in.spfTimer = in.eng.After(spfDelay, func() {
		in.spfTimer = nil
		in.runSPF()
	})
}
