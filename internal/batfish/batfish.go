// Package batfish implements the configuration-verification baseline the
// paper compares against (§1, §2, §10): an idealized control-plane
// simulator that ingests topology and configuration files and computes
// forwarding tables assuming RFC-perfect, bug-free, vendor-uniform device
// behaviour.
//
// By construction it cannot see firmware bugs, vendor-divergent corner
// cases (Figure 1), or anything "baked into custom software" — the paper's
// argument for why emulation is needed. The Table 1 coverage experiment
// runs incident scenarios under both this baseline and the CrystalNet
// emulation and records who detects what.
//
// The coverage argument is tabulated in DESIGN.md §3 (Table 1 row of the
// per-experiment index).
package batfish

import (
	"sort"

	"crystalnet/internal/bgp"
	"crystalnet/internal/config"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/topo"
	"crystalnet/internal/trie"
)

// maxRounds bounds the synchronous convergence loop; eBGP path lengths are
// bounded by the AS graph diameter, far below this.
const maxRounds = 128

type simNeighbor struct {
	cfg       config.BGPNeighbor
	remote    *simDevice
	remoteNbr int // index of the reverse adjacency on the remote device
}

type simDevice struct {
	name      string
	cfg       *config.DeviceConfig
	neighbors []simNeighbor
	// adjIn[prefix][neighborIdx] = accepted route
	adjIn map[netpkt.Prefix]map[int]*bgp.Attrs
	local map[netpkt.Prefix]*bgp.Attrs
	// best[prefix] = chosen candidates (neighbor indexes; -1 local)
	best map[netpkt.Prefix][]int
}

// Simulate computes the idealized FIBs of every configured device. External
// devices (no config) do not participate — exactly like feeding Batfish
// only your own configs.
func Simulate(n *topo.Network, cfgs map[string]*config.DeviceConfig) map[string]rib.Snapshot {
	// Build the simulation graph.
	devs := map[string]*simDevice{}
	for name, c := range cfgs {
		sd := &simDevice{
			name: name, cfg: c,
			adjIn: map[netpkt.Prefix]map[int]*bgp.Attrs{},
			local: map[netpkt.Prefix]*bgp.Attrs{},
			best:  map[netpkt.Prefix][]int{},
		}
		for _, p := range c.Networks {
			sd.local[p] = &bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.EmptyPath}
		}
		devs[name] = sd
	}
	// Wire neighbors by configured session addresses.
	ix := config.NewIndex(cfgs)
	for _, sd := range devs {
		for _, nb := range sd.cfg.Neighbors {
			var remote *simDevice
			if o, ok := ix.Owner(nb.IP); ok {
				remote = devs[ix.Name(o.Dev)]
			}
			sd.neighbors = append(sd.neighbors, simNeighbor{cfg: nb, remote: remote})
		}
	}
	// Resolve reverse adjacency indexes.
	for _, sd := range devs {
		for i := range sd.neighbors {
			nbr := &sd.neighbors[i]
			if nbr.remote == nil {
				nbr.remoteNbr = -1
				continue
			}
			nbr.remoteNbr = -1
			localIP := sessionLocalIP(sd.cfg, nbr.cfg)
			for j, rn := range nbr.remote.neighbors {
				if rn.cfg.IP == localIP {
					nbr.remoteNbr = j
					break
				}
			}
		}
	}

	names := make([]string, 0, len(devs))
	for name := range devs {
		names = append(names, name)
	}
	sort.Strings(names)

	// Initial decision (locals only), then synchronous rounds.
	for _, name := range names {
		devs[name].decideAll()
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, name := range names {
			sd := devs[name]
			for i := range sd.neighbors {
				if sd.exchange(i) {
					changed = true
				}
			}
		}
		for _, name := range names {
			if devs[name].decideAll() {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Emit FIB snapshots.
	out := map[string]rib.Snapshot{}
	for _, name := range names {
		out[name] = devs[name].snapshot()
	}
	return out
}

// sessionLocalIP returns the local address of the session (the interface
// the neighbor statement binds).
func sessionLocalIP(c *config.DeviceConfig, nb config.BGPNeighbor) netpkt.IP {
	if ic := c.Interface(nb.Interface); ic != nil {
		return ic.Addr.Addr
	}
	return 0
}

// exchange pushes the device's current best routes to neighbor i. Returns
// true if the neighbor's adjIn changed.
func (sd *simDevice) exchange(i int) bool {
	nbr := &sd.neighbors[i]
	if nbr.remote == nil || nbr.remoteNbr < 0 {
		return false
	}
	changed := false
	// Announce / update.
	prefixes := make([]netpkt.Prefix, 0, len(sd.best))
	for p := range sd.best {
		prefixes = append(prefixes, p)
	}
	sortPrefixes(prefixes)
	announced := map[netpkt.Prefix]bool{}
	for _, p := range prefixes {
		attrs, ok := sd.export(p, nbr)
		if !ok {
			continue
		}
		announced[p] = true
		if nbr.remote.importRoute(p, nbr.remoteNbr, attrs, nbr.cfg.Interface) {
			changed = true
		}
	}
	// Implicit withdrawals: anything previously in the remote adjIn from us
	// that we no longer announce.
	for p, sources := range nbr.remote.adjIn {
		if _, ok := sources[nbr.remoteNbr]; ok && !announced[p] {
			delete(sources, nbr.remoteNbr)
			changed = true
		}
	}
	return changed
}

// export mirrors the ideal eBGP export: best route, split horizon, AS loop
// avoidance, export policy, prepend, next-hop-self.
func (sd *simDevice) export(p netpkt.Prefix, nbr *simNeighbor) (*bgp.Attrs, bool) {
	best := sd.best[p]
	if len(best) == 0 {
		return nil, false
	}
	src := best[0]
	var attrs *bgp.Attrs
	if src == -1 {
		attrs = sd.local[p]
	} else {
		attrs = sd.adjIn[p][src]
		// Split horizon back to the same neighbor.
		if &sd.neighbors[src] == nbr {
			return nil, false
		}
	}
	if attrs == nil {
		return nil, false
	}
	if attrs.Path.Contains(nbr.cfg.RemoteAS) || nbr.cfg.RemoteAS == sd.cfg.ASN {
		return nil, false
	}
	var pol *bgp.Policy
	if nbr.cfg.ExportPolicy != "" {
		pol = sd.cfg.RouteMaps[nbr.cfg.ExportPolicy]
	}
	out, permit := pol.Apply(p, attrs)
	if !permit {
		return nil, false
	}
	c := *out
	c.Path = c.Path.Prepend(sd.cfg.ASN)
	c.NextHop = sessionLocalIP(sd.cfg, nbr.cfg)
	c.HasLP = false
	if src != -1 {
		c.HasMED = false
	}
	return &c, true
}

// importRoute applies the receiver side; returns true if adjIn changed.
func (sd *simDevice) importRoute(p netpkt.Prefix, fromNbr int, attrs *bgp.Attrs, _ string) bool {
	if attrs.Path.Contains(sd.cfg.ASN) {
		return false
	}
	var pol *bgp.Policy
	if fromNbr < len(sd.neighbors) && sd.neighbors[fromNbr].cfg.ImportPolicy != "" {
		pol = sd.cfg.RouteMaps[sd.neighbors[fromNbr].cfg.ImportPolicy]
	}
	in, permit := pol.Apply(p, attrs)
	if !permit {
		sources := sd.adjIn[p]
		if sources != nil {
			if _, had := sources[fromNbr]; had {
				delete(sources, fromNbr)
				return true
			}
		}
		return false
	}
	sources := sd.adjIn[p]
	if sources == nil {
		sources = map[int]*bgp.Attrs{}
		sd.adjIn[p] = sources
	}
	prev := sources[fromNbr]
	if prev != nil && attrsEqual(prev, in) {
		return false
	}
	sources[fromNbr] = in
	return true
}

func attrsEqual(a, b *bgp.Attrs) bool {
	return a.Origin == b.Origin && a.NextHop == b.NextHop &&
		a.HasMED == b.HasMED && a.MED == b.MED &&
		a.EffectiveLocalPref() == b.EffectiveLocalPref() &&
		a.Path.Equal(b.Path)
}

// decideAll recomputes best paths for every known prefix; returns true on
// any change.
func (sd *simDevice) decideAll() bool {
	prefixes := map[netpkt.Prefix]bool{}
	for p := range sd.local {
		prefixes[p] = true
	}
	for p := range sd.adjIn {
		prefixes[p] = true
	}
	changed := false
	for p := range prefixes {
		type cand struct {
			idx   int
			attrs *bgp.Attrs
		}
		var cands []cand
		if a, ok := sd.local[p]; ok {
			cands = append(cands, cand{-1, a})
		}
		idxs := make([]int, 0, len(sd.adjIn[p]))
		for i := range sd.adjIn[p] {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			cands = append(cands, cand{i, sd.adjIn[p][i]})
		}
		var best []int
		if len(cands) > 0 {
			bi := 0
			for i := 1; i < len(cands); i++ {
				if betterIdeal(cands[i].attrs, cands[bi].attrs, cands[i].idx == -1, cands[bi].idx == -1) {
					bi = i
				}
			}
			best = append(best, cands[bi].idx)
			max := sd.cfg.MaxPaths
			if max <= 0 {
				max = 1
			}
			for i := range cands {
				if i != bi && len(best) < max && multipathOK(cands[i].attrs, cands[bi].attrs, cands[i].idx == -1, cands[bi].idx == -1) {
					best = append(best, cands[i].idx)
				}
			}
		}
		if !intsEqual(sd.best[p], best) {
			if len(best) == 0 {
				delete(sd.best, p)
			} else {
				sd.best[p] = best
			}
			changed = true
		}
	}
	return changed
}

// betterIdeal is the canonical, vendor-uniform decision process.
func betterIdeal(a, b *bgp.Attrs, aLocal, bLocal bool) bool {
	if la, lb := a.EffectiveLocalPref(), b.EffectiveLocalPref(); la != lb {
		return la > lb
	}
	if aLocal != bLocal {
		return aLocal
	}
	if la, lb := a.Path.Length(), b.Path.Length(); la != lb {
		return la < lb
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.Path.First() == b.Path.First() {
		ma, mb := uint32(0), uint32(0)
		if a.HasMED {
			ma = a.MED
		}
		if b.HasMED {
			mb = b.MED
		}
		if ma != mb {
			return ma < mb
		}
	}
	return a.NextHop < b.NextHop
}

func multipathOK(a, b *bgp.Attrs, aLocal, bLocal bool) bool {
	return a.EffectiveLocalPref() == b.EffectiveLocalPref() &&
		aLocal == bLocal &&
		a.Path.Length() == b.Path.Length() &&
		a.Origin == b.Origin
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshot converts the device's best routes into a FIB snapshot:
// connected interfaces plus BGP-selected next hops.
func (sd *simDevice) snapshot() rib.Snapshot {
	var snap rib.Snapshot
	for _, ic := range sd.cfg.Interfaces {
		sub := netpkt.Prefix{Addr: ic.Addr.Addr & ic.Addr.MaskIP(), Len: ic.Addr.Len}
		snap = append(snap, &rib.Entry{
			Prefix: sub, Proto: rib.ProtoConnected,
			NextHops: []rib.NextHop{{Interface: ic.Name}},
		})
	}
	prefixes := make([]netpkt.Prefix, 0, len(sd.best))
	for p := range sd.best {
		prefixes = append(prefixes, p)
	}
	sortPrefixes(prefixes)
	for _, p := range prefixes {
		var hops []rib.NextHop
		for _, idx := range sd.best[p] {
			if idx == -1 {
				continue
			}
			nbr := sd.neighbors[idx]
			hops = append(hops, rib.NextHop{IP: nbr.cfg.IP, Interface: nbr.cfg.Interface})
		}
		if len(hops) == 0 {
			continue
		}
		snap = append(snap, &rib.Entry{Prefix: p, Proto: rib.ProtoBGP, NextHops: hops})
	}
	sort.Slice(snap, func(i, j int) bool {
		if snap[i].Prefix.Addr != snap[j].Prefix.Addr {
			return snap[i].Prefix.Addr < snap[j].Prefix.Addr
		}
		return snap[i].Prefix.Len < snap[j].Prefix.Len
	})
	return snap
}

func sortPrefixes(ps []netpkt.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr != ps[j].Addr {
			return ps[i].Addr < ps[j].Addr
		}
		return ps[i].Len < ps[j].Len
	})
}

// Walker answers reachability queries against one forwarding state by
// walking each one hop by hop. It resolves devices and address owners
// through the fabric's index, built once by whoever owns the fabric rather
// than per query, and keeps nothing from one query to the next: it is the
// plain reference walk that -tags crystaldebug checks the sweep table
// (Sweep) against, so the two share the hop rule and nothing else. A
// snapshot walker's lazy indexing makes a Walker unsafe for concurrent use;
// build one per goroutine.
type Walker struct {
	// ix is the fabric the walk resolves against: each device's Networks
	// for delivery, address owners to follow next hops.
	ix *config.Index
	// lookup resolves a longest-prefix match in one device's FIB.
	lookup LookupFunc
}

// LookupFunc resolves a longest-prefix match in one device's forwarding
// state; it must return false for unknown devices.
type LookupFunc func(dev string, dst netpkt.IP) (*rib.Entry, bool)

// NewWalker answers queries against pulled FIB snapshots, building a
// longest-prefix-match trie per device the first time that device is walked
// through (a sweep rarely routes through every device it starts from).
func NewWalker(fibs map[string]rib.Snapshot, cfgs map[string]*config.DeviceConfig) *Walker {
	lpm := map[string]*trie.Trie[*rib.Entry]{}
	return NewLiveWalker(func(dev string, dst netpkt.IP) (*rib.Entry, bool) {
		t, ok := lpm[dev]
		if !ok {
			t = trie.New[*rib.Entry]()
			for _, e := range fibs[dev] {
				t.Insert(e.Prefix, e)
			}
			lpm[dev] = t
		}
		_, e, ok := t.Lookup(dst)
		return e, ok
	}, cfgs)
}

// NewLiveWalker answers queries through fn over the fabric cfgs describes;
// callers that already hold the fabric's index use NewIndexWalker.
func NewLiveWalker(fn LookupFunc, cfgs map[string]*config.DeviceConfig) *Walker {
	return NewIndexWalker(fn, config.NewIndex(cfgs))
}

// NewIndexWalker answers queries through fn — typically straight off live
// per-device FIB tries (device FIBs are tries already, so re-indexing pulled
// snapshots would only duplicate them) — resolving devices and next hops
// against ix. Each query reads the forwarding state as it is then; the
// caller guarantees it does not change during one.
func NewIndexWalker(fn LookupFunc, ix *config.Index) *Walker {
	return &Walker{ix: ix, lookup: fn}
}

// Reachable walks from a device toward an address — the reachability query
// verification tools are used for — returning the device path and whether
// delivery succeeds.
func (w *Walker) Reachable(from string, dst netpkt.IP) ([]string, bool) {
	cur := from
	var path []string
	for hops := 0; hops < maxHops; hops++ {
		path = append(path, cur)
		next, delivered, ok := w.hop(cur, dst)
		if delivered || !ok {
			return path, delivered
		}
		cur = next
	}
	return path, false
}

// Delivered reports whether a packet from a device reaches dst: Reachable's
// verdict without building the path, the form fabric-wide sweeps use (they
// only name the endpoints of failing pairs).
func (w *Walker) Delivered(from string, dst netpkt.IP) bool {
	cur := from
	for hops := 0; hops < maxHops; hops++ {
		next, delivered, ok := w.hop(cur, dst)
		if delivered || !ok {
			return delivered
		}
		cur = next
	}
	return false
}

// hop advances one forwarding step from cur toward dst: delivered reports
// local origination or delivery to an unowned (host) address, ok=false a
// forwarding failure, and otherwise next is the downstream device.
func (w *Walker) hop(cur string, dst netpkt.IP) (next string, delivered, ok bool) {
	if originates(w.ix.Config(cur), dst) {
		return "", true, true
	}
	best, found := w.lookup(cur, dst)
	switch id := forward(w.ix, best, found, dst); id {
	case hopDelivered:
		return "", true, true
	case hopDropped:
		return "", false, false
	default:
		return w.ix.Name(int(id)), false, true
	}
}

// originates reports whether a device running c delivers dst locally: dst
// is inside one of the networks it announces. c is nil for a device the
// fabric index does not hold.
func originates(c *config.DeviceConfig, dst netpkt.IP) bool {
	if c == nil {
		return false
	}
	for _, p := range c.Networks {
		if p.Contains(dst) {
			return true
		}
	}
	return false
}

// forward is the rest of hop's rule once the device's own networks did not
// take dst: best (found false when the lookup missed) decides, giving the
// downstream device's id or hopDelivered/hopDropped.
func forward(ix *config.Index, best *rib.Entry, found bool, dst netpkt.IP) int32 {
	if !found || len(best.NextHops) == 0 {
		return hopDropped
	}
	nh := best.NextHops[0]
	if nh.IP == 0 {
		// Connected: delivered if no device owns it (it is a host).
		o, ok := ix.Owner(dst)
		if !ok {
			return hopDelivered
		}
		return int32(o.Dev)
	}
	o, ok := ix.Owner(nh.IP)
	if !ok {
		return hopDropped
	}
	return int32(o.Dev)
}
