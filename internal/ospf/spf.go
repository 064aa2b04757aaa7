package ospf

import (
	"container/heap"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

// nodeKey identifies a vertex of the SPF graph: a router or a transit
// network segment.
type nodeKey struct {
	net bool
	id  netpkt.IP // router ID, or network subnet address
}

type spfItem struct {
	key  nodeKey
	dist uint32
}

type spfQueue []*spfItem

func (q spfQueue) Len() int           { return len(q) }
func (q spfQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q spfQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *spfQueue) Push(x any)        { *q = append(*q, x.(*spfItem)) }
func (q *spfQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// edge is one usable (bidirectionally verified) SPF edge.
type edge struct {
	to   nodeKey
	cost uint32
	// viaAddr is the target router's interface address on the shared
	// medium — the next-hop address when the source is self or a directly
	// attached network.
	viaAddr netpkt.IP
}

// runSPF recomputes shortest paths over the LSDB and reconciles the routing
// table (RFC 2328 §16, condensed to intra-area router/network/stub routes).
func (in *Instance) runSPF() {
	in.mSPFRuns.Inc()
	routers := map[RouterID]*LSA{}
	networks := map[netpkt.IP]*LSA{}
	for k, l := range in.lsdb {
		switch k.Type {
		case LSARouter:
			if len(l.Links) > 0 {
				routers[l.Adv] = l
			}
		case LSANetwork:
			if len(l.Attached) > 0 {
				networks[l.ID] = l
			}
		}
	}

	edgesFrom := func(k nodeKey) []edge {
		var out []edge
		if k.net {
			nl := networks[k.id]
			if nl == nil {
				return nil
			}
			for _, r := range nl.Attached {
				rl := routers[r]
				if rl == nil {
					continue
				}
				// Bidirectional check: router lists transit to this net.
				for _, ln := range rl.Links {
					if ln.Type == LinkTransit && ln.ID == k.id {
						out = append(out, edge{to: nodeKey{id: netpkt.IP(r)}, cost: 0, viaAddr: netpkt.IP(ln.Data)})
					}
				}
			}
			return out
		}
		rl := routers[RouterID(k.id)]
		if rl == nil {
			return nil
		}
		for _, ln := range rl.Links {
			switch ln.Type {
			case LinkP2P:
				tl := routers[RouterID(ln.ID)]
				if tl == nil {
					continue
				}
				for _, back := range tl.Links {
					if back.Type == LinkP2P && back.ID == k.id {
						out = append(out, edge{to: nodeKey{id: ln.ID}, cost: uint32(ln.Cost), viaAddr: netpkt.IP(back.Data)})
						break
					}
				}
			case LinkTransit:
				if networks[ln.ID] != nil {
					out = append(out, edge{to: nodeKey{net: true, id: ln.ID}, cost: uint32(ln.Cost)})
				}
			}
		}
		return out
	}

	// Dijkstra from self.
	self := nodeKey{id: netpkt.IP(in.cfg.RouterID)}
	dist := map[nodeKey]uint32{self: 0}
	hops := map[nodeKey][]rib.NextHop{}
	items := map[nodeKey]*spfItem{}
	q := &spfQueue{}
	start := &spfItem{key: self, dist: 0}
	heap.Push(q, start)
	items[self] = start
	visited := map[nodeKey]bool{}

	for q.Len() > 0 {
		it := heap.Pop(q).(*spfItem)
		if visited[it.key] {
			continue
		}
		visited[it.key] = true
		for _, e := range edgesFrom(it.key) {
			nd := it.dist + e.cost
			cur, seen := dist[e.to]
			if seen && nd > cur {
				continue
			}
			// Determine the first hop(s) for this path.
			var h []rib.NextHop
			if it.key == self || (it.key.net && hops[it.key] == nil) {
				// Direct neighbor (router over p2p, or router across a
				// directly attached segment).
				if e.viaAddr != 0 {
					if ifc := in.ifaceFor(e.viaAddr); ifc != nil {
						h = []rib.NextHop{{IP: e.viaAddr, Interface: ifc.cfg.Name}}
					}
				}
			} else {
				h = hops[it.key]
			}
			if !seen || nd < cur {
				dist[e.to] = nd
				hops[e.to] = append([]rib.NextHop(nil), h...)
				ni := &spfItem{key: e.to, dist: nd}
				items[e.to] = ni
				heap.Push(q, ni)
			} else { // equal cost: merge first hops (ECMP)
				hops[e.to] = mergeHops(hops[e.to], h)
			}
		}
	}

	// Collect candidate prefixes.
	type cand struct {
		dist uint32
		hops []rib.NextHop
	}
	best := map[netpkt.Prefix]cand{}
	consider := func(p netpkt.Prefix, d uint32, h []rib.NextHop) {
		if len(h) == 0 || in.isLocal(p) {
			return
		}
		cur, ok := best[p]
		if !ok || d < cur.dist {
			best[p] = cand{dist: d, hops: append([]rib.NextHop(nil), h...)}
		} else if d == cur.dist {
			cur.hops = mergeHops(cur.hops, h)
			best[p] = cur
		}
	}
	for r, rl := range routers {
		k := nodeKey{id: netpkt.IP(r)}
		d, ok := dist[k]
		if !ok || r == in.cfg.RouterID {
			continue
		}
		for _, ln := range rl.Links {
			if ln.Type == LinkStub {
				p := netpkt.Prefix{Addr: ln.ID, Len: uint8(ln.Data)}
				p.Addr &= p.MaskIP()
				consider(p, d+uint32(ln.Cost), hops[k])
			}
		}
	}
	for id, nl := range networks {
		k := nodeKey{net: true, id: id}
		d, ok := dist[k]
		if !ok {
			continue
		}
		p := netpkt.Prefix{Addr: id, Len: nl.MaskLen}
		p.Addr &= p.MaskIP()
		consider(p, d, hops[k])
	}

	// Reconcile with what is installed.
	for p, c := range best {
		prev, ok := in.installed[p]
		if ok && hopSetEqual(prev, c.hops) {
			continue
		}
		if err := in.hooks.InstallRoute(p, c.hops); err != nil {
			in.hooks.Logf("ospf %s: install %s failed: %v", in.cfg.Name, p, err)
			continue
		}
		in.installed[p] = c.hops
	}
	for p := range in.installed {
		if _, ok := best[p]; !ok {
			in.hooks.RemoveRoute(p)
			delete(in.installed, p)
		}
	}
}

// ifaceFor returns the up interface whose subnet covers ip.
func (in *Instance) ifaceFor(ip netpkt.IP) *Iface {
	for _, i := range in.ifaces {
		if i.up && i.cfg.Addr.Contains(ip) {
			return i
		}
	}
	return nil
}

// isLocal reports whether p is one of our own stubs or interface subnets.
func (in *Instance) isLocal(p netpkt.Prefix) bool {
	for _, s := range in.stubs {
		if s == p {
			return true
		}
	}
	for _, i := range in.ifaces {
		sub := netpkt.Prefix{Addr: i.cfg.Addr.Addr & i.cfg.Addr.MaskIP(), Len: i.cfg.Addr.Len}
		if sub == p {
			return true
		}
	}
	return false
}

func mergeHops(a, b []rib.NextHop) []rib.NextHop {
	out := append([]rib.NextHop(nil), a...)
	for _, h := range b {
		dup := false
		for _, x := range out {
			if x == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}

func hopSetEqual(a, b []rib.NextHop) bool {
	if len(a) != len(b) {
		return false
	}
	for _, h := range a {
		found := false
		for _, x := range b {
			if x == h {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
