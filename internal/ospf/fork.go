package ospf

import (
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// Fork returns a deep copy of the instance for a forked emulation, rebound
// to the fork's engine and hooks. The source instance is read strictly
// read-only so concurrent forks are safe.
//
// The SPF debounce timer is left nil: forks are only taken at quiescence,
// when any pending recomputation has already run. LSAs are deep-copied via
// LSA.Clone so a fork's flooding cannot mutate the parent's database.
func (in *Instance) Fork(eng *sim.Engine, hooks Hooks) *Instance {
	c := &Instance{
		cfg:       in.cfg,
		eng:       eng,
		hooks:     hooks,
		stubs:     append([]netpkt.Prefix(nil), in.stubs...),
		lsdb:      make(map[Key]*LSA, len(in.lsdb)),
		seq:       in.seq,
		installed: make(map[netpkt.Prefix][]rib.NextHop, len(in.installed)),
	}
	// The fork's engine carries the fork's recorder; its deep-copied
	// counters continue the parent's totals rather than restarting from zero.
	c.bindMetrics(eng.Recorder())
	for k, l := range in.lsdb {
		c.lsdb[k] = l.Clone()
	}
	for p, nhs := range in.installed {
		c.installed[p] = append([]rib.NextHop(nil), nhs...)
	}
	c.ifaces = make([]*Iface, len(in.ifaces))
	for i, f := range in.ifaces {
		nf := &Iface{
			cfg:       f.cfg,
			idx:       f.idx,
			up:        f.up,
			dr:        f.dr,
			bdr:       f.bdr,
			elected:   f.elected,
			neighbors: make(map[RouterID]*neighbor, len(f.neighbors)),
		}
		for id, nb := range f.neighbors {
			dup := *nb
			nf.neighbors[id] = &dup
		}
		c.ifaces[i] = nf
	}
	return c
}
