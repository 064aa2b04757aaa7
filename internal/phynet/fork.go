package phynet

import "crystalnet/internal/sim"

// Fork returns a deep copy of the fabric on eng — hosts, containers,
// interfaces and links. A clone is found the way its source was, by host and
// container name (Host, Host.Container) and through its interfaces' links
// (VIface.Link). The source fabric is read strictly read-only, so concurrent
// forks are safe.
//
// Frame handlers are deliberately not copied: they are closures over the
// parent's firmware. Forked devices re-attach their own handlers, exactly
// as firmware does after boot. Delivery lanes are not copied either: they
// belong to the source's engine, and the clone's links build their own.
func (f *Fabric) Fork(eng *sim.Engine) *Fabric {
	c := &Fabric{
		eng:     eng,
		hosts:   make(map[string]*Host, len(f.hosts)),
		backend: f.backend,
		nextVNI: f.nextVNI,
		nextIP:  f.nextIP,
	}
	ifaceMap := make(map[*VIface]*VIface)
	for name, h := range f.hosts {
		nh := &Host{
			Name:            h.Name,
			UnderlayIP:      h.UnderlayIP,
			Remote:          h.Remote,
			Domain:          h.Domain,
			containers:      make(map[string]*Container, len(h.containers)),
			setupCost:       h.setupCost,
			framesDelivered: h.framesDelivered,
			framesDropped:   h.framesDropped,
			encapFrames:     h.encapFrames,
		}
		for cname, ct := range h.containers {
			nc := &Container{Name: ct.Name, Host: nh, ifaces: make(map[string]*VIface, len(ct.ifaces))}
			for iname, vi := range ct.ifaces {
				nvi := &VIface{Name: vi.Name, MAC: vi.MAC, Container: nc}
				nc.ifaces[iname] = nvi
				ifaceMap[vi] = nvi
			}
			nh.containers[cname] = nc
		}
		c.hosts[name] = nh
	}
	// An endpoint can outlive its container (strawman reloads rebuild the
	// namespace, orphaning the old interfaces while their downed links stay
	// in the inventory); clone such orphans standalone so link topology is
	// preserved without resurrecting a container reference.
	cloneIface := func(vi *VIface) *VIface {
		if vi == nil {
			return nil
		}
		if dup, ok := ifaceMap[vi]; ok {
			return dup
		}
		dup := &VIface{Name: vi.Name, MAC: vi.MAC}
		ifaceMap[vi] = dup
		return dup
	}
	c.links = make([]*VirtualLink, len(f.links))
	for i, l := range f.links {
		nl := &VirtualLink{VNI: l.VNI, A: cloneIface(l.A), B: cloneIface(l.B), up: l.up, crossVM: l.crossVM}
		if nl.A != nil {
			nl.A.link = nl
		}
		if nl.B != nil {
			nl.B.link = nl
		}
		c.links[i] = nl
	}
	return c
}
