package phynet

import "crystalnet/internal/sim"

// Fork returns a deep copy of the fabric on eng — hosts, containers,
// interfaces and links, each kind allocated in one slab. A clone is found
// the way its source was, by host and container name (Host,
// Host.Container) and through its interfaces' links (VIface.Link). The
// source fabric is read strictly read-only, so concurrent forks are safe.
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
	// Connect is the only way into f.links, and it numbers VNIs from 1 in
	// append order, so a link's clone is links[VNI-1].
	links := make([]VirtualLink, len(f.links))
	c.links = make([]*VirtualLink, len(f.links))
	for i, l := range f.links {
		links[i] = VirtualLink{VNI: l.VNI, up: l.up, crossVM: l.crossVM}
		c.links[i] = &links[i]
	}
	nc, ni := 0, 0
	for _, h := range f.hosts {
		nc += len(h.containers)
		for _, ct := range h.containers {
			ni += len(ct.ifaces)
		}
	}
	hosts := make([]Host, 0, len(f.hosts))
	containers := make([]Container, 0, nc)
	ifaces := make([]VIface, 0, ni)
	for name, h := range f.hosts {
		hosts = append(hosts, Host{
			Name:            h.Name,
			UnderlayIP:      h.UnderlayIP,
			Remote:          h.Remote,
			Domain:          h.Domain,
			containers:      make(map[string]*Container, len(h.containers)),
			setupCost:       h.setupCost,
			framesDelivered: h.framesDelivered,
			framesDropped:   h.framesDropped,
			encapFrames:     h.encapFrames,
		})
		nh := &hosts[len(hosts)-1]
		for cname, ct := range h.containers {
			containers = append(containers, Container{Name: ct.Name, Host: nh, ifaces: make(map[string]*VIface, len(ct.ifaces))})
			ncont := &containers[len(containers)-1]
			for iname, vi := range ct.ifaces {
				ifaces = append(ifaces, VIface{Name: vi.Name, MAC: vi.MAC, Container: ncont})
				nvi := &ifaces[len(ifaces)-1]
				ncont.ifaces[iname] = nvi
				if l := vi.link; l != nil {
					nvi.link = c.links[l.VNI-1]
					if l.A == vi {
						nvi.link.A = nvi
					} else {
						nvi.link.B = nvi
					}
				}
			}
			nh.containers[cname] = ncont
		}
		c.hosts[name] = nh
	}
	// An endpoint can outlive its container (strawman reloads rebuild the
	// namespace, orphaning the old interfaces while their downed links stay
	// in the inventory); clone such orphans standalone so link topology is
	// preserved without resurrecting a container reference.
	for i, l := range f.links {
		nl := c.links[i]
		if nl.A == nil && l.A != nil {
			nl.A = &VIface{Name: l.A.Name, MAC: l.A.MAC, link: nl}
		}
		if nl.B == nil && l.B != nil {
			nl.B = &VIface{Name: l.B.Name, MAC: l.B.MAC, link: nl}
		}
	}
	return c
}
