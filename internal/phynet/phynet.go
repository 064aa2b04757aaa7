// Package phynet implements CrystalNet's mock physical network (§4): the
// unified layer of PhyNet containers that hold virtual interfaces, the
// veth/bridge/VXLAN plumbing that joins them into the production topology
// (Figure 5), and the out-of-band management overlay (Figure 6).
//
// The two-layer design is the §4.1 contribution this package preserves:
// interfaces and links belong to PhyNet containers whose lifetime is
// independent of the device firmware, so a firmware reload never recreates
// plumbing (measured in §8.3). Frames that cross VM boundaries are really
// VXLAN-encapsulated to exercise the same wire path production uses.
//
// DESIGN.md §2 (substrates) and §4 (two-layer reload decision) cover this
// layer.
package phynet

import (
	"fmt"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

// BridgeBackend selects the software bridge implementation (§6.2: Linux
// bridge is preferred over OVS because setup is much faster at O(1000)
// tunnels per VM).
type BridgeBackend uint8

// Bridge backends.
const (
	LinuxBridge BridgeBackend = iota
	OVS
)

// Setup cost model per plumbing object (CPU core-seconds on the hosting
// VM). OVS tunnel/bridge setup is an order of magnitude slower, which is
// the basis of the §6.2 ablation.
const (
	costVethPair    = 0.003
	costBridgeLinux = 0.004
	costBridgeOVS   = 0.040
	costVXLANLinux  = 0.002
	costVXLANOVS    = 0.025
	costNamespace   = 0.005
)

// Host is the PhyNet state of one cloud VM: containers, bridges and VXLAN
// tunnel endpoints. A Remote host models an on-premise fanout server (§4.1:
// real hardware tunnels each port to virtual interfaces on a server that
// joins the overlay across the Internet, through NATs, via UDP hole
// punching).
type Host struct {
	Name       string
	UnderlayIP netpkt.IP
	Remote     bool
	// Domain is the shard the host's devices execute in (DESIGN.md §10);
	// -1 (the default) keeps the host on the master engine. Only meaningful
	// when the fabric is attached to a sim.ShardSet.
	Domain int
	fabric *Fabric

	containers map[string]*Container
	setupCost  float64 // accumulated core-seconds of plumbing

	// Wire statistics, counted by the host whose domain handles the frame:
	// the sender's host counts what it encapsulates and what it drops on
	// send, the receiver's host what it delivers and what it drops at
	// delivery. A host's frames are handled in its one domain, so in a
	// sharded run no two goroutines write one host's counters.
	framesDelivered uint64
	framesDropped   uint64
	encapFrames     uint64
}

// SetupCost returns the accumulated plumbing CPU cost in core-seconds.
func (h *Host) SetupCost() float64 { return h.setupCost }

// Container is a PhyNet container: a network namespace holding a device's
// interfaces. The device firmware attaches a frame handler; the namespace
// and its interfaces survive firmware restarts.
type Container struct {
	Name   string
	Host   *Host
	ifaces map[string]*VIface
	// handler receives frames for the attached firmware; nil while the
	// firmware is down (frames are dropped, as on a booting device).
	handler func(iface string, frame []byte)
}

// Iface returns the named virtual interface, or nil.
func (c *Container) Iface(name string) *VIface { return c.ifaces[name] }

// Attach installs the firmware's frame handler (booting the device OS on
// top of the existing namespace).
func (c *Container) Attach(handler func(iface string, frame []byte)) {
	c.handler = handler
}

// Detach removes the firmware handler (firmware stopped/crashed). The
// namespace, interfaces and links remain — the heart of the two-layer
// design.
func (c *Container) Detach() { c.handler = nil }

// Attached reports whether firmware is currently attached.
func (c *Container) Attached() bool { return c.handler != nil }

// VIface is one virtual interface inside a PhyNet container.
type VIface struct {
	Name      string
	MAC       netpkt.MAC
	Container *Container
	link      *VirtualLink
}

// FullName returns "container:iface".
func (v *VIface) FullName() string { return v.Container.Name + ":" + v.Name }

// Link returns the virtual link the interface is plugged into, or nil.
func (v *VIface) Link() *VirtualLink { return v.link }

// VirtualLink is one emulated physical link: a VNI-isolated veth/bridge/
// VXLAN path between two interfaces (Figure 5).
type VirtualLink struct {
	VNI  uint32
	A, B *VIface
	up   bool
	// crossVM notes whether frames traverse the underlay with real VXLAN
	// encapsulation.
	crossVM bool
	// lanes carry the link's in-flight deliveries on an unsharded fabric,
	// lanes[0] towards B and lanes[1] towards A, each built on first use: a
	// direction's latency is fixed, so its deliveries are FIFO in time and
	// wait in a sim.Lane rather than as closures in the engine's heap.
	lanes [2]*sim.Lane[[]byte]
}

// Other returns the far end relative to v.
func (l *VirtualLink) Other(v *VIface) *VIface {
	if l.A == v {
		return l.B
	}
	if l.B == v {
		return l.A
	}
	return nil
}

// The overlay's latency model (a Linux-bridge overlay, §6.2): a frame
// between containers on one VM crosses a bridge, one between VMs crosses the
// VXLAN underlay, and remoteLatency applies when either endpoint lives on a Remote (on-premise) host — the overlay
// crosses the wide-area Internet.
const (
	intraVMLatency = 50 * time.Microsecond
	interVMLatency = 500 * time.Microsecond
	remoteLatency  = 20 * time.Millisecond
)

// Fabric is the whole PhyNet overlay spanning all hosts.
type Fabric struct {
	eng   *sim.Engine
	hosts map[string]*Host

	backend BridgeBackend
	nextVNI uint32
	nextIP  uint32

	// shards, when non-nil, routes deliveries between domain engines.
	shards *sim.ShardSet

	links []*VirtualLink
}

// SetShards attaches the fabric to a shard set: deliveries route between
// domain engines.
func (f *Fabric) SetShards(s *sim.ShardSet) { f.shards = s }

// NewFabric creates an empty overlay on the engine.
func NewFabric(eng *sim.Engine, backend BridgeBackend) *Fabric {
	return &Fabric{
		eng: eng, hosts: map[string]*Host{}, backend: backend,
		nextVNI: 1,
		nextIP:  uint32(netpkt.IPFromBytes(192, 168, 0, 1)),
	}
}

// AddHost registers a cloud VM in the overlay, assigning an underlay IP.
func (f *Fabric) AddHost(name string) *Host {
	if _, dup := f.hosts[name]; dup {
		panic(fmt.Sprintf("phynet: duplicate host %q", name))
	}
	h := &Host{
		Name: name, UnderlayIP: netpkt.IP(f.nextIP), Domain: -1,
		fabric: f, containers: map[string]*Container{},
	}
	f.nextIP++
	f.hosts[name] = h
	return h
}

// Host returns the named host, or nil.
func (f *Fabric) Host(name string) *Host { return f.hosts[name] }

// AddContainer creates a PhyNet container (network namespace) on the host.
func (h *Host) AddContainer(name string) *Container {
	if _, dup := h.containers[name]; dup {
		panic(fmt.Sprintf("phynet: duplicate container %q on %s", name, h.Name))
	}
	c := &Container{Name: name, Host: h, ifaces: map[string]*VIface{}}
	h.containers[name] = c
	h.setupCost += costNamespace
	return c
}

// RemoveContainer destroys a container and detaches its interfaces from
// their links (used by the §8.3 strawman reload ablation and VM recovery).
func (h *Host) RemoveContainer(name string) {
	c := h.containers[name]
	if c == nil {
		return
	}
	for _, v := range c.ifaces {
		if v.link != nil {
			v.link.up = false
		}
	}
	delete(h.containers, name)
}

// RemoveIface deletes an interface from the container, downing any link it
// was plugged into (the strawman-reload / VM-recovery rebuild path).
func (c *Container) RemoveIface(name string) {
	v := c.ifaces[name]
	if v == nil {
		return
	}
	if v.link != nil {
		v.link.up = false
	}
	delete(c.ifaces, name)
}

// AddIface creates a virtual interface inside the container.
func (c *Container) AddIface(name string, mac netpkt.MAC) *VIface {
	if _, dup := c.ifaces[name]; dup {
		panic(fmt.Sprintf("phynet: duplicate iface %q in %s", name, c.Name))
	}
	v := &VIface{Name: name, MAC: mac, Container: c}
	c.ifaces[name] = v
	// Each device interface is one end of a veth pair (Figure 5).
	c.Host.setupCost += costVethPair
	return v
}

// Connect plugs two interfaces into a fresh virtual link, building the
// bridge+VXLAN plumbing on their hosts and assigning a unique VNI.
func (f *Fabric) Connect(a, b *VIface) *VirtualLink {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("phynet: interface already linked: %s or %s", a.FullName(), b.FullName()))
	}
	l := &VirtualLink{VNI: f.nextVNI, A: a, B: b, up: true}
	f.nextVNI++
	l.crossVM = a.Container.Host != b.Container.Host
	a.link, b.link = l, l

	bridgeCost, tunCost := costBridgeLinux, costVXLANLinux
	if f.backend == OVS {
		bridgeCost, tunCost = costBridgeOVS, costVXLANOVS
	}
	// One bridge per link endpoint host; a VXLAN tunnel interface on each
	// side when the link crosses VMs.
	a.Container.Host.setupCost += bridgeCost
	if l.crossVM {
		b.Container.Host.setupCost += bridgeCost
		a.Container.Host.setupCost += tunCost
		b.Container.Host.setupCost += tunCost
	}
	f.links = append(f.links, l)
	return l
}

// SetLinkState raises or cuts a virtual link (the Connect/Disconnect
// control APIs).
func (f *Fabric) SetLinkState(l *VirtualLink, up bool) { l.up = up }

// Send transmits an Ethernet frame out of the given interface. Delivery is
// asynchronous on the simulation clock; frames crossing hosts are VXLAN-
// encapsulated and decapsulated for real (into a copy of frame, which has
// no headroom; see SendFramed).
//
// Ownership of frame passes to the fabric: the caller must not modify it
// after the call, and the payload handed to the receiver may alias it (the
// receiver may in turn retain that payload — frame buffers are never
// recycled).
func (f *Fabric) Send(from *VIface, frame []byte) { f.SendFramed(from, frame, 0) }

// SendFramed is Send for the frame buf[room:], whose room bytes of headroom
// the fabric may write into (the netpkt.FrameHeadroom contract): with at
// least netpkt.UnderlayHeaderLen of it, a cross-VM frame is encapsulated in
// place and the receiver's payload aliases buf; with less, the frame is
// copied into a buffer that has the room. A frame too long to encapsulate is
// dropped and counted as a send-side drop. Ownership of buf passes to the
// fabric, as with Send.
func (f *Fabric) SendFramed(from *VIface, buf []byte, room int) {
	// src is the host executing this call — Send is always invoked by the
	// firmware attached to the sending interface's host.
	src := from.Container.Host
	l := from.link
	if l == nil || !l.up {
		src.framesDropped++
		return
	}
	to := l.Other(from)
	if to == nil {
		src.framesDropped++
		return
	}
	latency := intraVMLatency
	payload := buf[room:]
	if l.crossVM {
		latency = interVMLatency
		if from.Container.Host.Remote || to.Container.Host.Remote {
			latency = remoteLatency
		}
		if room < netpkt.UnderlayHeaderLen {
			b := make([]byte, netpkt.UnderlayHeaderLen+len(payload))
			copy(b[netpkt.UnderlayHeaderLen:], payload)
			buf, room = b, netpkt.UnderlayHeaderLen
		}
		// Real encap/decap across the underlay (Figure 5), the headers
		// written in front of the frame in its own buffer: UDP port is
		// derived from the VNI for five-tuple entropy.
		enc := buf[room-netpkt.UnderlayHeaderLen:]
		if netpkt.PutVXLANHeaders(enc, l.VNI,
			from.Container.Host.UnderlayIP, to.Container.Host.UnderlayIP,
			netpkt.MAC{0x02, 0xee, 0, 0, 0, 1}, netpkt.MAC{0x02, 0xee, 0, 0, 0, 2},
			uint16(32768+l.VNI%16384), len(payload)) != nil {
			src.framesDropped++
			return
		}
		vni, inner, err := netpkt.DecapVXLAN(enc)
		if err != nil || vni != l.VNI {
			src.framesDropped++
			return
		}
		src.encapFrames++
		payload = inner
	}
	if f.shards == nil {
		f.lane(l, to).After(latency, payload)
		return
	}
	// The delivery executes on the receiving host's engine.
	f.shards.ScheduleAfter(src.Domain, to.Container.Host.Domain, latency, func() { f.deliver(l, to, payload) })
}

// lane returns l's delivery lane towards to, building it on first use.
func (f *Fabric) lane(l *VirtualLink, to *VIface) *sim.Lane[[]byte] {
	i := 0
	if to == l.A {
		i = 1
	}
	if l.lanes[i] == nil {
		l.lanes[i] = sim.NewLane(f.eng, func(data []byte) { f.deliver(l, to, data) })
	}
	return l.lanes[i]
}

// deliver hands a frame that crossed l to the firmware attached behind to,
// or drops it if the link was cut or the firmware is down meanwhile.
func (f *Fabric) deliver(l *VirtualLink, to *VIface, data []byte) {
	dst := to.Container.Host
	if !l.up {
		dst.framesDropped++
		return
	}
	h := to.Container.handler
	if h == nil {
		// Firmware down: device drops the frame.
		dst.framesDropped++
		return
	}
	dst.framesDelivered++
	h(to.Name, data)
}

// WireCounts are the fabric's wire counters summed over its hosts: frames
// handed to attached firmware, frames dropped on send or at delivery, and
// frames that crossed the underlay (VXLAN).
type WireCounts struct{ Delivered, Dropped, Encap uint64 }

// WireCounts sums the hosts' wire counters.
func (f *Fabric) WireCounts() (w WireCounts) {
	for _, h := range f.hosts {
		w.Delivered += h.framesDelivered
		w.Dropped += h.framesDropped
		w.Encap += h.encapFrames
	}
	return w
}

// Validate checks overlay invariants: VNI uniqueness per fabric, link
// symmetry, interfaces belonging to registered containers.
func (f *Fabric) Validate() error {
	seen := map[uint32]bool{}
	for _, l := range f.links {
		if seen[l.VNI] {
			return fmt.Errorf("phynet: VNI %d reused", l.VNI)
		}
		seen[l.VNI] = true
		if l.A.link != l || l.B.link != l {
			return fmt.Errorf("phynet: asymmetric link VNI %d", l.VNI)
		}
		for _, v := range []*VIface{l.A, l.B} {
			host := v.Container.Host
			if host.containers[v.Container.Name] != v.Container {
				return fmt.Errorf("phynet: interface %s on unregistered container", v.FullName())
			}
		}
	}
	return nil
}
