// Package topo models production network topologies: devices, interfaces
// and links, organized into the layered Clos fabrics CrystalNet emulates
// (ToR → Leaf → Spine → Border, §5.2), plus the WAN/regional-backbone
// shapes from §7. It also carries the address and AS-number plan
// (RFC 7938-style BGP datacenter design) that the config generator renders.
//
// DESIGN.md §2 (substrates) and §3 (Table 3 fabrics) place the topology
// model.
package topo

import (
	"fmt"
	"slices"

	"crystalnet/internal/netpkt"
)

// Layer identifies a device's tier in the fabric. Higher values are higher
// layers; Algorithm 1's "upper devices" walk uses this ordering.
type Layer int

// Fabric layers, bottom to top, plus off-fabric roles.
const (
	LayerHost Layer = iota
	LayerToR
	LayerLeaf
	LayerSpine
	LayerBorder
	LayerBackbone // regional backbone routers (§7 Case 1)
	LayerWAN      // legacy inter-DC WAN cores
	LayerExternal // devices outside the administrative domain
)

var layerNames = map[Layer]string{
	LayerHost:     "host",
	LayerToR:      "tor",
	LayerLeaf:     "leaf",
	LayerSpine:    "spine",
	LayerBorder:   "border",
	LayerBackbone: "backbone",
	LayerWAN:      "wan",
	LayerExternal: "external",
}

// String returns the lower-case layer name.
func (l Layer) String() string {
	if s, ok := layerNames[l]; ok {
		return s
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// Interface is one port of a device. Addressing is point-to-point /31 on
// fabric links, per common production practice.
type Interface struct {
	Name   string // e.g. "et0"
	Device *Device
	Index  int // position within Device.Interfaces
	Addr   netpkt.Prefix
	MAC    netpkt.MAC
	Peer   *Interface // far end, nil when unconnected
}

// FullName returns "device:interface".
func (i *Interface) FullName() string { return i.Device.Name + ":" + i.Name }

// Device is a network device in the topology.
type Device struct {
	Name       string
	Index      int // dense index within the Network, assigned on add
	Layer      Layer
	ASN        uint32
	Vendor     string // firmware image name, e.g. "ctnra"
	Pod        int    // pod number for ToR/Leaf devices, -1 otherwise
	Group      int    // spine group / border group, -1 otherwise
	Loopback   netpkt.Prefix
	Interfaces []*Interface
	// Originated are the prefixes this device announces into BGP beyond its
	// loopback (e.g. a ToR's server subnets).
	Originated []netpkt.Prefix
	// MgmtIP is the management-plane address (§4.2).
	MgmtIP netpkt.IP
}

// AddInterface appends a new unconnected interface and returns it.
func (d *Device) AddInterface(name string) *Interface {
	intf := &Interface{Name: name, Device: d, Index: len(d.Interfaces)}
	intf.MAC = macFor(d.Index, intf.Index)
	d.Interfaces = append(d.Interfaces, intf)
	return intf
}

// Intf returns the named interface, or nil.
func (d *Device) Intf(name string) *Interface {
	for _, i := range d.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// Neighbors returns the distinct devices connected to d, in interface order.
func (d *Device) Neighbors() []*Device {
	seen := map[*Device]bool{}
	var out []*Device
	for _, i := range d.Interfaces {
		if i.Peer != nil && !seen[i.Peer.Device] {
			seen[i.Peer.Device] = true
			out = append(out, i.Peer.Device)
		}
	}
	return out
}

// macFor derives a stable, locally-administered MAC from device and
// interface indices.
func macFor(dev, intf int) netpkt.MAC {
	return netpkt.MAC{0x02, 0x43, byte(dev >> 16), byte(dev >> 8), byte(dev), byte(intf)}
}

// Link is an undirected connection between two interfaces.
type Link struct {
	A, B *Interface
	// Subnet is the /31 assigned to the link (A gets .0, B gets .1), or the
	// zero Prefix for unnumbered links.
	Subnet netpkt.Prefix
}

// String formats the link as "devA:ifA <-> devB:ifB".
func (l *Link) String() string {
	return l.A.FullName() + " <-> " + l.B.FullName()
}

// Network is a complete topology.
type Network struct {
	Name    string
	devices map[string]*Device
	order   []*Device // insertion order; Index fields match positions
	Links   []*Link

	nextP2P  uint32 // allocator for point-to-point /31 subnets
	nextLoop uint32 // allocator for loopbacks
	nextMgmt uint32 // allocator for management IPs
}

// NewNetwork returns an empty topology.
func NewNetwork(name string) *Network {
	return &Network{
		Name:    name,
		devices: map[string]*Device{},
		// 10.128.0.0/9 for p2p, 10.0.0.0/16 for loopbacks, 172.16.0.0/12 for mgmt
		nextP2P:  uint32(netpkt.IPFromBytes(10, 128, 0, 0)),
		nextLoop: uint32(netpkt.IPFromBytes(10, 0, 0, 1)),
		nextMgmt: uint32(netpkt.IPFromBytes(172, 16, 0, 1)),
	}
}

// AddDevice creates and registers a device. It panics on duplicate names —
// topology construction errors are programming errors in generators.
func (n *Network) AddDevice(name string, layer Layer, asn uint32, vendor string) *Device {
	if _, dup := n.devices[name]; dup {
		panic(fmt.Sprintf("topo: duplicate device %q", name))
	}
	d := &Device{
		Name:   name,
		Index:  len(n.order),
		Layer:  layer,
		ASN:    asn,
		Vendor: vendor,
		Pod:    -1,
		Group:  -1,
	}
	d.Loopback = netpkt.Prefix{Addr: netpkt.IP(n.nextLoop), Len: 32}
	n.nextLoop++
	d.MgmtIP = netpkt.IP(n.nextMgmt)
	n.nextMgmt++
	n.devices[name] = d
	n.order = append(n.order, d)
	return d
}

// Clone returns a deep copy of the network — devices, interfaces, links and
// address allocators — that can be grown without writing anything n holds.
func (n *Network) Clone() *Network {
	c := *n
	c.devices, c.order = make(map[string]*Device, len(n.order)), make([]*Device, len(n.order))
	intfs := make(map[*Interface]*Interface)
	for i, d := range n.order {
		nd := *d
		nd.Originated = slices.Clone(d.Originated)
		nd.Interfaces = make([]*Interface, len(d.Interfaces))
		for j, in := range d.Interfaces {
			ni := *in
			ni.Device = &nd
			nd.Interfaces[j], intfs[in] = &ni, &ni
		}
		c.order[i], c.devices[nd.Name] = &nd, &nd
	}
	for _, ni := range intfs {
		if ni.Peer != nil {
			ni.Peer = intfs[ni.Peer]
		}
	}
	c.Links = make([]*Link, len(n.Links))
	for i, l := range n.Links {
		c.Links[i] = &Link{A: intfs[l.A], B: intfs[l.B], Subnet: l.Subnet}
	}
	return &c
}

// Device returns the named device, or nil.
func (n *Network) Device(name string) *Device { return n.devices[name] }

// MustDevice returns the named device or panics.
func (n *Network) MustDevice(name string) *Device {
	d := n.devices[name]
	if d == nil {
		panic(fmt.Sprintf("topo: no device %q", name))
	}
	return d
}

// Devices returns all devices in insertion order. Callers must not mutate
// the returned slice.
func (n *Network) Devices() []*Device { return n.order }

// NumDevices returns the device count.
func (n *Network) NumDevices() int { return len(n.order) }

// Connect joins the next free auto-named interfaces of a and b with a /31
// point-to-point subnet and records the link.
func (n *Network) Connect(a, b *Device) *Link {
	ia := a.AddInterface(fmt.Sprintf("et%d", len(a.Interfaces)))
	ib := b.AddInterface(fmt.Sprintf("et%d", len(b.Interfaces)))
	return n.ConnectInterfaces(ia, ib)
}

// ConnectInterfaces joins two existing interfaces, allocating a /31.
func (n *Network) ConnectInterfaces(ia, ib *Interface) *Link {
	if ia.Peer != nil || ib.Peer != nil {
		panic(fmt.Sprintf("topo: interface already connected: %s or %s", ia.FullName(), ib.FullName()))
	}
	subnet := netpkt.Prefix{Addr: netpkt.IP(n.nextP2P), Len: 31}
	n.nextP2P += 2
	ia.Addr = netpkt.Prefix{Addr: subnet.Addr, Len: 31}
	ib.Addr = netpkt.Prefix{Addr: subnet.Addr + 1, Len: 31}
	ia.Peer, ib.Peer = ib, ia
	l := &Link{A: ia, B: ib, Subnet: subnet}
	n.Links = append(n.Links, l)
	return l
}

// DevicesByLayer returns devices on the given layer, in insertion order.
func (n *Network) DevicesByLayer(l Layer) []*Device {
	var out []*Device
	for _, d := range n.order {
		if d.Layer == l {
			out = append(out, d)
		}
	}
	return out
}

// DevicesInPod returns the ToR and Leaf devices of pod p.
func (n *Network) DevicesInPod(p int) []*Device {
	var out []*Device
	for _, d := range n.order {
		if d.Pod == p {
			out = append(out, d)
		}
	}
	return out
}

// UpperNeighbors returns d's neighbors on strictly higher layers — the
// parent set Algorithm 1 walks (child-to-parent edges).
func (n *Network) UpperNeighbors(d *Device) []*Device {
	var out []*Device
	seen := map[*Device]bool{}
	for _, i := range d.Interfaces {
		if i.Peer == nil {
			continue
		}
		up := i.Peer.Device
		if up.Layer > d.Layer && !seen[up] {
			seen[up] = true
			out = append(out, up)
		}
	}
	return out
}

// HighestLayer returns the maximum layer present among non-external devices.
func (n *Network) HighestLayer() Layer {
	max := LayerHost
	for _, d := range n.order {
		if d.Layer != LayerExternal && d.Layer > max {
			max = d.Layer
		}
	}
	return max
}

// LayerCounts returns a map from layer to device count.
func (n *Network) LayerCounts() map[Layer]int {
	out := map[Layer]int{}
	for _, d := range n.order {
		out[d.Layer]++
	}
	return out
}

// Validate checks structural invariants: link symmetry, /31 pairing, unique
// interface addresses, unique loopbacks. Prepare refuses a topology that
// fails it.
func (n *Network) Validate() error {
	addrs := map[netpkt.IP]string{}
	for _, d := range n.order {
		if prev, dup := addrs[d.Loopback.Addr]; dup {
			return fmt.Errorf("topo: loopback %v reused by %s and %s", d.Loopback.Addr, prev, d.Name)
		}
		addrs[d.Loopback.Addr] = d.Name
		for _, i := range d.Interfaces {
			if i.Peer != nil {
				if i.Peer.Peer != i {
					return fmt.Errorf("topo: asymmetric link at %s", i.FullName())
				}
				if i.Addr.Len == 31 && i.Addr.Addr&^1 != i.Peer.Addr.Addr&^1 {
					return fmt.Errorf("topo: /31 mismatch on %s", i.FullName())
				}
			}
			if i.Addr.Addr != 0 {
				if prev, dup := addrs[i.Addr.Addr]; dup {
					return fmt.Errorf("topo: address %v reused by %s and %s", i.Addr.Addr, prev, i.FullName())
				}
				addrs[i.Addr.Addr] = i.FullName()
			}
		}
	}
	for _, l := range n.Links {
		if l.A.Peer != l.B || l.B.Peer != l.A {
			return fmt.Errorf("topo: stale link record %s", l)
		}
	}
	return nil
}
