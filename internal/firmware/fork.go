package firmware

import (
	"maps"
	"slices"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/ospf"
	"crystalnet/internal/phynet"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// Seal freezes the device's bulk routing state — the FIB and the BGP
// router's RIBs — so that forks can share it (rib.FIB.Seal, bgp.Router.Seal;
// DESIGN.md §6). It writes the device, so Emulation.Checkpoint calls it
// single-threaded before the first Fork.
func (d *Device) Seal() {
	if d.fib != nil {
		d.fib.Seal()
	}
	if d.bgp != nil {
		d.bgp.Seal()
	}
}

// CowCopies is the copy-on-write cost a device or emulation has paid since
// it was forked: what its writes had to copy because a checkpoint or another
// fork shared it.
type CowCopies struct {
	TrieNodes   int // FIB trie nodes path-copied
	FIBEntries  int // FIB entries allocated in place of shared ones
	RIBEntries  int // BGP Loc-RIB entries replaced by private copies
	DenseTables int // Adj-RIB tables that copied their backing arrays
}

// Total is the sum over all four kinds.
func (c CowCopies) Total() int { return c.TrieNodes + c.FIBEntries + c.RIBEntries + c.DenseTables }

// Add accumulates o into c.
func (c *CowCopies) Add(o CowCopies) {
	c.TrieNodes += o.TrieNodes
	c.FIBEntries += o.FIBEntries
	c.RIBEntries += o.RIBEntries
	c.DenseTables += o.DenseTables
}

// CowCopies reports the device's copy-on-write cost so far.
func (d *Device) CowCopies() CowCopies {
	var c CowCopies
	if d.fib != nil {
		c.TrieNodes, c.FIBEntries = d.fib.Copies()
	}
	if d.bgp != nil {
		c.RIBEntries, c.DenseTables = d.bgp.Copies()
	}
	return c
}

// Fork returns the device of a forked emulation: bound to the fork's
// engine, fabric, container clone and VM clone, with every protocol hook
// closure rebuilt against the clone (the hooks constructed at boot close
// over the parent and must not leak into the fork). The bulk routing state
// — FIB and BGP RIBs — is shared with the parent and copied on write, which
// requires Seal to have run; the small per-device maps, OSPF and dataplane
// state are deep-copied. The source device is read strictly read-only, so
// concurrent forks are safe.
//
// The device's configuration pointer is shared copy-on-write: config
// reloads replace the pointer (ReloadConfig installs a fresh
// *config.DeviceConfig), they never mutate the shared value in place.
func (d *Device) Fork(eng *sim.Engine, fabric *phynet.Fabric, container *phynet.Container, vm *cloud.VM) *Device {
	c := &Device{
		Name:  d.Name,
		Image: d.Image,

		eng:       eng,
		fabric:    fabric,
		container: container,
		vm:        vm,

		cfg:   d.cfg,
		state: d.state,
		epoch: d.epoch,

		peerIface:   maps.Clone(d.peerIface),
		peerIP:      maps.Clone(d.peerIP),
		localIPs:    maps.Clone(d.localIPs),
		ifaceAddr:   maps.Clone(d.ifaceAddr),
		ospfIfaces:  maps.Clone(d.ospfIfaces),
		arp:         maps.Clone(d.arp),
		arpAttempts: maps.Clone(d.arpAttempts),
		peerWasUp:   maps.Clone(d.peerWasUp),

		flaps: d.flaps,

		Captures:       slices.Clone(d.Captures),
		Logs:           slices.Clone(d.Logs),
		BGPUpdatesSent: d.BGPUpdatesSent,
		LastFIBChange:  d.LastFIBChange,
	}
	// Queued frames are deep-copied: frame delivery rewrites the Ethernet
	// header in the buffer once ARP resolves, so sharing the bytes would
	// let a fork scribble on its parent's queue.
	if d.arpPending != nil {
		c.arpPending = make(map[netpkt.IP][][]byte, len(d.arpPending))
		for ip, frames := range d.arpPending {
			nf := make([][]byte, len(frames))
			for i, fr := range frames {
				nf[i] = append([]byte(nil), fr...)
			}
			c.arpPending[ip] = nf
		}
	}
	if d.fib != nil {
		c.fib = d.fib.Clone()
	}
	if d.fwd != nil {
		c.fwd = d.fwd.Clone(c.fib)
	}
	if d.asic != nil {
		c.asic = d.asic.Clone()
	}
	if d.bgp != nil {
		// The hooks mirror startBGP's exactly, rebound to the clone.
		c.bgp = d.bgp.Fork(bgpClock{eng}, bgp.Hooks{
			SendToPeer:   c.sendBGP,
			InstallRoute: c.installBGPRoute,
			RemoveRoute: func(p netpkt.Prefix) {
				if c.fib != nil {
					c.fib.Remove(p)
					c.LastFIBChange = c.eng.Now()
				}
			},
			SessionEvent: c.onSessionEvent,
			Logf:         func(f string, a ...any) { c.logf(f, a...) },
			Rec:          eng.Recorder(),
		})
	}
	if d.peerByIP != nil {
		c.peerByIP = make(map[netpkt.IP]*bgp.Peer, len(d.peerByIP))
		for ip, p := range d.peerByIP {
			c.peerByIP[ip] = c.bgp.Peer(p.Index)
		}
	}
	if d.osp != nil {
		// Mirrors startOSPF's hooks, rebound to the clone.
		c.osp = d.osp.Fork(ospfClock{eng}, ospf.Hooks{
			Send: c.sendOSPF,
			InstallRoute: func(p netpkt.Prefix, nhs []rib.NextHop) error {
				return c.fib.InstallHops(p, rib.ProtoOSPF, nhs)
			},
			RemoveRoute: func(p netpkt.Prefix) { c.fib.Remove(p) },
			Logf:        func(f string, a ...any) { c.logf(f, a...) },
			Rec:         eng.Recorder(),
		})
	}
	// Re-attach the frame handler exactly when the parent's firmware was
	// live on the wire.
	if d.container != nil && d.container.Attached() {
		container.Attach(c.handleFrame)
	}
	return c
}
