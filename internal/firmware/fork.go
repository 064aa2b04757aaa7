package firmware

import (
	"maps"
	"slices"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
)

// Seal freezes the device's bulk routing state — the FIB and the BGP
// router's RIBs — and its ARP tables so that forks can share them
// (rib.FIB.Seal, bgp.Router.Seal, cowMap; DESIGN.md §6). It writes the
// device, so Emulation.Checkpoint calls it single-threaded before the first
// Fork.
func (d *Device) Seal() {
	if d.fib != nil {
		d.fib.Seal()
	}
	if d.bgp != nil {
		d.bgp.Seal()
	}
	d.arp.shared, d.arpAttempts.shared = true, true
}

// cowMap is a map a device shares with its checkpoint and the checkpoint's
// forks until it writes it. Seal marks the parent's shared and Fork hands
// the fork the same map marked shared, so the first write on either side
// replaces the map with a private copy: nobody edits a map another device
// reads. Readers index m directly.
type cowMap[K comparable, V any] struct {
	m      map[K]V
	shared bool
}

// set maps k to v.
func (c *cowMap[K, V]) set(k K, v V) { c.own()[k] = v }

// del removes k; removing an absent key copies nothing.
func (c *cowMap[K, V]) del(k K) {
	if _, ok := c.m[k]; ok {
		delete(c.own(), k)
	}
}

// own returns m ready for writing.
func (c *cowMap[K, V]) own() map[K]V {
	if c.shared {
		c.m, c.shared = maps.Clone(c.m), false
	}
	if c.m == nil {
		c.m = map[K]V{}
	}
	return c.m
}

// fork returns the map for a fork of a sealed device. A map written since
// the last Seal is its owner's to edit in place, so sharing it would let the
// owner write what the fork reads.
func (c cowMap[K, V]) fork() cowMap[K, V] {
	if !c.shared {
		panic("firmware: Fork of a device written since its last Seal")
	}
	return c
}

// CowCopies is the copy-on-write cost a device or emulation has paid since
// it was forked: what its writes had to copy because a checkpoint or another
// fork shared it.
type CowCopies struct {
	TrieNodes  int // FIB trie nodes path-copied
	FIBEntries int // FIB entries allocated in place of shared ones
	RIBEntries int // BGP Loc-RIB entries replaced by private copies
	DensePages int // 64-slot pages of the Loc-RIB entry vector and Adj-RIB-Out tables copied
}

// Total is the sum over all four kinds.
func (c CowCopies) Total() int { return c.TrieNodes + c.FIBEntries + c.RIBEntries + c.DensePages }

// Add accumulates o into c.
func (c *CowCopies) Add(o CowCopies) {
	c.TrieNodes += o.TrieNodes
	c.FIBEntries += o.FIBEntries
	c.RIBEntries += o.RIBEntries
	c.DensePages += o.DensePages
}

// CowCopies reports the device's copy-on-write cost so far.
func (d *Device) CowCopies() CowCopies {
	var c CowCopies
	if d.fib != nil {
		c.TrieNodes, c.FIBEntries = d.fib.Copies()
	}
	if d.bgp != nil {
		c.RIBEntries, c.DensePages = d.bgp.Copies()
	}
	return c
}

// Fork returns the device of a forked emulation: bound to the fork's
// engine, fabric, container clone, VM clone and BGP attribute table (the
// fork of the table the device's router interns into, bgp.AttrTable.Fork
// after its last Seal), with its protocol hooks built by the same
// bgpHooks a boot uses, against the clone (the hooks built at boot
// close over the parent and must not leak into the fork). The clone keeps
// the parent's epoch, so its hooks serve the boot it continues.
//
// The shell shares what it can. What only a boot writes — the interface
// addresses, the BGP session index, the forwarder's
// local addresses and ACL bindings — is shared outright. The bulk routing
// state (FIB and BGP RIBs, with their memos) and the ARP tables are shared
// and copied on write, which requires Seal to have run with no write since.
// Queued frames and captures are copied. The source device is
// read strictly read-only, so concurrent forks are safe.
//
// The device's configuration pointer is shared copy-on-write: config
// reloads replace the pointer (ReloadConfig installs a fresh
// *config.DeviceConfig), they never mutate the shared value in place.
func (d *Device) Fork(eng *sim.Engine, fabric *phynet.Fabric, container *phynet.Container, vm *cloud.VM, attrs *bgp.AttrTable) *Device {
	c := &Device{
		Name:  d.Name,
		Image: d.Image,

		eng:       eng,
		fabric:    fabric,
		container: container,
		vm:        vm,
		attrs:     attrs,

		cfg:   d.cfg,
		state: d.state,
		epoch: d.epoch,

		peerByIP:    d.peerByIP,
		ifaceAddr:   d.ifaceAddr,
		arp:         d.arp.fork(),
		arpAttempts: d.arpAttempts.fork(),

		flaps: d.flaps,

		// PullPackets hands the captures' array to its caller, so they are
		// copied; the append-only log is shared with its capacity clipped,
		// so the fork's first line moves it to a private array and the
		// parent's land past the fork's length.
		Captures:       slices.Clone(d.Captures),
		Logs:           d.Logs[:len(d.Logs):len(d.Logs)],
		BGPUpdatesSent: d.BGPUpdatesSent,
		LastFIBChange:  d.LastFIBChange,
	}
	// Queued frames are deep-copied: frame delivery rewrites the Ethernet
	// header in the buffer once ARP resolves, so sharing the bytes would
	// let a fork scribble on its parent's queue.
	if len(d.arpPending) > 0 {
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
	if d.bgp != nil {
		c.bgp = d.bgp.Fork(eng, c.bgpHooks(), attrs)
	}
	// Re-attach the frame handler exactly when the parent's firmware was
	// live on the wire.
	if d.container != nil && d.container.Attached() {
		container.Attach(c.handleFrame)
	}
	return c
}
