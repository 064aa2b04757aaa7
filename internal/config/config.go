// Package config models device configurations: the vendor-neutral
// configuration a device firmware consumes, the production-style generator
// that derives configs from topology (the paper's §2 notes devices are
// "initially configured automatically, using a configuration generator"),
// and per-vendor text dialects with render/parse round-trips.
//
// The dialect layer deliberately reproduces the §2 incident class where a
// vendor changed its ACL argument order between releases without
// documenting it, so configs written for the old firmware parse incorrectly
// on the new one.
//
// DESIGN.md §2 (substrates) and §4 cover the dialect-drift design decision.
package config

import (
	"fmt"

	"crystalnet/internal/bgp"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/topo"
)

// InterfaceConfig assigns an address to a named interface.
type InterfaceConfig struct {
	Name string
	Addr netpkt.Prefix
}

// BGPNeighbor is one configured eBGP session.
type BGPNeighbor struct {
	IP        netpkt.IP
	RemoteAS  uint32
	Interface string
	Desc      string
	// ImportPolicy/ExportPolicy name route-maps in the device config.
	ImportPolicy string
	ExportPolicy string
}

// Aggregate is an aggregate-address statement.
type Aggregate struct {
	Prefix      netpkt.Prefix
	SummaryOnly bool
}

// ACLDirection distinguishes ingress from egress bindings.
type ACLDirection uint8

// ACL binding directions.
const (
	In ACLDirection = iota
	Out
)

// ACLBinding applies a named ACL to an interface.
type ACLBinding struct {
	ACLName   string
	Interface string
	Direction ACLDirection
}

// DeviceConfig is the vendor-neutral configuration of one device.
type DeviceConfig struct {
	Hostname string
	Vendor   string
	Version  string

	ASN      uint32
	RouterID netpkt.IP
	Loopback netpkt.Prefix

	Interfaces []InterfaceConfig
	Neighbors  []BGPNeighbor
	Networks   []netpkt.Prefix
	Aggregates []Aggregate
	MaxPaths   int

	RouteMaps map[string]*bgp.Policy
	ACLs      map[string]*dataplane.ACL
	Bindings  []ACLBinding

	// Credential is the unified SSH credential Prepare injects (§6.1).
	Credential string
}

// Clone returns a deep copy, so emulation Reload can mutate safely.
func (c *DeviceConfig) Clone() *DeviceConfig {
	d := *c
	d.Interfaces = append([]InterfaceConfig(nil), c.Interfaces...)
	d.Neighbors = append([]BGPNeighbor(nil), c.Neighbors...)
	d.Networks = append([]netpkt.Prefix(nil), c.Networks...)
	d.Aggregates = append([]Aggregate(nil), c.Aggregates...)
	d.Bindings = append([]ACLBinding(nil), c.Bindings...)
	d.RouteMaps = map[string]*bgp.Policy{}
	for k, v := range c.RouteMaps {
		pol := *v
		pol.Rules = append([]bgp.Rule(nil), v.Rules...)
		d.RouteMaps[k] = &pol
	}
	d.ACLs = map[string]*dataplane.ACL{}
	for k, v := range c.ACLs {
		acl := *v
		acl.Rules = append([]dataplane.ACLRule(nil), v.Rules...)
		d.ACLs[k] = &acl
	}
	return &d
}

// Interface returns the named interface config, or nil.
func (c *DeviceConfig) Interface(name string) *InterfaceConfig {
	for i := range c.Interfaces {
		if c.Interfaces[i].Name == name {
			return &c.Interfaces[i]
		}
	}
	return nil
}

// Validate performs the sanity checks the production generator applies:
// unique interface names, neighbors reachable through a configured
// interface subnet, referenced route-maps/ACLs defined.
func (c *DeviceConfig) Validate() error {
	seen := map[string]bool{}
	for _, i := range c.Interfaces {
		if seen[i.Name] {
			return fmt.Errorf("config %s: duplicate interface %s", c.Hostname, i.Name)
		}
		seen[i.Name] = true
	}
	for _, n := range c.Neighbors {
		if n.Interface != "" && !seen[n.Interface] {
			return fmt.Errorf("config %s: neighbor %s references unknown interface %s", c.Hostname, n.IP, n.Interface)
		}
		for _, pol := range []string{n.ImportPolicy, n.ExportPolicy} {
			if pol != "" && c.RouteMaps[pol] == nil {
				return fmt.Errorf("config %s: neighbor %s references unknown route-map %s", c.Hostname, n.IP, pol)
			}
		}
	}
	for _, b := range c.Bindings {
		if c.ACLs[b.ACLName] == nil {
			return fmt.Errorf("config %s: binding references unknown ACL %s", c.Hostname, b.ACLName)
		}
		if !seen[b.Interface] {
			return fmt.Errorf("config %s: ACL %s bound to unknown interface %s", c.Hostname, b.ACLName, b.Interface)
		}
	}
	return nil
}

// Generate derives production-style configs for every non-external device
// in the topology: interface addressing from the links, one eBGP session
// per fabric link, loopback + originated prefixes announced, ECMP enabled.
func Generate(n *topo.Network) map[string]*DeviceConfig {
	out := make(map[string]*DeviceConfig, n.NumDevices())
	for _, d := range n.Devices() {
		if d.Layer == topo.LayerExternal {
			continue
		}
		out[d.Name] = GenerateDevice(d)
	}
	return out
}

// GenerateDevice builds the config of a single device from its topology
// node.
func GenerateDevice(d *topo.Device) *DeviceConfig {
	c := &DeviceConfig{
		Hostname:  d.Name,
		Vendor:    d.Vendor,
		Version:   "1.0",
		ASN:       d.ASN,
		RouterID:  d.Loopback.Addr,
		Loopback:  d.Loopback,
		MaxPaths:  64,
		RouteMaps: map[string]*bgp.Policy{},
		ACLs:      map[string]*dataplane.ACL{},
	}
	c.Interfaces = append(c.Interfaces, InterfaceConfig{Name: "lo", Addr: d.Loopback})
	for _, intf := range d.Interfaces {
		if intf.Addr.Addr == 0 {
			continue
		}
		c.Interfaces = append(c.Interfaces, InterfaceConfig{Name: intf.Name, Addr: intf.Addr})
		if intf.Peer != nil {
			peer := intf.Peer.Device
			c.Neighbors = append(c.Neighbors, BGPNeighbor{
				IP:        intf.Peer.Addr.Addr,
				RemoteAS:  peer.ASN,
				Interface: intf.Name,
				Desc:      peer.Name,
			})
		}
	}
	c.Networks = append(c.Networks, d.Loopback)
	c.Networks = append(c.Networks, d.Originated...)
	return c
}
