package config

import (
	"sort"

	"crystalnet/internal/netpkt"
)

// Index is one fabric's live configurations made addressable: the devices
// in name order — a device's position is its dense id — the configuration
// each runs, and which device interface owns each address. It is immutable
// once built, so whoever holds the pointer may share it with forks, walkers
// and memos; and because an installed DeviceConfig is never edited
// (DESIGN.md §6), two indexes over the same pointers describe the same
// fabric, which is what Same checks.
type Index struct {
	names  []string
	byName map[string]*DeviceConfig
	ids    map[string]int
	owners map[netpkt.IP]Owner
}

// Owner locates the device interface holding an address.
type Owner struct {
	Dev   int // device id
	Iface string
}

// NewIndex indexes cfgs, which it keeps: the caller must not write the map
// or any configuration in it afterwards. Where two interfaces claim one
// address the later device in name order owns it.
func NewIndex(cfgs map[string]*DeviceConfig) *Index {
	ix := &Index{
		names:  make([]string, 0, len(cfgs)),
		byName: cfgs,
		ids:    make(map[string]int, len(cfgs)),
		owners: map[netpkt.IP]Owner{},
	}
	for n := range cfgs {
		ix.names = append(ix.names, n)
	}
	sort.Strings(ix.names)
	for id, n := range ix.names {
		ix.ids[n] = id
		for _, ic := range cfgs[n].Interfaces {
			if ic.Addr.Addr != 0 {
				ix.owners[ic.Addr.Addr] = Owner{Dev: id, Iface: ic.Name}
			}
		}
	}
	return ix
}

// Len returns the number of devices; ids run from 0 to Len()-1.
func (ix *Index) Len() int { return len(ix.names) }

// Name returns the name of device id.
func (ix *Index) Name(id int) string { return ix.names[id] }

// ID returns a device's id, false for a name the index does not hold.
func (ix *Index) ID(name string) (int, bool) {
	id, ok := ix.ids[name]
	return id, ok
}

// Config returns the configuration the named device runs, nil for a name the
// index does not hold.
func (ix *Index) Config(name string) *DeviceConfig { return ix.byName[name] }

// Configs returns every configuration by device name. The map is the
// index's own: shared, not copied — callers must not write it.
func (ix *Index) Configs() map[string]*DeviceConfig { return ix.byName }

// Owner returns the device interface configured with ip. The zero address
// is never owned.
func (ix *Index) Owner(ip netpkt.IP) (Owner, bool) {
	o, ok := ix.owners[ip]
	return o, ok
}

// Same reports whether the index still describes a fabric of n devices
// where live names the configuration each one runs now: the same device set,
// pointer for pointer. It allocates nothing, so holders revalidate a cached
// index on every read instead of tracking what might have changed it.
func (ix *Index) Same(n int, live func(name string) *DeviceConfig) bool {
	if n != len(ix.names) {
		return false
	}
	for _, name := range ix.names {
		if live(name) != ix.byName[name] {
			return false
		}
	}
	return true
}
