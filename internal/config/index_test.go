package config

import (
	"testing"

	"crystalnet/internal/netpkt"
)

func TestIndex(t *testing.T) {
	addr := func(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }
	cfgs := map[string]*DeviceConfig{
		"tor-1":  {Hostname: "tor-1", Interfaces: []InterfaceConfig{{Name: "et0", Addr: addr("10.128.0.1/31")}}},
		"leaf-0": {Hostname: "leaf-0", Interfaces: []InterfaceConfig{{Name: "et0", Addr: addr("10.128.0.0/31")}, {Name: "unnumbered"}}},
		"tor-0":  {Hostname: "tor-0"},
	}
	live := func(name string) *DeviceConfig { return cfgs[name] }
	ix := NewIndex(map[string]*DeviceConfig{"tor-1": cfgs["tor-1"], "leaf-0": cfgs["leaf-0"], "tor-0": cfgs["tor-0"]})

	// Ids are name order.
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	for id, want := range []string{"leaf-0", "tor-0", "tor-1"} {
		if got, ok := ix.ID(want); ix.Name(id) != want || !ok || got != id {
			t.Errorf("id %d is %q and ID(%q) = %d, %v", id, ix.Name(id), want, got, ok)
		}
		if ix.Config(want) != cfgs[want] || ix.Configs()[want] != cfgs[want] {
			t.Errorf("Config(%q) is not the indexed configuration", want)
		}
	}
	if _, ok := ix.ID("spine-0"); ok || ix.Config("spine-0") != nil {
		t.Error("index knows a device it was not given")
	}

	// Owners resolve to (device id, interface); the zero address of an
	// unnumbered interface is nobody's.
	if o, ok := ix.Owner(addr("10.128.0.1/31").Addr); !ok || ix.Name(o.Dev) != "tor-1" || o.Iface != "et0" {
		t.Errorf("Owner(10.128.0.1) = %+v, %v", o, ok)
	}
	if o, ok := ix.Owner(0); ok {
		t.Errorf("the zero address is owned by %+v", o)
	}
	if _, ok := ix.Owner(addr("10.128.0.9/32").Addr); ok {
		t.Error("an unconfigured address has an owner")
	}

	// Same is pointer equality over the same device set.
	if !ix.Same(len(cfgs), live) {
		t.Fatal("Same is false for the fabric the index was built from")
	}
	orig := cfgs["tor-0"]
	cfgs["tor-0"] = orig.Clone()
	if ix.Same(len(cfgs), live) {
		t.Error("Same is true after a configuration was swapped for an equal copy")
	}
	cfgs["tor-0"] = orig
	cfgs["tor-2"] = &DeviceConfig{Hostname: "tor-2"}
	if ix.Same(len(cfgs), live) {
		t.Error("Same is true after the device set grew")
	}
	delete(cfgs, "tor-2")
	delete(cfgs, "tor-1")
	if ix.Same(len(cfgs), live) {
		t.Error("Same is true after the device set shrank")
	}
	cfgs["tor-9"] = &DeviceConfig{Hostname: "tor-9"}
	if ix.Same(len(cfgs), live) {
		t.Error("Same is true for a different device set of the same size")
	}
}
