package speaker

import (
	"testing"

	"crystalnet/internal/bgp"
	"crystalnet/internal/config"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/topo"
	"crystalnet/internal/vendors"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

// rig: speaker S (AS 64600) connected to boundary devices B1 (AS 65000) and
// B2 (AS 65000) — like a WAN device above two borders.
type rig struct {
	t       *testing.T
	eng     *sim.Engine
	sp      *Speaker
	b1, b2  *firmware.Device
	devices map[string]*firmware.Device
}

func build(t *testing.T, anns []Announcement) *rig {
	n := topo.NewNetwork("edge")
	s := n.AddDevice("S", topo.LayerExternal, 64600, vendors.Speaker)
	b1 := n.AddDevice("B1", topo.LayerBorder, 65000, "test")
	b2 := n.AddDevice("B2", topo.LayerBorder, 65000, "test")
	b1.Originated = append(b1.Originated, pfx("100.64.0.0/24"))
	n.Connect(s, b1)
	n.Connect(s, b2)

	eng := sim.NewEngine(1)
	fabric := phynet.NewFabric(eng, phynet.LinuxBridge)
	host := fabric.AddHost("vm-0")
	r := &rig{t: t, eng: eng, devices: map[string]*firmware.Device{}}
	containers := map[string]*phynet.Container{}
	for _, d := range n.Devices() {
		c := host.AddContainer(d.Name)
		containers[d.Name] = c
		for _, intf := range d.Interfaces {
			c.AddIface(intf.Name, intf.MAC)
		}
	}
	for _, l := range n.Links {
		fabric.Connect(containers[l.A.Device.Name].Iface(l.A.Name), containers[l.B.Device.Name].Iface(l.B.Name))
	}
	img := firmware.VendorImage{Name: "test", Version: "1", BootFixed: 1e9, BootJitter: 1e9}
	// Speakers are configured like any device (the config generator treats
	// them uniformly once Prepare selects them).
	for _, d := range n.Devices() {
		cfg := config.GenerateDevice(d)
		di := img
		if d.Name == "S" {
			di = vendors.MustGet(vendors.Speaker, "3.4.17")
		}
		dev := firmware.New(d.Name, di, cfg, eng, fabric, containers[d.Name], nil, nil)
		r.devices[d.Name] = dev
	}
	var err error
	r.sp, err = New(r.devices["S"], anns)
	if err != nil {
		t.Fatal(err)
	}
	r.b1, r.b2 = r.devices["B1"], r.devices["B2"]
	return r
}

func (r *rig) start() {
	r.sp.Start(nil)
	r.b1.Boot(nil)
	r.b2.Boot(nil)
	if _, err := r.eng.Run(5_000_000); err != nil {
		r.t.Fatal(err)
	}
}

func TestSpeakerAnnouncesRecordedRoutes(t *testing.T) {
	anns := []Announcement{
		{Prefix: pfx("8.8.0.0/16"), Path: []uint32{64600, 3356, 15169}},
		{Prefix: pfx("1.1.1.0/24"), Path: []uint32{64600, 13335}, MED: 50, HasMED: true},
	}
	r := build(t, anns)
	r.start()

	attrs, ok := r.b1.BGP().BestRoute(pfx("8.8.0.0/16"))
	if !ok {
		t.Fatal("B1 missing injected route")
	}
	// The boundary device sees the byte-identical production path.
	if attrs.Path.String() != "64600 3356 15169" {
		t.Fatalf("path = %q", attrs.Path)
	}
	attrs, ok = r.b2.BGP().BestRoute(pfx("1.1.1.0/24"))
	if !ok || !attrs.HasMED || attrs.MED != 50 {
		t.Fatalf("B2 attrs = %+v", attrs)
	}
	// FIBs are programmed.
	if _, ok := r.b1.FIB().Lookup(netpkt.MustParseIP("8.8.4.4")); !ok {
		t.Fatal("B1 FIB missing")
	}
}

func TestSpeakerNeverReflects(t *testing.T) {
	r := build(t, nil)
	r.start()
	// B1 announced 100.64.0.0/24; the speaker hears it but must not pass
	// it to B2 (static speaker property; B1/B2 also share an AS).
	if _, ok := r.b2.BGP().BestRoute(pfx("100.64.0.0/24")); ok {
		t.Fatal("speaker reflected a route between boundary devices")
	}
	if attrs, ok := r.sp.Dev.BGP().BestRoute(pfx("100.64.0.0/24")); !ok || attrs.Path.String() != "65000" {
		t.Fatalf("speaker did not hear B1's announcement: %+v", attrs)
	}
}

func TestAnnouncementValidation(t *testing.T) {
	if err := (Announcement{Prefix: pfx("1.0.0.0/8")}).Validate(64600); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := (Announcement{Prefix: pfx("1.0.0.0/8"), Path: []uint32{99}}).Validate(64600); err == nil {
		t.Fatal("wrong leading AS accepted")
	}
	if err := (Announcement{Prefix: pfx("1.0.0.0/8"), Path: []uint32{64600}}).Validate(64600); err != nil {
		t.Fatal(err)
	}
	// New() rejects bad announcements and non-speaker devices.
	r := build(t, nil)
	if _, err := New(r.b1, nil); err == nil {
		t.Fatal("non-speaker device accepted")
	}
	if _, err := New(r.devices["S"], []Announcement{{Prefix: pfx("1.0.0.0/8"), Path: []uint32{1}}}); err == nil {
		t.Fatal("invalid announcement accepted")
	}
}

func TestSpeakerSingleASOriginOnly(t *testing.T) {
	// A one-element path announces as if locally originated by the
	// external AS.
	r := build(t, []Announcement{{Prefix: pfx("7.0.0.0/8"), Path: []uint32{64600}, Origin: bgp.OriginEGP}})
	r.start()
	attrs, ok := r.b1.BGP().BestRoute(pfx("7.0.0.0/8"))
	if !ok || attrs.Path.String() != "64600" || attrs.Origin != bgp.OriginEGP {
		t.Fatalf("attrs = %+v", attrs)
	}
}

func TestSpeakerKeepsSessionsAliveAcrossBoundaryChurn(t *testing.T) {
	// §5.1 function 1: the speaker holds the session when the boundary
	// device reloads, and re-announces its static routes afterwards.
	anns := []Announcement{{Prefix: pfx("8.8.0.0/16"), Path: []uint32{64600, 15169}}}
	r := build(t, anns)
	r.start()
	if _, ok := r.b1.BGP().BestRoute(pfx("8.8.0.0/16")); !ok {
		t.Fatal("setup failed")
	}
	r.b1.Reload(nil, nil)
	if _, err := r.eng.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if r.sp.Dev.State() != firmware.DeviceRunning {
		t.Fatal("speaker died during boundary churn")
	}
	if _, ok := r.b1.BGP().BestRoute(pfx("8.8.0.0/16")); !ok {
		t.Fatal("static announcements not restored after boundary reload")
	}
}
