package core

import (
	"fmt"
	"strings"
	"testing"

	"crystalnet/internal/bgp"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/topo"
	"crystalnet/internal/vendors"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

// edgeEmulation mocks up speaker S (AS 64600) above boundary devices B1
// (AS 65000) and B2 (AS 65001) — like a WAN device above two borders — with
// anns as S's recorded routes, and drives it to route-ready.
func edgeEmulation(t *testing.T, anns []Announcement) *Emulation {
	t.Helper()
	n := topo.NewNetwork("edge")
	s := n.AddDevice("S", topo.LayerExternal, 64600, vendors.Speaker)
	b1 := n.AddDevice("B1", topo.LayerBorder, 65000, vendors.CTNRA)
	b2 := n.AddDevice("B2", topo.LayerBorder, 65001, vendors.CTNRA)
	b1.Originated = append(b1.Originated, pfx("100.64.0.0/24"))
	n.Connect(s, b1)
	n.Connect(s, b2)

	o := New(Options{Seed: 1})
	prep, err := o.Prepare(PrepareInput{
		Network: n, Emulate: []string{"B1", "B2"}, Images: fastImages(),
		BoundaryRoutes: map[string][]Announcement{"S": anns},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two borders joined only through a single speaker is no safe
	// boundary; the speaker behaviour under test does not depend on it.
	em, err := o.Mockup(prep, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Destroy(prep) })
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	return em
}

func TestSpeakerAnnouncesRecordedRoutes(t *testing.T) {
	em := edgeEmulation(t, []Announcement{
		{Prefix: pfx("8.8.0.0/16"), Path: []uint32{64600, 3356, 15169}},
		{Prefix: pfx("1.1.1.0/24"), Path: []uint32{64600, 13335}, MED: 50, HasMED: true},
	})
	b1, b2 := em.Devices["B1"], em.Devices["B2"]

	attrs, ok := b1.BGP().BestRoute(pfx("8.8.0.0/16"))
	if !ok {
		t.Fatal("B1 missing injected route")
	}
	// The boundary device sees the byte-identical production path.
	if attrs.Path.String() != "64600 3356 15169" {
		t.Fatalf("path = %q", attrs.Path)
	}
	attrs, ok = b2.BGP().BestRoute(pfx("1.1.1.0/24"))
	if !ok || !attrs.HasMED || attrs.MED != 50 {
		t.Fatalf("B2 attrs = %+v", attrs)
	}
	// FIBs are programmed.
	if _, ok := b1.FIB().Lookup(netpkt.MustParseIP("8.8.4.4")); !ok {
		t.Fatal("B1 FIB missing")
	}
}

func TestSpeakerNeverReflects(t *testing.T) {
	em := edgeEmulation(t, nil)
	// B1 announced 100.64.0.0/24; the speaker hears it but must not pass
	// it to B2 (static speaker property). B2's AS differs from B1's, so
	// only the speaker stands between the route and B2.
	if _, ok := em.Devices["B2"].BGP().BestRoute(pfx("100.64.0.0/24")); ok {
		t.Fatal("speaker reflected a route between boundary devices")
	}
	if attrs, ok := em.Devices["S"].BGP().BestRoute(pfx("100.64.0.0/24")); !ok || attrs.Path.String() != "65000" {
		t.Fatalf("speaker did not hear B1's announcement: %+v", attrs)
	}
}

func TestSpeakerSingleASOriginOnly(t *testing.T) {
	// A one-element path announces as if locally originated by the
	// external AS.
	em := edgeEmulation(t, []Announcement{{Prefix: pfx("7.0.0.0/8"), Path: []uint32{64600}, Origin: bgp.OriginEGP}})
	attrs, ok := em.Devices["B1"].BGP().BestRoute(pfx("7.0.0.0/8"))
	if !ok || attrs.Path.String() != "64600" || attrs.Origin != bgp.OriginEGP {
		t.Fatalf("attrs = %+v", attrs)
	}
}

func TestSpeakerKeepsSessionsAliveAcrossBoundaryChurn(t *testing.T) {
	// §5.1 function 1: the speaker holds the session when the boundary
	// device reloads, and re-announces its static routes afterwards.
	em := edgeEmulation(t, []Announcement{{Prefix: pfx("8.8.0.0/16"), Path: []uint32{64600, 15169}}})
	if _, ok := em.Devices["B1"].BGP().BestRoute(pfx("8.8.0.0/16")); !ok {
		t.Fatal("setup failed")
	}
	if err := em.ReloadDevice("B1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if em.Devices["S"].State() != firmware.DeviceRunning {
		t.Fatal("speaker died during boundary churn")
	}
	if _, ok := em.Devices["B1"].BGP().BestRoute(pfx("8.8.0.0/16")); !ok {
		t.Fatal("static announcements not restored after boundary reload")
	}
}

// TestRecordedBoundaryRoutesReachTheFabric replays routes recorded from
// production (PrepareInput.BoundaryRoutes, §5.1) instead of the synthesized
// snapshot: each border installs the recorded prefix with the recorded AS
// path, and the fabric behind the borders learns it too.
func TestRecordedBoundaryRoutesReachTheFabric(t *testing.T) {
	n := miniNet()
	recorded := map[string][]Announcement{}
	for _, wan := range n.DevicesByLayer(topo.LayerExternal) {
		recorded[wan.Name] = []Announcement{{Prefix: pfx("203.0.113.0/24"), Path: []uint32{wan.ASN, 3356, 15169}}}
	}
	o := New(Options{Seed: 1})
	prep, err := o.Prepare(PrepareInput{Network: n, Images: fastImages(), BoundaryRoutes: recorded})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Destroy(prep)
	em, err := o.Mockup(prep, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}

	speakerAS := map[string]bool{}
	for _, sp := range em.Plan().Speakers {
		speakerAS[fmt.Sprint(n.MustDevice(sp).ASN)] = true
	}
	for _, b := range em.Plan().Boundary {
		attrs, ok := em.Devices[b].BGP().BestRoute(pfx("203.0.113.0/24"))
		if !ok {
			t.Fatalf("%s did not learn the recorded route", b)
		}
		if lead, rest, _ := strings.Cut(attrs.Path.String(), " "); !speakerAS[lead] || rest != "3356 15169" {
			t.Fatalf("%s: path %q, want a speaker's recorded path", b, attrs.Path)
		}
		if e, ok := em.Devices[b].FIB().Lookup(netpkt.MustParseIP("203.0.113.9")); !ok || e.Prefix != pfx("203.0.113.0/24") {
			t.Fatalf("%s FIB: %v %v", b, e, ok)
		}
	}
	// Synthesized snapshots carry a default route; a recorded one carries
	// only what was recorded.
	if _, ok := em.Devices["tor-p0-0"].FIB().Lookup(netpkt.MustParseIP("203.0.113.9")); !ok {
		t.Fatal("ToR missing the recorded route")
	}
	if _, ok := em.Devices["tor-p0-0"].BGP().BestRoute(pfx("0.0.0.0/0")); ok {
		t.Fatal("default route announced though the recording has none")
	}
}

// TestPrepareRefusesBadBoundaryRoutes: a recorded route a speaker cannot
// replay — its path empty, or led by another AS than the speaker's — fails
// Prepare, naming the speaker, before any VM is provisioned.
func TestPrepareRefusesBadBoundaryRoutes(t *testing.T) {
	for _, tc := range []struct {
		path []uint32
		want string
	}{
		{nil, "speaker wan-g0-0: announcement for 203.0.113.0/24 has empty AS path"},
		{[]uint32{3356, 15169}, "speaker wan-g0-0: announcement for 203.0.113.0/24 leads with AS 3356, speaker is AS 64600"},
	} {
		o := New(Options{Seed: 1})
		_, err := o.Prepare(PrepareInput{Network: miniNet(), Images: fastImages(), BoundaryRoutes: map[string][]Announcement{
			"wan-g0-0": {{Prefix: pfx("203.0.113.0/24"), Path: tc.path}},
		}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("path %v: err %v, want %q", tc.path, err, tc.want)
		}
		if len(o.Cloud.VMs()) != 0 {
			t.Fatalf("path %v: %d VMs provisioned for a refused preparation", tc.path, len(o.Cloud.VMs()))
		}
	}
	// A path led by the speaker's own AS is accepted.
	o := New(Options{Seed: 1})
	if _, err := o.Prepare(PrepareInput{Network: miniNet(), Images: fastImages(), BoundaryRoutes: map[string][]Announcement{
		"wan-g0-0": {{Prefix: pfx("203.0.113.0/24"), Path: []uint32{64600}}},
	}}); err != nil {
		t.Fatal(err)
	}
}
