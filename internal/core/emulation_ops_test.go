package core

import (
	"strings"
	"testing"
	"time"
)

// TestSetLinkErrors exercises every SetLink refusal: unknown devices,
// unknown interfaces, and topology links outside the emulated boundary.
func TestSetLinkErrors(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 11})
	defer o.Destroy(em.prep)

	cases := []struct {
		name                 string
		devA, ifA, devB, ifB string
		wantErr              string
	}{
		{"unknown device A", "tor-p9-9", "et0", "leaf-p0-0", "et2", "unknown device"},
		{"unknown device B", "tor-p0-0", "et0", "leaf-p9-9", "et2", "unknown device"},
		{"unknown interface A", "tor-p0-0", "et99", "leaf-p0-0", "et2", "unknown interface"},
		{"unknown interface B", "tor-p0-0", "et0", "leaf-p0-0", "et99", "unknown interface"},
		{"not a link", "tor-p0-0", "et0", "tor-p1-0", "et0", "no emulated link"},
	}
	for _, tc := range cases {
		err := em.SetLink(tc.devA, tc.ifA, tc.devB, tc.ifB, false)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSetLinkBoundaryLink verifies SetLink refuses links whose endpoints
// exist in the topology but were excluded from the emulated boundary: no
// virtual link backs them, so there is nothing to flap.
func TestSetLinkBoundaryLink(t *testing.T) {
	o := New(Options{Seed: 3})
	n := miniNet()
	var must []string
	for _, d := range n.DevicesInPod(0) {
		must = append(must, d.Name)
	}
	prep, err := o.Prepare(PrepareInput{Network: n, MustEmulate: must, Images: fastImages()})
	if err != nil {
		t.Fatal(err)
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Destroy(prep)
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	// Pod 1's ToR-leaf links are entirely outside the boundary.
	if em.prep.Plan.Emulated["tor-p1-0"] {
		t.Fatal("tor-p1-0 unexpectedly inside the boundary")
	}
	err = em.SetLink("tor-p1-0", "et0", "leaf-p1-0", "et2", false)
	if err == nil || !strings.Contains(err.Error(), "no emulated link") {
		t.Fatalf("boundary-link SetLink err = %v, want 'no emulated link'", err)
	}
}

// TestInjectVMFailureRecoveries checks the on-demand §6.2 failure drill:
// the VM reboots, its devices come back, and the measured recovery latency
// lands in Recoveries().
func TestInjectVMFailureRecoveries(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 5})
	defer o.Destroy(em.prep)

	if _, err := em.InjectVMFailure("no-such-device"); err == nil {
		t.Fatal("InjectVMFailure on unknown device should fail")
	}
	if got := em.VMName("no-such-device"); got != "" {
		t.Fatalf("VMName(unknown) = %q, want empty", got)
	}
	if vm := em.VMName("tor-p0-0"); vm == "" {
		t.Fatal("tor-p0-0 has no hosting VM")
	}
	if len(em.Recoveries()) != 0 {
		t.Fatalf("recoveries before any failure: %v", em.Recoveries())
	}

	if _, err := em.InjectVMFailure("tor-p0-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	recs := em.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %v, want exactly one", recs)
	}
	if recs[0] <= 0 || recs[0] > 10*time.Minute {
		t.Fatalf("recovery latency %v outside sane bounds", recs[0])
	}
	// The device is running again and still routes to a remote prefix.
	if st := em.Devices["tor-p0-0"].State().String(); st != "running" {
		t.Fatalf("tor-p0-0 state after recovery: %s", st)
	}
	p1 := em.Network().MustDevice("tor-p1-0").Originated[0]
	if _, ok := em.Devices["tor-p0-0"].FIB().Lookup(p1.Addr + 1); !ok {
		t.Fatal("recovered ToR lost its routes")
	}
	// A second drill appends, not overwrites.
	if _, err := em.InjectVMFailure("leaf-p1-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if got := len(em.Recoveries()); got != 2 {
		t.Fatalf("recoveries after second drill = %d, want 2", got)
	}
}
