package crystalnet_test

import (
	"strings"
	"testing"
	"time"

	"crystalnet"
)

// TestPublicAPILifecycle drives the full Table 2 workflow purely through
// the public facade, as a downstream user would.
func TestPublicAPILifecycle(t *testing.T) {
	network := crystalnet.GenerateClos(crystalnet.ClosSpec{
		Name: "api", Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2,
		SpineGroups: 1, SpinesPerPlane: 2, BordersPerGroup: 2,
		PrefixesPerToR: 1,
	})
	o := crystalnet.New(crystalnet.Options{Seed: 2})
	prep, err := o.Prepare(crystalnet.PrepareInput{Network: network})
	if err != nil {
		t.Fatal(err)
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := em.RunUntilConverged(0)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Mockup <= 0 || metrics.NetworkReady <= 0 {
		t.Fatalf("metrics: %+v", metrics)
	}

	// Monitor.
	fibs := em.PullFIBs()
	if fibs["tor-p0-0"].Len() == 0 {
		t.Fatal("empty FIB")
	}
	states := em.PullStates()
	for name, st := range states {
		if st.State != crystalnet.DeviceRunning {
			t.Fatalf("%s not running", name)
		}
	}

	// Control: telemetry probe.
	dst := network.MustDevice("tor-p1-0").Originated[0]
	if _, err := em.InjectPackets("tor-p0-0", crystalnet.PacketMeta{
		Src: em.Devices["tor-p0-0"].Config().Loopback.Addr, Dst: dst.Addr + 1,
		Proto: crystalnet.ProtoUDP, SrcPort: 9, DstPort: 9, TTL: 16,
	}, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	em.RunUntilConverged(0)
	paths := crystalnet.ComputePaths(em.PullPackets())
	if len(paths) != 1 || !paths[0].Delivered {
		t.Fatalf("probe: %+v", paths)
	}

	// Management plane.
	s, err := em.Login("tor-p0-0")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := s.Exec("show version"); err != nil || !strings.Contains(out, "tor-p0-0") {
		t.Fatalf("CLI: %q %v", out, err)
	}

	em.Clear(nil)
	o.Eng.Run(0)
	o.Destroy(prep)
	if o.Cloud.HourlyCostUSD() != 0 {
		t.Fatal("VMs leaked")
	}
}

// TestPublicAPIBoundary exercises the boundary helpers from the facade.
func TestPublicAPIBoundary(t *testing.T) {
	n := crystalnet.GenerateClos(crystalnet.LDC())
	var pod []string
	for _, d := range n.DevicesInPod(0) {
		pod = append(pod, d.Name)
	}
	emu, err := crystalnet.FindSafeDCBoundary(n, pod)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := crystalnet.BuildPlan(n, emu)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckSafe(); err != nil {
		t.Fatal(err)
	}
	if s := plan.Scale(); s.TotalEmulated != 88 {
		t.Fatalf("one-pod closure = %d devices, want 88 (Table 4)", s.TotalEmulated)
	}
}

// TestPublicAPIVendorImages checks the image catalog surface.
func TestPublicAPIVendorImages(t *testing.T) {
	img, err := crystalnet.VendorImage("ctnrb", "dev-arp-trap")
	if err != nil || !img.Bugs.ARPTrapBroken {
		t.Fatalf("image: %+v %v", img, err)
	}
	if _, err := crystalnet.DefaultImage("vma"); err != nil {
		t.Fatal(err)
	}
	if _, err := crystalnet.VendorImage("nope", "1"); err == nil {
		t.Fatal("unknown image accepted")
	}
}

// TestPublicAPIConfigs checks config generation via the facade.
func TestPublicAPIConfigs(t *testing.T) {
	n := crystalnet.GenerateClos(crystalnet.SDC())
	cfgs := crystalnet.GenerateConfigs(n)
	if len(cfgs) != n.NumDevices() {
		t.Fatal("config count mismatch")
	}
	if cfgs["tor-p0-0"].ASN == 0 {
		t.Fatal("empty config")
	}
	if crystalnet.MustParseIP("10.0.0.1") == 0 || crystalnet.MustParsePrefix("10.0.0.0/8").Len != 8 {
		t.Fatal("parse helpers broken")
	}
}

// Example_validationWorkflow sketches the Figure 3 loop: mock up a safe
// boundary, apply a change, verify, and roll back on failure.
func Example_validationWorkflow() {
	network := crystalnet.GenerateClos(crystalnet.SDC())
	o := crystalnet.New(crystalnet.Options{Seed: 1})

	// Operators name only the devices they are changing; Algorithm 1 grows
	// a provably safe boundary around them.
	prep, _ := o.Prepare(crystalnet.PrepareInput{
		Network:     network,
		MustEmulate: []string{"tor-p0-0", "tor-p0-1"},
	})
	em, _ := o.Mockup(prep, false)
	em.RunUntilConverged(0)

	// Snapshot, change, verify, and roll back if behaviour diverged.
	baseline := em.Save()
	em.ReloadDevice("leaf-p0-0", nil /* the new config under test */, nil)
	em.RunUntilConverged(0)
	if diffs := em.DiffAgainst(baseline); len(diffs) > 0 {
		em.ReloadDevice("leaf-p0-0", baseline.Configs["leaf-p0-0"], nil)
	}
	em.Clear(nil)
	o.Destroy(prep)
}
