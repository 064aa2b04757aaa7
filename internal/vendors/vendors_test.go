package vendors

import (
	"strings"
	"testing"

	"crystalnet/internal/bgp"
	"crystalnet/internal/firmware"
)

func TestCatalogCompleteness(t *testing.T) {
	var keys []string
	for k := range catalog {
		keys = append(keys, k)
	}
	want := []string{
		"ctnra:1.0", "ctnra:2.0",
		"ctnrb:1.0", "ctnrb:dev-default-route", "ctnrb:dev-arp-trap", "ctnrb:dev-flap-crash",
		"vma:3.1", "vma:3.2",
		"vmb:7.2", "vmb:7.2-small-fib",
		"speaker:3.4.17",
	}
	have := map[string]bool{}
	for _, k := range keys {
		have[k] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing image %s", w)
		}
	}
}

func TestGetAndDefault(t *testing.T) {
	img, err := Get(CTNRA, "2.0")
	if err != nil {
		t.Fatal(err)
	}
	if !img.Bugs.ARPRefreshBroken {
		t.Fatal("ctnra 2.0 must carry the ARP-refresh bug")
	}
	if _, err := Get("nope", "1"); err == nil {
		t.Fatal("unknown image accepted")
	}
	def, err := Default(CTNRA)
	if err != nil || def.Version != "1.0" {
		t.Fatalf("default ctnra = %v, %v", def, err)
	}
	if _, err := Default("nope"); err == nil {
		t.Fatal("unknown vendor accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustGet of unknown image did not panic")
			}
		}()
		MustGet("nope", "1")
	}()
}

func TestVendorDivergences(t *testing.T) {
	// The Figure 1 split: CTNR-A inherits a contributor path, VM-A bare.
	a := MustGet(CTNRA, "1.0")
	c := MustGet(VMA, "3.1")
	if a.AggregationMode != bgp.AggInheritSelected || c.AggregationMode != bgp.AggBarePath {
		t.Fatal("aggregation divergence lost")
	}
	// VM-packaged vendors need nested virtualization; containers do not.
	for name, kind := range map[string]firmware.ImageKind{VMA: firmware.VMImage, VMB: firmware.VMImage, CTNRA: firmware.ContainerImage, CTNRB: firmware.ContainerImage} {
		if img, err := Default(name); err != nil || img.Kind != kind {
			t.Fatalf("%s default image kind %v (%v), want %v", name, img.Kind, err, kind)
		}
	}
	// VM images boot slower than container images (§8.2: boot speed of
	// vendor-provided software dominates Mockup).
	if c.BootFixed <= a.BootFixed {
		t.Fatal("VM image should boot slower")
	}
	// The known-buggy releases carry exactly their documented defect.
	if !MustGet(VMA, "3.2").Bugs.StopAnnouncingOddPrefixes {
		t.Fatal("vma 3.2 bug missing")
	}
	if !MustGet(VMB, "7.2").Bugs.SilentFIBOverflow || MustGet(VMB, "7.2").FIBCapacity == 0 {
		t.Fatal("vmb FIB profile missing")
	}
	for _, v := range []struct {
		ver   string
		check func(firmware.Bugs) bool
	}{
		{"dev-default-route", func(b firmware.Bugs) bool { return b.DefaultRouteBroken }},
		{"dev-arp-trap", func(b firmware.Bugs) bool { return b.ARPTrapBroken }},
		{"dev-flap-crash", func(b firmware.Bugs) bool { return b.CrashAfterFlaps > 0 }},
	} {
		if !v.check(MustGet(CTNRB, v.ver).Bugs) {
			t.Fatalf("ctnrb %s bug missing", v.ver)
		}
	}
	// The production releases carry none of the injectable bugs.
	for _, name := range []string{CTNRA, CTNRB, VMA} {
		img, _ := Default(name)
		if img.Bugs != (firmware.Bugs{}) {
			t.Fatalf("%s default image carries bugs: %+v", name, img.Bugs)
		}
	}
}

func TestSpeakerImage(t *testing.T) {
	sp := MustGet(Speaker, "3.4.17")
	if !sp.StaticSpeaker {
		t.Fatal("speaker image must be static")
	}
	// Speakers are lightweight (§8.4: 50 per VM); their boot must be far
	// quicker than any vendor image.
	for k := range catalog {
		if strings.HasPrefix(k, "speaker") {
			continue
		}
		parts := strings.SplitN(k, ":", 2)
		img := MustGet(parts[0], parts[1])
		if sp.BootFixed >= img.BootFixed {
			t.Fatalf("speaker boot %v not lighter than %s %v", sp.BootFixed, k, img.BootFixed)
		}
	}
}

func TestCTNRBRunsSoftASIC(t *testing.T) {
	// §6.2: the open-source OS ships with the P4 behavioural-model ASIC.
	for _, v := range []string{"1.0", "dev-default-route", "dev-arp-trap", "dev-flap-crash"} {
		if !MustGet(CTNRB, v).SoftASIC {
			t.Fatalf("ctnrb %s missing the soft ASIC", v)
		}
	}
	// Closed-vendor images are fixed-function.
	for _, name := range []string{CTNRA, VMA, VMB} {
		img, _ := Default(name)
		if img.SoftASIC {
			t.Fatalf("%s should not run the P4 soft ASIC", name)
		}
	}
}
