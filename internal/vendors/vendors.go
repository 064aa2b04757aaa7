// Package vendors defines the device software images available to the
// emulator — the synthetic equivalents of the paper's four sources of
// switch software (§4.1): two container-packaged vendor OSes (CTNR-A and
// the open-source CTNR-B), two VM-packaged vendor OSes (VM-A and VM-B),
// plus the boundary speaker image (§5.1) and a fanout image for real-
// hardware attachment.
//
// Behavioural divergences between images are deliberate and documented —
// they reproduce the incident classes of Table 1 and §7. Versioned variants
// carry the known-buggy releases so validation scenarios can boot them.
//
// DESIGN.md §1 (substitutions) and §4 (vendor divergences) document the
// image set.
package vendors

import (
	"fmt"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/firmware"
)

// Image names.
const (
	CTNRA   = "ctnra"   // container vendor A: aggregation inherits a path
	CTNRB   = "ctnrb"   // container open-source OS (the §7 Case-2 subject)
	VMA     = "vma"     // VM vendor A: bare-path aggregation (Figure 1's R7)
	VMB     = "vmb"     // VM vendor B: small FIB, silent overflow
	Speaker = "speaker" // boundary speaker (ExaBGP equivalent)
)

// catalog maps image:version to its definition.
var catalog = map[string]firmware.VendorImage{}

func register(img firmware.VendorImage) {
	catalog[img.Name+":"+img.Version] = img
}

func init() {
	// CTNR-A — container image, fast boot. Its aggregation implementation
	// selects a contributor path (Figure 1's R6 behaviour).
	register(firmware.VendorImage{
		Name: CTNRA, Version: "1.0", Kind: firmware.ContainerImage,
		BootFixed: 3 * time.Minute, BootJitter: 2 * time.Minute, BootWork: 60,
		MsgWork: 0.0003, RouteWork: 0.0015,
		AggregationMode: bgp.AggInheritSelected,
	})
	// CTNR-A 2.0 — the release with a broken ARP refresh after config
	// reloads (§2). Its undocumented ACL dialect change is reproduced at the
	// config layer (config.Render/Parse), by tests: no running image parses
	// configuration text.
	register(firmware.VendorImage{
		Name: CTNRA, Version: "2.0", Kind: firmware.ContainerImage,
		BootFixed: 3 * time.Minute, BootJitter: 2 * time.Minute, BootWork: 60,
		MsgWork: 0.0003, RouteWork: 0.0015,
		AggregationMode: bgp.AggInheritSelected,
		Bugs:            firmware.Bugs{ARPRefreshBroken: true},
	})
	// CTNR-B — the open-source OS under in-house development (§7 Case 2).
	register(firmware.VendorImage{
		Name: CTNRB, Version: "1.0", Kind: firmware.ContainerImage, SoftASIC: true,
		BootFixed: 2 * time.Minute, BootJitter: time.Minute, BootWork: 40,
		MsgWork: 0.0003, RouteWork: 0.0015,
		AggregationMode: bgp.AggInheritSelected,
	})
	// CTNR-B dev builds with the three §7 Case-2 bugs, individually
	// switchable for the validation pipeline.
	register(firmware.VendorImage{
		Name: CTNRB, Version: "dev-default-route", Kind: firmware.ContainerImage, SoftASIC: true,
		BootFixed: 2 * time.Minute, BootJitter: time.Minute, BootWork: 40,
		MsgWork: 0.0003, RouteWork: 0.0015,
		AggregationMode: bgp.AggInheritSelected,
		Bugs:            firmware.Bugs{DefaultRouteBroken: true},
	})
	register(firmware.VendorImage{
		Name: CTNRB, Version: "dev-arp-trap", Kind: firmware.ContainerImage, SoftASIC: true,
		BootFixed: 2 * time.Minute, BootJitter: time.Minute, BootWork: 40,
		MsgWork: 0.0003, RouteWork: 0.0015,
		AggregationMode: bgp.AggInheritSelected,
		Bugs:            firmware.Bugs{ARPTrapBroken: true},
	})
	register(firmware.VendorImage{
		Name: CTNRB, Version: "dev-flap-crash", Kind: firmware.ContainerImage, SoftASIC: true,
		BootFixed: 2 * time.Minute, BootJitter: time.Minute, BootWork: 40,
		MsgWork: 0.0003, RouteWork: 0.0015,
		AggregationMode: bgp.AggInheritSelected,
		Bugs:            firmware.Bugs{CrashAfterFlaps: 3},
	})
	// VM-A — VM image (needs nested virtualization), slower boot, more
	// memory. Aggregates with a bare AS path (Figure 1's R7 behaviour).
	register(firmware.VendorImage{
		Name: VMA, Version: "3.1", Kind: firmware.VMImage,
		BootFixed: 6 * time.Minute, BootJitter: 3 * time.Minute, BootWork: 120,
		MsgWork: 0.0005, RouteWork: 0.002,
		AggregationMode: bgp.AggBarePath,
	})
	// VM-A 3.2 — the release that "erroneously stopped announcing certain
	// IP prefixes" (§2).
	register(firmware.VendorImage{
		Name: VMA, Version: "3.2", Kind: firmware.VMImage,
		BootFixed: 6 * time.Minute, BootJitter: 3 * time.Minute, BootWork: 120,
		MsgWork: 0.0005, RouteWork: 0.002,
		AggregationMode: bgp.AggBarePath,
		Bugs:            firmware.Bugs{StopAnnouncingOddPrefixes: true},
	})
	// VM-B — VM image with a small hardware FIB whose overflow is silent
	// (the §2 load-balancer black-hole substrate).
	register(firmware.VendorImage{
		Name: VMB, Version: "7.2", Kind: firmware.VMImage,
		BootFixed: 6 * time.Minute, BootJitter: 3 * time.Minute, BootWork: 120,
		MsgWork: 0.0005, RouteWork: 0.002,
		AggregationMode: bgp.AggBarePath,
		FIBCapacity:     150_000,
		Bugs:            firmware.Bugs{SilentFIBOverflow: true},
	})
	// VM-B "compact" — a deliberately tiny-FIB variant for reproducing the
	// §2 incident at example scale.
	register(firmware.VendorImage{
		Name: VMB, Version: "7.2-small-fib", Kind: firmware.VMImage,
		BootFixed: 6 * time.Minute, BootJitter: 3 * time.Minute, BootWork: 120,
		MsgWork: 0.0005, RouteWork: 0.002,
		AggregationMode: bgp.AggBarePath,
		FIBCapacity:     64,
		Bugs:            firmware.Bugs{SilentFIBOverflow: true},
	})
	// Speaker — the static boundary speaker: trivial boot, negligible cost
	// (§8.4: one VM hosts at least 50 of them).
	register(firmware.VendorImage{
		Name: Speaker, Version: "3.4.17", Kind: firmware.ContainerImage,
		BootFixed: 5 * time.Second, BootJitter: 5 * time.Second, BootWork: 1,
		MsgWork: 0.0001, RouteWork: 0.0005,
		StaticSpeaker: true,
	})
}

// Get returns the image for name:version. It returns an error for unknown
// images — operators must pin exact firmware versions.
func Get(name, version string) (firmware.VendorImage, error) {
	img, ok := catalog[name+":"+version]
	if !ok {
		return firmware.VendorImage{}, fmt.Errorf("vendors: no image %s:%s", name, version)
	}
	return img, nil
}

// MustGet is Get for known-constant image references.
func MustGet(name, version string) firmware.VendorImage {
	img, err := Get(name, version)
	if err != nil {
		panic(err)
	}
	return img
}

// Default returns the production (non-buggy) image of a vendor.
func Default(name string) (firmware.VendorImage, error) {
	switch name {
	case CTNRA:
		return Get(CTNRA, "1.0")
	case CTNRB:
		return Get(CTNRB, "1.0")
	case VMA:
		return Get(VMA, "3.1")
	case VMB:
		return Get(VMB, "7.2")
	case Speaker:
		return Get(Speaker, "3.4.17")
	}
	return firmware.VendorImage{}, fmt.Errorf("vendors: unknown vendor %q", name)
}
