package core

import (
	"fmt"

	"crystalnet/internal/bgp"
	"crystalnet/internal/netpkt"
)

// Announcement is one recorded route as the boundary device receives it:
// the AS path starts with the external device's own AS.
type Announcement struct {
	Prefix netpkt.Prefix
	Path   []uint32
	Origin bgp.Origin
	MED    uint32
	HasMED bool
}

// validate checks that a speaker of AS speakerAS can replay the
// announcement: the recorded path must lead with that AS (that device
// announced it in production).
func (a Announcement) validate(speakerAS uint32) error {
	if len(a.Path) == 0 {
		return fmt.Errorf("announcement for %v has empty AS path", a.Prefix)
	}
	if a.Path[0] != speakerAS {
		return fmt.Errorf("announcement for %v leads with AS %d, speaker is AS %d", a.Prefix, a.Path[0], speakerAS)
	}
	return nil
}

// boot boots a device and, once it runs, injects the routes Prepare
// recorded for it, which only the static boundary speakers (§5.1) have. A
// speaker is a device running the speaker image
// (firmware.VendorImage.StaticSpeaker) and does exactly the paper's two
// things: it keeps links and BGP sessions alive with the boundary devices,
// and it replays the recorded announcements. It never reacts to dynamics
// inside the emulation, which is why the boundary must be safe
// (internal/boundary). Mockup and VM recovery both boot here, so a rebooted
// speaker announces again what it stands in for.
func (em *Emulation) boot(name string) {
	dev := em.Devices[name]
	dev.Boot(func() {
		r := dev.BGP()
		if r == nil {
			return
		}
		// The leading own-AS element is stripped; the eBGP export path
		// prepends it back, so boundary devices receive the recorded path.
		for _, a := range em.prep.Routes[name] {
			r.InjectLocal(a.Prefix, &bgp.Attrs{
				Origin: a.Origin,
				Path:   bgp.NewPath(a.Path[1:]...),
				MED:    a.MED, HasMED: a.HasMED,
			})
		}
	})
}
