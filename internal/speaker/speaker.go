// Package speaker implements CrystalNet's static boundary speakers (§5.1):
// lightweight devices standing in for the external routers beyond the
// emulation boundary. A speaker performs exactly the paper's two functions —
// it keeps links and BGP sessions alive with boundary devices, and it
// replays the routing announcements recorded from production. It never
// reacts to dynamics inside the emulation (no reflection, no recomputation),
// which is precisely why the boundary must be chosen safe (internal/boundary).
//
// DESIGN.md §2 (core layer) places speakers next to the boundary theory they
// depend on.
package speaker

import (
	"fmt"

	"crystalnet/internal/bgp"
	"crystalnet/internal/firmware"
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

// Validate checks the announcement is replayable by a speaker with the
// given AS: the recorded path must lead with that AS (it was announced by
// that device in production).
func (a Announcement) Validate(speakerAS uint32) error {
	if len(a.Path) == 0 {
		return fmt.Errorf("speaker: announcement for %v has empty AS path", a.Prefix)
	}
	if a.Path[0] != speakerAS {
		return fmt.Errorf("speaker: announcement for %v leads with AS %d, speaker is AS %d", a.Prefix, a.Path[0], speakerAS)
	}
	return nil
}

// Speaker wraps a firmware device running the static-speaker image.
type Speaker struct {
	Dev           *firmware.Device
	Announcements []Announcement
}

// New wraps an already-constructed speaker-image device with its announce
// set.
func New(dev *firmware.Device, anns []Announcement) (*Speaker, error) {
	if !dev.Image.StaticSpeaker {
		return nil, fmt.Errorf("speaker: device %s does not run the speaker image", dev.Name)
	}
	for _, a := range anns {
		if err := a.Validate(dev.Config().ASN); err != nil {
			return nil, err
		}
	}
	return &Speaker{Dev: dev, Announcements: anns}, nil
}

// Start boots the speaker and injects its announcements once running.
// onReady (optional) fires after injection.
func (s *Speaker) Start(onReady func()) {
	s.Dev.Boot(func() {
		s.Inject()
		if onReady != nil {
			onReady()
		}
	})
}

// Inject programs the recorded announcements into the speaker's BGP
// instance. The leading own-AS element is stripped; the eBGP export path
// prepends it back, so boundary devices receive byte-identical paths.
func (s *Speaker) Inject() {
	r := s.Dev.BGP()
	if r == nil {
		return
	}
	for _, a := range s.Announcements {
		attrs := &bgp.Attrs{
			Origin: a.Origin,
			Path:   bgp.NewPath(a.Path[1:]...),
			MED:    a.MED, HasMED: a.HasMED,
		}
		r.InjectLocal(a.Prefix, attrs)
	}
}

// Fork rewraps a forked emulation's clone of the speaker device with a
// copy of the announcement list. Announcement values share their recorded
// AS paths, which are immutable once loaded.
func (s *Speaker) Fork(dev *firmware.Device) *Speaker {
	return &Speaker{Dev: dev, Announcements: append([]Announcement(nil), s.Announcements...)}
}
