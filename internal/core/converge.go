package core

import (
	"errors"
	"sort"
	"time"

	"crystalnet/internal/sim"
)

// ErrCanceled is returned by a convergence drive whose cancel channel
// (SetCancel) fired. Callers are expected to Teardown the emulation.
var ErrCanceled = errors.New("core: emulation canceled")

// SetCancel arms cancellation for this emulation's convergence drives:
// once ch fires, RunUntilConverged returns ErrCanceled at the driver's next
// poll (sim.Engine.Check, sim.ShardSet.Check) instead of driving to
// quiescence; nil disarms it. The serving path wires a request context's
// Done channel here so an abandoned rehearsal stops burning CPU
// mid-convergence. The channel does not cross a Checkpoint/Fork — each fork
// arms its own. Polling changes nothing observable: events fire in the same
// order, the clock and RNG streams are untouched, and a drive is still one
// engine/run span, so reports and traces match an unarmed run byte for byte.
func (em *Emulation) SetCancel(ch <-chan struct{}) {
	var check func() error
	if ch != nil {
		check = func() error {
			select {
			case <-ch:
				return ErrCanceled
			default:
				return nil
			}
		}
	}
	if em.shards != nil {
		em.shards.Check = check
	} else {
		em.orch.Eng.Check = check
	}
}

// RunUntilConverged drives the engine — under sharding, the shard ensemble
// — until the event queue drains (the emulation is stable) and returns the
// §8.1 latency metrics.
func (em *Emulation) RunUntilConverged(maxEvents uint64) (Metrics, error) {
	if maxEvents == 0 {
		maxEvents = 500_000_000
	}
	drive := em.orch.Eng.Run
	if em.shards != nil {
		drive = em.shards.Run
	}
	if _, err := drive(maxEvents); err != nil {
		return Metrics{}, err
	}
	em.tracePhases()
	em.settleTraffic()
	return em.Metrics(), nil
}

// Teardown aborts an emulation deterministically, whatever state it is in:
// every pending event — in-flight protocol work, boot callbacks, daemon
// timers — is dropped wholesale, the firmware is stopped and the VMs reset
// via Clear, and the engine drains the teardown events so nothing remains
// scheduled. It is the cleanup path for a rehearsal whose request was
// canceled mid-convergence: after Teardown the emulation holds no live
// timers and can be garbage-collected without leaking simulated daemons.
// Idempotent; a cleared emulation tears down to a no-op.
func (em *Emulation) Teardown() {
	if em.cleared {
		return
	}
	// The cancel that brought us here has fired for good; the drain below
	// must not stop at it.
	em.SetCancel(nil)
	if em.shards != nil {
		em.shards.CancelAll()
		em.Clear(nil)
		em.shards.Run(0)
		return
	}
	em.orch.Eng.CancelAll()
	em.Clear(nil)
	em.orch.Eng.Run(0)
}

// tracePhases records the Mockup phase spans and the per-device
// convergence timeline (the §8.1 / Figures 8–9 measurements) once the
// network has converged. Spans are reconstructed post hoc from the
// timeline the emulation already keeps — the intervals are only knowable
// after quiescence — and latched so repeated convergence calls and forks
// of a traced parent do not re-record them.
func (em *Emulation) tracePhases() {
	rec := em.orch.Eng.Recorder()
	if rec == nil || em.phasesTraced || em.NetworkReadyAt == 0 {
		return
	}
	em.phasesTraced = true
	rec.SpanAt("phase", "network-ready", int64(em.MockupStart), int64(em.NetworkReadyAt))
	var lastRoute sim.Time
	names := make([]string, 0, len(em.Devices))
	for n := range em.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := em.Devices[n]
		if d.LastFIBChange == 0 {
			continue
		}
		// Per-device convergence: mockup start until the device's FIB last
		// settled during bring-up.
		rec.SpanAt("converge", n, int64(em.MockupStart), int64(d.LastFIBChange))
		if d.LastFIBChange > lastRoute {
			lastRoute = d.LastFIBChange
		}
	}
	if lastRoute > em.NetworkReadyAt {
		rec.SpanAt("phase", "route-ready", int64(em.NetworkReadyAt), int64(lastRoute))
	}
}

// Metrics reports the emulation timeline so far.
type Metrics struct {
	NetworkReady time.Duration // Mockup start -> all virtual links up
	RouteReady   time.Duration // network-ready -> last FIB change
	Mockup       time.Duration // sum (the paper's mockup latency)
}

// Metrics computes the timeline from device state; call after the engine
// has quiesced.
func (em *Emulation) Metrics() Metrics {
	var lastRoute sim.Time
	for _, d := range em.Devices {
		if d.LastFIBChange > lastRoute {
			lastRoute = d.LastFIBChange
		}
	}
	m := Metrics{}
	if em.NetworkReadyAt > em.MockupStart {
		m.NetworkReady = em.NetworkReadyAt.Sub(em.MockupStart)
	}
	if lastRoute > em.NetworkReadyAt {
		m.RouteReady = lastRoute.Sub(em.NetworkReadyAt)
	}
	m.Mockup = m.NetworkReady + m.RouteReady
	return m
}
