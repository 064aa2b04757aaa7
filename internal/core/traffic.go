package core

import (
	"crystalnet/internal/dataplane"
	"crystalnet/internal/rib"
	"crystalnet/internal/traffic"
)

// AttachTraffic builds a traffic matrix from the spec against the
// emulation's current configurations and settles it once at the current
// state. From then on every convergence drive re-settles it, so the
// matrix's accounting samples user impact at each convergence point.
// Attaching replaces any previous matrix.
func (em *Emulation) AttachTraffic(spec traffic.Spec) error {
	m, err := traffic.NewMatrix(spec, em.Index())
	if err != nil {
		return err
	}
	em.traffic = m
	em.settleTraffic()
	return nil
}

// Traffic returns the attached traffic matrix (nil when none is attached).
func (em *Emulation) Traffic() *traffic.Matrix { return em.traffic }

// SettleTraffic forces one settle of the attached matrix at the current
// state. Convergence drives settle automatically; this hook exists for the
// traffic benchmark and crystalctl, which measure settles in isolation.
func (em *Emulation) SettleTraffic() { em.settleTraffic() }

// settleTraffic settles the attached matrix against the live FIBs, walking
// the aggregates whose paths the writes since the last settle touched. It
// runs outside the event queue — no events scheduled, no randomness drawn
// — so it never perturbs convergence order and the emulation stays
// checkpointable right after.
func (em *Emulation) settleTraffic() {
	if em.traffic == nil || em.cleared {
		return
	}
	em.traffic.Settle(traffic.View{
		Now: em.orch.Eng.Now(),
		Rec: em.orch.Eng.Recorder(),
		Forwarder: func(name string) *dataplane.Forwarder {
			if d := em.Devices[name]; d != nil {
				return d.Forwarder()
			}
			return nil
		},
		Index: em.Index(),
	})
}

// table returns a device's live forwarding table, nil when the device is
// absent or down.
func (em *Emulation) table(name string) *rib.FIB {
	if d := em.Devices[name]; d != nil {
		return d.FIB()
	}
	return nil
}
