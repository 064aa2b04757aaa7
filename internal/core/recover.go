package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/cloud"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/topo"
)

// ---- alerts and VM recovery (§6.2) ----

func (em *Emulation) alert(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	em.orch.Eng.Recorder().Event("alert", msg)
	em.Alerts = append(em.Alerts, fmt.Sprintf("[%s] ", em.orch.Eng.Now())+msg)
}

// vmRecovery tracks one VM's §6.2 auto-recovery episode from first failure
// to all devices rebuilt. Re-failures mid-recovery re-arm the same episode:
// epoch invalidates rebuild jobs already in flight (instead of letting them
// double-decrement pending), and the optional deadline bounds the whole
// episode no matter how many times it re-fails.
type vmRecovery struct {
	affected []string
	start    sim.Time // first failure (episode start)
	reset    sim.Time // latest device-reset phase start (the §8.3 metric)
	epoch    int      // bumped on re-failure/abandon; stale jobs no-op
	pending  int
	refails  int
	deadline *sim.Timer
}

// onVMFailure is the §6.2 auto-recovery path: reboot the VM, then reset its
// devices and links (the 10-50 s phase measured in §8.3). A failure of a VM
// already under recovery — a queued fault firing the instant the VM came
// back, or a random MTBF draw landing mid-episode — re-arms the episode.
func (em *Emulation) onVMFailure(vm *cloud.VM) {
	if em.cleared {
		return
	}
	if rec := em.recovering[vm]; rec != nil {
		rec.epoch++ // in-flight rebuild jobs are now stale
		rec.refails++
		rec.pending = 0
		em.orch.Eng.Recorder().Counter("vm.recovery_refailures", "").Inc()
		em.alert("VM %s failed again during recovery (re-failure %d); re-arming", vm.Name, rec.refails)
		em.crashAffected(rec.affected)
		em.rebootForRecovery(vm, rec)
		return
	}
	em.alert("VM %s failed; rebooting", vm.Name)
	var affected []string
	for name, v := range em.vmOf {
		if v == vm {
			affected = append(affected, name)
		}
	}
	sort.Strings(affected)
	rec := &vmRecovery{affected: affected, start: em.orch.Eng.Now()}
	em.recovering[vm] = rec
	if d := em.orch.opts.RecoveryDeadline; d > 0 {
		rec.deadline = em.orch.Eng.After(d, func() {
			em.abandonRecovery(vm, rec, fmt.Sprintf("recovery deadline %s exceeded", d))
		})
	}
	em.crashAffected(affected)
	em.rebootForRecovery(vm, rec)
}

// crashAffected marks a failed VM's devices dead and drops their links.
// Safe to repeat on re-failure: Crash and SetLinkState(false) are no-ops
// on already-crashed devices and already-down links.
func (em *Emulation) crashAffected(affected []string) {
	for _, name := range affected {
		em.Devices[name].Crash("VM failure")
		em.dropDeviceLinks(name)
	}
}

// rebootForRecovery asks the cloud to bring the episode's VM back and, once
// some VM is Running for it (possibly a replacement), starts the device
// reset phase — unless the episode was re-armed or abandoned meanwhile.
func (em *Emulation) rebootForRecovery(vm *cloud.VM, rec *vmRecovery) {
	epoch := rec.epoch
	em.orch.Cloud.Reboot(vm, func(host *cloud.VM) {
		if em.cleared || rec.epoch != epoch {
			return
		}
		em.beginDeviceReset(host, rec)
	})
}

// beginDeviceReset rebuilds every affected device's container on the
// now-running host. Each job captures the episode epoch: a re-failure or
// abandon bumps it, turning jobs from the superseded wave into no-ops
// instead of double-decrementing pending.
func (em *Emulation) beginDeviceReset(host *cloud.VM, rec *vmRecovery) {
	rec.reset = em.orch.Eng.Now()
	rec.pending = len(rec.affected)
	epoch := rec.epoch
	if rec.pending == 0 {
		em.finishRecovery(host, rec)
		return
	}
	for _, name := range rec.affected {
		name := name
		host.Submit(recoverWorkPerBox, func() {
			if em.cleared || rec.epoch != epoch {
				return
			}
			em.rebuildContainer(name)
			// Speakers must replay their recorded announcements after the
			// reboot, or the boundary routes they stand in for are silently
			// lost until the run ends (Start = Boot + Inject).
			if sp := em.Speakers[name]; sp != nil {
				sp.Start(nil)
			} else {
				em.Devices[name].Boot(nil)
			}
			rec.pending--
			if rec.pending == 0 {
				em.finishRecovery(host, rec)
			}
		})
	}
}

// finishRecovery closes a recovery episode: records the device-reset
// latency (the §8.3 metric — VM boot time is excluded, matching how
// production measures the recovery agent), cancels the deadline, and
// retires the episode.
func (em *Emulation) finishRecovery(host *cloud.VM, rec *vmRecovery) {
	rec.deadline.Cancel()
	delete(em.recovering, host)
	dur := em.orch.Eng.Now().Sub(rec.reset)
	em.recoveries = append(em.recoveries, dur)
	em.orch.Eng.Recorder().Histogram("vm.recovery_seconds", "").Observe(dur.Seconds())
	em.orch.Eng.Recorder().SpanAt("recover", host.Name, int64(rec.reset), int64(em.orch.Eng.Now()))
	if rec.refails > 0 {
		em.alert("VM %s recovered (%d devices reset in %s, after %d re-failures)",
			host.Name, len(rec.affected), dur, rec.refails)
	} else {
		em.alert("VM %s recovered (%d devices reset in %s)",
			host.Name, len(rec.affected), dur)
	}
}

// abandonRecovery gives an episode up — the deadline expired, or the cloud
// reported the boot can never complete (VM deprovisioned mid-reboot,
// replacement abandoned). The affected devices stay crashed; instead of a
// silent deadlock, the episode lands in Degraded() and the alert stream,
// and wait-converge completes.
func (em *Emulation) abandonRecovery(vm *cloud.VM, rec *vmRecovery, why string) {
	if em.cleared || em.recovering[vm] != rec {
		return
	}
	rec.epoch++ // strand any in-flight rebuild jobs
	rec.deadline.Cancel()
	delete(em.recovering, vm)
	em.orch.Eng.Recorder().Counter("vm.recovery_abandoned", "").Inc()
	summary := fmt.Sprintf("VM %s: %s after %s; %d devices degraded: %s",
		vm.Name, why, em.orch.Eng.Now().Sub(rec.start), len(rec.affected), strings.Join(rec.affected, ", "))
	em.degraded = append(em.degraded, summary)
	em.alert("%s", summary)
}

// onVMReplaced re-points placement at a replacement VM: the fabric gains a
// host for it (same domain), affected containers and devices move over,
// and the group/recovery/queued-fault bookkeeping is rekeyed so rebuilds
// and pending faults land on the VM that actually runs the workload.
func (em *Emulation) onVMReplaced(old, nv *cloud.VM) {
	if em.cleared {
		return
	}
	em.alert("VM %s gave up booting; replaced by %s", old.Name, nv.Name)
	oldHost := em.Fabric.Host(old.Name)
	h := em.Fabric.AddHost(nv.Name)
	if oldHost != nil {
		// The replacement inherits the failed VM's domain so its devices
		// keep draining on the engine that owns their state.
		h.Domain = oldHost.Domain
	}
	var moved []string
	for name, v := range em.vmOf {
		if v == old {
			moved = append(moved, name)
		}
	}
	sort.Strings(moved)
	for _, name := range moved {
		em.vmOf[name] = nv
		if oldHost != nil {
			oldHost.RemoveContainer(name)
		}
		if dev := em.Devices[name]; dev != nil {
			dev.AssignVM(nv)
		}
	}
	// In-place swap keeps prep.assignments' (group, index) addressing valid.
	for g, vms := range em.prep.groupVMs {
		for i, v := range vms {
			if v == old {
				em.prep.groupVMs[g][i] = nv
			}
		}
	}
	if rec := em.recovering[old]; rec != nil {
		delete(em.recovering, old)
		em.recovering[nv] = rec
	}
	if n := em.pendingFaults[old]; n > 0 {
		delete(em.pendingFaults, old)
		em.pendingFaults[nv] += n
	}
}

// onBootAborted handles the cloud's "this boot can never complete" signal:
// a VM deprovisioned during its (re)boot window, or a replacement VM that
// exhausted its own attempt budget. Without it the episode's onReady would
// simply never fire — the silent recovery deadlock this layer removes.
func (em *Emulation) onBootAborted(vm *cloud.VM) {
	if em.cleared {
		return
	}
	if rec := em.recovering[vm]; rec != nil {
		em.abandonRecovery(vm, rec, "VM boot aborted ("+vm.State().String()+")")
	}
}

// dropDeviceLinks cuts every emulated link touching the named device and
// notifies surviving neighbors.
func (em *Emulation) dropDeviceLinks(name string) {
	em.deviceLinks(name, func(k linkKey, _, remote *topo.Interface, _ *phynet.VIface) {
		if vl := em.vlinks[k]; vl != nil {
			em.Fabric.SetLinkState(vl, false)
		}
		if rdev := em.Devices[remote.Device.Name]; rdev != nil {
			rdev.LinkDown(remote.Name)
		}
	})
}

// Recoveries returns measured VM-recovery durations (§8.3).
func (em *Emulation) Recoveries() []time.Duration { return em.recoveries }

// Degraded returns the degraded-mode summaries of recovery episodes that
// were abandoned (deadline exceeded or boot aborted) instead of completing.
func (em *Emulation) Degraded() []string { return em.degraded }

// FaultsPending returns how many injected VM faults are still queued,
// waiting for their VM to reach Running. A nonzero value at the end of a
// run means injected faults never actually happened — the scenario layer
// surfaces (and fails on) it rather than letting them vanish.
func (em *Emulation) FaultsPending() int {
	n := 0
	for _, c := range em.pendingFaults {
		n += c
	}
	return n
}

// FaultOutcome reports what InjectVMFailure did with a fault.
type FaultOutcome int

// Fault outcomes.
const (
	// FaultFired: the VM was Running and failed on the spot.
	FaultFired FaultOutcome = iota
	// FaultQueued: the VM was Provisioning or already Failed; the fault is
	// armed to fire on its next transition to Running (tracked by
	// FaultsPending until then).
	FaultQueued
)

// String names the outcome.
func (o FaultOutcome) String() string {
	if o == FaultQueued {
		return "queued"
	}
	return "fired"
}

// InjectVMFailure fails the VM hosting the named device — the §6.2 failure
// drill a scenario triggers on demand instead of waiting for the cloud's
// random failure process. Recovery is automatic (onVMFailure) and its
// latency lands in Recoveries().
//
// A fault is never silently dropped: if the VM is Running it fires now; if
// it is Provisioning or Failed (for example mid-recovery from an earlier
// fault) it is queued to fire the moment the VM — or its replacement — is
// Running again; if it is deprovisioned the fault is impossible and a
// distinct error says so.
func (em *Emulation) InjectVMFailure(device string) (FaultOutcome, error) {
	vm := em.vmOf[device]
	if vm == nil {
		return 0, fmt.Errorf("core: no VM hosts device %q", device)
	}
	if em.orch.Cloud.Fail(vm) {
		em.orch.Eng.Recorder().Counter("vm.faults_fired", "").Inc()
		return FaultFired, nil
	}
	if vm.State() == cloud.VMStopped {
		return 0, fmt.Errorf("core: VM %s hosting %q is deprovisioned; fault cannot fire", vm.Name, device)
	}
	em.queueFault(vm)
	em.orch.Eng.Recorder().Counter("vm.faults_queued", "").Inc()
	return FaultQueued, nil
}

// queueFault arms a fault to fire when vm next reaches Running. The waiter
// travels with the workload: if the boot is satisfied by a replacement VM,
// the fault fires on the replacement (and the pending count, rekeyed by
// onVMReplaced, is decremented on whichever VM delivered it).
func (em *Emulation) queueFault(vm *cloud.VM) {
	em.pendingFaults[vm]++
	vm.WhenRunning(func(running *cloud.VM) {
		if em.pendingFaults[running] > 0 {
			em.pendingFaults[running]--
			if em.pendingFaults[running] == 0 {
				delete(em.pendingFaults, running)
			}
		}
		if em.cleared {
			return
		}
		em.orch.Cloud.Fail(running)
	})
}

// VMName reports which VM hosts the named device ("" for hardware devices
// and unknown names) — scenario reports use it to label failure drills.
func (em *Emulation) VMName(device string) string {
	if vm := em.vmOf[device]; vm != nil {
		return vm.Name
	}
	return ""
}
