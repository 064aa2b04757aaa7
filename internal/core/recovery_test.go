package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"crystalnet/internal/cloud"
	"crystalnet/internal/firmware"
)

func alertContaining(em *Emulation, substr string) int {
	n := 0
	for _, a := range em.Alerts {
		if strings.Contains(a, substr) {
			n++
		}
	}
	return n
}

// TestDoubleFailureDuringRecovery injects a second fault while the first
// recovery is still rebooting the VM. The old code silently dropped it
// (Fail no-ops on a non-Running VM); now it is queued, fires the moment
// the VM comes back, and the recovery state machine re-arms the episode
// instead of double-decrementing its pending count.
func TestDoubleFailureDuringRecovery(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 5})
	defer o.Destroy(em.prep)

	out, err := em.InjectVMFailure("tor-p0-0")
	if err != nil || out != FaultFired {
		t.Fatalf("first fault: %v, %v; want fired", out, err)
	}
	// The VM is already rebooting; the second fault must queue, not vanish.
	out, err = em.InjectVMFailure("tor-p0-0")
	if err != nil || out != FaultQueued {
		t.Fatalf("second fault: %v, %v; want queued", out, err)
	}
	if em.FaultsPending() != 1 {
		t.Fatalf("FaultsPending = %d, want 1", em.FaultsPending())
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if em.FaultsPending() != 0 {
		t.Fatalf("FaultsPending = %d after convergence, want 0 (fault was lost)", em.FaultsPending())
	}
	if n := alertContaining(em, "failed again during recovery"); n != 1 {
		t.Fatalf("re-failure alerts = %d, want 1: %v", n, em.Alerts)
	}
	// One merged episode: the re-failure extends the first recovery rather
	// than fabricating a second entry.
	if recs := em.Recoveries(); len(recs) != 1 {
		t.Fatalf("recoveries = %v, want one merged episode", recs)
	}
	if alertContaining(em, "after 1 re-failures") != 1 {
		t.Fatalf("recovery alert does not record the re-failure: %v", em.Alerts)
	}
	if len(em.recovering) != 0 {
		t.Fatalf("recovering map not drained: %d entries", len(em.recovering))
	}
	if em.Devices["tor-p0-0"].State() != firmware.DeviceRunning {
		t.Fatalf("device state %v after double-failure recovery", em.Devices["tor-p0-0"].State())
	}
	if em.Devices["tor-p0-0"].PullStates().Established != 2 {
		t.Fatal("sessions not re-established after double-failure recovery")
	}
}

// TestFailWhileProvisioningQueues lands the second fault mid-boot-window
// (the VM is Provisioning, not just Failed) and checks nothing is lost.
func TestFailWhileProvisioningQueues(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 7})
	defer o.Destroy(em.prep)

	if _, err := em.InjectVMFailure("leaf-p0-0"); err != nil {
		t.Fatal(err)
	}
	vm := em.vmFor("leaf-p0-0")
	o.Eng.RunFor(10 * time.Second) // deep inside the 45-75s reboot window
	if vm.State() != cloud.VMProvisioning {
		t.Fatalf("VM state %v mid-reboot, want provisioning", vm.State())
	}
	out, err := em.InjectVMFailure("leaf-p0-0")
	if err != nil || out != FaultQueued {
		t.Fatalf("fault on provisioning VM: %v, %v; want queued", out, err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if em.FaultsPending() != 0 {
		t.Fatalf("FaultsPending = %d, want 0", em.FaultsPending())
	}
	if em.Devices["leaf-p0-0"].State() != firmware.DeviceRunning {
		t.Fatal("device not running after queued fault recovered")
	}
	if len(em.Recoveries()) == 0 {
		t.Fatal("no recovery recorded")
	}
}

// TestDeprovisionMidRebootAbandonsRecovery kills the VM for good during
// its recovery boot window. The old code left the devices crashed forever
// with no alert; now the cloud's abort signal abandons the episode into
// degraded mode and convergence still completes.
func TestDeprovisionMidRebootAbandonsRecovery(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 3})
	defer o.Destroy(em.prep)

	if _, err := em.InjectVMFailure("tor-p0-0"); err != nil {
		t.Fatal(err)
	}
	vm := em.vmFor("tor-p0-0")
	o.Eng.RunFor(10 * time.Second)
	o.Cloud.Deprovision(vm)
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err) // must converge, not wedge on a boot that never comes
	}
	if len(em.Degraded()) != 1 {
		t.Fatalf("Degraded = %v, want one abandoned episode", em.Degraded())
	}
	if !strings.Contains(em.Degraded()[0], "tor-p0-0") {
		t.Fatalf("degraded summary does not name the device: %q", em.Degraded()[0])
	}
	if alertContaining(em, "degraded") == 0 {
		t.Fatalf("no degraded-mode alert: %v", em.Alerts)
	}
	if len(em.Recoveries()) != 0 {
		t.Fatalf("recoveries = %v for an abandoned episode, want none", em.Recoveries())
	}
	// The devices are honestly crashed, and a further fault on the dead VM
	// is a distinct, visible error.
	if em.Devices["tor-p0-0"].State() != firmware.DeviceCrashed {
		t.Fatal("device resurrected without a VM")
	}
	if _, err := em.InjectVMFailure("tor-p0-0"); err == nil || !strings.Contains(err.Error(), "deprovisioned") {
		t.Fatalf("fault on deprovisioned VM: %v, want deprovisioned error", err)
	}
}

// TestRecoveryDeadlineDegradedMode bounds an episode with a deadline far
// shorter than any VM reboot: the episode is abandoned at the deadline and
// the late boot cannot resurrect it (its epoch is stale).
func TestRecoveryDeadlineDegradedMode(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 5, RecoveryDeadline: time.Second})
	defer o.Destroy(em.prep)

	if _, err := em.InjectVMFailure("tor-p0-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if len(em.Degraded()) != 1 || !strings.Contains(em.Degraded()[0], "deadline") {
		t.Fatalf("Degraded = %v, want one deadline-exceeded episode", em.Degraded())
	}
	if len(em.Recoveries()) != 0 {
		t.Fatalf("recoveries = %v, want none (episode abandoned)", em.Recoveries())
	}
	// The VM itself came back (the cloud reboot was never canceled), but
	// the abandoned episode must not have run its device resets.
	if vm := em.vmFor("tor-p0-0"); vm.State() != cloud.VMRunning {
		t.Fatalf("VM state %v, want running", vm.State())
	}
	if em.Devices["tor-p0-0"].State() != firmware.DeviceCrashed {
		t.Fatal("stale recovery wave ran despite the abandoned episode")
	}
}

// TestRecoveryDeadlineGenerousCompletes checks the deadline is inert when
// recovery beats it: same seed as TestVMFailureRecovery, same outcome.
func TestRecoveryDeadlineGenerousCompletes(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 2, RecoveryDeadline: 10 * time.Minute})
	defer o.Destroy(em.prep)

	if _, err := em.InjectVMFailure("tor-p0-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if len(em.Degraded()) != 0 {
		t.Fatalf("Degraded = %v under a generous deadline", em.Degraded())
	}
	if len(em.Recoveries()) != 1 {
		t.Fatalf("recoveries = %v, want 1", em.Recoveries())
	}
	if em.Devices["tor-p0-0"].State() != firmware.DeviceRunning {
		t.Fatal("device not recovered")
	}
}

// TestMTBFConvergesWithDaemonTimers is the daemon-event contract at the
// core layer: with random failures armed, RunUntilConverged must still
// reach quiescence (the failure timers stay queued as daemons).
func TestMTBFConvergesWithDaemonTimers(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 11, MTBF: 6 * time.Hour})
	defer o.Destroy(em.prep)
	if o.Eng.Pending() == 0 {
		t.Fatal("no daemon failure timers armed despite MTBF")
	}
	// Only daemons remain queued: another Run fires nothing.
	fired := o.Eng.Fired()
	if _, err := o.Eng.Run(0); err != nil || o.Eng.Fired() != fired {
		t.Fatalf("converged with non-daemon events pending: Run fired %d more (%v)", o.Eng.Fired()-fired, err)
	}
	for _, name := range []string{"tor-p0-0", "leaf-p0-0"} {
		if em.Devices[name].State() != firmware.DeviceRunning {
			t.Fatalf("%s not running after converge with MTBF armed", name)
		}
	}
	// The armed failures cross a checkpoint: the fork re-arms every one.
	snap, err := em.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := fork.Orchestrator().Eng.Pending(); got != o.Eng.Pending() {
		t.Fatalf("fork has %d failures armed, parent %d", got, o.Eng.Pending())
	}
}

// TestSupervisedMockupConverges turns the retry layer on for the initial
// mockup with a deadline tight enough to force retries and replacements on
// some VMs, and checks the emulation still converges with every device
// running — waiters and placement follow replacements transparently.
func TestSupervisedMockupConverges(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		o, em := fullEmulation(t, Options{
			Seed:  seed,
			Retry: cloud.RetryPolicy{MaxAttempts: 2, BootDeadline: 50 * time.Second},
		})
		replaced := alertContaining(em, "replaced by")
		for name, d := range em.Devices {
			if d.State() != firmware.DeviceRunning {
				t.Fatalf("seed %d: %s not running (replacements: %d)", seed, name, replaced)
			}
		}
		o.Destroy(em.prep)
		if replaced > 0 {
			return // exercised the replacement path end-to-end
		}
	}
	t.Fatal("no seed in 1..16 forced a VM replacement during mockup; tighten the deadline")
}

// TestLostFaultAlertedAtClear checks a queued fault that can never fire
// (its VM died for good) is loudly surfaced at teardown instead of
// evaporating.
func TestLostFaultAlertedAtClear(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 3})
	defer o.Destroy(em.prep)

	if _, err := em.InjectVMFailure("tor-p0-0"); err != nil {
		t.Fatal(err)
	}
	if out, err := em.InjectVMFailure("tor-p0-0"); err != nil || out != FaultQueued {
		t.Fatalf("second fault: %v, %v", out, err)
	}
	vm := em.vmFor("tor-p0-0")
	o.Eng.RunFor(10 * time.Second)
	o.Cloud.Deprovision(vm) // the queued fault's VM never runs again
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	if em.FaultsPending() != 1 {
		t.Fatalf("FaultsPending = %d, want 1 (fault can never fire)", em.FaultsPending())
	}
	em.Clear(nil)
	if alertContaining(em, "never fired") != 1 {
		t.Fatalf("no lost-fault alert at Clear: %v", em.Alerts)
	}
}

// TestSpeakerVMRecoveryReinjectsRoutes pins the speaker-recovery bug: a
// failure of the VM hosting a boundary speaker must replay the speaker's
// recorded announcements after the reboot, or every WAN route it stands in
// for silently vanishes from the fabric for the rest of the run.
func TestSpeakerVMRecoveryReinjectsRoutes(t *testing.T) {
	o, em := fullEmulation(t, Options{Seed: 4})
	defer o.Destroy(em.prep)

	spk := em.prep.Plan.Speakers[0]
	if !em.Devices[spk].Image.StaticSpeaker {
		t.Fatalf("%s does not run the speaker image", spk)
	}
	base := em.Save()

	if _, err := em.InjectVMFailure(spk); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		t.Fatal(err)
	}
	diffs := em.DiffAgainst(base)
	total := 0
	for _, d := range diffs {
		total += len(d)
	}
	if total != 0 {
		t.Fatalf("%d FIB differences after speaker VM recovery (recorded routes not re-injected): %v",
			total, diffs)
	}
}

// TestVMReplacedDuringRecovery fails a VM after the mockup under a
// supervised reboot of one attempt, which a 45-75 s boot misses about half
// the time, so the cloud replaces the VM mid-recovery. Placement follows the
// replacement through the shared (group, index) slot with nothing to rekey.
// Between the replacement and the rebuild the moved devices have no
// container, so a link to one of them is not an emulated link; afterwards
// they run in containers on the replacement's host, their links answer
// SetLink, and Clear charges the replacement, not the stopped VM.
func TestVMReplacedDuringRecovery(t *testing.T) {
	const dev = "tor-p0-0"
	for seed := int64(1); seed <= 16; seed++ {
		o, em := fullEmulation(t, Options{Seed: seed})
		o.Cloud.Retry = cloud.RetryPolicy{MaxAttempts: 1, BootDeadline: 60 * time.Second}
		old := em.vmFor(dev)
		moved := em.devicesOn(old)
		if _, err := em.InjectVMFailure(dev); err != nil {
			t.Fatal(err)
		}
		o.Eng.RunFor(61 * time.Second) // past the reboot's deadline
		if alertContaining(em, "replaced by") == 0 {
			continue // the reboot made its deadline
		}
		nv := em.vmFor(dev)
		if nv == old || !slices.Equal(em.devicesOn(nv), moved) {
			t.Fatalf("seed %d: placement on %v after the replacement, want %v on a new VM", seed, em.devicesOn(nv), moved)
		}
		intf := em.Network().MustDevice(dev).Interfaces[0]
		for _, name := range moved {
			if em.container(name) != nil || em.Fabric.Host(old.Name).Container(name) != nil {
				t.Fatalf("seed %d: %s has a container before its rebuild", seed, name)
			}
		}
		if err := em.SetLink(dev, intf.Name, intf.Peer.Device.Name, intf.Peer.Name, false); err == nil {
			t.Fatalf("seed %d: SetLink on a link of %s before its rebuild succeeded", seed, dev)
		}

		if _, err := em.RunUntilConverged(0); err != nil {
			t.Fatal(err)
		}
		if len(em.Degraded()) > 0 {
			continue // the replacement missed its deadline too
		}
		for _, name := range moved {
			c := em.container(name)
			if c == nil || c.Host.Name != nv.Name || !c.Attached() || em.Devices[name].State() != firmware.DeviceRunning {
				t.Fatalf("seed %d: %s not running in a container on %s", seed, name, nv.Name)
			}
		}
		for _, up := range []bool{false, true} {
			if err := em.SetLink(dev, intf.Name, intf.Peer.Device.Name, intf.Peer.Name, up); err != nil {
				t.Fatalf("seed %d: SetLink(%v) after the rebuild: %v", seed, up, err)
			}
			if _, err := em.RunUntilConverged(0); err != nil {
				t.Fatal(err)
			}
		}
		if got := em.Devices[dev].PullStates().Established; got != 2 {
			t.Fatalf("seed %d: %s has %d sessions after the link came back, want 2", seed, dev, got)
		}

		// Clear charges clearWorkPerBox per moved device to the replacement.
		from := int(o.Eng.Now().Seconds() / 60)
		em.Clear(nil)
		o.Eng.Run(0)
		charged := func(vm *cloud.VM) (cs float64) {
			for m := from; m <= int(em.ClearedAt.Seconds()/60); m++ {
				cs += vm.Utilization(m) * 60 * float64(vm.SKU.Cores)
			}
			return cs
		}
		if got, want := charged(nv), clearWorkPerBox*float64(len(moved)); math.Abs(got-want) > 1e-6 || charged(old) != 0 {
			t.Fatalf("seed %d: Clear charged %.3f core-s to %s (want %.3f) and %.3f to the stopped %s",
				seed, got, nv.Name, want, charged(old), old.Name)
		}
		return
	}
	t.Fatal("no seed in 1..16 replaced the VM and recovered on the replacement; loosen the deadline")
}
