package cloud

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"crystalnet/internal/obs"
	"crystalnet/internal/sim"
)

// TestSubmitSizesEmptyCoreFreeSlice pins the coreFree invariant: the
// schedule is either empty or exactly SKU.Cores long, and "empty" includes a
// non-nil zero-length slice (as a defensive copy of an untouched schedule
// produces).
func TestSubmitSizesEmptyCoreFreeSlice(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vm := p.Provision(1, SKUStandard, "g", nil)[0]
	eng.Run(0)
	vm.coreFree = []sim.Time{} // non-nil, empty
	// Submit must lazily size the schedule from this state too.
	for i := 0; i < vm.SKU.Cores; i++ {
		vm.Submit(10, nil)
	}
	if len(vm.coreFree) != vm.SKU.Cores {
		t.Fatalf("coreFree sized to %d, want %d", len(vm.coreFree), vm.SKU.Cores)
	}
}

func TestFailReportsWhetherItFired(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vm := p.Provision(1, SKUStandard, "g", nil)[0]
	if p.Fail(vm) {
		t.Fatal("Fail fired on a Provisioning VM")
	}
	eng.Run(0)
	if !p.Fail(vm) {
		t.Fatal("Fail did not fire on a Running VM")
	}
	if p.Fail(vm) {
		t.Fatal("Fail fired twice on the same failed VM")
	}
	p.Deprovision(vm)
	if p.Fail(vm) {
		t.Fatal("Fail fired on a Stopped VM")
	}
}

func TestDeprovisionMidBootFiresAbortHook(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	var aborted []*VM
	p.OnBootAborted = func(vm *VM) { aborted = append(aborted, vm) }
	vm := p.Provision(1, SKUStandard, "g", func(*VM) {
		t.Fatal("onReady fired for a deprovisioned VM")
	})[0]
	p.Deprovision(vm)
	eng.Run(0)
	if len(aborted) != 1 || aborted[0] != vm {
		t.Fatalf("OnBootAborted fired %d times, want exactly once for the VM", len(aborted))
	}
	if vm.State() != VMStopped {
		t.Fatalf("state = %v, want stopped", vm.State())
	}
}

// supervisedOutcome provisions one VM under the policy with the given seed
// and reports how the boot episode ended.
type supervisedOutcome struct {
	p        *Provider
	vm       *VM // the originally returned handle
	ready    *VM // the VM onReady fired with, nil if never
	readyAt  sim.Time
	replaced int
	aborted  int
}

func runSupervised(seed int64, rp RetryPolicy) supervisedOutcome {
	eng := sim.NewEngine(seed)
	p := NewProvider(eng)
	p.Retry = rp
	out := supervisedOutcome{p: p}
	p.OnReplace = func(old, nv *VM) { out.replaced++ }
	p.OnBootAborted = func(*VM) { out.aborted++ }
	out.vm = p.Provision(1, SKUStandard, "g", func(vm *VM) {
		out.ready = vm
		out.readyAt = eng.Now()
	})[0]
	eng.Run(0)
	return out
}

// TestBootRetryAfterDeadline finds a seed whose first boot draw exceeds the
// deadline and checks the attempt is declared dead at the deadline and
// retried after backoff — deterministically for that seed.
func TestBootRetryAfterDeadline(t *testing.T) {
	// SKUStandard boots in [45s, 75s); a 60s deadline fails ~half of draws.
	rp := RetryPolicy{MaxAttempts: 3, BootDeadline: 60 * time.Second}
	for seed := int64(1); seed <= 64; seed++ {
		out := runSupervised(seed, rp)
		if out.vm.bootAttempts < 2 || out.ready != out.vm {
			continue // first attempt made the deadline, or budget exhausted
		}
		// Found a retried-then-recovered episode.
		if out.ready.State() != VMRunning {
			t.Fatalf("seed %d: VM not running after retry", seed)
		}
		// The failed attempt consumed its full deadline plus backoff
		// before the next draw even started.
		if min := sim.Time(rp.BootDeadline + backoffBase + SKUStandard.BootBase); out.readyAt < min {
			t.Fatalf("seed %d: ready at %v, impossibly early for a retried boot (min %v)", seed, out.readyAt, min)
		}
		if out.replaced != 0 || out.aborted != 0 {
			t.Fatalf("seed %d: replaced=%d aborted=%d during a plain retry", seed, out.replaced, out.aborted)
		}
		// Two same-seed runs retry identically (deterministic jittered backoff).
		again := runSupervised(seed, rp)
		if again.readyAt != out.readyAt || again.vm.bootAttempts != out.vm.bootAttempts {
			t.Fatalf("seed %d: retry path not deterministic: ready %v vs %v", seed, again.readyAt, out.readyAt)
		}
		return
	}
	t.Fatal("no seed in 1..64 produced a retried boot; deadline math is off")
}

// TestReplacementVMAfterBudget exhausts a one-attempt budget and checks the
// workload — onReady and pending WhenRunning waiters — moves to a fresh
// replacement VM.
func TestReplacementVMAfterBudget(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 1, BootDeadline: 60 * time.Second}
	for seed := int64(1); seed <= 64; seed++ {
		eng := sim.NewEngine(seed)
		p := NewProvider(eng)
		p.Retry = rp
		var old, repl *VM
		p.OnReplace = func(o, n *VM) { old, repl = o, n }
		var ready, waited *VM
		vm := p.Provision(1, SKUStandard, "g", func(v *VM) { ready = v })[0]
		vm.WhenRunning(func(v *VM) { waited = v })
		eng.Run(0)
		if repl == nil {
			continue // first draw beat the deadline
		}
		if old != vm || vm.State() != VMStopped {
			t.Fatalf("seed %d: replaced VM is %v in state %v, want original stopped", seed, old, vm.State())
		}
		if repl.State() != VMRunning {
			// The replacement may itself be abandoned on unlucky seeds;
			// covered by TestReplacementAbandonedAfterSecondExhaustion.
			continue
		}
		if ready != repl {
			t.Fatalf("seed %d: onReady fired with %v, want the replacement", seed, ready)
		}
		if waited != repl {
			t.Fatalf("seed %d: WhenRunning waiter got %v, want the replacement", seed, waited)
		}
		if repl.SKU != vm.SKU || repl.Group != vm.Group {
			t.Fatalf("seed %d: replacement SKU/group mismatch", seed)
		}
		return
	}
	t.Fatal("no seed in 1..64 produced a successful replacement")
}

// TestReplacementAbandonedAfterSecondExhaustion sets a deadline no boot can
// meet: the original is replaced once, the replacement exhausts its budget
// too, and the episode is abandoned via OnBootAborted instead of chaining
// replacements forever.
func TestReplacementAbandonedAfterSecondExhaustion(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	p.Retry = RetryPolicy{MaxAttempts: 1, BootDeadline: 30 * time.Second} // < BootBase: unmeetable
	replaced := 0
	p.OnReplace = func(o, n *VM) { replaced++ }
	var aborted *VM
	p.OnBootAborted = func(vm *VM) { aborted = vm }
	vm := p.Provision(1, SKUStandard, "g", func(*VM) {
		t.Fatal("onReady fired under an unmeetable deadline")
	})[0]
	eng.Run(0)
	if replaced != 1 {
		t.Fatalf("replacements = %d, want exactly 1 (no infinite chain)", replaced)
	}
	if aborted == nil || aborted == vm {
		t.Fatalf("OnBootAborted = %v, want the replacement VM", aborted)
	}
	if vm.State() != VMStopped || aborted.State() != VMStopped {
		t.Fatalf("states = %v/%v, want both stopped", vm.State(), aborted.State())
	}
}

// TestSupervisionIsByteInvisibleWhenNoRetryFires checks the determinism
// contract: a retry policy whose deadline no boot exceeds consumes the
// same RNG draws and produces the same boot times as no policy at all.
func TestSupervisionIsByteInvisibleWhenNoRetryFires(t *testing.T) {
	run := func(rp RetryPolicy) []sim.Time {
		eng := sim.NewEngine(42)
		p := NewProvider(eng)
		p.Retry = rp
		var at []sim.Time
		p.Provision(8, SKUStandard, "g", func(*VM) { at = append(at, eng.Now()) })
		eng.Run(0)
		return at
	}
	loose := SKUStandard.BootBase + SKUStandard.BootJitter + time.Second
	a := run(RetryPolicy{})
	b := run(RetryPolicy{MaxAttempts: 3, BootDeadline: loose})
	if len(a) != len(b) || len(a) != 8 {
		t.Fatalf("boot counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("boot %d at %v unsupervised vs %v supervised", i, a[i], b[i])
		}
	}
}

func TestMTBFTimersAreDaemons(t *testing.T) {
	eng := sim.NewEngine(7)
	p := NewProvider(eng)
	p.MTBF = 10 * time.Minute
	vms := p.Provision(5, SKUStandard, "g", nil)
	if _, err := eng.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Boots fired; the armed failure timers must not have kept Run alive.
	for _, vm := range vms {
		if vm.State() != VMRunning {
			t.Fatalf("%s not running after its boot", vm.Name)
		}
	}
	// Only the daemon failure timers stay queued: another Run fires nothing.
	fired := eng.Fired()
	if _, err := eng.Run(0); err != nil || eng.Pending() == 0 || eng.Fired() != fired {
		t.Fatalf("pending=%d, Run fired %d more (%v); want only daemon failure timers queued", eng.Pending(), eng.Fired()-fired, err)
	}
}

// TestForkRearmsArmedFailures: a fork of a provider taken with background
// failures armed — live ones and the stale ones of VMs that failed and
// rebooted — fails the same VMs at the same instants as the source does
// from the same point.
func TestForkRearmsArmedFailures(t *testing.T) {
	eng := sim.NewEngine(7)
	p := NewProvider(eng)
	p.MTBF = 10 * time.Minute
	var log []string
	watch := func(p *Provider) {
		p.OnFailure = func(vm *VM) {
			log = append(log, fmt.Sprintf("%s@%s", vm.Name, p.eng.Now()))
			p.Reboot(vm, nil)
		}
	}
	watch(p)
	p.Provision(5, SKUStandard, "g", nil)
	eng.RunFor(15 * time.Minute)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("no failure before the snapshot")
	}
	if eng.Pending() != p.ArmedFailures() {
		t.Fatalf("%d events pending, %d failures armed", eng.Pending(), p.ArmedFailures())
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c := p.Fork(sim.NewEngineFrom(st))
	watch(c)
	log = nil
	eng.RunFor(2 * time.Hour)
	want := log

	log = nil
	c.eng.RunFor(2 * time.Hour)
	if len(want) == 0 || !slices.Equal(log, want) {
		t.Fatalf("fork failed %v, source %v", log, want)
	}
}

func TestRetryCountersRecorded(t *testing.T) {
	rec := obs.New()
	rp := RetryPolicy{MaxAttempts: 1, BootDeadline: 30 * time.Second} // unmeetable
	eng := sim.NewEngine(3)
	eng.SetRecorder(rec)
	p := NewProvider(eng)
	p.Retry = rp
	p.Provision(1, SKUStandard, "g", nil)
	eng.Run(0)
	if n := rec.Counter("cloud.boot_deadline_expired", "g").Value(); n != 2 {
		t.Fatalf("boot_deadline_expired = %d, want 2 (original + replacement)", n)
	}
	if n := rec.Counter("cloud.vm_replacements", "g").Value(); n != 1 {
		t.Fatalf("vm_replacements = %d, want 1", n)
	}
	if n := rec.Counter("cloud.boot_abandoned", "g").Value(); n != 1 {
		t.Fatalf("boot_abandoned = %d, want 1", n)
	}
}
