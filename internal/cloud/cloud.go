// Package cloud simulates the public-cloud substrate CrystalNet provisions
// emulation VMs on (§3.1, §6.1): VM SKUs with cores/memory/nested-VM
// capability, provisioning and boot latencies, per-hour pricing, random VM
// failures, and a per-VM CPU meter that backs the Figure 9 utilization
// curves.
//
// This replaces Azure in the paper's setup; latency and price constants are
// calibrated to the numbers the paper reports (4-core/8GB at USD 0.20/hour,
// ~100 USD/hour for a 500-VM L-DC emulation).
//
// DESIGN.md §1 records this substitution (simulated cloud for Azure); §3
// indexes Figure 9.
package cloud

import (
	"fmt"
	"time"

	"crystalnet/internal/obs"
	"crystalnet/internal/sim"
)

// SKU describes a VM type.
type SKU struct {
	Name         string
	Cores        int
	MemoryGB     int
	NestedVM     bool // required for VM-based vendor images (§4.1)
	PricePerHour float64
	// BootBase/BootJitter model provisioning + boot latency.
	BootBase   time.Duration
	BootJitter time.Duration
}

// Standard SKUs used by the orchestrator (§6.1: typically 4-core 8 or 16GB).
var (
	SKUStandard = SKU{Name: "D4-8", Cores: 4, MemoryGB: 8, PricePerHour: 0.20,
		BootBase: 45 * time.Second, BootJitter: 30 * time.Second}
	SKUNested = SKU{Name: "D4-8-nested", Cores: 4, MemoryGB: 8, NestedVM: true, PricePerHour: 0.20,
		BootBase: 60 * time.Second, BootJitter: 30 * time.Second}
	SKULarge = SKU{Name: "D4-16", Cores: 4, MemoryGB: 16, PricePerHour: 0.24,
		BootBase: 45 * time.Second, BootJitter: 30 * time.Second}
)

// VMState is a VM lifecycle state.
type VMState uint8

// VM lifecycle states.
const (
	VMProvisioning VMState = iota
	VMRunning
	VMFailed
	VMStopped
)

var vmStateNames = [...]string{"provisioning", "running", "failed", "stopped"}

// String returns the state name.
func (s VMState) String() string {
	if int(s) < len(vmStateNames) {
		return vmStateNames[s]
	}
	return "unknown"
}

// VM is one provisioned virtual machine.
type VM struct {
	ID    int
	Name  string
	SKU   SKU
	Group string // vendor group label (§6.2 anti-affinity)

	state       VMState
	provisioned sim.Time // when provisioning started
	started     sim.Time // when it entered Running
	stopped     sim.Time
	runAccum    time.Duration // accumulated running time before last start

	// busy accumulates core-seconds of work per minute bucket for the
	// Figure 9 CPU model.
	busy map[int]float64

	// coreFree[i] is the virtual time core i becomes available; the Submit
	// scheduler assigns jobs to the earliest-free core.
	coreFree []sim.Time

	waiters []func(*VM)

	// bootAttempts counts boot attempts for the VM's current provisioning
	// episode (reset on each Provision/Reboot, grown by retry).
	bootAttempts int

	provider *Provider
}

// WhenRunning invokes fn once a VM is Running — immediately (as a
// scheduled event) if it already is, else on its next transition to
// Running. The callback receives the VM that actually came up: under a
// retry policy a boot that exhausts its attempt budget is satisfied by a
// replacement VM, and pending waiters follow the workload there.
func (vm *VM) WhenRunning(fn func(*VM)) {
	if vm.state == VMRunning {
		vm.provider.eng.After(0, func() { fn(vm) })
		return
	}
	vm.waiters = append(vm.waiters, fn)
}

func (vm *VM) becameRunning() {
	ws := vm.waiters
	vm.waiters = nil
	for _, fn := range ws {
		fn(vm)
	}
}

// Submit queues coreSeconds of single-threaded CPU work on the VM and
// invokes done when it completes. Jobs are scheduled work-conserving across
// the VM's cores: packing many emulated devices on one VM stretches their
// boot and route-processing times, which is exactly the VM-count effect
// Figure 8 measures.
func (vm *VM) Submit(coreSeconds float64, done func()) {
	vm.SubmitOn(vm.provider.eng, coreSeconds, done)
}

// SubmitOn is Submit with an explicit scheduling engine: in a sharded
// emulation (DESIGN.md §10) each device submits work via its own domain
// engine, so the completion event lands on the queue the device drains.
// The VM's core schedule is engine-agnostic — a VM's devices all live in
// one domain, so coreFree is still mutated single-threaded.
func (vm *VM) SubmitOn(eng *sim.Engine, coreSeconds float64, done func()) {
	_, end := vm.Reserve(eng.Now(), coreSeconds)
	if done != nil {
		eng.At(end, done)
	}
}

// Reserve books coreSeconds of work submitted at now on the earliest-free
// core, as Submit does, and returns that core and when the work completes,
// for a submitter that queues the completion itself. A core's completion
// times never decrease, so a queue per core is in time order (sim.Lane).
func (vm *VM) Reserve(now sim.Time, coreSeconds float64) (core int, end sim.Time) {
	if coreSeconds <= 0 {
		coreSeconds = 1e-6
	}
	if len(vm.coreFree) == 0 {
		vm.coreFree = make([]sim.Time, vm.SKU.Cores)
	}
	// Earliest-free core.
	best := 0
	for i := 1; i < len(vm.coreFree); i++ {
		if vm.coreFree[i] < vm.coreFree[best] {
			best = i
		}
	}
	start := vm.coreFree[best]
	if start < now {
		start = now
	}
	end = start.Add(time.Duration(coreSeconds * float64(time.Second)))
	vm.coreFree[best] = end
	vm.RecordWork(start, coreSeconds, 1)
	return best, end
}

// QueueDelay returns how far in the future the earliest-free core is — a
// measure of CPU backlog.
//
// Invariant: coreFree is either empty (no Submit yet — it is lazily sized
// to SKU.Cores by the first Submit) or has exactly SKU.Cores entries.
// "Empty" includes a non-nil zero-length slice (e.g. a defensive copy of
// an untouched schedule), so the guard is on length, not nil-ness.
func (vm *VM) QueueDelay() time.Duration {
	if len(vm.coreFree) == 0 {
		return 0
	}
	now := vm.provider.eng.Now()
	best := vm.coreFree[0]
	for _, t := range vm.coreFree[1:] {
		if t < best {
			best = t
		}
	}
	if best <= now {
		return 0
	}
	return best.Sub(now)
}

// State returns the VM's lifecycle state.
func (vm *VM) State() VMState { return vm.state }

// Uptime returns total running time as of now.
func (vm *VM) Uptime() time.Duration {
	d := vm.runAccum
	if vm.state == VMRunning {
		d += vm.provider.eng.Now().Sub(vm.started)
	}
	return d
}

// RecordWork accounts coreSeconds of CPU consumption starting at t,
// spreading it across minute buckets at the given core intensity
// (cores ≤ SKU.Cores). Used by the orchestrator's work model.
func (vm *VM) RecordWork(t sim.Time, coreSeconds float64, cores float64) {
	if cores <= 0 {
		cores = 1
	}
	if cores > float64(vm.SKU.Cores) {
		cores = float64(vm.SKU.Cores)
	}
	sec := t.Seconds()
	remaining := coreSeconds
	for remaining > 1e-9 {
		minute := int(sec / 60)
		room := (float64(minute+1)*60 - sec) * cores // core-seconds until bucket end
		use := remaining
		if use > room {
			use = room
		}
		vm.busy[minute] += use
		remaining -= use
		sec = float64(minute+1) * 60
	}
}

// Utilization returns the fraction of the VM's CPU capacity consumed during
// the given minute (0-based from simulation start), capped at 1.
func (vm *VM) Utilization(minute int) float64 {
	u := vm.busy[minute] / (60 * float64(vm.SKU.Cores))
	if u > 1 {
		return 1
	}
	return u
}

// RetryPolicy bounds cloud boot operations (§6.2 hardening). The zero
// value disables supervision and reproduces the unsupervised legacy
// behavior byte-for-byte: one boot attempt, no deadline, no replacement.
//
// With BootDeadline set, every Provision/Reboot attempt must come up
// within the deadline. An attempt whose (jittered) boot draw exceeds it is
// declared dead at the deadline and retried after an exponential backoff —
// BackoffBase doubled per attempt, capped at BackoffMax, jittered from the
// engine's PCG stream so retries stay deterministic per seed. After
// MaxAttempts the VM is given up on and a replacement VM of the same
// SKU/group is provisioned in its place (announced via Provider.OnReplace);
// a replacement that also exhausts its budget is abandoned (deprovisioned,
// announced via Provider.OnBootAborted) rather than chained forever.
type RetryPolicy struct {
	// MaxAttempts is the boot-attempt budget per VM (0 or 1 = no retry).
	MaxAttempts int
	// BootDeadline is the per-attempt boot timeout; 0 disables supervision.
	BootDeadline time.Duration
	// BackoffBase is the delay before the second attempt (default 5s).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 60s).
	BackoffMax time.Duration
}

// DefaultRetryPolicy is a sane supervised configuration: three attempts,
// 90s per-attempt deadline, 5s→60s exponential backoff.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, BootDeadline: 90 * time.Second, BackoffBase: 5 * time.Second, BackoffMax: 60 * time.Second}

// supervised reports whether the policy bounds boots at all.
func (rp RetryPolicy) supervised() bool { return rp.BootDeadline > 0 }

// withDefaults fills unset knobs of a supervised policy.
func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 1
	}
	if rp.BackoffBase <= 0 {
		rp.BackoffBase = DefaultRetryPolicy.BackoffBase
	}
	if rp.BackoffMax <= 0 {
		rp.BackoffMax = DefaultRetryPolicy.BackoffMax
	}
	return rp
}

// Provider is the simulated cloud.
type Provider struct {
	eng  *sim.Engine
	vms  []*VM
	next int

	// OnFailure is invoked when a VM fails (injected or random).
	OnFailure func(vm *VM)

	// OnReplace is invoked when a supervised boot exhausts its attempt
	// budget and the workload moves to a freshly provisioned replacement
	// VM (old is Stopped, replacement is Provisioning). The orchestration
	// layer uses it to re-point placement at the replacement.
	OnReplace func(old, replacement *VM)

	// OnBootAborted is invoked when a pending boot can never complete:
	// the VM was deprovisioned mid-boot, or a replacement VM also
	// exhausted its attempt budget. Without this hook such a VM's
	// onReady simply never fires — the silent-deadlock bug the recovery
	// state machine exists to prevent.
	OnBootAborted func(vm *VM)

	// MTBF enables random VM failures when positive: each running VM fails
	// after an exponentially distributed interval with this mean. Failure
	// timers are daemon events — they never block convergence.
	MTBF time.Duration

	// Retry supervises Provision/Reboot; zero value = unsupervised.
	Retry RetryPolicy

	provisionCalls int
}

// NewProvider returns a cloud bound to the simulation engine.
func NewProvider(eng *sim.Engine) *Provider {
	return &Provider{eng: eng}
}

// VMs returns all VMs ever provisioned (including stopped ones).
func (p *Provider) VMs() []*VM { return p.vms }

// Running returns the number of running VMs.
func (p *Provider) Running() int {
	n := 0
	for _, vm := range p.vms {
		if vm.state == VMRunning {
			n++
		}
	}
	return n
}

// newVM constructs a fresh VM handle in Provisioning state.
func (p *Provider) newVM(sku SKU, group string) *VM {
	vm := &VM{
		ID:          p.next,
		Name:        fmt.Sprintf("vm-%s-%d", group, p.next),
		SKU:         sku,
		Group:       group,
		state:       VMProvisioning,
		provisioned: p.eng.Now(),
		busy:        map[int]float64{},
		provider:    p,
	}
	p.next++
	p.vms = append(p.vms, vm)
	return vm
}

// Provision requests n VMs of the SKU in the given vendor group. VMs boot
// independently with jittered latency; onReady fires per VM as it becomes
// Running. Returns the VM handles immediately (in Provisioning state).
// Under a supervised Retry policy, onReady may fire with a *replacement*
// VM instead of the returned handle (see RetryPolicy).
func (p *Provider) Provision(n int, sku SKU, group string, onReady func(*VM)) []*VM {
	p.provisionCalls++
	out := make([]*VM, 0, n)
	for i := 0; i < n; i++ {
		vm := p.newVM(sku, group)
		out = append(out, vm)
		p.beginBoot(vm, 1, false, onReady)
	}
	return out
}

// beginBoot runs one supervised boot attempt. The boot duration is drawn
// up front (one Jitter draw, same stream position as the unsupervised
// path), so whether the attempt beats the deadline is decided here — no
// racing deadline-vs-boot timers to cancel, which keeps the event and RNG
// streams identical whether or not a retry layer is configured, as long
// as no retry actually fires.
func (p *Provider) beginBoot(vm *VM, attempt int, replaced bool, onReady func(*VM)) {
	vm.bootAttempts = attempt
	boot := p.eng.Jitter(vm.SKU.BootBase, vm.SKU.BootJitter)
	rp := p.Retry.withDefaults()
	if p.Retry.supervised() && boot > rp.BootDeadline {
		// This attempt cannot come up before its deadline: it is declared
		// dead at the deadline and retried after backoff, or the workload
		// moves to a replacement VM once the attempt budget is spent.
		p.eng.After(rp.BootDeadline, func() {
			if vm.state != VMProvisioning {
				p.bootAborted(vm)
				return
			}
			p.counter("cloud.boot_deadline_expired", vm.Group).Inc()
			if attempt < rp.MaxAttempts {
				p.counter("cloud.boot_retries", vm.Group).Inc()
				p.eng.After(p.backoff(rp, attempt), func() {
					if vm.state != VMProvisioning {
						p.bootAborted(vm)
						return
					}
					p.beginBoot(vm, attempt+1, replaced, onReady)
				})
				return
			}
			if replaced {
				// The replacement exhausted its budget too: abandon
				// rather than chain replacements forever. The caller
				// hears about it via OnBootAborted and bounds recovery
				// with its own deadline.
				p.counter("cloud.boot_abandoned", vm.Group).Inc()
				p.Deprovision(vm)
				p.bootAborted(vm)
				return
			}
			p.replaceVM(vm, onReady)
		})
		return
	}
	p.eng.After(boot, func() {
		if vm.state != VMProvisioning {
			p.bootAborted(vm)
			return
		}
		vm.state = VMRunning
		vm.started = p.eng.Now()
		p.scheduleFailure(vm)
		if onReady != nil {
			onReady(vm)
		}
		vm.becameRunning()
	})
}

// replaceVM gives up on old and moves its workload — the onReady callback
// and any pending WhenRunning waiters — to a freshly provisioned VM of
// the same SKU and group.
func (p *Provider) replaceVM(old *VM, onReady func(*VM)) {
	p.counter("cloud.vm_replacements", old.Group).Inc()
	old.state = VMStopped
	old.stopped = p.eng.Now()
	nv := p.newVM(old.SKU, old.Group)
	nv.waiters = append(nv.waiters, old.waiters...)
	old.waiters = nil
	if p.OnReplace != nil {
		p.OnReplace(old, nv)
	}
	p.beginBoot(nv, 1, true, onReady)
}

// bootAborted reports a boot whose onReady can never fire (the VM left
// Provisioning under it, or a replacement was abandoned). Exactly one
// pending boot-chain event exists per Provisioning VM, so the hook fires
// at most once per abort.
func (p *Provider) bootAborted(vm *VM) {
	p.counter("cloud.boot_aborted", vm.Group).Inc()
	if p.OnBootAborted != nil {
		p.OnBootAborted(vm)
	}
}

// backoff returns the jittered exponential delay before attempt+1.
func (p *Provider) backoff(rp RetryPolicy, attempt int) time.Duration {
	d := rp.BackoffBase
	for i := 1; i < attempt && d < rp.BackoffMax; i++ {
		d *= 2
	}
	if d > rp.BackoffMax {
		d = rp.BackoffMax
	}
	// Deterministic jitter: drawn from the engine's PCG stream, so two
	// same-seed runs back off identically.
	return p.eng.Jitter(d, d/2)
}

// counter vends a metric handle from the engine's recorder; nil-safe when
// tracing is disabled.
func (p *Provider) counter(name, label string) *obs.Counter {
	return p.eng.Recorder().Counter(name, label)
}

func (p *Provider) scheduleFailure(vm *VM) {
	if p.MTBF <= 0 {
		return
	}
	// Exponential inter-failure time with mean MTBF. A daemon event: an
	// armed failure timer must not keep Run from converging, or an
	// emulation with MTBF set could never finish a wait-converge.
	d := time.Duration(p.eng.Rand().ExpFloat64() * float64(p.MTBF))
	p.eng.Daemon(d, func() {
		if vm.state != VMRunning {
			return
		}
		p.Fail(vm)
	})
}

// Fail marks a running VM as failed and notifies the orchestrator. It
// reports whether the fault actually fired: failing a VM that is not
// Running (still provisioning, already failed, or stopped) is a no-op
// and returns false, so callers can queue the fault or surface the error
// instead of losing it silently.
func (p *Provider) Fail(vm *VM) bool {
	if vm.state != VMRunning {
		return false
	}
	vm.runAccum += p.eng.Now().Sub(vm.started)
	vm.state = VMFailed
	if p.OnFailure != nil {
		p.OnFailure(vm)
	}
	return true
}

// Reboot returns a failed VM to service after its boot latency; onReady
// fires when it is Running again. Under a supervised Retry policy the
// reboot is retried/replaced like a fresh Provision, so onReady may fire
// with a replacement VM.
func (p *Provider) Reboot(vm *VM, onReady func(*VM)) {
	if vm.state != VMFailed {
		return
	}
	vm.state = VMProvisioning
	p.beginBoot(vm, 1, false, onReady)
}

// Deprovision stops and releases a VM (the paper's Destroy API path).
func (p *Provider) Deprovision(vm *VM) {
	switch vm.state {
	case VMRunning:
		vm.runAccum += p.eng.Now().Sub(vm.started)
	case VMStopped:
		return
	}
	vm.state = VMStopped
	vm.stopped = p.eng.Now()
}

// CostUSD returns the accumulated cost of all VMs: running time (plus time
// still accruing) priced per hour.
func (p *Provider) CostUSD() float64 {
	var total float64
	for _, vm := range p.vms {
		total += vm.Uptime().Hours() * vm.SKU.PricePerHour
	}
	return total
}

// HourlyCostUSD returns the burn rate of currently running VMs.
func (p *Provider) HourlyCostUSD() float64 {
	var total float64
	for _, vm := range p.vms {
		if vm.state == VMRunning {
			total += vm.SKU.PricePerHour
		}
	}
	return total
}

// UtilizationP95 returns the 95th-percentile per-VM CPU utilization for the
// given minute across running VMs — the quantity Figure 9 plots.
func (p *Provider) UtilizationP95(minute int) float64 {
	var us []float64
	for _, vm := range p.vms {
		if vm.state != VMStopped {
			us = append(us, vm.Utilization(minute))
		}
	}
	if len(us) == 0 {
		return 0
	}
	// Insertion sort: VM counts are modest.
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && us[j] < us[j-1]; j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
	idx := (len(us)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return us[idx]
}
