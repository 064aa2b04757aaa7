package cloud

import (
	"math"
	"testing"
	"time"

	"crystalnet/internal/sim"
)

func TestProvisionBootsWithinJitterWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	var readyAt []sim.Time
	vms := p.Provision(10, SKUStandard, "ctnra", func(vm *VM) {
		readyAt = append(readyAt, eng.Now())
	})
	if len(vms) != 10 {
		t.Fatalf("vms = %d", len(vms))
	}
	for _, vm := range vms {
		if vm.State() != VMProvisioning {
			t.Fatal("VM should start in Provisioning")
		}
	}
	eng.Run(0)
	if len(readyAt) != 10 {
		t.Fatalf("ready callbacks = %d", len(readyAt))
	}
	lo := sim.Time(SKUStandard.BootBase)
	hi := sim.Time(SKUStandard.BootBase + SKUStandard.BootJitter)
	for _, at := range readyAt {
		if at < lo || at > hi {
			t.Fatalf("boot at %v outside [%v,%v]", at, lo, hi)
		}
	}
	for _, vm := range vms {
		if vm.State() != VMRunning {
			t.Fatalf("%s not running after its boot", vm.Name)
		}
	}
}

func TestCostAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vms := p.Provision(5, SKUStandard, "g", nil)
	eng.Run(0) // boot all
	bootDone := eng.Now()
	eng.RunUntil(bootDone.Add(time.Hour))
	// 5 VMs x 1 hour x $0.20 = $1.00 (uptime measured from Running).
	if got := p.CostUSD(); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("CostUSD = %f, want ~1.00", got)
	}
	if got := p.HourlyCostUSD(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("HourlyCostUSD = %f", got)
	}
	// Stopping freezes accrual.
	for _, vm := range vms {
		p.Deprovision(vm)
	}
	costAtStop := p.CostUSD()
	eng.RunFor(2 * time.Hour)
	if p.CostUSD() != costAtStop {
		t.Fatal("cost accrued after deprovision")
	}
	if p.HourlyCostUSD() != 0 {
		t.Fatal("burn rate nonzero after deprovision")
	}
}

func TestPaperScaleCost(t *testing.T) {
	// §1: 500 standard VMs ≈ USD 100/hour.
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	p.Provision(500, SKUStandard, "g", nil)
	eng.Run(0)
	if got := p.HourlyCostUSD(); math.Abs(got-100.0) > 1e-6 {
		t.Fatalf("500-VM burn = %f USD/h, paper says ~100", got)
	}
}

func TestInjectedFailureAndReboot(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	var failed *VM
	p.OnFailure = func(vm *VM) { failed = vm }
	vms := p.Provision(3, SKUStandard, "g", nil)
	eng.Run(0)
	p.Fail(vms[1])
	if failed != vms[1] || vms[1].State() != VMFailed {
		t.Fatalf("failure not reported: %v %v", failed, vms[1].State())
	}
	if vms[0].State() != VMRunning || vms[2].State() != VMRunning {
		t.Fatal("a failure stopped the other VMs")
	}
	rebooted := false
	p.Reboot(vms[1], func(*VM) { rebooted = true })
	eng.Run(0)
	if !rebooted || vms[1].State() != VMRunning {
		t.Fatal("reboot failed")
	}
	// Reboot of a non-failed VM is a no-op.
	p.Reboot(vms[0], func(*VM) { t.Fatal("reboot of running VM fired") })
	eng.Run(0)
}

func TestRandomFailuresWithMTBF(t *testing.T) {
	eng := sim.NewEngine(7)
	p := NewProvider(eng)
	p.MTBF = 10 * time.Minute
	failures := 0
	p.OnFailure = func(vm *VM) { failures++ }
	p.Provision(20, SKUStandard, "g", nil)
	eng.RunFor(time.Hour)
	if failures == 0 {
		t.Fatal("no random failures in 1h with MTBF 10m across 20 VMs")
	}
}

func TestRecordWorkAndUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vm := p.Provision(1, SKUStandard, "g", nil)[0]
	eng.Run(0)

	// 120 core-seconds at 2 cores starting at minute 0: 60 cs in minute 0
	// fills half... careful: 2 cores x 60 s window = 120 core-seconds room.
	vm.RecordWork(0, 120, 2)
	if u := vm.Utilization(0); math.Abs(u-0.5) > 1e-9 { // 120/(60*4 cores)
		t.Fatalf("minute-0 utilization = %f, want 0.5", u)
	}
	// Work starting mid-minute spills into the next bucket.
	vm2 := p.Provision(1, SKUStandard, "g", nil)[0]
	eng.Run(0)
	vm2.RecordWork(sim.Time(90*time.Second), 60, 1) // 30 cs in min 1, 30 in min 2
	if u := vm2.Utilization(1); math.Abs(u-30.0/240.0) > 1e-9 {
		t.Fatalf("minute-1 utilization = %f", u)
	}
	if u := vm2.Utilization(2); math.Abs(u-30.0/240.0) > 1e-9 {
		t.Fatalf("minute-2 utilization = %f", u)
	}
	// Utilization capped at 1.
	vm.RecordWork(0, 1e6, 4)
	if vm.Utilization(0) != 1 {
		t.Fatal("utilization not capped")
	}
}

func TestUtilizationP95(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vms := p.Provision(20, SKUStandard, "g", nil)
	eng.Run(0)
	// 18 idle VMs, 2 busy: the nearest-rank p95 of 20 samples lands on the
	// 19th sorted value, which is busy.
	vms[7].RecordWork(0, 240, 4) // minute 0 fully busy
	vms[3].RecordWork(0, 240, 4)
	got := p.UtilizationP95(0)
	if got != 1 {
		t.Fatalf("p95 = %f, want 1 (busy VMs at the tail)", got)
	}
	if p.UtilizationP95(5) != 0 {
		t.Fatal("idle minute should be 0")
	}
	empty := NewProvider(eng)
	if empty.UtilizationP95(0) != 0 {
		t.Fatal("empty provider p95 should be 0")
	}
}

func TestUptimeAcrossFailure(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vm := p.Provision(1, SKUStandard, "g", nil)[0]
	eng.Run(0)
	start := eng.Now()
	eng.RunUntil(start.Add(10 * time.Minute))
	p.Fail(vm)
	eng.RunFor(5 * time.Minute) // failed time does not count
	if got := vm.Uptime(); got != 10*time.Minute {
		t.Fatalf("Uptime = %v, want 10m", got)
	}
	p.Reboot(vm, nil)
	eng.Run(0)
	eng.RunFor(10 * time.Minute)
	if got := vm.Uptime(); got < 19*time.Minute || got > 21*time.Minute {
		t.Fatalf("Uptime after reboot = %v, want ~20m", got)
	}
}

func TestSKUProperties(t *testing.T) {
	if !SKUNested.NestedVM || SKUStandard.NestedVM {
		t.Fatal("nested flags wrong")
	}
	if SKUStandard.PricePerHour != 0.20 {
		t.Fatal("paper price mismatch")
	}
	if VMRunning.String() != "running" || VMState(9).String() != "unknown" {
		t.Fatal("state names wrong")
	}
}

func TestSubmitSchedulesAcrossCores(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vm := p.Provision(1, SKUStandard, "g", nil)[0]
	eng.Run(0)
	base := eng.Now()

	var done []sim.Time
	// 8 jobs of 10s on 4 cores: finish in two waves at +10s and +20s.
	for i := 0; i < 8; i++ {
		vm.Submit(10, func() { done = append(done, eng.Now()) })
	}
	eng.Run(0)
	if len(done) != 8 {
		t.Fatalf("done = %d", len(done))
	}
	wave1, wave2 := 0, 0
	for _, at := range done {
		switch at.Sub(base) {
		case 10 * time.Second:
			wave1++
		case 20 * time.Second:
			wave2++
		default:
			t.Fatalf("job finished at unexpected offset %v", at.Sub(base))
		}
	}
	if wave1 != 4 || wave2 != 4 {
		t.Fatalf("waves = %d/%d, want 4/4", wave1, wave2)
	}
}

func TestSubmitBacklogVisible(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProvider(eng)
	vm := p.Provision(1, SKUStandard, "g", nil)[0]
	eng.Run(0)
	for i := 0; i < 4; i++ {
		vm.Submit(30, nil)
	}
	// Submitted work shows up in the CPU meter, in the minute it started.
	if minute := int(time.Duration(eng.Now()).Minutes()); vm.Utilization(minute) == 0 {
		t.Fatalf("Submit did not record CPU work in minute %d", minute)
	}
}
