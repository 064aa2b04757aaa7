package core

import (
	"fmt"
	"sort"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/firmware"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/telemetry"
)

// Mockup executes the paper's Mockup API on a preparation: PhyNet build,
// firmware boot and speaker injection, all scheduled on
// the simulation clock. Unsafe boundaries are refused unless force is set.
// Run the engine (em.RunUntilConverged) to drive it to route-ready.
func (o *Orchestrator) Mockup(prep *Preparation, force bool) (*Emulation, error) {
	if prep.SafetyErr != nil && !force {
		return nil, fmt.Errorf("core: refusing unsafe boundary: %w", prep.SafetyErr)
	}
	em := &Emulation{
		orch: o, prep: prep,
		Fabric:        phynet.NewFabric(o.Eng, phynet.LinuxBridge),
		Devices:       map[string]*firmware.Device{},
		Injector:      telemetry.NewInjector(o.Eng),
		recovering:    map[*cloud.VM]*vmRecovery{},
		pendingFaults: map[string]int{},
		MockupStart:   o.Eng.Now(),
		attrs:         bgp.NewAttrTable(),
	}
	if o.opts.Shards > 0 {
		// One domain per VM, seeded from the emulation seed: the partition
		// (and hence every domain's RNG stream) depends only on the topology
		// and the seed, never on the worker count.
		em.shards = sim.NewShardSet(o.Eng, o.opts.Seed, len(prep.VMs()), o.opts.Shards)
		em.Fabric.SetShards(em.shards)
	}
	for i, vm := range prep.VMs() {
		h := em.Fabric.AddHost(vm.Name)
		if em.shards != nil {
			h.Domain = i
		}
	}
	if len(prep.hardware) > 0 {
		// The on-premise fanout server joining real switches to the overlay
		// across the Internet (§4.1).
		em.Fabric.AddHost(fanoutHost).Remote = true
	}

	// Wait for every VM, then build.
	vms := prep.VMs()
	em.vmsPending = len(vms)
	for _, vm := range vms {
		vm.WhenRunning(func(*cloud.VM) {
			em.vmsPending--
			if em.vmsPending == 0 {
				em.build()
			}
		})
	}
	o.Cloud.OnFailure = em.onVMFailure
	o.Cloud.OnReplace = em.onVMReplaced
	o.Cloud.OnBootAborted = em.onBootAborted
	return em, nil
}

// build creates every PhyNet container, interface and virtual link, charges
// the per-VM setup work, and boots firmware when each VM's setup drains —
// the aggressively batched, parallel-per-VM mockup of §6.2.
func (em *Emulation) build() {
	n := em.prep.Plan.Network
	names := em.allNames()

	for _, name := range names {
		em.addContainer(em.hostOf(name), n.MustDevice(name))
	}
	// Links between two mocked-up devices.
	for _, l := range n.Links {
		ca, cb := em.container(l.A.Device.Name), em.container(l.B.Device.Name)
		if ca == nil || cb == nil {
			continue
		}
		em.Fabric.Connect(ca.Iface(l.A.Name), cb.Iface(l.B.Name))
	}

	// Charge each VM its PhyNet setup work; the slowest VM defines
	// network-ready.
	em.buildsPending = 0
	charged := map[*cloud.VM]bool{}
	for _, vm := range em.prep.VMs() {
		if charged[vm] {
			continue
		}
		charged[vm] = true
		host := em.Fabric.Host(vm.Name)
		em.buildsPending++
		vm.Submit(host.SetupCost(), func() {
			em.buildsPending--
			if em.buildsPending == 0 {
				em.networkReady()
			}
		})
	}
}

// networkReady records the milestone and boots all firmware (§8.1: route-
// ready latency starts here).
func (em *Emulation) networkReady() {
	em.NetworkReadyAt = em.orch.Eng.Now()

	for _, name := range em.allNames() {
		em.Devices[name] = firmware.New(name, em.prep.Images[name], em.prep.Configs[name], em.deviceEng(name),
			em.Fabric, em.container(name), em.vmFor(name), em.attrs)
	}
	// Boot emulated devices, then the speakers.
	plan := em.prep.Plan
	for _, names := range [][]string{plan.Internal, plan.Boundary, plan.Speakers} {
		for _, name := range names {
			em.boot(name)
		}
	}
}

// deviceEng returns the engine a device's events run on: under sharding,
// the domain engine of the device's host VM; otherwise (and for hardware
// devices on the fanout host, plus any VM attached after Mockup, whose
// hosts keep the Domain -1 default) the master engine.
func (em *Emulation) deviceEng(name string) *sim.Engine {
	if em.shards == nil {
		return em.orch.Eng
	}
	if vm := em.vmFor(name); vm != nil {
		if h := em.Fabric.Host(vm.Name); h != nil {
			return em.shards.Engine(h.Domain)
		}
	}
	return em.orch.Eng
}

func (em *Emulation) allNames() []string {
	names := append(append([]string{}, em.prep.Plan.Internal...), em.prep.Plan.Boundary...)
	names = append(names, em.prep.Plan.Speakers...)
	sort.Strings(names)
	return names
}
