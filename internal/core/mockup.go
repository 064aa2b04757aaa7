package core

import (
	"fmt"
	"sort"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/firmware"
	"crystalnet/internal/mgmt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/speaker"
	"crystalnet/internal/telemetry"
)

// Mockup executes the paper's Mockup API on a preparation: PhyNet build,
// management plane, firmware boot and speaker injection, all scheduled on
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
		Speakers:      map[string]*speaker.Speaker{},
		Mgmt:          mgmt.NewPlane(),
		Injector:      telemetry.NewInjector(o.Eng),
		containers:    map[string]*phynet.Container{},
		vmOf:          map[string]*cloud.VM{},
		vlinks:        map[linkKey]*phynet.VirtualLink{},
		recovering:    map[*cloud.VM]*vmRecovery{},
		pendingFaults: map[*cloud.VM]int{},
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
		var host *phynet.Host
		if em.prep.hardware[name] {
			host = em.Fabric.Host(fanoutHost)
		} else {
			asg := em.prep.assignments[name]
			vm := em.prep.groupVMs[asg.group][asg.index]
			em.vmOf[name] = vm
			host = em.Fabric.Host(vm.Name)
		}
		em.addContainer(host, n.MustDevice(name))
	}
	// Links between two mocked-up devices.
	for _, l := range n.Links {
		ca, cb := em.containers[l.A.Device.Name], em.containers[l.B.Device.Name]
		if ca == nil || cb == nil {
			continue
		}
		vl := em.Fabric.Connect(ca.Iface(l.A.Name), cb.Iface(l.B.Name))
		em.vlinks[keyFor(l.A, l.B)] = vl
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
	o := em.orch
	em.NetworkReadyAt = o.Eng.Now()
	n := em.prep.Plan.Network

	for _, name := range em.allNames() {
		cfg := em.prep.Configs[name]
		img := em.prep.Images[name]
		opts := []firmware.Option{firmware.WithAttrs(em.attrs)}
		hostName := fanoutHost
		if vm := em.vmOf[name]; vm != nil {
			opts = append(opts, firmware.WithVM(vm))
			hostName = vm.Name
		}
		dev := firmware.New(name, img, cfg, em.deviceEng(name), em.Fabric, em.containers[name], opts...)
		em.Devices[name] = dev
		em.Mgmt.Register(dev, n.MustDevice(name).MgmtIP, credential, hostName)
	}
	// Boot emulated devices.
	for _, name := range append(append([]string{}, em.prep.Plan.Internal...), em.prep.Plan.Boundary...) {
		em.Devices[name].Boot(nil)
	}
	// Boot speakers and inject recorded routes.
	for _, name := range em.prep.Plan.Speakers {
		sp, err := speaker.New(em.Devices[name], em.prep.Routes[name])
		if err != nil {
			em.alert("speaker %s: %v", name, err)
			continue
		}
		em.Speakers[name] = sp
		sp.Start(nil)
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
	if vm := em.vmOf[name]; vm != nil {
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
