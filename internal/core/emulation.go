package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/boundary"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/firmware"
	"crystalnet/internal/mgmt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
	"crystalnet/internal/speaker"
	"crystalnet/internal/telemetry"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

// Per-VM Clear cost model (§8.2: clear latency under 2 minutes).
const (
	clearFixed        = 45 * time.Second
	clearJitter       = 30 * time.Second
	clearWorkPerBox   = 2.0 // core-seconds per container
	strawmanExtra     = 15 * time.Second
	recoverWorkPerBox = 5.0 // core-seconds to reset one device's plumbing
)

// fanoutHost names the on-premise fanout server hosting real-hardware
// attachments (§4.1).
const fanoutHost = "hw-fanout"

// linkKey identifies a topology link by its interface full names.
type linkKey struct{ a, b string }

func keyFor(a, b *topo.Interface) linkKey {
	x, y := a.FullName(), b.FullName()
	if x > y {
		x, y = y, x
	}
	return linkKey{x, y}
}

// Emulation is one mocked-up network.
type Emulation struct {
	orch *Orchestrator
	prep *Preparation

	Fabric     *phynet.Fabric
	Devices    map[string]*firmware.Device
	Speakers   map[string]*speaker.Speaker
	Mgmt       *mgmt.Plane
	Injector   *telemetry.Injector
	containers map[string]*phynet.Container
	vmOf       map[string]*cloud.VM
	vlinks     map[linkKey]*phynet.VirtualLink

	// shards, when non-nil, holds the §10 sharded-execution ensemble: one
	// domain engine per VM plus the orchestrator's master engine. All
	// convergence drives go through it instead of em.orch.Eng.Run.
	shards *sim.ShardSet

	// Timeline (§8.1 metrics).
	MockupStart    sim.Time
	NetworkReadyAt sim.Time
	ClearedAt      sim.Time

	// Health monitoring state (§6.2).
	Alerts      []string
	recoveries  []time.Duration
	healthTick  *sim.Timer
	healthArmed bool
	cleared     bool
	// Failure-domain hardening state (§6.2 recovery state machine).
	recovering    map[*cloud.VM]*vmRecovery
	degraded      []string
	pendingFaults map[*cloud.VM]int
	linkDown      map[linkKey]int // consecutive health ticks each link was seen down
	// phasesTraced latches once the phase/convergence spans are recorded so
	// repeated RunUntilConverged calls (and forks of a traced parent) do
	// not duplicate them.
	phasesTraced bool

	// traffic, when non-nil, is the attached flow-level load matrix
	// (AttachTraffic); it is re-settled at every convergence point and
	// deep-copied across Fork so warm-pool rehearsals carry their load.
	traffic *traffic.Matrix

	vmsPending    int
	buildsPending int

	// index caches Index()'s result: the configurations the devices run now.
	// Checkpoint brings it up to date and a fork starts from its parent's
	// pointer, so reading it after a checkpoint writes nothing shared.
	index *config.Index

	// attrs is the BGP attribute table every device's router interns into
	// (bgp.AttrTable): made by Mockup, sealed by Checkpoint and forked by
	// Orchestrator.Fork, so canonical attrs are shared along the lineage and
	// with no other emulation in the process.
	attrs *bgp.AttrTable
}

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
		Fabric:        phynet.NewFabric(o.Eng, o.opts.Backend),
		Devices:       map[string]*firmware.Device{},
		Speakers:      map[string]*speaker.Speaker{},
		Mgmt:          mgmt.NewPlane(),
		Injector:      telemetry.NewInjector(o.Eng),
		containers:    map[string]*phynet.Container{},
		vmOf:          map[string]*cloud.VM{},
		vlinks:        map[linkKey]*phynet.VirtualLink{},
		recovering:    map[*cloud.VM]*vmRecovery{},
		pendingFaults: map[*cloud.VM]int{},
		linkDown:      map[linkKey]int{},
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
		if o.opts.Clouds > 1 {
			h.Region = fmt.Sprintf("cloud-%d", i%o.opts.Clouds)
		}
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

// StartHealthMonitor arms the §6.2 health/auto-recovery daemon with the
// configured interval. Call after initial convergence: the periodic tick
// keeps the event queue alive, so drive the engine with RunFor/RunUntil
// from here on. The call is idempotent — a scenario runner and its caller
// can both arm the daemon without double-scheduling the tick chain — and a
// cleared emulation can never be re-armed.
func (em *Emulation) StartHealthMonitor() {
	if em.orch.opts.HealthInterval <= 0 || em.healthArmed || em.cleared {
		return
	}
	em.healthArmed = true
	em.scheduleHealthCheck()
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
		em.Mgmt.Register(dev, n.MustDevice(name).MgmtIP, o.opts.Credential, hostName)
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

// ---- Control APIs (Table 2) ----

// ReloadDevice reboots a device with new software and/or configuration.
// Under the two-layer design it takes firmware.ReloadDuration; the §8.3
// strawman additionally recreates the PhyNet interfaces.
func (em *Emulation) ReloadDevice(name string, newCfg *config.DeviceConfig, onReady func()) error {
	dev := em.Devices[name]
	if dev == nil {
		return fmt.Errorf("core: no device %q", name)
	}
	if !em.orch.opts.StrawmanReload || em.prep.hardware[name] {
		// Real switches always keep their physical ports; the strawman
		// ablation only applies to virtualized devices.
		dev.Reload(newCfg, onReady)
		return nil
	}
	// Strawman: tear down and rebuild interfaces and links too.
	dev.Stop("strawman reload")
	vm := em.vmOf[name]
	host := em.Fabric.Host(vm.Name)
	host.RemoveContainer(name)
	em.orch.Eng.After(firmware.ReloadDuration+strawmanExtra, func() {
		em.rebuildContainer(name)
		if newCfg != nil {
			dev.Reload(newCfg, onReady)
		} else {
			dev.Reload(nil, onReady)
		}
	})
	return nil
}

// rebuildContainer recreates a device's namespace, interfaces and link
// attachments (strawman reload and VM recovery both need it).
func (em *Emulation) rebuildContainer(name string) {
	d := em.prep.Plan.Network.MustDevice(name)
	c := em.addContainer(em.Fabric.Host(em.vmOf[name].Name), d)
	// Reconnect links to peers that are still up.
	em.deviceLinks(name, func(k linkKey, local, remote *topo.Interface, ri *phynet.VIface) {
		em.connect(k, c.Iface(local.Name), ri)
		// Tell the remote firmware its link flapped.
		if rdev := em.Devices[remote.Device.Name]; rdev != nil {
			rdev.LinkDown(remote.Name)
			rdev.LinkUp(remote.Name)
		}
	})
	em.attachDevice(name)
}

// addContainer builds the PhyNet half of device d on host: a container in
// place of any the host still has under d's name, with one interface per
// topology interface. Mockup, recovery, strawman reload and rack attach all
// build a device's namespace here.
func (em *Emulation) addContainer(host *phynet.Host, d *topo.Device) *phynet.Container {
	host.RemoveContainer(d.Name)
	c := host.AddContainer(d.Name)
	em.containers[d.Name] = c
	for _, intf := range d.Interfaces {
		c.AddIface(intf.Name, intf.MAC)
	}
	return c
}

// deviceLinks calls fn, in n.Links order, for every topology link that
// touches the named device and whose far end is emulated: the link's key,
// the device's end, the far end, and the far end's interface. A far
// container that lacks the interface gets it hot-added first — the peering is
// new on that side too, and its firmware picks it up on the operator's
// reload. Recovery, rack attach and link drop all walk a device's links here;
// keeping n.Links order keeps their traces byte-identical run to run.
func (em *Emulation) deviceLinks(name string, fn func(k linkKey, local, remote *topo.Interface, ri *phynet.VIface)) {
	for _, l := range em.prep.Plan.Network.Links {
		local, remote := l.A, l.B
		switch name {
		case l.A.Device.Name:
		case l.B.Device.Name:
			local, remote = l.B, l.A
		default:
			continue
		}
		rc := em.containers[remote.Device.Name]
		if rc == nil {
			continue // far end not emulated
		}
		ri := rc.Iface(remote.Name)
		if ri == nil {
			ri = rc.AddIface(remote.Name, remote.MAC)
		}
		fn(keyFor(l.A, l.B), local, remote, ri)
	}
}

// connect plugs li into a fresh virtual link to ri and records it under k.
// A far interface still plugged into a dead link (RemoveContainer downed it
// but the object remains plugged) is first replaced by a new one with the
// same identity: real PhyNet would reuse the veth, this structural model
// swaps the object.
func (em *Emulation) connect(k linkKey, li, ri *phynet.VIface) {
	if ri.Link() != nil {
		rc := ri.Container
		rc.RemoveIface(ri.Name)
		ri = rc.AddIface(ri.Name, ri.MAC)
	}
	em.vlinks[k] = em.Fabric.Connect(li, ri)
}

// attachDevice re-binds a device to its (re)built container. Stopped or
// crashed firmware just updates the reference; its next boot attaches the
// frame handler there.
func (em *Emulation) attachDevice(name string) {
	if dev := em.Devices[name]; dev != nil {
		dev.Reattach(em.containers[name])
	}
}

// AttachNewDevice incrementally adds a device to a RUNNING emulation (§3.2:
// "quick incremental changes to the emulation") — the new-rack-deployment
// rehearsal. The device must already exist in the (mutated) topology with
// its links wired to emulated devices. Its container is placed on the
// least-loaded VM of its vendor group (spawning a fresh VM if the vendor is
// new), links are built, and the firmware boots. Neighbors learn the new
// sessions when the operator reloads them with updated configurations, as
// in production.
func (em *Emulation) AttachNewDevice(name string, img firmware.VendorImage, cfg *config.DeviceConfig, onReady func()) error {
	n := em.prep.Plan.Network
	d := n.Device(name)
	if d == nil {
		return fmt.Errorf("core: device %q not in topology", name)
	}
	if em.Devices[name] != nil {
		return fmt.Errorf("core: device %q already emulated", name)
	}
	if cfg == nil {
		cfg = config.GenerateDevice(d)
	}
	cfg.Credential = em.orch.opts.Credential
	if err := cfg.Validate(); err != nil {
		return err
	}

	// Place on the emptiest VM of the vendor group, or spawn one.
	vms := em.prep.groupVMs[img.Name]
	var vm *cloud.VM
	if len(vms) > 0 {
		counts := map[*cloud.VM]int{}
		for _, v := range em.vmOf {
			counts[v]++
		}
		for _, cand := range vms {
			if vm == nil || counts[cand] < counts[vm] {
				vm = cand
			}
		}
	}
	// The preparation's maps, plan and name lists are shared with every fork
	// of this emulation (Preparation.fork), so growing them means replacing
	// them: nothing another emulation can reach is edited.
	plan := *em.prep.Plan
	plan.Emulated = withEntry(plan.Emulated, name, true)
	em.prep.Plan = &plan
	em.prep.Configs = withEntry(em.prep.Configs, name, cfg)
	em.prep.Images = withEntry(em.prep.Images, name, img)
	attach := func(vm *cloud.VM) {
		em.vmOf[name] = vm
		host := em.Fabric.Host(vm.Name)
		c := em.addContainer(host, d)
		em.deviceLinks(name, func(k linkKey, local, _ *topo.Interface, ri *phynet.VIface) {
			em.connect(k, c.Iface(local.Name), ri)
		})
		dev := firmware.New(name, img, cfg, em.deviceEng(name), em.Fabric, c, firmware.WithVM(vm), firmware.WithAttrs(em.attrs))
		em.Devices[name] = dev
		em.Mgmt.Register(dev, d.MgmtIP, em.orch.opts.Credential, vm.Name)
		vm.Submit(host.SetupCost()/10, func() { dev.Boot(onReady) })
		// Classify: the plan gains the device as internal or boundary.
		isBoundary := false
		for _, nb := range d.Neighbors() {
			if !em.prep.Plan.Emulated[nb.Name] {
				isBoundary = true
			}
		}
		plan := *em.prep.Plan
		if isBoundary {
			plan.Boundary = append(slices.Clone(plan.Boundary), name)
		} else {
			plan.Internal = append(slices.Clone(plan.Internal), name)
		}
		em.prep.Plan = &plan
	}
	if vm != nil {
		attach(vm)
		return nil
	}
	sku := cloud.SKUStandard
	if img.Kind == firmware.VMImage {
		sku = cloud.SKUNested
	}
	fresh := em.orch.Cloud.Provision(1, sku, img.Name, nil)
	em.prep.groupVMs[img.Name] = fresh // placements are this emulation's own
	// The waiter receives whichever VM actually came up — under a retry
	// policy that can be a replacement for fresh[0].
	fresh[0].WhenRunning(func(vm *cloud.VM) { attach(vm) })
	return nil
}

// withEntry returns a copy of m that also maps k to v.
func withEntry[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	c := maps.Clone(m)
	c[k] = v
	return c
}

// SetLink raises or cuts the link between two topology interfaces and
// notifies both firmwares (the Connect/Disconnect APIs).
func (em *Emulation) SetLink(devA, ifA, devB, ifB string, up bool) error {
	n := em.prep.Plan.Network
	da, db := n.Device(devA), n.Device(devB)
	if da == nil || db == nil {
		return fmt.Errorf("core: unknown device")
	}
	ia, ib := da.Intf(ifA), db.Intf(ifB)
	if ia == nil || ib == nil {
		return fmt.Errorf("core: unknown interface")
	}
	vl := em.vlinks[keyFor(ia, ib)]
	if vl == nil {
		return fmt.Errorf("core: no emulated link %s:%s <-> %s:%s", devA, ifA, devB, ifB)
	}
	em.Fabric.SetLinkState(vl, up)
	for _, end := range []struct {
		dev, ifname string
	}{{devA, ifA}, {devB, ifB}} {
		if d := em.Devices[end.dev]; d != nil {
			if up {
				d.LinkUp(end.ifname)
			} else {
				d.LinkDown(end.ifname)
			}
		}
	}
	return nil
}

// InjectPackets schedules telemetry probes from a device (Table 2).
func (em *Emulation) InjectPackets(from string, meta dataplane.PacketMeta, count int, interval time.Duration) (uint64, error) {
	dev := em.Devices[from]
	if dev == nil {
		return 0, fmt.Errorf("core: no device %q", from)
	}
	return em.Injector.Inject(dev, meta, count, interval), nil
}

// ---- Monitor APIs (Table 2) ----

// PullStates gathers every device's state summary.
func (em *Emulation) PullStates() map[string]firmware.Stats {
	out := map[string]firmware.Stats{}
	for name, d := range em.Devices {
		out[name] = d.PullStates()
	}
	return out
}

// PullFIBs snapshots every emulated device's forwarding table. The entries
// are the devices' own — shared and read-only — and still a stable
// point-in-time view: a FIB replaces entries, it never edits them.
func (em *Emulation) PullFIBs() map[string]rib.Snapshot {
	out := map[string]rib.Snapshot{}
	for name, d := range em.Devices {
		if d.FIB() != nil {
			out[name] = d.FIB().Snapshot()
		}
	}
	return out
}

// PullConfig renders every device's active configuration in its vendor
// dialect (for rollback backups).
func (em *Emulation) PullConfig() map[string]string {
	out := map[string]string{}
	for name, d := range em.Devices {
		c := d.Config()
		out[name] = config.Render(c, config.Dialect{Vendor: c.Vendor, Version: c.Version})
	}
	return out
}

// PullPackets drains telemetry captures from all devices.
func (em *Emulation) PullPackets() []firmware.CaptureRecord {
	var devs []*firmware.Device
	for _, name := range em.allNames() {
		devs = append(devs, em.Devices[name])
	}
	return telemetry.Collect(devs)
}

// Login opens a management session to a device (the paper's Login helper /
// IP access path).
func (em *Emulation) Login(name string) (*mgmt.Session, error) {
	return em.Mgmt.DialByName(name, em.orch.opts.Credential)
}

// List returns all emulated device names (the List helper).
func (em *Emulation) List() []string { return em.allNames() }

// State is a saved emulation snapshot (§3.2: "saving and restoring
// emulation state"): configurations plus forwarding tables. It is the
// artifact a validation workflow saves before a risky step and diffs
// against after, and what a rollback restores from. Nothing in it is a
// copy: installed configurations and FIB entries are never edited, so
// holding the pointers is holding the content (PullConfig renders the text
// backup).
type State struct {
	// Configs are the configurations the devices ran, by device name: the
	// live index's map at the time, shared and read-only.
	Configs map[string]*config.DeviceConfig
	// FIBs are per-device forwarding-table snapshots; their entries are
	// shared with the live tables and read-only (see PullFIBs).
	FIBs map[string]rib.Snapshot
	// TakenAt is the virtual time of the snapshot.
	TakenAt sim.Time
}

// Save captures the emulation's current state.
func (em *Emulation) Save() *State {
	return &State{
		Configs: em.Configs(),
		FIBs:    em.PullFIBs(),
		TakenAt: em.orch.Eng.Now(),
	}
}

// DiffAgainst compares the emulation's current forwarding state to a saved
// snapshot with the §9 ECMP-aware comparator, returning differences by
// device. An empty map means the network forwards exactly as it did at the
// snapshot — the "no change in network behaviour" check of §7 Case 2.
func (em *Emulation) DiffAgainst(s *State) map[string][]rib.Diff {
	out := map[string][]rib.Diff{}
	live := map[string]bool{}
	for name, d := range em.Devices {
		if d.FIB() == nil {
			continue
		}
		live[name] = true
		// Merge-diff against the live table: no full FIB pull per check.
		if diffs := d.FIB().DiffAgainst(s.FIBs[name], rib.ECMPAware); len(diffs) > 0 {
			out[name] = diffs
		}
	}
	for n, snap := range s.FIBs {
		if !live[n] {
			if d := rib.Compare(snap, nil, rib.ECMPAware); len(d) > 0 {
				out[n] = d
			}
		}
	}
	return out
}

// RestoreConfigs rolls every device that no longer runs the snapshot's
// configuration back to it via Reload, returning the devices reloaded.
func (em *Emulation) RestoreConfigs(s *State) ([]string, error) {
	var reloaded []string
	names := make([]string, 0, len(s.Configs))
	for name := range s.Configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dev := em.Devices[name]
		if dev == nil || dev.Config() == s.Configs[name] {
			continue
		}
		if err := em.ReloadDevice(name, s.Configs[name], nil); err != nil {
			return reloaded, err
		}
		reloaded = append(reloaded, name)
	}
	return reloaded, nil
}

// Index returns the live fabric index: the configurations the devices run
// now — which reloads, attaches and rollbacks change after Prepare — with
// dense device ids and address owners. Reachability sweeps,
// traffic settles and Configs all resolve against this one value. It is
// cached and revalidated by a pointer compare per device, so the pointer
// changes exactly when some device's configuration or the device set did.
func (em *Emulation) Index() *config.Index {
	if em.index == nil || !em.index.Same(len(em.prep.Configs), em.runningConfig) {
		cfgs := make(map[string]*config.DeviceConfig, len(em.prep.Configs))
		for name := range em.prep.Configs {
			cfgs[name] = em.runningConfig(name)
		}
		em.index = config.NewIndex(cfgs)
	}
	return em.index
}

// runningConfig returns what the named device runs: its firmware's
// configuration once it has booted, the prepared one until then.
func (em *Emulation) runningConfig(name string) *config.DeviceConfig {
	if d := em.Devices[name]; d != nil {
		return d.Config()
	}
	return em.prep.Configs[name]
}

// Configs returns the active configurations by device name (the live
// index's map: shared, not copied — callers must not mutate).
func (em *Emulation) Configs() map[string]*config.DeviceConfig { return em.Index().Configs() }

// Network returns the emulated topology.
func (em *Emulation) Network() *topo.Network { return em.prep.Plan.Network }

// Plan returns the emulation's boundary plan.
func (em *Emulation) Plan() *boundary.Plan { return em.prep.Plan }

// ---- health monitor and recovery (§6.2) ----

func (em *Emulation) alert(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	em.orch.Eng.Recorder().Event("alert", msg)
	em.Alerts = append(em.Alerts, fmt.Sprintf("[%s] ", em.orch.Eng.Now())+msg)
}

func (em *Emulation) scheduleHealthCheck() {
	// The tick is a daemon event: an armed health monitor must not keep
	// Run/wait-converge from reaching quiescence.
	em.healthTick = em.orch.Eng.Daemon(em.orch.opts.HealthInterval, func() {
		if em.cleared {
			return
		}
		em.healthCheck()
		em.scheduleHealthCheck()
	})
}

// healthCheck verifies device liveness and link state. Crashed firmware is
// alerted and restarted — unless its VM is mid-recovery, which owns the
// restart. Link-down alerts are deduped per link (one alert when it goes
// down, one when it is restored) so Alerts stays bounded under long
// campaigns; both walks are in sorted order so the alert stream is
// deterministic per seed.
func (em *Emulation) healthCheck() {
	names := make([]string, 0, len(em.Devices))
	for n := range em.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if em.Devices[name].State() != firmware.DeviceCrashed {
			continue
		}
		if vm := em.vmOf[name]; vm != nil && em.recovering[vm] != nil {
			continue // VM recovery will rebuild and reboot it
		}
		em.alert("device %s crashed; restarting", name)
		if sp := em.Speakers[name]; sp != nil {
			// A restarted speaker is empty until its recorded routes are
			// replayed; re-inject once the reload completes.
			em.Devices[name].Reload(nil, sp.Inject)
		} else {
			em.Devices[name].Reload(nil, nil)
		}
	}
	keys := make([]linkKey, 0, len(em.vlinks))
	for k := range em.vlinks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	suppressed := em.orch.Eng.Recorder().Counter("health.alerts_suppressed", "")
	for _, k := range keys {
		if !em.vlinks[k].Up() {
			if em.linkDown[k] == 0 {
				em.alert("link %s <-> %s down", k.a, k.b)
			} else {
				suppressed.Inc()
			}
			em.linkDown[k]++
		} else if n := em.linkDown[k]; n > 0 {
			if n > 1 {
				em.alert("link %s <-> %s restored (down %d checks)", k.a, k.b, n)
			} else {
				em.alert("link %s <-> %s restored", k.a, k.b)
			}
			delete(em.linkDown, k)
		}
	}
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
// host for it (same region), affected containers and devices move over,
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
		h.Region = oldHost.Region
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

// Clear stops all firmware and resets the VMs to a clean state (Table 2).
// onDone fires when every VM has finished clearing; ClearedAt records the
// completion time.
func (em *Emulation) Clear(onDone func()) {
	clearStart := em.orch.Eng.Now()
	// Faults still queued at teardown will never fire: say so loudly
	// (lost-fault detection) before marking the emulation cleared.
	if n := em.FaultsPending(); n > 0 {
		em.orch.Eng.Recorder().Counter("vm.faults_lost", "").Add(uint64(n))
		em.alert("clearing with %d queued VM fault(s) that never fired", n)
	}
	em.cleared = true
	em.healthArmed = false
	if em.healthTick != nil {
		em.healthTick.Cancel()
	}
	// Cancel recovery deadlines eagerly so teardown leaves no stray timers
	// (checkpointing after Clear requires a fully drained queue). Cancel
	// consumes no randomness, so map order is immaterial.
	for _, rec := range em.recovering {
		rec.deadline.Cancel()
	}
	// Iterate in sorted order everywhere below: teardown consumes engine RNG
	// (the per-VM clear jitter), and drawing it in map-iteration order would
	// make Clear latency differ between identically-seeded runs.
	devNames := make([]string, 0, len(em.Devices))
	for n := range em.Devices {
		devNames = append(devNames, n)
	}
	sort.Strings(devNames)
	for _, n := range devNames {
		em.Devices[n].Stop("clear")
	}
	boxNames := make([]string, 0, len(em.vmOf))
	for n := range em.vmOf {
		boxNames = append(boxNames, n)
	}
	sort.Strings(boxNames)
	byVM := map[*cloud.VM]int{}
	var vmOrder []*cloud.VM
	for _, name := range boxNames {
		vm := em.vmOf[name]
		if byVM[vm] == 0 {
			vmOrder = append(vmOrder, vm)
		}
		byVM[vm]++
		host := em.Fabric.Host(vm.Name)
		host.RemoveContainer(name)
	}
	pending := 0
	for _, vm := range vmOrder {
		boxes := byVM[vm]
		pending++
		vm := vm
		fixed := em.orch.Eng.Jitter(clearFixed, clearJitter)
		work := clearWorkPerBox * float64(boxes)
		em.orch.Eng.After(fixed, func() {
			vm.Submit(work, func() {
				pending--
				if pending == 0 {
					em.ClearedAt = em.orch.Eng.Now()
					em.orch.Eng.Recorder().SpanAt("phase", "clear", int64(clearStart), int64(em.ClearedAt))
					if onDone != nil {
						onDone()
					}
				}
			})
		})
	}
	if pending == 0 {
		em.ClearedAt = em.orch.Eng.Now()
		em.orch.Eng.Recorder().SpanAt("phase", "clear", int64(clearStart), int64(em.ClearedAt))
		if onDone != nil {
			onDone()
		}
	}
}
