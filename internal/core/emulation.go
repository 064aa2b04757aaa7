package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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

// Emulation is one mocked-up network.
type Emulation struct {
	orch *Orchestrator
	prep *Preparation

	Fabric   *phynet.Fabric
	Devices  map[string]*firmware.Device
	Injector *telemetry.Injector

	// shards, when non-nil, holds the §10 sharded-execution ensemble: one
	// domain engine per VM plus the orchestrator's master engine. All
	// convergence drives go through it instead of em.orch.Eng.Run.
	shards *sim.ShardSet

	// Timeline (§8.1 metrics).
	MockupStart    sim.Time
	NetworkReadyAt sim.Time
	ClearedAt      sim.Time

	// Alerts and recovery history (§6.2).
	Alerts     []string
	recoveries []time.Duration
	cleared    bool
	// Failure-domain hardening state (§6.2 recovery state machine).
	recovering map[*cloud.VM]*vmRecovery
	degraded   []string
	// pendingFaults counts queued faults by VM name: a fork shares the names
	// of its parent's VMs, so it copies the counts as they are.
	pendingFaults map[string]int
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
	em.hostOf(name).RemoveContainer(name)
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
	c := em.addContainer(em.hostOf(name), d)
	// Reconnect links to peers that are still up.
	em.deviceLinks(name, func(local, remote *topo.Interface, ri *phynet.VIface) {
		em.connect(c.Iface(local.Name), ri)
		// Tell the remote firmware its link flapped.
		if rdev := em.Devices[remote.Device.Name]; rdev != nil {
			rdev.LinkDown(remote.Name)
			rdev.LinkUp(remote.Name)
		}
	})
	if dev := em.Devices[name]; dev != nil {
		dev.Reattach(c)
	}
}

// vmFor returns the VM hosting the named device: its prepared placement
// (Preparation.assignments) resolved through this emulation's VM lists, so a
// fork or a replaced VM needs no second copy of it. It is nil for hardware
// devices and unknown names, and for every device until build() has placed
// them (vmsPending reaching zero).
func (em *Emulation) vmFor(name string) *cloud.VM {
	asg, ok := em.prep.assignments[name]
	if !ok || em.vmsPending > 0 {
		return nil
	}
	return em.prep.groupVMs[asg.group][asg.index]
}

// placed returns the names of the devices vmFor places, sorted.
func (em *Emulation) placed() []string {
	if em.vmsPending > 0 {
		return nil
	}
	return slices.Sorted(maps.Keys(em.prep.assignments))
}

// hostOf returns the PhyNet host the named device lives on: the fanout
// server for hardware, its VM's host otherwise (nil until it is placed).
func (em *Emulation) hostOf(name string) *phynet.Host {
	if em.prep.hardware[name] {
		return em.Fabric.Host(fanoutHost)
	}
	if vm := em.vmFor(name); vm != nil {
		return em.Fabric.Host(vm.Name)
	}
	return nil
}

// container returns the named device's PhyNet container, or nil while it has
// none: not emulated, not yet built, or removed until a rebuild.
func (em *Emulation) container(name string) *phynet.Container {
	if h := em.hostOf(name); h != nil {
		return h.Container(name)
	}
	return nil
}

// addContainer builds the PhyNet half of device d on host: a container in
// place of any the host still has under d's name, with one interface per
// topology interface. Mockup, recovery, strawman reload and rack attach all
// build a device's namespace here.
func (em *Emulation) addContainer(host *phynet.Host, d *topo.Device) *phynet.Container {
	host.RemoveContainer(d.Name)
	c := host.AddContainer(d.Name)
	for _, intf := range d.Interfaces {
		c.AddIface(intf.Name, intf.MAC)
	}
	return c
}

// deviceLinks calls fn, in n.Links order, for every topology link that
// touches the named device and whose far end has a container: the device's
// end, the far end, and the far end's interface. A far
// container that lacks the interface gets it hot-added first — the peering is
// new on that side too, and its firmware picks it up on the operator's
// reload. Recovery, rack attach and link drop all walk a device's links here;
// keeping n.Links order keeps their traces byte-identical run to run.
func (em *Emulation) deviceLinks(name string, fn func(local, remote *topo.Interface, ri *phynet.VIface)) {
	for _, l := range em.prep.Plan.Network.Links {
		local, remote := l.A, l.B
		switch name {
		case l.A.Device.Name:
		case l.B.Device.Name:
			local, remote = l.B, l.A
		default:
			continue
		}
		rc := em.container(remote.Device.Name)
		if rc == nil {
			continue // far end not emulated, or between a removal and its rebuild
		}
		ri := rc.Iface(remote.Name)
		if ri == nil {
			ri = rc.AddIface(remote.Name, remote.MAC)
		}
		fn(local, remote, ri)
	}
}

// connect plugs li into a fresh virtual link to ri. A far interface still
// plugged into a dead link (RemoveContainer downed it but the object remains
// plugged) is first replaced by a new one with the same identity: real
// PhyNet would reuse the veth, this structural model swaps the object.
func (em *Emulation) connect(li, ri *phynet.VIface) {
	if ri.Link() != nil {
		rc := ri.Container
		rc.RemoveIface(ri.Name)
		ri = rc.AddIface(ri.Name, ri.MAC)
	}
	em.Fabric.Connect(li, ri)
}

// AttachNewDevice incrementally adds a device to a RUNNING emulation (§3.2:
// "quick incremental changes to the emulation") — the new-rack-deployment
// rehearsal. net is the topology grown by the device and its links to
// emulated devices: a copy of Network() (topo.Network.Clone), which the
// emulation shares with its checkpoint and forks and so never edits; it
// becomes the emulation's topology. The device's container is placed on
// the least-loaded VM of its vendor group (spawning a fresh VM if the
// vendor is new), links are built, and the firmware boots with a generated
// configuration. Neighbors learn the new sessions when the operator reloads
// them with updated configurations, as in production.
func (em *Emulation) AttachNewDevice(net *topo.Network, name string, img firmware.VendorImage) error {
	d := net.Device(name)
	if d == nil {
		return fmt.Errorf("core: device %q not in topology", name)
	}
	if em.Devices[name] != nil {
		return fmt.Errorf("core: device %q already emulated", name)
	}
	cfg := config.GenerateDevice(d)
	cfg.Credential = credential
	if err := cfg.Validate(); err != nil {
		return err
	}

	// Place on the emptiest VM of the vendor group, or spawn one.
	vms := em.prep.groupVMs[img.Name]
	var vm *cloud.VM
	if len(vms) > 0 {
		counts := map[*cloud.VM]int{}
		for _, n := range em.placed() {
			counts[em.vmFor(n)]++
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
	plan.Network = net
	plan.Emulated = withEntry(plan.Emulated, name, true)
	em.prep.Plan = &plan
	em.prep.Configs = withEntry(em.prep.Configs, name, cfg)
	em.prep.Images = withEntry(em.prep.Images, name, img)
	attach := func(vm *cloud.VM) {
		// The device's placement joins the shared map by replacement, like
		// the plan above; vm is in its vendor group by now (a replacement
		// took its predecessor's slot in onVMReplaced).
		em.prep.assignments = withEntry(em.prep.assignments, name,
			vmAssignment{group: img.Name, index: slices.Index(em.prep.groupVMs[img.Name], vm)})
		host := em.Fabric.Host(vm.Name)
		c := em.addContainer(host, d)
		em.deviceLinks(name, func(local, _ *topo.Interface, ri *phynet.VIface) {
			em.connect(c.Iface(local.Name), ri)
		})
		dev := firmware.New(name, img, cfg, em.deviceEng(name), em.Fabric, c, vm, em.attrs)
		em.Devices[name] = dev
		vm.Submit(host.SetupCost()/10, func() { dev.Boot(nil) })
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
	// The new VM joins the overlay as Mockup's do; a replacement, should it
	// need one, gets its own host from onVMReplaced.
	em.Fabric.AddHost(fresh[0].Name)
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
	if da.Intf(ifA) == nil || db.Intf(ifB) == nil {
		return fmt.Errorf("core: unknown interface")
	}
	// The link is the one devA:ifA is plugged into, and only if its far end
	// is devB:ifB, both in the containers the devices have now.
	var vl *phynet.VirtualLink
	if ca, cb := em.container(devA), em.container(devB); ca != nil && cb != nil {
		if ia := ca.Iface(ifA); ia != nil {
			if l := ia.Link(); l != nil && l.Other(ia) == cb.Iface(ifB) {
				vl = l
			}
		}
	}
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

// PullPackets drains telemetry captures from all devices.
func (em *Emulation) PullPackets() []firmware.CaptureRecord {
	var devs []*firmware.Device
	for _, name := range em.allNames() {
		devs = append(devs, em.Devices[name])
	}
	return telemetry.Collect(devs)
}

// Login opens a management session to a device (the paper's Login helper):
// the device map is the jumpbox's name service, so a device attached on a
// fork answers there and nowhere else.
func (em *Emulation) Login(name string) (*mgmt.Session, error) {
	return mgmt.Login(name, em.Devices[name])
}

// List returns all emulated device names (the List helper).
func (em *Emulation) List() []string { return em.allNames() }

// State is a saved emulation snapshot (§3.2: "saving and restoring
// emulation state"): configurations plus forwarding tables. It is the
// artifact a validation workflow saves before a risky step and diffs
// against after, and what a rollback restores from. Nothing in it is a
// copy: installed configurations and FIB entries are never edited, so
// holding the pointers is holding the content.
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
	byVM := map[*cloud.VM]int{}
	var vmOrder []*cloud.VM
	for _, name := range em.placed() {
		vm := em.vmFor(name)
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
