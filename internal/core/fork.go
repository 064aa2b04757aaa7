package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"crystalnet/internal/checkpoint"
	"crystalnet/internal/cloud"
	"crystalnet/internal/firmware"
	"crystalnet/internal/phynet"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
	"crystalnet/internal/speaker"
)

// Checkpoint captures the emulation at quiescence so it can be forked.
//
// The snapshot records the engine's serializable state, freezes a reference
// to this emulation and seals every device's routing state for sharing;
// Orchestrator.Fork then shares that state and copies the rest. Until every
// intended fork has been taken, the parent emulation must not be advanced,
// reconfigured or cleared — a fork starts from the parent as it is when
// Fork runs, and Fork refuses (panics in the table being cloned) a parent
// written since its checkpoint. Once the forks exist the parent is free to
// move on: its writes copy what they touch, like a fork's.
//
// It fails unless the event queue is empty (RunUntilConverged drains it):
// pending events are closures that cannot be duplicated into a fork, and
// an empty queue is also what guarantees no protocol timer or boot
// callback is in flight.
func (em *Emulation) Checkpoint() (*checkpoint.Snapshot, error) {
	if em.cleared {
		return nil, fmt.Errorf("core: cannot checkpoint a cleared emulation")
	}
	if em.vmsPending > 0 || em.buildsPending > 0 {
		return nil, fmt.Errorf("core: cannot checkpoint before mockup completes (%d VMs, %d builds pending)",
			em.vmsPending, em.buildsPending)
	}
	st, err := em.orch.Eng.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint requires a quiescent emulation: %w", err)
	}
	var shardStates []sim.EngineState
	if em.shards != nil {
		if shardStates, err = em.shards.SnapshotDomains(); err != nil {
			return nil, fmt.Errorf("core: checkpoint requires a quiescent emulation: %w", err)
		}
	}
	// Seal the bulk routing state now, single-threaded: FIB tries are built
	// and given up for sharing, Loc-RIB entries and Adj-RIB tables marked
	// shared, attribute-fingerprint memos forced. After this neither the
	// parent nor any fork writes state the other can reach, and nothing
	// shared is filled lazily on read, so concurrent forks only read the
	// parent (DESIGN.md §6).
	for _, d := range em.Devices {
		d.Seal()
	}
	// Likewise the fabric index: brought up to date here, it is what every
	// fork starts from, and no fork has to write the parent to get one.
	em.Index()
	return &checkpoint.Snapshot{TakenAt: st.Now, Engine: st, Shards: shardStates, Origin: em}, nil
}

// Orchestrator returns the orchestrator driving this emulation. Forked
// emulations own a private orchestrator (engine + cloud), which is how
// they run concurrently with their parent and siblings.
func (em *Emulation) Orchestrator() *Orchestrator { return em.orch }

// Fork materializes an independent emulation from a snapshot taken on this
// orchestrator: a fresh engine restored to the captured clock and RNG
// stream, plus copies of the small mutable state — cloud VMs, the phynet
// overlay, device firmware shells, speakers, the management plane and
// telemetry counters. The bulk is shared with the parent: immutable
// structures (topology, parsed configs, BGP policies, path attributes)
// outright, and the routing state sealed at Checkpoint — FIB tries and
// entries, Loc-RIB entries, Adj-RIB tables — copy-on-write, so a fork costs
// O(devices) plus what its steps go on to write (CowCopies counts that).
//
// Fork only reads the parent, so any number of forks can be taken from one
// snapshot concurrently. Each fork then behaves exactly as a fresh same-
// seed run would from the moment the snapshot was taken: identical event
// ordering, identical jitter draws, identical reports.
func (o *Orchestrator) Fork(snap *checkpoint.Snapshot) (*Emulation, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Invalidated() {
		return nil, fmt.Errorf("core: snapshot has been invalidated (its checkpoint was evicted or released)")
	}
	parent, ok := snap.Origin.(*Emulation)
	if !ok {
		return nil, fmt.Errorf("core: snapshot origin is not a core emulation")
	}
	if parent.orch != o {
		return nil, fmt.Errorf("core: snapshot belongs to a different orchestrator")
	}

	eng := sim.NewEngineFrom(snap.Engine)
	// The recorder forks with the engine, before any state that caches
	// metric handles (device firmware) is copied: the fork's trace starts
	// with everything recorded up to the snapshot and diverges from there,
	// exactly like the rest of the emulation.
	eng.SetRecorder(o.Eng.Recorder().Fork())
	cloudFork, vmMap := o.Cloud.Fork(eng)
	fabric, ifaceMap, ctMap := parent.Fabric.Fork(eng)

	em := &Emulation{
		orch: &Orchestrator{Eng: eng, Cloud: cloudFork, opts: o.opts},
		prep: parent.prep.fork(vmMap),

		Fabric:     fabric,
		Devices:    make(map[string]*firmware.Device, len(parent.Devices)),
		Speakers:   make(map[string]*speaker.Speaker, len(parent.Speakers)),
		Injector:   parent.Injector.Fork(eng),
		containers: make(map[string]*phynet.Container, len(parent.containers)),
		vmOf:       make(map[string]*cloud.VM, len(parent.vmOf)),
		vlinks:     make(map[linkKey]*phynet.VirtualLink, len(parent.vlinks)),

		MockupStart:    parent.MockupStart,
		NetworkReadyAt: parent.NetworkReadyAt,
		ClearedAt:      parent.ClearedAt,

		Alerts:       slices.Clone(parent.Alerts),
		recoveries:   slices.Clone(parent.recoveries),
		degraded:     slices.Clone(parent.degraded),
		phasesTraced: parent.phasesTraced,
		index:        parent.index,
		// The fork's copy of the traffic matrix settles exactly as a fresh
		// same-seed run would from here; once the devices below are forked
		// its settle memo is rebound to their tables.
		traffic: parent.traffic.Fork(),

		// Quiescence guarantees no recovery episode is in flight (a pending
		// reboot or rebuild would be a queued event), so recovering starts
		// empty. Queued faults, however, can outlive quiescence — a fault
		// queued on a VM that never came back — and their *count* is carried
		// over for lost-fault accounting; the waiter closures themselves
		// cannot cross a fork (cloud.Fork documents this).
		recovering:    map[*cloud.VM]*vmRecovery{},
		pendingFaults: make(map[*cloud.VM]int, len(parent.pendingFaults)),
		linkDown:      maps.Clone(parent.linkDown),
	}
	if parent.shards != nil {
		// Restore the domain ensemble before devices fork: each forked
		// device must be built on the engine owning its host's domain, with
		// that domain's captured clock and RNG stream.
		em.shards = sim.NewShardSetFrom(eng, snap.Shards, parent.shards.Workers())
		fabric.SetShards(em.shards)
	}
	for vm, n := range parent.pendingFaults {
		em.pendingFaults[vmMap[vm]] = n
	}
	for name, ct := range parent.containers {
		em.containers[name] = ctMap[ct]
	}
	for name, vm := range parent.vmOf {
		em.vmOf[name] = vmMap[vm]
	}
	for k, vl := range parent.vlinks {
		em.vlinks[k] = ifaceMap[vl.A].Link()
	}
	// Sorted for reproducible log/alert interleaving should a fork method
	// ever emit one; forking draws no events or randomness either way.
	names := make([]string, 0, len(parent.Devices))
	for name := range parent.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := parent.Devices[name]
		em.Devices[name] = d.Fork(em.deviceEng(name), fabric, em.containers[name], em.vmOf[name])
	}
	for name, sp := range parent.Speakers {
		em.Speakers[name] = sp.Fork(em.Devices[name])
	}
	// Wherever the parent's table is still what its last settle saw, the
	// fork's clone of it is too, so the fork's first settle walks only the
	// aggregates its own steps move.
	em.traffic.Rebind(func(name string) (*rib.FIB, *rib.FIB) {
		return parent.table(name), em.table(name)
	})
	em.Mgmt = parent.Mgmt.Fork(func(name string) *firmware.Device { return em.Devices[name] })
	cloudFork.OnFailure = em.onVMFailure
	cloudFork.OnReplace = em.onVMReplaced
	cloudFork.OnBootAborted = em.onBootAborted
	return em, nil
}

// CowCopies counts copy-on-write copies by kind (see firmware.CowCopies).
type CowCopies = firmware.CowCopies

// CowCopies sums the copy-on-write cost of every device: how much shared
// routing state this emulation's writes have had to copy since it was forked
// (for a checkpointed parent, since it was sealed). A rehearsal is cheap
// while this stays near what its steps perturb.
func (em *Emulation) CowCopies() CowCopies {
	var c CowCopies
	for _, d := range em.Devices {
		c.Add(d.CowCopies())
	}
	return c
}

// fork returns the preparation of a forked emulation. Everything but the VM
// placements is shared with the parent — topology, plan, parsed configs,
// vendor images, recorded speaker routes, device assignments: whoever grows
// one replaces it (AttachNewDevice), nobody edits it. The placements name
// VM objects, which are per emulation, so they are remapped through vmMap
// and are the fork's own to edit (onVMReplaced).
func (p *Preparation) fork(vmMap map[*cloud.VM]*cloud.VM) *Preparation {
	c := *p
	c.groupVMs = make(map[string][]*cloud.VM, len(p.groupVMs))
	for g, vms := range p.groupVMs {
		nv := make([]*cloud.VM, len(vms))
		for i, vm := range vms {
			nv[i] = vmMap[vm]
		}
		c.groupVMs[g] = nv
	}
	return &c
}
