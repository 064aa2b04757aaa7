package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"crystalnet/internal/checkpoint"
	"crystalnet/internal/cloud"
	"crystalnet/internal/firmware"
	"crystalnet/internal/sim"
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
// It fails unless the emulation is quiescent (RunUntilConverged leaves it
// so): pending events are closures that cannot be duplicated into a fork,
// so nothing may be pending but the VMs' armed background failures, which
// the cloud keeps as data and a fork re-arms (cloud.Provider.Fork).
// Quiescence is also what guarantees no protocol timer or boot callback is
// in flight. A sharded emulation's checkpoint records every domain
// engine's state (Snapshot.Shards) to be read, not forked.
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
	if n, armed := em.orch.Eng.Pending(), em.orch.Cloud.ArmedFailures(); n != armed {
		return nil, fmt.Errorf("core: checkpoint: %d background events pending, but the cloud re-arms %d VM failures in a fork", n, armed)
	}
	var shardStates []sim.EngineState
	if em.shards != nil {
		if shardStates, err = em.shards.SnapshotDomains(); err != nil {
			return nil, fmt.Errorf("core: checkpoint requires a quiescent emulation: %w", err)
		}
	}
	// Seal the bulk routing state now, single-threaded: FIB tries are built
	// and given up for sharing, Loc-RIB entries, Adj-RIB tables and ARP
	// caches marked shared, memos frozen. After this neither the parent nor any fork writes state the
	// other can reach, and nothing shared is filled lazily on read, so
	// concurrent forks only read the parent (DESIGN.md §6).
	for _, d := range em.Devices {
		d.Seal()
	}
	// The attribute table too: what it holds now is what the sealed RIBs
	// point at, and every fork reads it from here without a lock. And the
	// traffic matrix's settle results, which forks share frozen.
	em.attrs.Seal()
	em.traffic.Seal()
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
// overlay, device firmware shells and telemetry counters. The bulk is shared with the parent: immutable
// structures (topology, parsed configs, BGP policies, path attributes)
// outright, the layers of the attribute table and of the routers' and FIBs'
// memos sealed at Checkpoint read-only, and the routing state sealed there
// — FIB tries and entries, Loc-RIB entries, Adj-RIB tables, ARP caches —
// copy-on-write, so a fork costs O(devices) plus what its
// steps go on to write (CowCopies counts that).
//
// Fork only reads the parent, so any number of forks can be taken from one
// snapshot concurrently. Each fork then behaves exactly as a fresh same-
// seed run would from the moment the snapshot was taken: identical event
// ordering, identical jitter draws, identical reports. A snapshot of a
// sharded emulation (Options.Shards) cannot be forked.
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
	if parent.shards != nil {
		return nil, fmt.Errorf("core: a sharded emulation cannot be forked (its checkpoint is read for counters only)")
	}

	eng := sim.NewEngineFrom(snap.Engine)
	// The recorder forks with the engine, before any state that caches
	// metric handles (device firmware) is copied: the fork's trace starts
	// with everything recorded up to the snapshot and diverges from there,
	// exactly like the rest of the emulation.
	eng.SetRecorder(o.Eng.Recorder().Fork())
	cloudFork := o.Cloud.Fork(eng)
	fabric := parent.Fabric.Fork(eng)

	em := &Emulation{
		orch: &Orchestrator{Eng: eng, Cloud: cloudFork, opts: o.opts},
		prep: parent.prep.fork(cloudFork.VMs()),

		Fabric:   fabric,
		Devices:  make(map[string]*firmware.Device, len(parent.Devices)),
		Injector: parent.Injector.Fork(eng),

		MockupStart:    parent.MockupStart,
		NetworkReadyAt: parent.NetworkReadyAt,
		ClearedAt:      parent.ClearedAt,

		Alerts:       slices.Clone(parent.Alerts),
		recoveries:   slices.Clone(parent.recoveries),
		degraded:     slices.Clone(parent.degraded),
		phasesTraced: parent.phasesTraced,
		index:        parent.index,
		attrs:        parent.attrs.Fork(),
		// The fork's copy of the traffic matrix settles exactly as a fresh
		// same-seed run would from here. Its settle memo names tables by
		// lineage, which the devices' cloned tables below keep, so the fork's
		// first settle walks only the aggregates its own steps move.
		traffic: parent.traffic.Fork(),

		// Quiescence guarantees no recovery episode is in flight (a pending
		// reboot or rebuild would be a queued event), so recovering starts
		// empty. Queued faults, however, can outlive quiescence — a fault
		// queued on a VM that never came back — and their *count* is carried
		// over for lost-fault accounting; the waiter closures themselves
		// cannot cross a fork (cloud.Fork documents this).
		recovering:    map[*cloud.VM]*vmRecovery{},
		pendingFaults: maps.Clone(parent.pendingFaults),
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
		em.Devices[name] = d.Fork(eng, fabric, em.container(name), em.vmFor(name), em.attrs)
	}
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
// lists is shared with the parent — topology, plan, parsed configs, vendor
// images, recorded speaker routes, device assignments: whoever grows one
// replaces it (AttachNewDevice), nobody edits it. The lists name VM objects,
// which are per emulation, so they are remapped to forked, the fork's VMs by
// ID, and are the fork's own to edit (onVMReplaced); every assignment
// resolves through them, so this is the only placement a fork remaps.
func (p *Preparation) fork(forked []*cloud.VM) *Preparation {
	c := *p
	c.groupVMs = make(map[string][]*cloud.VM, len(p.groupVMs))
	for g, vms := range p.groupVMs {
		nv := make([]*cloud.VM, len(vms))
		for i, vm := range vms {
			nv[i] = forked[vm.ID]
		}
		c.groupVMs[g] = nv
	}
	return &c
}
