// Package checkpoint defines the snapshot handle used to branch a converged
// emulation: converge once, fork N times.
//
// A Snapshot is cheap to take — it records the engine's serializable scalar
// state (clock, scheduling counters, RNG stream position) plus a frozen
// reference to the source emulation, whose bulk routing state
// Emulation.Checkpoint seals for sharing. Orchestrator.Fork then builds each
// fork reading the frozen emulation strictly read-only, so any number of
// forks can materialize concurrently.
//
// The contract that makes this sound is quiescence: a snapshot can only be
// taken when the engine's event queue is empty (RunUntilConverged drains it).
// An empty queue means there are no pending closures to duplicate, every
// protocol timer (BGP MRAI flush, OSPF SPF debounce, session retries) has
// fired or been canceled, and no VM boot callbacks are outstanding. Forks
// therefore restore only data, never control flow.
//
// What is shared, shared copy-on-write, and deep-copied:
//
//   - Shared (immutable): the topology *topo.Network, the parsed device
//     configs and the fabric index over them, BGP policies, encoded
//     *bgp.ASPath values and *bgp.Attrs path attributes (interned, their
//     memos filled before publication, so forks alias them and the
//     intra-router sharing of Adj-RIB, Loc-RIB candidates and last-best is
//     preserved exactly), the layer of the emulation's bgp.AttrTable sealed
//     at Checkpoint (so a fork's decodes come to those same objects),
//     installed FIB entries and hop groups, ACL rule objects and bindings,
//     P4 table rows, BGP session configs, and what a device's boot alone
//     writes (interface addresses, session and OSPF interface indexes).
//   - Shared frozen (sealed at Checkpoint, read without a lock): the memos
//     of routers and FIBs — export templates, hop-group tables, sorted
//     groups (rib.Memo). Each side adds to a layer of its own.
//   - Shared copy-on-write (sealed at Checkpoint): FIB tries, BGP Loc-RIB
//     entries and the prefix index, per-peer Adj-RIB tables, and ARP
//     caches. Each side copies exactly what it later writes; a cloned FIB
//     keeps its table's lineage and version, so readers keyed on them
//     follow it into the fork.
//   - Deep-copied (small mutable state): BGP session state, OSPF LSDBs and
//     adjacency state, phynet hosts/containers/links, VM accounting,
//     pending frames, telemetry counters. Protocol hooks are rebuilt
//     against the fork's device by the builder its boot uses.
//
// DESIGN.md §6 is the full snapshot-model write-up this comment summarizes.
package checkpoint

import (
	"sync/atomic"

	"crystalnet/internal/sim"
)

// Snapshot is a frozen, forkable image of a converged emulation.
//
// It copies nothing itself: Origin points at the live source emulation,
// which must not be mutated (stepped, cleared, reconfigured) until every
// intended fork has been taken. Orchestrator.Fork builds each fork reading
// the origin without writing it, so concurrent forks are safe.
type Snapshot struct {
	// TakenAt is the virtual time at which the snapshot was captured.
	TakenAt sim.Time
	// Engine is the serializable engine state; forks boot a fresh engine
	// from it so virtual clocks, FIFO sequence numbers and RNG draws
	// continue exactly as a fresh run's would.
	Engine sim.EngineState
	// Shards holds the per-domain engine states of a sharded emulation
	// (DESIGN.md §10), in domain order; nil for the classic single-engine
	// schedule. They are there to be read (each domain's clock and fired
	// count): a sharded snapshot cannot be forked.
	Shards []sim.EngineState
	// Origin is the frozen source emulation. It is typed as any so the
	// leaf packages that clone themselves into a fork need not import the
	// orchestration layer; core.Orchestrator.Fork asserts it back.
	Origin any

	// invalid is set by Invalidate; Fork refuses invalidated snapshots.
	invalid atomic.Bool
}

// Invalidate marks the snapshot permanently unforkable. A warm-pool owner
// calls it when an entry is evicted and its last borrower releases: any
// stale handle that tries to fork afterwards gets an error instead of
// silently reviving state the pool has given up. Safe to call from any
// goroutine, and idempotent.
func (s *Snapshot) Invalidate() { s.invalid.Store(true) }

// Invalidated reports whether Invalidate has been called.
func (s *Snapshot) Invalidated() bool { return s.invalid.Load() }
