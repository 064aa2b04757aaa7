// Package checkpoint defines the snapshot handle used to branch a converged
// emulation: converge once, fork N times.
//
// A Snapshot is cheap to take — it records the engine's serializable scalar
// state (clock, scheduling counters, RNG stream position) plus a frozen
// reference to the source emulation. The deep copy happens at fork time,
// in Orchestrator.Fork, which walks the frozen emulation strictly read-only
// so any number of forks can materialize concurrently.
//
// The contract that makes this sound is quiescence: a snapshot can only be
// taken when the engine's event queue is empty (RunUntilConverged drains it).
// An empty queue means there are no pending closures to duplicate, every
// protocol timer (BGP MRAI flush, OSPF SPF debounce, session retries) has
// fired or been canceled, and no VM boot callbacks are outstanding. Forks
// therefore restore only data, never control flow.
//
// What is shared copy-on-write versus deep-copied:
//
//   - Shared (immutable after convergence): the topology *topo.Network, the
//     parsed device configs, BGP policies, encoded *bgp.ASPath values and
//     *bgp.Attrs path attributes (cloned once per fork via a pointer memo so
//     intra-router sharing — Adj-RIB-In, Loc-RIB candidates, last-best — is
//     preserved exactly), ACL rule objects, and P4 table entries.
//   - Deep-copied (mutable routing state): FIB tries, BGP peer and Loc-RIB
//     state, OSPF LSDBs and adjacency state, phynet hosts/containers/links,
//     VM accounting, ARP caches and pending frames, telemetry counters.
//
// The sharing of *bgp.Attrs relies on the no-retention contract from the
// routing hooks (Hooks.InstallRoute and friends): consumers must not hold
// references to hook arguments beyond the call, so attribute objects are
// only reachable through the router structures the fork rewrites.
//
// DESIGN.md §6 is the full snapshot-model write-up this comment summarizes.
package checkpoint

import (
	"sync/atomic"

	"crystalnet/internal/sim"
)

// Snapshot is a frozen, forkable image of a converged emulation.
//
// It does not deep-copy anything itself: Origin points at the live source
// emulation, which must not be mutated (stepped, cleared, reconfigured)
// while forks are outstanding. Orchestrator.Fork performs the deep copy,
// reading the origin without writing it, so concurrent forks are safe.
type Snapshot struct {
	// TakenAt is the virtual time at which the snapshot was captured.
	TakenAt sim.Time
	// Engine is the serializable engine state; forks boot a fresh engine
	// from it so virtual clocks, FIFO sequence numbers and RNG draws
	// continue exactly as a fresh run's would.
	Engine sim.EngineState
	// Shards holds the per-domain engine states of a sharded emulation
	// (DESIGN.md §10), in domain order; nil for the classic single-engine
	// schedule. Forks restore one engine per entry so every domain's RNG
	// stream and sequence counter continue exactly where they stopped.
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
