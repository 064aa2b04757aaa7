package bgp

import (
	"slices"

	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// Seal freezes the router's routing state for sharing with forks. It is the
// one step of sharing that writes the router, so it runs single-threaded, at
// Emulation.Checkpoint; afterwards Fork only reads, and both the router and
// its forks replace — never edit — whatever they hold in common (DESIGN.md
// §6, the ownership invariant):
//
//   - every Loc-RIB entry, the entries slice and the prefix index become
//     shared: the router gives up ownership of all of them, and its own
//     later writes go through writable/entryFor like a fork's;
//   - every peer's Adj-RIB-Out is marked shared (rib.Dense.Seal).
//
// Seal also lets go of what only a running router needs: the export-template
// cache and the hop-group table (memos, which forks start without anyway),
// the decide and flush scratch and the storage of empty dirty sets. A
// router that runs on after Seal grows them again; one that only serves
// forks, as a checkpoint's does, holds that much less live heap for as long
// as it serves.
//
// The *Attrs a fork can reach need nothing here: each came through the
// router's AttrTable, which fills its memo (fingerprint and wire image)
// before publishing it, so it is read-only before any fork aliases it. Under
// -tags crystaldebug Seal checks exactly that on every one of them. The
// table itself is sealed once per emulation, by its owner (core's
// Emulation.Checkpoint), not per router.
func (r *Router) Seal() {
	assertMemosFilled(r)
	for _, p := range r.peers {
		p.advertised.Seal()
		if len(p.dirtyList) == 0 {
			p.dirtyBits, p.dirtyList = nil, nil
		}
	}
	r.exportCache, r.hopSets, r.nhScratch, r.flush = nil, rib.HopSetTable{}, nil, flushScratch{}
	r.entries = slices.Clip(r.entries)
	r.cow, r.indexShared, r.entriesShared, r.owned = true, true, true, nil
}

// Fork returns the router of a forked emulation, rebound to the fork's engine
// and hooks. hooks.Attrs must be a fork of the router's table taken after the
// table's last Seal (AttrTable.Fork): the canonical objects the router's RIBs
// hold are in its frozen layer, so the fork's decodes come to those same
// pointers. It costs one small struct per peer: the entries and the slice
// holding them, the prefix index, the id-to-prefix and aggregate coverage
// lists and the Adj-RIB tables are all shared with r, and each side pays for
// a private copy of what it later writes (the entries slice whole, at its
// first replaced or added entry). The source router
// is read strictly read-only, so any number of forks can be taken from it
// concurrently. r must be sealed with no write since (Seal); Fork panics
// otherwise, because r would go on editing state the fork reads.
//
// Attribute objects (*Attrs) and AS paths are immutable once shared, so the
// fork aliases them: the decide path compares attribute pointers
// (prevBestAttrs != newBestAttrs), and sharing preserves the exact aliasing
// topology between Loc-RIB candidates and the entries' lastBest caches.
//
// The export-template cache and the hop-group table start empty. Aliasing
// keeps the cache's pointer keys valid, so copying it would be correct — but
// measured on the S-DC chaos campaign the copies cost more than the misses:
// fault churn mostly derives new attribute objects, which miss any warm
// cache. Neither changes output bytes (both are pure memoization), only how
// much work a decide or a flush does.
func (r *Router) Fork(eng *sim.Engine, hooks Hooks) *Router {
	if !r.cow || r.owned != nil {
		panic("bgp: Fork of a router written since its last Seal")
	}
	if hooks.Attrs == nil {
		panic("bgp: Fork without the forked emulation's attribute table")
	}
	if hooks.Logf == nil {
		hooks.Logf = func(string, ...any) {}
	}
	if hooks.SessionEvent == nil {
		hooks.SessionEvent = func(int, SessionState) {}
	}
	c := &Router{
		cfg:   r.cfg,
		eng:   eng,
		hooks: hooks,
		seq:   r.seq,
		// The entries slice is shared until the fork's first write to it
		// (writable copies it; Seal clipped it, so entryFor's append moves
		// it). The append-only lists are shared up to their current length,
		// with the capacity clipped so the fork's first append moves it to a
		// private array; the parent appends beyond every fork's length,
		// which no fork reads.
		index:         r.index,
		indexShared:   true,
		entries:       r.entries,
		entriesShared: true,
		prefixByID:    r.prefixByID[:len(r.prefixByID):len(r.prefixByID)],
		cow:           true,
		aggState:      append([]aggState(nil), r.aggState...),
	}
	for i := range c.aggState {
		cov := c.aggState[i].covered
		c.aggState[i].covered = cov[:len(cov):len(cov)]
	}
	// The fork's engine carries the fork's recorder, whose counters already
	// hold the parent's totals (obs.Recorder.Fork deep-copies them), so
	// rebinding continues the series rather than restarting it.
	c.bindMetrics(eng.Recorder())

	// Loc-RIB candidates name their peer by index, which is the same in the
	// fork's peer slice, so entries need no remapping.
	c.peers = make([]*Peer, len(r.peers))
	for i, p := range r.peers {
		// flushTimer is a pending closure and stays nil: forks are only taken
		// at quiescence, when every MRAI flush has already fired.
		c.peers[i] = &Peer{
			router:      c,
			Index:       p.Index,
			Config:      p.Config,
			state:       p.state,
			remoteID:    p.remoteID,
			openSent:    p.openSent,
			localGen:    p.localGen,
			remoteGen:   p.remoteGen,
			advertised:  p.advertised.Clone(),
			dirtyBits:   append([]uint64(nil), p.dirtyBits...),
			dirtyList:   append([]int32(nil), p.dirtyList...),
			MsgsIn:      p.MsgsIn,
			MsgsOut:     p.MsgsOut,
			RoutesIn:    p.RoutesIn,
			WithdrawsIn: p.WithdrawsIn,
		}
	}
	return c
}

// Copies returns the copy-on-write cost the router has paid since it was
// forked or created: Loc-RIB entries replaced by private copies, and Adj-RIB
// tables that copied their shared arrays.
func (r *Router) Copies() (ribEntries, denseTables int) {
	for _, p := range r.peers {
		denseTables += p.advertised.Copies()
	}
	return r.entryCopies, denseTables
}
