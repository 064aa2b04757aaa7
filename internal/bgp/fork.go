package bgp

import (
	"slices"

	"crystalnet/internal/sim"
)

// Seal freezes the router's routing state for sharing with forks. It is the
// one step of sharing that writes the router, so it runs single-threaded, at
// Emulation.Checkpoint; afterwards Fork only reads, and both the router and
// its forks replace — never edit — whatever they hold in common (DESIGN.md
// §6, the ownership invariant):
//
//   - every Loc-RIB entry, the pages of the entry vector and the prefix
//     index become shared: the router gives up ownership of all of them,
//     and its own later writes go through writable/entryFor like a fork's;
//   - every peer's Adj-RIB-Out is sealed (rib.Dense.Seal);
//   - the export-template memo and the hop-group table are frozen
//     (rib.Memo.Seal): forks read them without a lock, and each side adds
//     to a layer of its own.
//
// Seal lets go of what only a running router needs: the decide and flush
// scratch and the storage of empty dirty sets. A router that runs on after
// Seal grows them again; one that only serves forks, as a checkpoint's
// does, holds that much less live heap for as long as it serves.
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
	r.exportCache.Seal()
	r.hopSets.Seal()
	r.nhScratch, r.flush = nil, flushScratch{}
	r.entries.Seal()
	r.cow, r.indexShared, r.owned = true, true, nil
}

// Fork returns the router of a forked emulation, rebound to the fork's engine
// and hooks. hooks.Attrs must be a fork of the router's table taken after the
// table's last Seal (AttrTable.Fork): the canonical objects the router's RIBs
// hold are in its frozen layer, so the fork's decodes come to those same
// pointers. It costs one router and one slab of sessions: the entries and
// the vector holding them, the prefix index, the id-to-prefix and aggregate
// coverage lists, the Adj-RIB tables and each session's configuration are
// all shared with r, and each side pays for a private copy of what it later
// writes (for the entry vector and the Adj-RIB tables, the 64-slot pages
// written; rib.Dense). The source router is read strictly read-only, so any
// number of forks can be taken from it concurrently. r must be sealed with
// no write since (Seal); Fork panics otherwise, because r would go on
// editing state the fork reads.
//
// Attribute objects (*Attrs) and AS paths are immutable once shared, so the
// fork aliases them: the decide path compares attribute pointers
// (prevBestAttrs != newBestAttrs), and sharing preserves the exact aliasing
// topology between Loc-RIB candidates and the entries' lastBest caches.
//
// The export-template memo and the hop-group table are shared as Seal froze
// them. Their keys and groups are canonical objects of the lineage, which
// the fork reaches by the same pointers, so a flap that re-exports a route
// under attributes the checkpoint had exported, or reprograms a prefix over
// a group it had used, finds the result instead of rebuilding it. Neither
// changes output bytes (both are pure memoization), only how much work a
// decide or a flush does.
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
		hooks.SessionEvent = func(int, SessionState, SessionState) {}
	}
	c := &Router{
		cfg:   r.cfg,
		eng:   eng,
		hooks: hooks,
		seq:   r.seq,
		// The entry vector shares its pages until the fork writes them
		// (rib.Dense copies a page on its first write). The append-only
		// lists are shared up to their current length, with the capacity
		// clipped so the fork's first append moves it to a private array;
		// the parent appends beyond every fork's length, which no fork
		// reads.
		index:       r.index,
		indexShared: true,
		entries:     r.entries.Clone(),
		prefixByID:  r.prefixByID[:len(r.prefixByID):len(r.prefixByID)],
		cow:         true,
		exportCache: r.exportCache.Fork(),
		hopSets:     r.hopSets.Fork(),
		aggState:    append([]aggState(nil), r.aggState...),
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
	// fork's peer slice, so entries need no remapping. The sessions live in
	// one slab.
	slab := make([]Peer, len(r.peers))
	c.peers = make([]*Peer, len(r.peers))
	for i, p := range r.peers {
		// flushTimer is a pending closure and stays nil: forks are only taken
		// at quiescence, when every MRAI flush has already fired. Seal
		// dropped empty dirty sets, so the copies below are of pending ones.
		slab[i] = Peer{
			router:      c,
			Index:       p.Index,
			Config:      p.Config,
			state:       p.state,
			remoteID:    p.remoteID,
			openSent:    p.openSent,
			localGen:    p.localGen,
			remoteGen:   p.remoteGen,
			advertised:  p.advertised.Clone(),
			dirtyBits:   slices.Clone(p.dirtyBits),
			dirtyList:   slices.Clone(p.dirtyList),
			MsgsIn:      p.MsgsIn,
			MsgsOut:     p.MsgsOut,
			RoutesIn:    p.RoutesIn,
			WithdrawsIn: p.WithdrawsIn,
		}
		c.peers[i] = &slab[i]
	}
	return c
}

// Copies returns the copy-on-write cost the router has paid since it was
// forked or created: Loc-RIB entries replaced by private copies, and pages
// of the entry vector and the Adj-RIB-Out tables copied because they were
// shared.
func (r *Router) Copies() (ribEntries, densePages int) {
	densePages = r.entries.Copies()
	for _, p := range r.peers {
		densePages += p.advertised.Copies()
	}
	return r.entryCopies, densePages
}
