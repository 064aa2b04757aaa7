package bgp

// Seal freezes the router's routing state for sharing with forks. It is the
// one step of sharing that writes the router, so it runs single-threaded, at
// Emulation.Checkpoint; afterwards Fork only reads, and both the router and
// its forks replace — never edit — whatever they hold in common (DESIGN.md
// §6, the ownership invariant):
//
//   - every Loc-RIB entry and the prefix index become shared: the router
//     gives up ownership of all of them, and its own later writes go through
//     writable/entryFor like a fork's;
//   - every peer's Adj-RIB tables are marked shared (rib.Dense.Seal);
//   - the lazy memo (fingerprint and wire image) is forced on every *Attrs
//     a fork could reach. Attrs are immutable once shared *except* for that
//     memo, so filling it here turns them fully read-only and lets concurrent
//     forks alias them without racing on the fill. With the global intern
//     table (Intern) active this part is a near-no-op: every attrs that
//     entered a RIB came through Intern, which filled the memo before
//     publication, so the walk only touches stragglers created while
//     interning was disabled.
func (r *Router) Seal() {
	seal := func(a *Attrs) {
		if a != nil && (a.memo.ekey == "" || a.memo.wire == nil) {
			attrsKey(a)
			wireImage(a)
		}
	}
	// The per-peer Adj-RIB-In is a presence bitset: every attrs a peer has
	// accepted is also a Loc-RIB candidate, so walking the Loc-RIB covers the
	// whole reachable attrs set.
	for _, e := range r.entries {
		for i := range e.candidates {
			seal(e.candidates[i].attrs)
		}
		seal(e.lastBest)
	}
	// Advertised export templates are not reachable from the Loc-RIB (they
	// carry the prepended path), yet forks alias them for the no-change
	// flush comparison — seal those too.
	for _, p := range r.peers {
		p.advertised.Range(func(_ int, a *Attrs) bool {
			seal(a)
			return true
		})
		p.adjIn.Seal()
		p.advertised.Seal()
	}
	r.cow, r.indexShared, r.owned = true, true, nil
}

// Fork returns the router of a forked emulation, rebound to the fork's clock
// and hooks. It costs one pointer per Loc-RIB entry plus one small struct
// per peer: entries, the prefix index, the id-to-prefix and aggregate
// coverage lists and the Adj-RIB tables are all shared with r, and each side
// pays for a private copy of exactly what it later writes. The source router
// is read strictly read-only, so any number of forks can be taken from it
// concurrently. r must be sealed with no write since (Seal); Fork panics
// otherwise, because r would go on editing state the fork reads.
//
// Attribute objects (*Attrs) and AS paths are immutable once shared, so the
// fork aliases them: the decide path compares attribute pointers
// (prevBestAttrs != newBestAttrs), and sharing preserves the exact aliasing
// topology between Loc-RIB candidates and the entries' lastBest caches.
//
// The prepend and export caches are deliberately left empty. Aliasing
// keeps their pointer keys valid, so copying them would be correct — but
// measured on the S-DC chaos campaign the copies cost more than the
// misses: fault churn mostly derives new attribute objects, which miss any
// warm cache. Cache state never changes output bytes (pure memoization),
// only how much work a flush does.
func (r *Router) Fork(clock Clock, hooks Hooks) *Router {
	if !r.cow || r.owned != nil {
		panic("bgp: Fork of a router written since its last Seal")
	}
	if hooks.Logf == nil {
		hooks.Logf = func(string, ...any) {}
	}
	if hooks.SessionEvent == nil {
		hooks.SessionEvent = func(int, SessionState) {}
	}
	c := &Router{
		cfg:   r.cfg,
		clock: clock,
		hooks: hooks,
		seq:   r.seq,
		// The pointer slice is the fork's own, so replacing an entry is a
		// plain store. The append-only lists are shared up to their current
		// length, with the capacity clipped so the fork's first append moves
		// it to a private array; the parent appends beyond every fork's
		// length, which no fork reads.
		index:       r.index,
		indexShared: true,
		entries:     append([]*ribEntry(nil), r.entries...),
		prefixByID:  r.prefixByID[:len(r.prefixByID):len(r.prefixByID)],
		cow:         true,
		aggState:    append([]aggState(nil), r.aggState...),
	}
	for i := range c.aggState {
		cov := c.aggState[i].covered
		c.aggState[i].covered = cov[:len(cov):len(cov)]
	}
	// The fork's hooks carry the fork's recorder, whose counters already
	// hold the parent's totals (obs.Recorder.Fork deep-copies them), so
	// rebinding continues the series rather than restarting it.
	c.bindMetrics(hooks.Rec)

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
			adjIn:       p.adjIn.Clone(),
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
		denseTables += p.adjIn.Copies() + p.advertised.Copies()
	}
	return r.entryCopies, denseTables
}
