// Package rib provides the forwarding-state data structures shared by every
// device in the emulator: FIB entries with ECMP next-hop groups, longest-
// prefix-match lookup, snapshots for the PullStates API, and the FIB
// comparator from §9 that tolerates ECMP/aggregation non-determinism when
// cross-validating emulated state against production (or between runs).
//
// DESIGN.md §2 (substrates) and §3 (§9 cross-validation row) place these
// structures.
package rib

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/trie"
)

// Proto identifies the protocol that installed a route.
type Proto uint8

// Route sources, in ascending administrative distance.
const (
	ProtoConnected Proto = iota
	ProtoStatic
	ProtoOSPF
	ProtoBGP
	ProtoAggregate
)

var protoNames = [...]string{"connected", "static", "ospf", "bgp", "aggregate"}

// String returns the lower-case protocol name.
func (p Proto) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// NextHop is one way out of the device for a destination.
type NextHop struct {
	// IP is the next-hop router address; 0 for directly connected subnets.
	IP netpkt.IP
	// Interface is the egress interface name.
	Interface string
}

// String formats the next hop as "ip@intf" or "direct@intf".
func (nh NextHop) String() string {
	if nh.IP == 0 {
		return "direct@" + nh.Interface
	}
	return nh.IP.String() + "@" + nh.Interface
}

// Entry is one FIB entry. NextHops with more than one element form an ECMP
// group.
//
// An Entry is immutable once installed: a FIB never edits an entry it holds —
// reprogramming a prefix installs a fresh one — and neither may anyone it
// hands the entry to. That is what lets tables, their forks, snapshots and
// diffs all share entries instead of copying them (DESIGN.md §6). NextHops
// may in turn alias a canonical hop group shared with other entries of the
// same table (see HopSetTable). Build with -tags crystaldebug to have the
// FIB verify this at Snapshot, Seal and DiffAgainst.
type Entry struct {
	// sum is the crystaldebug content hash; zero-sized in release builds.
	sum entrySum

	Prefix   netpkt.Prefix
	NextHops []NextHop
	Proto    Proto
}

// canonicalize sorts next hops so entry comparison is order-insensitive.
func (e *Entry) canonicalize() { sortHops(e.NextHops) }

// sortHops orders a hop group in place. ECMP groups are tiny (the fabric's
// multipath width), so a hand-rolled insertion sort beats sort.Slice's
// closure machinery on the install path.
func sortHops(nhs []NextHop) {
	for i := 1; i < len(nhs); i++ {
		for j := i; j > 0 && nhLess(nhs[j], nhs[j-1]); j-- {
			nhs[j], nhs[j-1] = nhs[j-1], nhs[j]
		}
	}
}

func nhLess(a, b NextHop) bool {
	if a.IP != b.IP {
		return a.IP < b.IP
	}
	return a.Interface < b.Interface
}

// HopSetTable interns next-hop groups: a fabric device forwards thousands of
// prefixes over a handful of distinct ECMP groups (the up-fabric multipath
// set, one single-hop group per down-link), so letting every entry alias one
// canonical slice per distinct group removes the dominant per-prefix heap
// cost of large FIBs (DESIGN.md §10). Canonical slices are immutable once
// handed out. The zero value is ready to use.
//
// The table is a Memo from a group's hash to the canonical groups with that
// hash, so it seals and forks like one: a fork's Canonical returns the very
// slice its checkpoint's table held for a group the checkpoint had seen.
type HopSetTable struct {
	m Memo[uint64, [][]NextHop]
}

// Canonical returns the canonical slice whose contents equal nhs (in order),
// copying nhs into a new canonical group on first sight. nhs is not retained.
// An empty group canonicalizes to nil.
func (t *HopSetTable) Canonical(nhs []NextHop) []NextHop {
	if len(nhs) == 0 {
		return nil
	}
	h := hashHops(nhs)
	bucket, _ := t.m.Get(h)
	for _, s := range bucket {
		if slices.Equal(s, nhs) {
			return s
		}
	}
	c := append(make([]NextHop, 0, len(nhs)), nhs...)
	// The bucket may be the frozen layer's: the own layer's replaces it
	// with one more group, and the frozen array is never appended to.
	t.m.Put(h, append(slices.Clip(bucket), c))
	return c
}

// Seal freezes the table's groups for forks (Memo.Seal).
func (t *HopSetTable) Seal() { t.m.Seal() }

// Fork returns the table of a fork: the groups of the last Seal, shared
// read-only, and none of its own yet (Memo.Fork).
func (t *HopSetTable) Fork() HopSetTable { return HopSetTable{m: t.m.Fork()} }

// HashHops is FNV-1a over a hop group's addresses and interface names —
// the content hash the HopSetTable interns groups by. It is exported for
// the traffic plane's ECMP hash-bucket spreading (internal/dataplane
// SpreadFlows): keying bucket assignment on the group's *values*, not the
// canonical slice's identity, keeps the spread identical across forks and
// makes flows re-spread when a FIB reprogram changes the group.
func HashHops(nhs []NextHop) uint64 { return hashHops(nhs) }

// hashHops is FNV-1a over the group's hop addresses and interface names.
func hashHops(nhs []NextHop) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, nh := range nhs {
		ip := uint32(nh.IP)
		mix(byte(ip))
		mix(byte(ip >> 8))
		mix(byte(ip >> 16))
		mix(byte(ip >> 24))
		for i := 0; i < len(nh.Interface); i++ {
			mix(nh.Interface[i])
		}
		mix(0xff) // group-element separator
	}
	return h
}

// FIB is a device's forwarding table. It has one write rule and two index
// states (DESIGN.md §6).
//
// The write rule: an installed *Entry is never edited. Install and
// InstallHops put a fresh entry in place of the one they supersede, so
// whoever still holds the old one — a Snapshot, a saved State, a checkpoint,
// another fork — keeps a stable point-in-time view without a copy.
//
// The index states are told apart by whether byPrefix exists. A converging
// (unsealed) table is a prefix map with a lazily built LPM trie beside it,
// tuned for the millions of installs a mockup performs before anything
// routes. Seal — at Emulation.Checkpoint — builds the trie once, drops the
// map and makes the trie authoritative; a sealed table and its Clones share
// trie nodes, and a write copies the path to the entry it replaces.
type FIB struct {
	// t is the longest-prefix-match trie. Unsealed, it is built lazily from
	// byPrefix on the first LPM or ordered-walk operation (nil until then):
	// a converging fabric performs millions of installs before the first
	// data-plane query — and a control-plane-only workload like the §10
	// scale benchmark never queries at all — so the trie nodes are not paid
	// for until something actually routes. Trie results are insertion-order
	// independent (lookups return the longest match, walks visit in prefix
	// order), so deferring the build never changes an answer. Sealed, it is
	// the table.
	t *trie.Trie[*Entry]
	// byPrefix is the unsealed table's authoritative index, keyed for
	// exact-match operations: a map probe is several times cheaper than a
	// trie descent, and during BGP path hunting the same prefix is
	// reprogrammed many times before the table reaches steady state (see
	// InstallHops). The key is Prefix.Key, one word, so the map takes the
	// runtime's fast 64-bit path. nil once sealed.
	byPrefix map[uint64]*Entry
	// Capacity limits the number of entries; 0 means unlimited. When full,
	// Install's behaviour depends on the device firmware — the FIB itself
	// just reports ErrFull (the §2 load-balancer incident arises from a
	// firmware that silently ignores this error).
	Capacity int
	// hopSets interns the distinct next-hop groups installed in this table
	// so entries alias one canonical slice per group; scratch is the reusable
	// sort buffer InstallHops canonicalizes into. sorted memoises
	// InstallGroup: the table's canonical sorted group for each immutable
	// caller group it has been handed, keyed by that group's identity (the
	// address of its first hop). Both are memos that Seal freezes and Clone
	// shares (Memo).
	hopSets HopSetTable
	scratch []NextHop
	sorted  Memo[*NextHop, []NextHop]
	// entryCopies counts the entries replaced in a sealed table — the entry
	// half of the table's copy-on-write cost (see Copies).
	entryCopies int
	// version and lineage are the table's Mark. A sealed table also
	// remembers which prefix each of its last writeLogCap writes touched:
	// log is a ring in which the write that took the table from version v to
	// v+1 sits at (v-logStart)%writeLogCap, and logStart is the version at
	// which the table was sealed or cloned (see Since).
	version  uint64
	logStart uint64
	log      []netpkt.Prefix
	lineage  uint64
}

// lineages hands out process-unique table lineages; forks clone tables on
// parallel goroutines, and only equality matters.
var lineages atomic.Uint64

// writeLogCap bounds a sealed table's write log. A verifier reads the log
// once per convergence point, so it has to hold one step's writes to one
// table — a handful for a link flap, a table's worth for a session reset —
// and a reader that falls further behind is told so and starts over.
const writeLogCap = 4096

// ErrFull is returned by Install when the FIB is at capacity.
var ErrFull = fmt.Errorf("rib: FIB capacity exceeded")

// NewFIB returns an empty forwarding table with unlimited capacity.
func NewFIB() *FIB {
	return &FIB{byPrefix: map[uint64]*Entry{}, lineage: lineages.Add(1)}
}

// lpm returns the LPM trie, building it from byPrefix on first use. A sealed
// table always has its trie, so reads of shared state never fill anything in.
func (f *FIB) lpm() *trie.Trie[*Entry] {
	if f.t == nil {
		f.t = trie.New[*Entry]()
		for _, e := range f.byPrefix {
			f.t.Insert(e.Prefix, e)
		}
	}
	return f.t
}

// sealed reports whether the trie is the table (see FIB).
func (f *FIB) sealed() bool { return f.byPrefix == nil }

// Seal freezes the table's current contents for sharing: the trie is built
// if no query has built it yet, becomes authoritative, and gives up
// ownership of its nodes; the prefix map is dropped, and the hop-group memos
// are frozen for Clone to share (Memo.Seal). Clone may then be called from
// any number of goroutines. Seal itself writes the table, so it runs
// single-threaded, at Emulation.Checkpoint; sealing again after further
// writes re-freezes them.
func (f *FIB) Seal() {
	if debugEntries {
		f.Walk(func(e *Entry) bool { e.verify(); return true })
	}
	f.lpm().Seal()
	if !f.sealed() {
		f.byPrefix = nil
		f.logStart = f.version
	}
	f.hopSets.Seal()
	f.sorted.Seal()
	f.scratch = nil
}

// Len returns the number of installed prefixes.
func (f *FIB) Len() int {
	if f.sealed() {
		return f.t.Len()
	}
	return len(f.byPrefix)
}

// Install adds or replaces the entry for e.Prefix. Replacing never fails;
// adding a new prefix to a full table returns ErrFull. The FIB owns e after
// the call, and e is immutable from then on (see Entry).
func (f *FIB) Install(e *Entry) error {
	e.Prefix.Addr &= e.Prefix.MaskIP()
	e.canonicalize()
	if f.full(e.Prefix) {
		return ErrFull
	}
	f.put(e)
	return nil
}

// InstallHops adds or reprograms the route for p without the caller
// building an Entry: the hops are sorted into a reusable scratch buffer and
// the new entry points at the table's canonical copy of that group, so there
// is no per-prefix hop storage once the group has been seen before. nhs is
// not retained or mutated.
func (f *FIB) InstallHops(p netpkt.Prefix, proto Proto, nhs []NextHop) error {
	return f.install(p, proto, nhs, false)
}

// InstallGroup is InstallHops for a caller whose hop group is itself
// immutable and shared — a canonical group from its own HopSetTable, as the
// BGP router programs its FIB with — so the table sorts and canonicalises
// each distinct group once and remembers the result by the group's
// identity: reprogramming a prefix over a group seen before costs one
// pointer lookup plus the Entry. The table retains nhs; it must never be
// edited.
func (f *FIB) InstallGroup(p netpkt.Prefix, proto Proto, nhs []NextHop) error {
	return f.install(p, proto, nhs, true)
}

// install is InstallHops and InstallGroup: memo says whether nhs is an
// immutable group the sorted memo may key on.
func (f *FIB) install(p netpkt.Prefix, proto Proto, nhs []NextHop, memo bool) error {
	p.Addr &= p.MaskIP()
	if f.full(p) {
		return ErrFull
	}
	var g []NextHop
	if memo && len(nhs) > 0 {
		g = f.sortedGroup(nhs)
	} else {
		g = f.canonical(nhs)
	}
	f.put(&Entry{Prefix: p, Proto: proto, NextHops: g})
	return nil
}

// canonical returns the table's canonical copy of nhs in sorted order. nhs
// is not retained or mutated.
func (f *FIB) canonical(nhs []NextHop) []NextHop {
	f.scratch = append(f.scratch[:0], nhs...)
	sortHops(f.scratch)
	return f.hopSets.Canonical(f.scratch)
}

// sortedGroup returns canonical(nhs) for a non-empty immutable group nhs
// through the sorted memo. Under crystaldebug a hit is checked against a
// fresh sort and canonicalisation.
func (f *FIB) sortedGroup(nhs []NextHop) []NextHop {
	key := &nhs[0]
	if g, ok := f.sorted.Get(key); ok {
		if debugEntries {
			checkSortedGroup(g, f.canonical(nhs), nhs)
		}
		return g
	}
	g := f.canonical(nhs)
	f.sorted.Put(key, g)
	return g
}

// full reports whether the table is at capacity and p would be a new prefix.
func (f *FIB) full(p netpkt.Prefix) bool {
	if f.Capacity == 0 || f.Len() < f.Capacity {
		return false
	}
	_, exists := f.Get(p)
	return !exists
}

// put makes e — normalised, and not yet visible to anyone else — the entry
// for its prefix. An unsealed table with no trie yet pays one map store: no
// trie descent on reprogram, the dominant case while BGP hunts paths.
func (f *FIB) put(e *Entry) {
	e.stamp()
	f.wrote(e.Prefix)
	if f.sealed() {
		if !f.t.Insert(e.Prefix, e) {
			f.entryCopies++
		}
		return
	}
	if f.t != nil {
		f.t.Insert(e.Prefix, e)
	}
	f.byPrefix[e.Prefix.Key()] = e
}

// Remove deletes the entry for p, reporting whether it was present.
func (f *FIB) Remove(p netpkt.Prefix) bool {
	p.Addr &= p.MaskIP()
	if f.sealed() {
		if !f.t.Delete(p) {
			return false
		}
		f.wrote(p)
		return true
	}
	if _, ok := f.byPrefix[p.Key()]; !ok {
		return false
	}
	f.wrote(p)
	delete(f.byPrefix, p.Key())
	if f.t != nil {
		f.t.Delete(p)
	}
	return true
}

// wrote counts one write to p's slot and, sealed, logs it.
func (f *FIB) wrote(p netpkt.Prefix) {
	if f.sealed() {
		if i := f.version - f.logStart; i < writeLogCap {
			f.log = append(f.log, p)
		} else {
			f.log[i%writeLogCap] = p
		}
	}
	f.version++
}

// Mark is what a reader that looks at a table again later keeps of it: the
// table's lineage — NewFIB starts one, Clone continues it — and the number
// of writes the table has taken (every Install, InstallHops or Remove that
// changed it; ErrFull and a Remove of an absent prefix change nothing). The
// zero Mark is no table: a device that is down. Two marks of one table are
// equal only if it took no write between them, so they mean equal
// contents. A clone starts at its parent's mark, so a mark taken of the
// parent up to the clone reads on the clone as the parent's table continued;
// from then on parent and clones each write on from that mark, and a later
// mark of one says nothing about another.
type Mark struct{ lineage, version uint64 }

// Mark returns where the table stands now; a nil table's is the zero Mark.
func (f *FIB) Mark() Mark {
	if f == nil {
		return Mark{}
	}
	return Mark{f.lineage, f.version}
}

// Since is the one account of what changed in a table — nil for none —
// since a reader took mark of it (or of the table it was cloned from, up to
// the clone). It returns (nil, true) when the table stands at mark, sealed
// or not, and the prefix of every write since, oldest first, when mark is an
// earlier mark of its lineage that the sealed table's write log still
// covers. Entries are immutable, so that is exact: a longest-prefix match for
// an address no returned prefix contains resolves to the entry it resolved
// to at mark.
//
// ok is false when the table cannot give the whole history — another lineage
// or none, writes while unsealed (only a sealed table logs, so mark must not
// predate Seal or Clone), or more writes than the log's last writeLogCap. It
// never returns part of one; a reader told false treats the whole table as
// changed. How many writes are worth reading instead is the reader's call.
func (f *FIB) Since(mark Mark) (writes []netpkt.Prefix, ok bool) {
	now := f.Mark()
	switch {
	case mark == now:
		return nil, true
	case mark.lineage != now.lineage || !f.sealed() || mark.version < f.logStart || mark.version > f.version || f.version-mark.version > writeLogCap:
		return nil, false
	}
	writes = make([]netpkt.Prefix, 0, f.version-mark.version)
	for v := mark.version; v < f.version; v++ {
		writes = append(writes, f.log[(v-f.logStart)%writeLogCap])
	}
	return writes, true
}

// Get returns the entry for exactly p: shared, read-only (see Entry).
func (f *FIB) Get(p netpkt.Prefix) (*Entry, bool) {
	p.Addr &= p.MaskIP()
	if f.sealed() {
		return f.t.Get(p)
	}
	e, ok := f.byPrefix[p.Key()]
	return e, ok
}

// Lookup performs longest-prefix match for ip.
func (f *FIB) Lookup(ip netpkt.IP) (*Entry, bool) {
	_, e, ok := f.lpm().Lookup(ip)
	return e, ok
}

// Walk visits entries in ascending prefix order.
func (f *FIB) Walk(fn func(*Entry) bool) {
	f.lpm().Walk(func(_ netpkt.Prefix, e *Entry) bool { return fn(e) })
}

// Snapshot returns all entries, sorted by prefix — the payload of the
// paper's PullStates API. The entries are the table's own, shared and
// read-only; the snapshot is still a stable point-in-time view, because later
// writes to the table replace entries rather than edit them.
func (f *FIB) Snapshot() Snapshot {
	out := make(Snapshot, 0, f.Len())
	f.Walk(func(e *Entry) bool {
		e.verify()
		out = append(out, e)
		return true
	})
	return out
}

// Snapshot is an ordered dump of a FIB. Its entries are shared with the table
// they came from (and with every other snapshot of it): read-only.
type Snapshot []*Entry

// Len returns the number of entries in the snapshot.
func (s Snapshot) Len() int { return len(s) }

// String renders the snapshot one entry per line, for debugging and golden
// comparisons.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, e := range s {
		fmt.Fprintf(&b, "%s via", e.Prefix)
		for _, nh := range e.NextHops {
			fmt.Fprintf(&b, " %s", nh)
		}
		fmt.Fprintf(&b, " [%s]\n", e.Proto)
	}
	return b.String()
}

// DiffKind classifies one FIB difference.
type DiffKind uint8

// Difference kinds reported by Compare.
const (
	DiffMissingLeft  DiffKind = iota // prefix only in the right snapshot
	DiffMissingRight                 // prefix only in the left snapshot
	DiffNextHops                     // prefix in both, next hops disagree
)

func (k DiffKind) String() string {
	switch k {
	case DiffMissingLeft:
		return "missing-left"
	case DiffMissingRight:
		return "missing-right"
	case DiffNextHops:
		return "nexthop-mismatch"
	}
	return "unknown"
}

// Diff is one difference between two snapshots.
type Diff struct {
	Kind   DiffKind
	Prefix netpkt.Prefix
	Left   *Entry // nil for DiffMissingLeft
	Right  *Entry // nil for DiffMissingRight
}

// String formats the difference for reports.
func (d Diff) String() string {
	return fmt.Sprintf("%s %s", d.Kind, d.Prefix)
}

// CompareMode selects how tolerant the comparator is.
type CompareMode uint8

// Comparator modes.
const (
	// Strict requires identical next-hop sets for every prefix.
	Strict CompareMode = iota
	// ECMPAware (the §9 comparator) treats a prefix as matching when the two
	// next-hop sets overlap: BGP implementations choose non-deterministically
	// among equal candidates when ECMP interacts with aggregation, so any
	// common choice indicates the same candidate set. Disjoint sets are
	// still a mismatch.
	ECMPAware
)

// Compare diffs two snapshots. The result is sorted by prefix. It runs
// DiffAgainst's ordered merge, sorting a copy of a side only when that side
// is not already in prefix order (as Snapshot returns it).
func Compare(left, right Snapshot, mode CompareMode) []Diff {
	m := merge{left: byPrefix(left), mode: mode}
	for _, e := range byPrefix(right) {
		m.add(e)
	}
	return m.done()
}

// byPrefix returns s in ascending prefix order: s itself when it already is.
func byPrefix(s Snapshot) Snapshot {
	byKey := func(a, b *Entry) int { return cmp.Compare(a.Prefix.Key(), b.Prefix.Key()) }
	if slices.IsSortedFunc(s, byKey) {
		return s
	}
	s = slices.Clone(s)
	slices.SortFunc(s, byKey)
	return s
}

// DiffAgainst diffs a saved snapshot (sorted, as Snapshot returns it)
// against the FIB's live contents — no pulled copy of the table — producing
// exactly what Compare(base, Snapshot()) would. The diffs point at the
// snapshot's and the table's own entries (shared, read-only); the common
// case (no drift) allocates nothing.
func (f *FIB) DiffAgainst(base Snapshot, mode CompareMode) []Diff {
	if debugEntries {
		for _, b := range base {
			b.verify()
		}
	}
	m := merge{left: base, mode: mode}
	f.Walk(func(e *Entry) bool {
		e.verify()
		m.add(e)
		return true
	})
	return m.done()
}

// merge diffs a sorted left snapshot against right-hand entries handed to
// add in ascending prefix order, so the diffs come out in that order too.
type merge struct {
	left Snapshot // what add has not reached yet
	mode CompareMode
	out  []Diff
}

// add takes the next right-hand entry.
func (m *merge) add(e *Entry) {
	for len(m.left) > 0 && m.left[0].Prefix.Key() < e.Prefix.Key() {
		m.out = append(m.out, Diff{Kind: DiffMissingRight, Prefix: m.left[0].Prefix, Left: m.left[0]})
		m.left = m.left[1:]
	}
	if len(m.left) > 0 && m.left[0].Prefix == e.Prefix {
		if !nextHopsMatch(m.left[0].NextHops, e.NextHops, m.mode) {
			m.out = append(m.out, Diff{Kind: DiffNextHops, Prefix: e.Prefix, Left: m.left[0], Right: e})
		}
		m.left = m.left[1:]
		return
	}
	m.out = append(m.out, Diff{Kind: DiffMissingLeft, Prefix: e.Prefix, Right: e})
}

// done reports the left-hand entries add never reached and returns the diffs.
func (m *merge) done() []Diff {
	for _, l := range m.left {
		m.out = append(m.out, Diff{Kind: DiffMissingRight, Prefix: l.Prefix, Left: l})
	}
	return m.out
}

func nextHopsMatch(a, b []NextHop, mode CompareMode) bool {
	switch mode {
	case Strict:
		if len(a) != len(b) {
			return false
		}
		as := make(map[NextHop]bool, len(a))
		for _, nh := range a {
			as[nh] = true
		}
		for _, nh := range b {
			if !as[nh] {
				return false
			}
		}
		return true
	case ECMPAware:
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		as := make(map[NextHop]bool, len(a))
		for _, nh := range a {
			as[nh] = true
		}
		for _, nh := range b {
			if as[nh] {
				return true
			}
		}
		return false
	}
	return false
}

// Clone returns the table of a forked emulation: it shares every trie node
// and entry with f, in O(1), and diverges from it one path and one entry at
// a time as either side writes. It only reads f, so concurrent forks may
// clone one table at once. f must be sealed with no write since (Seal);
// Clone panics otherwise, because f would go on editing state the clone
// reads.
//
// Entries and the hop groups they alias are immutable (see Entry), so the
// clone goes on sharing both. It shares the hop-group memos frozen at Seal
// too, read-only: reprogramming a prefix over a group f had seen finds f's
// canonical group and costs the clone the Entry alone. What the clone adds
// to them goes to layers of its own, which f and the clone's siblings never
// see. It continues f's Mark with a write log of its own, empty:
// Since(f.Mark()) on the clone is what the clone wrote.
func (f *FIB) Clone() *FIB {
	if !f.sealed() {
		panic("rib: Clone of an unsealed FIB")
	}
	return &FIB{
		t: f.t.Clone(), Capacity: f.Capacity,
		hopSets: f.hopSets.Fork(), sorted: f.sorted.Fork(),
		version: f.version, logStart: f.version, lineage: f.lineage,
	}
}

// Copies returns the copy-on-write cost the table has paid since it was
// cloned or created: trie nodes path-copied, and entries replaced while
// sealed.
func (f *FIB) Copies() (trieNodes, entries int) {
	if f.t != nil {
		trieNodes = f.t.Copies()
	}
	return trieNodes, f.entryCopies
}
