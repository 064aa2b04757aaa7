//go:build crystaldebug

package rib

import "fmt"

// debugEntries enables the installed-entry mutation assertions (-tags
// crystaldebug).
const debugEntries = true

// entrySum is the content hash an entry was installed with; zero means the
// entry never went through a FIB (a batfish.Simulate snapshot, say).
type entrySum uint64

// contentSum hashes everything an Entry says: prefix, protocol and the hop
// group's values (so an edit to a shared canonical group is caught through
// every entry aliasing it). Never zero.
func (e *Entry) contentSum() entrySum {
	h := hashHops(e.NextHops)
	for _, v := range [...]uint64{uint64(e.Prefix.Addr), uint64(e.Prefix.Len), uint64(e.Proto)} {
		h = (h ^ v) * 1099511628211
	}
	return entrySum(h | 1)
}

// stamp records the entry's content as it is installed.
func (e *Entry) stamp() { e.sum = e.contentSum() }

// checkSortedGroup panics unless the group the FIB's sorted memo returned
// for the caller group nhs is the very group a fresh sort and
// canonicalisation yields — which also catches a caller that edited a group
// it promised was immutable.
func checkSortedGroup(memo, fresh, nhs []NextHop) {
	if len(memo) != len(fresh) || &memo[0] != &fresh[0] {
		panic(fmt.Sprintf("rib: memoised sorted hop group %v for %v, a fresh sort gives %v", memo, nhs, fresh))
	}
}

// verify panics if an installed entry no longer says what it was installed
// with. Entry's doc comment promises installed entries are never edited —
// snapshots, saved states, checkpoints and forks all share them on that
// promise — and this is the enforcement: the FIB calls it on every entry it
// hands out in Snapshot, walks at Seal, or compares in DiffAgainst.
func (e *Entry) verify() {
	if e.sum != 0 && e.sum != e.contentSum() {
		panic(fmt.Sprintf("rib: installed Entry mutated: %s via %v [%s]", e.Prefix, e.NextHops, e.Proto))
	}
}
