//go:build !crystaldebug

package rib

// debugEntries gates the installed-entry mutation assertions. In release
// builds the checks compile away; build with -tags crystaldebug to enable
// them (scripts/check.sh does for this package).
const debugEntries = false

// entrySum takes no space in release builds.
type entrySum struct{}

// stamp is a no-op in release builds.
func (e *Entry) stamp() {}

// checkSortedGroup is a no-op in release builds.
func checkSortedGroup(memo, fresh, nhs []NextHop) {}

// verify is a no-op in release builds.
func (e *Entry) verify() {}
