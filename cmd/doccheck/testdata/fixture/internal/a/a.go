// Package a is the caller rule's fixture: each function stands for one case.
package a

import "strconv"

// Called has a caller in cmd/app.
func Called() int { return recursive(3) }

// recursive calls itself and is called by Called.
func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// Uncalled has no caller outside its own tests.
func Uncalled() {}

// Allowed has no caller but an allowlist entry.
func Allowed() {}

// BenchOnly is called from bench/ only, which earns it no credit.
func BenchOnly() {}

// Pinned is called from bench/ only and allowlisted as a bench pin.
func Pinned() {}

// T's String is called by fmt, never by the module.
type T int

// String implements fmt.Stringer.
func (t T) String() string { return strconv.Itoa(int(t)) }

// Shape is an interface the module calls.
type Shape interface{ Area() int }

// Square's Area is reached through Shape.
type Square int

// Area implements Shape.
func (s Square) Area() int { return int(s) * int(s) }

// Measure calls Area through the interface.
func Measure(s Shape) int { return s.Area() }

// Unused is a type nothing but its own method and its tests names; the
// method's receiver does not count.
type Unused struct{ n int }

// String implements fmt.Stringer, so it needs no caller of its own.
func (u Unused) String() string { return strconv.Itoa(u.n) }

// Limit is a var cmd/app reads.
var Limit = 3

// unusedLimit is a var nothing reads.
var unusedLimit = 4

// Codes are constants: cmd/app reads CodeA, and only a test reads CodeB.
const (
	CodeA = iota
	CodeB
)
