//go:build !crystaldebug

package scenario

// debugSweep gates the sweep table's full-walk oracle. In release builds the
// check compiles away; build with -tags crystaldebug to have every
// no-blackhole sweep also walk every pair afresh and panic on a disagreement
// (scripts/check.sh does).
const debugSweep = false
