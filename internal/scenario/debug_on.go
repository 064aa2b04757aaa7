//go:build crystaldebug

package scenario

// debugSweep enables the sweep table's full-walk oracle (-tags crystaldebug).
const debugSweep = true
