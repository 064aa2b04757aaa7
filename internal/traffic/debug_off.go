//go:build !crystaldebug

package traffic

// debugMemo gates the memo's full-walk oracle. In release builds the check
// compiles away; build with -tags crystaldebug to have Settle re-walk every
// aggregate it reuses and panic on a disagreement (scripts/check.sh does).
const debugMemo = false
