//go:build crystaldebug

package traffic

// debugMemo enables the memo's full-walk oracle (-tags crystaldebug).
const debugMemo = true
