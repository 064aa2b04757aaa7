//go:build !race && !crystaldebug

package dataplane

import (
	"slices"
	"testing"
)

// TestAllocBudgetForwardBatchIntoBuffer: a caller that hands ForwardBatch
// one reused buffer forwards without allocating, and gets the shares it
// would have got without one. (The race detector allocates on its own
// account; this builds without it.)
func TestAllocBudgetForwardBatchIntoBuffer(t *testing.T) {
	f := newFwd(t)
	m := meta("100.65.0.10")
	_, want := f.ForwardBatch("", m, 1001, 7)
	buf := make([]FlowShare, 0, 8)
	var got []FlowShare
	if n := testing.AllocsPerRun(1000, func() {
		_, got = f.ForwardBatch("", m, 1001, 7, buf[:0]...)
	}); n != 0 {
		t.Errorf("ForwardBatch into a reused buffer allocates %.1f times, want 0", n)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("shares into a buffer %+v, without one %+v", got, want)
	}
}
