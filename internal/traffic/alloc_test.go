//go:build !race && !crystaldebug

package traffic

import (
	"runtime"
	"testing"
	"unsafe"

	"crystalnet/internal/rib"
)

// TestAllocBudgetForkSettle: forking a sealed matrix and settling it after
// a one-table write allocates less than a tenth of what copying its
// aggregates would — the fork shares them and their results, and copies the
// results of the aggregates the write moved. (crystaldebug's oracle and the
// race detector allocate on their own account; this builds without either.)
func TestAllocBudgetForkSettle(t *testing.T) {
	d := newDiamond(t)
	d.widen(96) // 18,432 aggregates, about S-DC's 18,240
	m, err := NewMatrix(Spec{Flows: 1 << 20, Seed: 3}, d.index())
	if err != nil {
		t.Fatal(err)
	}
	m.Settle(d.view(nil))
	m.Seal()

	// A more-specific route on a's clone of its table moves the 96
	// aggregates bound for one of b's prefixes.
	c := d.fork(false)
	if err := c.fib("a").InstallHops(pfx("100.65.7.0/24"), rib.ProtoBGP, []rib.NextHop{hop("10.128.0.1", "et0")}); err != nil {
		t.Fatal(err)
	}
	v := c.view(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := m.Fork()
	f.Settle(v)
	runtime.ReadMemStats(&after)

	if walked, reused := f.Walks(); walked != 96 || reused != uint64(len(m.aggs))-96 {
		t.Fatalf("fork's settle walked %d and reused %d of %d aggregates, want 96 walked", walked, reused, len(m.aggs))
	}
	copied := uintptr(len(m.aggs)) * (unsafe.Sizeof(aggregate{}) + unsafe.Sizeof(aggState{}))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fork and settle allocated %d bytes; its %d aggregates hold %d", got, len(m.aggs), copied)
	if got > uint64(copied/10) {
		t.Errorf("fork and settle allocated %d bytes, want <= %d (a tenth of the %d bytes of its aggregates)", got, copied/10, copied)
	}
}
