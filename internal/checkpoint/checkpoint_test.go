package checkpoint

import (
	"testing"
	"time"

	"crystalnet/internal/sim"
)

func TestSnapshotCarriesEngineState(t *testing.T) {
	eng := sim.NewEngine(11)
	eng.After(time.Second, func() {})
	eng.Run(0)
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{TakenAt: st.Now, Engine: st, Origin: "opaque"}
	forked := sim.NewEngineFrom(snap.Engine)
	if forked.Now() != eng.Now() || forked.Fired() != eng.Fired() {
		t.Fatalf("forked engine now=%s fired=%d, want now=%s fired=%d",
			forked.Now(), forked.Fired(), eng.Now(), eng.Fired())
	}
	for i := 0; i < 50; i++ {
		if a, b := eng.Jitter(time.Second, time.Minute), forked.Jitter(time.Second, time.Minute); a != b {
			t.Fatalf("draw %d diverged: %s != %s", i, a, b)
		}
	}
}
