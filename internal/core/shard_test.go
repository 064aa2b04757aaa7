package core

import (
	"reflect"
	"runtime"
	"testing"

	"crystalnet/internal/rib"
)

// shardedRun is what a sharded emulation shows at one checkpoint: the
// events every engine fired (master first, then each domain), the §8.1
// metrics, the FIBs and the fabric's wire counters.
type shardedRun struct {
	fired   []uint64
	metrics Metrics
	fibs    map[string]rib.Snapshot
	wire    [4]uint64
}

// shardedCheckpoint checkpoints em, reads it and checks that the checkpoint
// cannot be forked.
func shardedCheckpoint(t *testing.T, o *Orchestrator, em *Emulation) shardedRun {
	t.Helper()
	snap, err := em.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) == 0 {
		t.Fatal("sharded checkpoint carries no domain states")
	}
	if _, err := o.Fork(snap); err == nil {
		t.Fatal("Fork of a sharded checkpoint succeeded")
	}
	run := shardedRun{
		fired:   []uint64{snap.Engine.Fired},
		metrics: em.Metrics(),
		fibs:    em.PullFIBs(),
		wire: [4]uint64{em.Fabric.FramesDelivered(), em.Fabric.BytesDelivered(),
			em.Fabric.FramesDropped(), em.Fabric.EncapFrames()},
	}
	for _, d := range snap.Shards {
		run.fired = append(run.fired, d.Fired)
	}
	return run
}

// TestShardedRunIdenticalAcrossWorkers is the §10 determinism bar for
// sharded convergence: a mockup and one uplink cut, at worker counts
// 1/2/4/GOMAXPROCS, must fire the same events on every engine and end with
// the same metrics, FIBs and wire counters as the workers=1 reference
// schedule. scripts/check.sh runs it under -race, which also shows the
// parallel domain drains share no unsynchronized state, the per-host wire
// counters included.
func TestShardedRunIdenticalAcrossWorkers(t *testing.T) {
	var want []shardedRun
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		o, em := fullEmulation(t, Options{Seed: 3, Shards: w})
		got := []shardedRun{shardedCheckpoint(t, o, em)}
		cutFirstUplink(t, em)
		got = append(got, shardedCheckpoint(t, o, em))
		if want == nil {
			want = got
			if len(got[0].fired) < 3 || got[0].wire[0] == 0 {
				t.Fatalf("reference run is trivial: fired %v, wire %v", got[0].fired, got[0].wire)
			}
			continue
		}
		for i, stage := range []string{"mockup", "uplink cut"} {
			g, r := got[i], want[i]
			if !reflect.DeepEqual(g.fired, r.fired) {
				t.Fatalf("workers=%d after %s: fired %v, want %v", w, stage, g.fired, r.fired)
			}
			if g.metrics != r.metrics {
				t.Fatalf("workers=%d after %s: metrics %+v, want %+v", w, stage, g.metrics, r.metrics)
			}
			if !reflect.DeepEqual(g.fibs, r.fibs) {
				t.Fatalf("workers=%d after %s: FIBs differ from workers=1", w, stage)
			}
			if g.wire != r.wire {
				t.Fatalf("workers=%d after %s: wire counters %v, want %v", w, stage, g.wire, r.wire)
			}
		}
	}
}
