package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"crystalnet/internal/traffic"
)

func trafficReport(t *testing.T, em *Emulation) []byte {
	t.Helper()
	b, err := json.Marshal(em.Traffic().Report())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTrafficForkSettlesWhatItsStepsMoved: Fork rebinds the matrix's settle
// memo to the fork's cloned tables, so a settle of the untouched fork walks
// nothing and a settle after a link cut walks the aggregates the cut moved —
// with the accounting of a never-forked emulation, which walks them all.
func TestTrafficForkSettlesWhatItsStepsMoved(t *testing.T) {
	spec := traffic.Spec{Flows: 100_000, Seed: 5}
	_, fresh := fullEmulation(t, Options{Seed: 7})
	o, parent := fullEmulation(t, Options{Seed: 7})
	for _, em := range []*Emulation{fresh, parent} {
		if err := em.AttachTraffic(spec); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	aggs := uint64(fork.Traffic().Aggregates())

	fresh.SettleTraffic()
	fork.SettleTraffic()
	if walked, reused := fork.Traffic().Walks(); walked != 0 || reused != aggs {
		t.Fatalf("untouched fork's settle walked %d and reused %d of %d aggregates, want none walked", walked, reused, aggs)
	}
	if walked, _ := fresh.Traffic().Walks(); walked != 2*aggs {
		t.Fatalf("never-sealed emulation walked %d aggregate-settles in two settles of %d, want all", walked, aggs)
	}

	cutFirstUplink(t, fresh)
	cutFirstUplink(t, fork)
	if walked, _ := fork.Traffic().Walks(); walked == 0 || walked >= aggs {
		t.Fatalf("fork's settle after a link cut walked %d of %d aggregates, want some but not all", walked, aggs)
	}
	if got, want := trafficReport(t, fork), trafficReport(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("forked matrix differs from the never-forked one\nfork:  %s\nfresh: %s", got, want)
	}
	if walked, reused := parent.Traffic().Walks(); walked != aggs || reused != 0 {
		t.Fatalf("the fork's settles counted on the parent: walked %d reused %d", walked, reused)
	}
}

// TestTrafficReattachStartsOver: inject-traffic on a fork replaces the
// matrix, and the replacement owes nothing to the old one's memo — it walks
// every aggregate once, then settles incrementally like any other.
func TestTrafficReattachStartsOver(t *testing.T) {
	_, fresh := fullEmulation(t, Options{Seed: 7})
	o, parent := fullEmulation(t, Options{Seed: 7})
	if err := parent.AttachTraffic(traffic.Spec{Flows: 100_000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := o.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	next := traffic.Spec{Flows: 30_000, Seed: 9, Classes: []traffic.ClassSpec{{Name: "web", Share: 2}, {Name: "bulk", Share: 1}}}
	for _, em := range []*Emulation{fresh, fork} {
		if err := em.AttachTraffic(next); err != nil {
			t.Fatal(err)
		}
	}
	aggs := uint64(fork.Traffic().Aggregates())
	if walked, reused := fork.Traffic().Walks(); walked != aggs || reused != 0 {
		t.Fatalf("replacement matrix walked %d and reused %d of %d aggregates at attach, want all walked", walked, reused, aggs)
	}
	cutFirstUplink(t, fresh)
	cutFirstUplink(t, fork)
	if walked, _ := fork.Traffic().Walks(); walked == aggs || walked >= 2*aggs {
		t.Fatalf("replacement matrix walked %d aggregate-settles over attach and one cut, want more than %d and fewer than %d", walked, aggs, 2*aggs)
	}
	if got, want := trafficReport(t, fork), trafficReport(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("re-attached matrix on a fork differs from a never-forked one\nfork:  %s\nfresh: %s", got, want)
	}
}
