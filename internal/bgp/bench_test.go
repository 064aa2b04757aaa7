package bgp

import (
	"fmt"
	"testing"
	"time"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

// benchNet builds the 3-router line a — b — c used by the churn benchmark,
// without the *testing.T plumbing of the test harness.
func benchNet() *tnet {
	return &tnet{eng: sim.NewEngine(1), nodes: map[string]*tnode{}, delay: time.Millisecond}
}

// BenchmarkRouterChurn drives an announce + withdraw storm through a
// 3-router line: the originator flaps a block of prefixes and every flap
// propagates through b's decision process, export path and MRAI flushes to
// c — the exact per-update work that dominates a mockup's convergence.
func BenchmarkRouterChurn(b *testing.B) {
	n := benchNet()
	n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	n.add("c", 65003, nil)
	n.connect("a", "b")
	n.connect("b", "c")

	const block = 256
	prefixes := make([]netpkt.Prefix, block)
	for i := range prefixes {
		prefixes[i] = pfx(fmt.Sprintf("100.%d.%d.0/24", 64+i/256, i%256))
	}
	if _, err := n.eng.Run(0); err != nil {
		b.Fatal(err)
	}

	a, c := n.nodes["a"], n.nodes["c"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := prefixes[i%block]
		a.r.Originate(p)
		if _, err := n.eng.Run(0); err != nil {
			b.Fatal(err)
		}
		a.r.removeCandidate(p, nil)
		if _, err := n.eng.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(c.fib) != 0 {
		b.Fatalf("%d routes left after withdraw storm", len(c.fib))
	}
}
