package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"crystalnet/internal/scenario"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

// emulationSeed is the seed every emulation here runs with. The
// benchmark's -seed draws the inputs - which links flap, which pairs are
// sampled - and is deliberately not the emulation's seed: that one only moves
// jitter draws inside the program, which would make run-to-run spread out of
// what is meant to be one fixed amount of work, and would give each seed its
// own exact counts instead of one set every run must reproduce.
const emulationSeed = 1

// warmShape is everything about a warm phase that shapes the baseline
// crystald converges: the fabric and whether a flow matrix rides on it.
// Request specs differ from it only in name and steps, which the pool key
// ignores, so every request is a pool hit.
type warmShape struct {
	Fabric string `json:"fabric"` // scenario topology preset: "sdc" or "mdc"
	// Flows, when positive, attaches a two-class flow matrix of this many
	// flows and adds the flow-SLO invariant.
	Flows uint64 `json:"flows,omitempty"`
	// Stream seeds the choice of flapped links (the benchmark's -seed).
	Stream int64 `json:"stream"`
}

// flapGen produces the request stream of a warm phase: one ToR uplink taken
// down and restored per request, the link drawn from a PRNG seeded by the
// benchmark's -seed over the fabric's real ToR-leaf links. Distinct links
// give distinct reports, so no response cache could satisfy a run.
type flapGen struct {
	shape warmShape
	links [][2]string // "device:interface" endpoint pairs
	rng   *rand.Rand
	n     int
}

func newFlapGen(shape warmShape) (*flapGen, error) {
	g := &flapGen{shape: shape, rng: rand.New(rand.NewSource(shape.Stream))}
	net, _, err := (&scenario.Spec{Name: "links", Topology: g.topology()}).BuildNetwork()
	if err != nil {
		return nil, err
	}
	for _, l := range net.Links {
		a, b := l.A, l.B
		if a.Device.Layer == topo.LayerLeaf {
			a, b = b, a
		}
		if a.Device.Layer == topo.LayerToR && b.Device.Layer == topo.LayerLeaf {
			g.links = append(g.links, [2]string{a.FullName(), b.FullName()})
		}
	}
	if len(g.links) == 0 {
		return nil, fmt.Errorf("fabric %q has no ToR-leaf links", shape.Fabric)
	}
	return g, nil
}

func (g *flapGen) topology() scenario.Topology {
	return scenario.Topology{DC: g.shape.Fabric, WANPerGroup: 2}
}

// spec builds the rehearsal for one link: down, converge, up, converge, with
// the no-blackhole sweep (and the flow SLO under traffic) at each
// convergence point.
func (g *flapGen) spec(name string, link [2]string) *scenario.Spec {
	up, down := true, false
	sp := &scenario.Spec{
		Name:       name,
		Seed:       emulationSeed,
		Topology:   g.topology(),
		Invariants: []scenario.Step{{Op: scenario.OpAssertNoBlackhole}},
		Steps: []scenario.Step{
			{Op: scenario.OpSetLink, A: link[0], B: link[1], Up: &down},
			{Op: scenario.OpWaitConverge},
			{Op: scenario.OpSetLink, A: link[0], B: link[1], Up: &up},
			{Op: scenario.OpWaitConverge},
		},
	}
	if g.shape.Flows > 0 {
		pct := 0.1
		sp.Traffic = &traffic.Spec{Flows: g.shape.Flows, Classes: []traffic.ClassSpec{
			{Name: "web", Share: 3, DstPort: 80},
			{Name: "bulk", Share: 1, DstPort: 443},
		}}
		sp.Invariants = append(sp.Invariants, scenario.Step{
			Op: scenario.OpAssertFlowSLO, MaxBlackholedPct: &pct,
			Window: scenario.Duration(2e9),
		})
	}
	return sp
}

// warmSpec is what `crystald -warm` converges at boot.
func (g *flapGen) warmSpec() []byte { return mustJSON(g.spec("bench-warm", g.links[0])) }

// next returns the spec bytes of the next request in the seeded stream.
func (g *flapGen) next() []byte {
	link := g.links[g.rng.Intn(len(g.links))]
	g.n++
	return mustJSON(g.spec(fmt.Sprintf("bench-flap-%d", g.n-1), link))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}
