// Package boundary implements CrystalNet's safe static emulation boundary
// theory (§5): classifying devices into internal/boundary/speaker/excluded
// roles, the Lemma 5.1 propagation checker, the Proposition 5.2/5.3
// sufficient conditions for BGP networks, the Proposition 5.4 condition for
// OSPF, and Algorithm 1's upward-BFS boundary search for Clos datacenters.
//
// Getting this right is what lets an emulation replace external routers
// with static speakers (internal/core) while staying consistent with the
// real network under arbitrary changes to the emulated devices — and what
// cuts emulation cost by >90% (§8.4, Table 4).
//
// DESIGN.md §2 (core layer) and §3 (Figure 7, Table 4) map the theory to
// experiments.
package boundary

import (
	"fmt"
	"sort"

	"crystalnet/internal/topo"
)

// Plan classifies every device of a topology relative to an emulated set.
type Plan struct {
	Network *topo.Network
	// Emulated is the full set of emulated device names (internal +
	// boundary).
	Emulated map[string]bool
	// Internal devices have only emulated neighbors.
	Internal []string
	// Boundary devices have at least one non-emulated neighbor.
	Boundary []string
	// Speakers are the non-emulated devices directly connected to boundary
	// devices; they run the static speaker image.
	Speakers []string
	// Excluded devices are neither emulated nor speakers.
	Excluded []string
}

// BuildPlan classifies devices. Unknown names in emulated are an error.
func BuildPlan(n *topo.Network, emulated map[string]bool) (*Plan, error) {
	for name := range emulated {
		if n.Device(name) == nil {
			return nil, fmt.Errorf("boundary: emulated device %q not in topology", name)
		}
	}
	p := &Plan{Network: n, Emulated: emulated}
	speakerSet := map[string]bool{}
	for _, d := range n.Devices() {
		if emulated[d.Name] {
			isBoundary := false
			for _, nb := range d.Neighbors() {
				if !emulated[nb.Name] {
					isBoundary = true
					break
				}
			}
			if isBoundary {
				p.Boundary = append(p.Boundary, d.Name)
			} else {
				p.Internal = append(p.Internal, d.Name)
			}
			continue
		}
		for _, nb := range d.Neighbors() {
			if emulated[nb.Name] {
				speakerSet[d.Name] = true
				break
			}
		}
	}
	for _, d := range n.Devices() {
		if !emulated[d.Name] {
			if speakerSet[d.Name] {
				p.Speakers = append(p.Speakers, d.Name)
			} else {
				p.Excluded = append(p.Excluded, d.Name)
			}
		}
	}
	sort.Strings(p.Internal)
	sort.Strings(p.Boundary)
	sort.Strings(p.Speakers)
	sort.Strings(p.Excluded)
	return p, nil
}

// CheckProposition52 applies the paper's Proposition 5.2: the boundary is
// safe if all boundary devices share a single AS and all speaker devices
// are in distinct ASes. A nil error means the condition holds.
func (p *Plan) CheckProposition52() error {
	var as uint32
	for i, name := range p.Boundary {
		d := p.Network.MustDevice(name)
		if i == 0 {
			as = d.ASN
		} else if d.ASN != as {
			return fmt.Errorf("boundary: device %s is in AS %d, boundary spans multiple ASes (%d)", name, d.ASN, as)
		}
	}
	seen := map[uint32]string{}
	for _, name := range p.Speakers {
		d := p.Network.MustDevice(name)
		if len(p.Boundary) > 0 && d.ASN == as {
			// §5.2 assumes speakers sit in external ASes distinct from the
			// boundary AS; a speaker inside it would accept boundary-originated
			// updates back across the cut.
			return fmt.Errorf("boundary: speaker %s is in the boundary AS %d", name, d.ASN)
		}
		if prev, dup := seen[d.ASN]; dup {
			return fmt.Errorf("boundary: speakers %s and %s share AS %d", prev, name, d.ASN)
		}
		seen[d.ASN] = name
	}
	return nil
}

// CheckProposition53 applies Proposition 5.3: the boundary is safe if
// boundary devices are in ASes with no reachability to each other through
// external (non-emulated) networks. It searches for an external-only path
// between boundary devices of different ASes.
func (p *Plan) CheckProposition53() error {
	// For each boundary device, flood through non-emulated devices and see
	// which other boundary devices are reachable.
	for _, start := range p.Boundary {
		sd := p.Network.MustDevice(start)
		reached := p.externalReach(start)
		for _, other := range reached {
			od := p.Network.MustDevice(other)
			if od.ASN != sd.ASN {
				return fmt.Errorf("boundary: %s (AS %d) reaches %s (AS %d) via external networks", start, sd.ASN, other, od.ASN)
			}
		}
	}
	return nil
}

// externalReach returns boundary devices reachable from start via paths
// whose intermediate hops are all non-emulated.
func (p *Plan) externalReach(start string) []string {
	visited := map[string]bool{start: true}
	var queue []string
	// Seed with external neighbors of start.
	for _, nb := range p.Network.MustDevice(start).Neighbors() {
		if !p.Emulated[nb.Name] && !visited[nb.Name] {
			visited[nb.Name] = true
			queue = append(queue, nb.Name)
		}
	}
	var out []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range p.Network.MustDevice(cur).Neighbors() {
			if visited[nb.Name] {
				continue
			}
			visited[nb.Name] = true
			if p.Emulated[nb.Name] {
				// Re-entered the emulation: only boundary devices can be
				// adjacent to externals.
				out = append(out, nb.Name)
				continue
			}
			queue = append(queue, nb.Name)
		}
	}
	sort.Strings(out)
	return out
}

// CheckSafe reports whether either sufficient condition (5.2 or 5.3)
// certifies the boundary safe, with the reasons when neither does.
func (p *Plan) CheckSafe() error {
	err52 := p.CheckProposition52()
	if err52 == nil {
		return nil
	}
	err53 := p.CheckProposition53()
	if err53 == nil {
		return nil
	}
	return fmt.Errorf("boundary unsafe: prop 5.2: %v; prop 5.3: %v", err52, err53)
}

// OSPFChange describes a planned change set for Proposition 5.4.
type OSPFChange struct {
	// ChangedLinks lists device-name pairs whose link state may change
	// during validation.
	ChangedLinks [][2]string
	// DRs and BDRs name the designated and backup designated routers of
	// every segment in the OSPF area.
	DRs, BDRs []string
}

// CheckProposition54 applies Proposition 5.4: an OSPF boundary is safe if
// no changed link touches a speaker (links between boundary and speaker
// devices remain unchanged) and every DR and BDR is emulated. It is a
// predicate over the plan alone: the emulator runs no OSPF stack.
func (p *Plan) CheckProposition54(ch OSPFChange) error {
	for _, l := range ch.ChangedLinks {
		for _, end := range l {
			if !p.Emulated[end] {
				return fmt.Errorf("boundary: changed link %s-%s touches non-emulated device %s", l[0], l[1], end)
			}
		}
	}
	for _, dr := range ch.DRs {
		if !p.Emulated[dr] {
			return fmt.Errorf("boundary: DR %s is not emulated", dr)
		}
	}
	for _, bdr := range ch.BDRs {
		if !p.Emulated[bdr] {
			return fmt.Errorf("boundary: BDR %s is not emulated", bdr)
		}
	}
	return nil
}

// PropagationResult is the outcome of the Lemma 5.1 exhaustive check.
type PropagationResult struct {
	Safe bool
	// Counterexample is a device walk that exits and re-enters the
	// emulated region (empty when safe).
	Counterexample []string
}

// SimulatePropagation exhaustively checks Lemma 5.1 on the topology: a
// boundary is safe iff no route update originated at an emulated device can
// cross the boundary more than once. Updates propagate device-to-device,
// never entering an AS already on their path (BGP loop prevention, §5.2).
//
// The walk enumeration is exponential in the worst case; use it on
// scenario-scale networks (like Figure 7), not full datacenters — that is
// what Propositions 5.2/5.3 are for.
func (p *Plan) SimulatePropagation() PropagationResult {
	for _, origin := range append(append([]string{}, p.Internal...), p.Boundary...) {
		d := p.Network.MustDevice(origin)
		path := []string{origin}
		asSeen := map[uint32]bool{d.ASN: true}
		if ce := p.walk(d, asSeen, false, path); ce != nil {
			return PropagationResult{Safe: false, Counterexample: ce}
		}
	}
	return PropagationResult{Safe: true}
}

// walk explores update propagation from cur. exited notes whether the
// update has already left the emulated region. It returns a counterexample
// walk if the update re-enters after exiting.
func (p *Plan) walk(cur *topo.Device, asSeen map[uint32]bool, exited bool, path []string) []string {
	for _, nb := range cur.Neighbors() {
		if asSeen[nb.ASN] {
			continue // receiver-side loop prevention drops it
		}
		nbEmulated := p.Emulated[nb.Name]
		if exited && nbEmulated {
			// Crossed out and back in: the static speakers would have had
			// to react — unsafe.
			return append(append([]string{}, path...), nb.Name)
		}
		asSeen[nb.ASN] = true
		ce := p.walk(nb, asSeen, exited || !nbEmulated, append(path, nb.Name))
		delete(asSeen, nb.ASN)
		if ce != nil {
			return ce
		}
	}
	return nil
}

// FindSafeDCBoundary is Algorithm 1: given the devices operators must
// emulate, walk every child-to-parent edge up to the highest layer and
// return the full emulated set. The output is safe for Clos fabrics whose
// border layer shares one AS (§5.2).
func FindSafeDCBoundary(n *topo.Network, must []string) (map[string]bool, error) {
	targets := make(map[string]bool, len(must))
	for _, name := range must {
		d := n.Device(name)
		if d == nil {
			return nil, fmt.Errorf("boundary: unknown device %q", name)
		}
		if d.Layer == topo.LayerExternal {
			return nil, fmt.Errorf("boundary: device %q is external (layer %s); external devices are replaced by speakers, not emulated", name, d.Layer)
		}
		targets[name] = true
	}
	return cappedClosure(n, targets, n.HighestLayer()), nil
}

// Scale summarizes an emulation plan's resource footprint (Table 4 and the
// §8.4 cost argument).
type Scale struct {
	Internal, Boundary, Speakers int
	TotalEmulated                int
	// Proportion of the topology's non-external devices that are emulated.
	Proportion float64
	// VMs estimates hosting: devicesPerVM full devices, speakersPerVM
	// lightweight speakers (§8.4: "a single VM can support at least 50").
	VMs int
	// LayerCounts breaks emulated devices down by layer (the Table 4 rows).
	LayerCounts map[topo.Layer]int
}

// DevicesPerVM and SpeakersPerVM are the §6.1/§8.4 packing densities: Scale
// estimates with them and core packs an emulation's VMs by them.
const (
	DevicesPerVM  = 10
	SpeakersPerVM = 50
)

// Scale computes the plan's footprint.
func (p *Plan) Scale() Scale {
	s := Scale{
		Internal: len(p.Internal), Boundary: len(p.Boundary), Speakers: len(p.Speakers),
		TotalEmulated: len(p.Internal) + len(p.Boundary),
		LayerCounts:   map[topo.Layer]int{},
	}
	total := 0
	for _, d := range p.Network.Devices() {
		if d.Layer != topo.LayerExternal {
			total++
		}
	}
	if total > 0 {
		s.Proportion = float64(s.TotalEmulated) / float64(total)
	}
	for name := range p.Emulated {
		s.LayerCounts[p.Network.MustDevice(name).Layer]++
	}
	s.VMs = (s.TotalEmulated+DevicesPerVM-1)/DevicesPerVM + (s.Speakers+SpeakersPerVM-1)/SpeakersPerVM
	return s
}
