package boundary

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"crystalnet/internal/parallel"
	"crystalnet/internal/topo"
)

// vmHourlyUSD mirrors cloud.SKUStandard.PricePerHour so the solver's
// dollar objective matches cloud.HourlyCostUSD without importing the cloud
// package (which would invert the dependency order).
const vmHourlyUSD = 0.20

// LemmaLimit is the largest topology (device count) on which the exhaustive
// Lemma 5.1 walk certifies a plan when Props 5.2/5.3 both fail: the solver
// and core's Prepare of an exact emulated set both pass it to Certify, so
// they agree on what is safe.
const LemmaLimit = 32

// shrinkLimit is the largest candidate (emulated device count) the greedy
// shrink pass tries to minimize further.
const shrinkLimit = 64

// Certificate names which safety argument admitted a plan.
type Certificate string

const (
	// CertProp52 — single boundary AS, distinct speaker ASes (Prop 5.2).
	CertProp52 Certificate = "prop-5.2"
	// CertProp53 — no cross-AS external reachability between boundary
	// devices (Prop 5.3).
	CertProp53 Certificate = "prop-5.3"
	// CertLemma51 — exhaustive Lemma 5.1 propagation walk (scenario-scale
	// topologies only).
	CertLemma51 Certificate = "lemma-5.1"
)

// Certify returns the first certificate that admits the plan, trying the
// cheap sufficient conditions (5.2, then 5.3) before falling back to the
// exhaustive Lemma 5.1 walk — and only when the topology has at most
// lemmaLimit devices, since the walk enumeration is exponential. A negative
// lemmaLimit disables the fallback.
func (p *Plan) Certify(lemmaLimit int) (Certificate, error) {
	err52 := p.CheckProposition52()
	if err52 == nil {
		return CertProp52, nil
	}
	err53 := p.CheckProposition53()
	if err53 == nil {
		return CertProp53, nil
	}
	if lemmaLimit >= 0 && p.Network.NumDevices() <= lemmaLimit {
		if r := p.SimulatePropagation(); r.Safe {
			return CertLemma51, nil
		} else {
			return "", fmt.Errorf("boundary unsafe: prop 5.2: %v; prop 5.3: %v; lemma 5.1 counterexample: %s",
				err52, err53, strings.Join(r.Counterexample, " -> "))
		}
	}
	return "", fmt.Errorf("boundary unsafe: prop 5.2: %v; prop 5.3: %v", err52, err53)
}

// SolveOptions tunes the boundary solver. The zero value picks sane
// defaults; every field is optional.
type SolveOptions struct {
	// Seed drives tie-breaking between solutions of identical cost. The
	// same seed always yields the same ranking (byte-identical reports).
	Seed int64
	// Workers bounds the pool evaluating candidates (default GOMAXPROCS).
	// The result is identical for any worker count.
	Workers int
	// MaxAlternatives caps the ranked near-optimal list (default 3).
	MaxAlternatives int
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxAlternatives == 0 {
		o.MaxAlternatives = 3
	}
	if o.MaxAlternatives < 0 {
		o.MaxAlternatives = 0
	}
	return o
}

// Solution is one certified-safe emulation plan the solver found.
type Solution struct {
	// Strategy names the candidate generator that produced the emulated
	// set: "closure:<layer>" (upward closure capped at a layer), or
	// "full" (every non-external device). A "+shrink" suffix marks sets
	// the greedy minimizer reduced further.
	Strategy    string
	Certificate Certificate
	// Plan is omitted from JSON: topologies are cyclic (device ↔ interface
	// back-pointers) and the sorted Emulated list already identifies it.
	Plan      *Plan `json:"-"`
	Scale     Scale
	HourlyUSD float64
	// Emulated is the sorted emulated set — the exact-set payload for
	// scenario specs (spec "emulate") and the /v1/plan response.
	Emulated []string
}

// key is the canonical identity of a solution's emulated set.
func (s *Solution) key() string { return strings.Join(s.Emulated, ",") }

// SolveResult is the solver's ranked output.
type SolveResult struct {
	Network string
	Targets []string
	Seed    int64
	Best    Solution
	// Alternatives are the remaining distinct safe solutions in rank
	// order (best first), capped at MaxAlternatives.
	Alternatives []Solution
	// Full-emulation baseline for the §8.4 cost-reduction claim.
	FullDevices   int
	FullVMs       int
	FullHourlyUSD float64
	// CostReduction is 1 - Best VMs / full VMs.
	CostReduction float64
	// Candidates and SafeCount count evaluated candidate sets and how
	// many were certified safe.
	Candidates, SafeCount int
}

// Solve searches for the cheapest certified-safe emulated set containing
// targets. Candidates are the layer-capped upward closures of the target
// set (Algorithm 1's BFS stopped at each layer from the highest target
// layer up — the top cap reproduces Algorithm 1 exactly) plus full
// emulation; each is certified via Prop 5.2, Prop 5.3, or the Lemma 5.1
// walk on scenario-scale inputs, then greedily minimized device-by-device
// while safety holds. Solutions are ranked by VM count, then emulated
// devices, then speakers, with seeded hash tie-breaks, so the result is
// deterministic for a (network, targets, seed) triple across any worker
// count.
func Solve(n *topo.Network, targets []string, opts SolveOptions) (*SolveResult, error) {
	opts = opts.withDefaults()
	if len(targets) == 0 {
		return nil, fmt.Errorf("boundary: solve needs at least one target device")
	}
	targetSet := map[string]bool{}
	maxLayer := topo.LayerHost
	for _, name := range targets {
		d := n.Device(name)
		if d == nil {
			return nil, fmt.Errorf("boundary: unknown device %q", name)
		}
		if d.Layer == topo.LayerExternal {
			return nil, fmt.Errorf("boundary: device %q is external (layer %s); external devices are replaced by speakers, not emulated", name, d.Layer)
		}
		targetSet[name] = true
		if d.Layer > maxLayer {
			maxLayer = d.Layer
		}
	}

	type candidate struct {
		strategy string
		emulated map[string]bool
	}
	var cands []candidate
	seenSets := map[string]bool{}
	add := func(strategy string, emu map[string]bool) {
		key := setKey(emu)
		if seenSets[key] {
			return
		}
		seenSets[key] = true
		cands = append(cands, candidate{strategy, emu})
	}
	for cap := maxLayer; cap <= n.HighestLayer(); cap++ {
		add("closure:"+cap.String(), cappedClosure(n, targetSet, cap))
	}
	full := map[string]bool{}
	for _, d := range n.Devices() {
		if d.Layer != topo.LayerExternal {
			full[d.Name] = true
		}
	}
	add("full", full)

	sols := parallel.Map(len(cands), opts.Workers, func(i int) *Solution {
		return evaluate(n, targetSet, cands[i].strategy, cands[i].emulated, opts)
	})

	fullPlan, err := BuildPlan(n, full)
	if err != nil {
		return nil, err
	}
	fullScale := fullPlan.Scale()

	res := &SolveResult{
		Network:       n.Name,
		Targets:       append([]string(nil), targets...),
		Seed:          opts.Seed,
		FullDevices:   fullScale.TotalEmulated,
		FullVMs:       fullScale.VMs,
		FullHourlyUSD: float64(fullScale.VMs) * vmHourlyUSD,
		Candidates:    len(cands),
	}
	sort.Strings(res.Targets)

	var safe []*Solution
	seenSafe := map[string]bool{}
	for _, s := range sols {
		if s == nil {
			continue
		}
		res.SafeCount++
		if seenSafe[s.key()] {
			continue
		}
		seenSafe[s.key()] = true
		safe = append(safe, s)
	}
	if len(safe) == 0 {
		// Cannot happen on well-formed topologies: full emulation has no
		// boundary (or a single-AS border boundary with distinct external
		// speaker ASes) and always certifies.
		return nil, fmt.Errorf("boundary: no certified-safe emulated set found for targets %v", res.Targets)
	}
	sort.Slice(safe, func(i, j int) bool { return less(safe[i], safe[j], opts.Seed) })
	res.Best = *safe[0]
	for _, s := range safe[1:] {
		if len(res.Alternatives) >= opts.MaxAlternatives {
			break
		}
		res.Alternatives = append(res.Alternatives, *s)
	}
	res.CostReduction = 1 - float64(res.Best.Scale.VMs)/float64(res.FullVMs)
	return res, nil
}

// less is the solver's total order: fewest VMs, then fewest emulated
// devices, then fewest speakers, then a seeded hash of the emulated set,
// then the set itself, then the strategy label. Total, so sorting is
// deterministic regardless of candidate evaluation order.
func less(a, b *Solution, seed int64) bool {
	if a.Scale.VMs != b.Scale.VMs {
		return a.Scale.VMs < b.Scale.VMs
	}
	if a.Scale.TotalEmulated != b.Scale.TotalEmulated {
		return a.Scale.TotalEmulated < b.Scale.TotalEmulated
	}
	if a.Scale.Speakers != b.Scale.Speakers {
		return a.Scale.Speakers < b.Scale.Speakers
	}
	ha, hb := tieHash(seed, a.key()), tieHash(seed, b.key())
	if ha != hb {
		return ha < hb
	}
	if a.key() != b.key() {
		return a.key() < b.key()
	}
	return a.Strategy < b.Strategy
}

// evaluate certifies one candidate set and, when small enough, greedily
// shrinks it. Returns nil when the candidate (and every shrink of it)
// cannot be certified safe.
func evaluate(n *topo.Network, targets map[string]bool, strategy string, emulated map[string]bool, opts SolveOptions) *Solution {
	plan, err := BuildPlan(n, emulated)
	if err != nil {
		return nil
	}
	cert, err := plan.Certify(LemmaLimit)
	if err != nil {
		return nil
	}
	sc := plan.Scale()
	if sc.TotalEmulated <= shrinkLimit {
		if sp, scert, ssc, shrunk := shrink(n, targets, emulated, sc, opts); shrunk {
			plan, cert, sc = sp, scert, ssc
			strategy += "+shrink"
		}
	}
	return &Solution{
		Strategy:    strategy,
		Certificate: cert,
		Plan:        plan,
		Scale:       sc,
		HourlyUSD:   float64(sc.VMs) * vmHourlyUSD,
		Emulated:    sortedNames(plan.Emulated),
	}
}

// shrink removes non-target devices one at a time — in seeded-hash order —
// keeping each removal only if the smaller set still certifies safe and
// costs no more VMs. Every accepted removal strictly shrinks the set, so
// the scan-until-fixed-point loop terminates.
func shrink(n *topo.Network, targets, emulated map[string]bool, sc Scale, opts SolveOptions) (*Plan, Certificate, Scale, bool) {
	cur := map[string]bool{}
	for name := range emulated {
		cur[name] = true
	}
	var bestPlan *Plan
	var bestCert Certificate
	shrunk := false
	for improved := true; improved; {
		improved = false
		names := sortedNames(cur)
		sort.Slice(names, func(i, j int) bool {
			hi, hj := tieHash(opts.Seed, names[i]), tieHash(opts.Seed, names[j])
			if hi != hj {
				return hi < hj
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			if targets[name] || !cur[name] {
				continue
			}
			try := map[string]bool{}
			for m := range cur {
				if m != name {
					try[m] = true
				}
			}
			plan, err := BuildPlan(n, try)
			if err != nil {
				continue
			}
			cert, err := plan.Certify(LemmaLimit)
			if err != nil {
				continue
			}
			tsc := plan.Scale()
			if tsc.VMs > sc.VMs {
				continue
			}
			cur, sc, bestPlan, bestCert = try, tsc, plan, cert
			improved, shrunk = true, true
		}
	}
	if !shrunk {
		return nil, "", Scale{}, false
	}
	return bestPlan, bestCert, sc, true
}

// cappedClosure is Algorithm 1's upward BFS stopped at layer cap: walk
// child-to-parent edges from the targets, never expanding past cap and
// never into external devices. FindSafeDCBoundary is this closure at
// HighestLayer.
func cappedClosure(n *topo.Network, targets map[string]bool, cap topo.Layer) map[string]bool {
	out := map[string]bool{}
	var queue []*topo.Device
	for name := range targets {
		queue = append(queue, n.MustDevice(name))
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Name < queue[j].Name })
	inQueue := map[string]bool{}
	for _, d := range queue {
		inQueue[d.Name] = true
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		out[d.Name] = true
		if d.Layer >= cap {
			continue
		}
		for _, up := range n.UpperNeighbors(d) {
			if up.Layer == topo.LayerExternal || up.Layer > cap {
				continue
			}
			if !inQueue[up.Name] && !out[up.Name] {
				inQueue[up.Name] = true
				queue = append(queue, up)
			}
		}
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func setKey(set map[string]bool) string { return strings.Join(sortedNames(set), ",") }

// tieHash is an FNV-1a hash of (seed, key) used for seeded tie-breaking.
func tieHash(seed int64, key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(key))
	return h.Sum64()
}

// Report renders the ranked solutions as an aligned Table-4-style text
// table. The output is byte-identical for the same (network, targets,
// seed) across runs and worker counts.
func (r *SolveResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "safe-boundary solve · network %s · %d targets · seed %d\n",
		r.Network, len(r.Targets), r.Seed)
	fmt.Fprintf(&b, "targets: %s\n", previewNames(r.Targets, 8))
	fmt.Fprintf(&b, "full emulation: %d devices · %d VMs · $%.2f/h\n",
		r.FullDevices, r.FullVMs, r.FullHourlyUSD)
	fmt.Fprintf(&b, "candidates: %d evaluated · %d safe\n\n", r.Candidates, r.SafeCount)

	header := []string{"rank", "strategy", "cert", "#brd", "#spn", "#leaf", "#tor", "#other", "#dev", "#spk", "prop", "VMs", "$/h", "saved"}
	rows := [][]string{solutionRow("best", r.Best, r.FullVMs)}
	for i, s := range r.Alternatives {
		rows = append(rows, solutionRow(fmt.Sprintf("alt-%d", i+1), s, r.FullVMs))
	}
	b.WriteString(alignedTable(header, rows))
	return b.String()
}

func solutionRow(rank string, s Solution, fullVMs int) []string {
	lc := s.Scale.LayerCounts
	other := s.Scale.TotalEmulated
	for _, l := range []topo.Layer{topo.LayerBorder, topo.LayerSpine, topo.LayerLeaf, topo.LayerToR} {
		other -= lc[l]
	}
	return []string{
		rank, s.Strategy, string(s.Certificate),
		fmt.Sprintf("%d", lc[topo.LayerBorder]), fmt.Sprintf("%d", lc[topo.LayerSpine]),
		fmt.Sprintf("%d", lc[topo.LayerLeaf]), fmt.Sprintf("%d", lc[topo.LayerToR]),
		fmt.Sprintf("%d", other),
		fmt.Sprintf("%d", s.Scale.TotalEmulated), fmt.Sprintf("%d", s.Scale.Speakers),
		fmt.Sprintf("%.1f%%", s.Scale.Proportion*100),
		fmt.Sprintf("%d", s.Scale.VMs),
		fmt.Sprintf("$%.2f", s.HourlyUSD),
		fmt.Sprintf("%.1f%%", (1-float64(s.Scale.VMs)/float64(fullVMs))*100),
	}
}

// previewNames joins up to max names, eliding the rest with a count.
func previewNames(names []string, max int) string {
	if len(names) <= max {
		return strings.Join(names, ",")
	}
	return strings.Join(names[:max], ",") + fmt.Sprintf(",… (+%d more)", len(names)-max)
}

// alignedTable mirrors the experiments-package table renderer (kept local:
// experiments imports boundary, not the other way around).
func alignedTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
