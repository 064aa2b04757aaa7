package experiments

import (
	"fmt"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/parallel"
	"crystalnet/internal/rib"
	"crystalnet/internal/topo"
)

// CrossValidateResult reproduces the §9 cross-validation findings: the
// strict FIB comparator flags ECMP/arrival-order non-determinism that the
// ECMP-aware comparator correctly tolerates, and the emulation agrees with
// the idealized config model on a healthy fabric.
type CrossValidateResult struct {
	// StrictDiffs/ECMPAwareDiffs compare two emulation runs of the same
	// fabric whose ToR firmware tie-breaks by arrival order (§9).
	StrictDiffs    int
	ECMPAwareDiffs int
	// VerifierAgreement is the fraction of (device, ToR-prefix) FIB entries
	// where the emulation and the Batfish-style model overlap in next hops
	// on a healthy fabric (§10: verification as the first, low-fidelity
	// check).
	VerifierAgreement float64
	ComparedEntries   int
}

// crossValidateFabric is the small Clos used for the comparison runs: four
// spines per plane so a width-limited ECMP group is a strict subset of the
// candidates (the §9 situation).
func crossValidateFabric() *topo.Network {
	return topo.GenerateClos(topo.ClosSpec{
		Name: "xval", Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2,
		SpineGroups: 1, SpinesPerPlane: 4, BordersPerGroup: 2,
		PrefixesPerToR: 1,
	})
}

// nonDetImages gives the leaf/spine firmware an arrival-order tie-break.
func nonDetImages() map[string]firmware.VendorImage {
	leaf := fastImage("ctnra", firmware.Bugs{})
	leaf.NonDeterministicTies = true
	// Extra boot jitter so the two runs see different arrival orders.
	leaf.BootJitter = 2 * time.Minute
	return map[string]firmware.VendorImage{
		"ctnrb": fastImage("ctnrb", firmware.Bugs{}),
		"ctnra": leaf,
	}
}

func runForFIBs(seed int64, limitLeafECMP bool) (*core.Emulation, map[string]rib.Snapshot) {
	n := crossValidateFabric()
	o := core.New(core.Options{Seed: seed})
	prep, err := o.Prepare(core.PrepareInput{Network: n, Images: nonDetImages()})
	if err != nil {
		panic(err)
	}
	if limitLeafECMP {
		// Leaves use 3-wide ECMP over 4 spine candidates: any two runs'
		// groups overlap, but which 3 they pick follows arrival order.
		for name, cfg := range prep.Configs {
			if n.MustDevice(name).Layer == topo.LayerLeaf {
				cfg.MaxPaths = 3
			}
		}
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		panic(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		panic(err)
	}
	return em, em.PullFIBs()
}

// CrossValidate runs the comparisons. An optional workers argument bounds
// the pool fanning the three independent emulation runs across cores
// (default GOMAXPROCS).
func CrossValidate(workers ...int) CrossValidateResult {
	res := CrossValidateResult{}

	w := 0
	if len(workers) > 0 {
		w = workers[0]
	}
	type run struct {
		em   *core.Emulation
		fibs map[string]rib.Snapshot
	}
	// Two runs, different seeds: boot order differs, so the arrival-order
	// tie-break picks different single paths on the ToRs. The third is the
	// healthy fabric compared against the idealized verifier below. Each is
	// an independent engine, so they fan across the pool.
	seeds := []struct {
		seed  int64
		limit bool
	}{{101, true}, {202, true}, {303, false}}
	runs := parallel.Map(len(seeds), w, func(i int) run {
		em, fibs := runForFIBs(seeds[i].seed, seeds[i].limit)
		return run{em: em, fibs: fibs}
	})
	fibsA, fibsB := runs[0].fibs, runs[1].fibs
	for name := range fibsA {
		res.StrictDiffs += len(rib.Compare(bgpOnly(fibsA[name]), bgpOnly(fibsB[name]), rib.Strict))
		res.ECMPAwareDiffs += len(rib.Compare(bgpOnly(fibsA[name]), bgpOnly(fibsB[name]), rib.ECMPAware))
	}

	// Healthy fabric vs the idealized verifier, restricted to ToR server
	// prefixes (config-derived state on both sides).
	em, fibs := runs[2].em, runs[2].fibs
	cfgs := em.Configs()
	ideal := batfish.Simulate(em.Network(), cfgs)
	var torPrefixes []netpkt.Prefix
	for _, d := range em.Network().DevicesByLayer(topo.LayerToR) {
		torPrefixes = append(torPrefixes, d.Originated...)
	}
	agree := 0
	for name, snap := range fibs {
		emuIdx := indexByPrefix(snap)
		verIdx := indexByPrefix(ideal[name])
		cfg := cfgs[name]
		for _, p := range torPrefixes {
			if originates(cfg, p) {
				continue // own attached subnet; the verifier has no FIB row
			}
			e, okE := emuIdx[p]
			v, okV := verIdx[p]
			if !okE && !okV {
				continue
			}
			res.ComparedEntries++
			if okE && okV && hopsOverlap(e, v) {
				agree++
			}
		}
	}
	if res.ComparedEntries > 0 {
		res.VerifierAgreement = float64(agree) / float64(res.ComparedEntries)
	}
	return res
}

func bgpOnly(s rib.Snapshot) rib.Snapshot {
	var out rib.Snapshot
	for _, e := range s {
		if e.Proto == rib.ProtoBGP {
			out = append(out, e)
		}
	}
	return out
}

func indexByPrefix(s rib.Snapshot) map[netpkt.Prefix]*rib.Entry {
	out := map[netpkt.Prefix]*rib.Entry{}
	for _, e := range s {
		out[e.Prefix] = e
	}
	return out
}

func hopsOverlap(a, b *rib.Entry) bool {
	for _, x := range a.NextHops {
		for _, y := range b.NextHops {
			if x.IP == y.IP {
				return true
			}
		}
	}
	// Both locally attached counts as agreement.
	return len(a.NextHops) > 0 && len(b.NextHops) > 0 &&
		a.NextHops[0].IP == 0 && b.NextHops[0].IP == 0
}

// FormatCrossValidate renders the §9 comparison.
func FormatCrossValidate(r CrossValidateResult) string {
	rows := [][]string{
		{"strict comparator, 2 runs w/ arrival-order ties", fmt.Sprintf("%d diffs", r.StrictDiffs)},
		{"ECMP-aware comparator, same runs", fmt.Sprintf("%d diffs", r.ECMPAwareDiffs)},
		{"emulation vs idealized verifier (healthy fabric)", fmt.Sprintf("%.0f%% agree (%d entries)", r.VerifierAgreement*100, r.ComparedEntries)},
	}
	return table([]string{"Comparison", "Result"}, rows)
}

func originates(c *config.DeviceConfig, p netpkt.Prefix) bool {
	if c == nil {
		return false
	}
	for _, q := range c.Networks {
		if q == p {
			return true
		}
	}
	return false
}
