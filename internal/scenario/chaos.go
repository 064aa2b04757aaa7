package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"crystalnet/internal/cloud"
	"crystalnet/internal/obs"
	"crystalnet/internal/parallel"
	"crystalnet/internal/topo"
)

// DefaultChaosRuns and DefaultChaosFaults are what a non-positive
// CampaignConfig.N and FaultsPerRun mean.
const (
	DefaultChaosRuns   = 20
	DefaultChaosFaults = 6
)

// CampaignConfig parameterizes a chaos campaign: N randomized fault
// sequences expanded from one base spec, seeded so the whole campaign is
// reproducible, run on forks of one converged baseline fanned across cores
// with the experiment worker pool.
type CampaignConfig struct {
	// N is the number of fault sequences (runs; default 20).
	N int
	// Seed seeds the campaign: it is every run's emulation seed (the runs
	// share one convergence), and run i derives its fault draws' seed from
	// it, so reports are identical for any worker count.
	Seed int64
	// FaultsPerRun is the number of fault events per sequence (default 6).
	FaultsPerRun int
	// Workers bounds the pool (<= 0 means GOMAXPROCS, 1 means serial).
	Workers int
	// MaxEvents caps each convergence drive (0 = default).
	MaxEvents uint64
	// Trace gives every run a private obs.Recorder and collects them in
	// CampaignReport.Traces, in run order regardless of worker count —
	// the same determinism contract the reports already have. The shared
	// convergence is traced once and each run's trace starts with a copy
	// of it, exactly as a fresh traced run would look.
	Trace bool
	// MTBF arms seeded random VM failures in every run (Options.MTBF),
	// layering background faults on top of the injected sequences.
	MTBF time.Duration
	// Retry supervises VM boots in every run (Options.Retry).
	Retry cloud.RetryPolicy
	// RecoveryDeadline bounds each recovery episode in every run
	// (Options.RecoveryDeadline).
	RecoveryDeadline time.Duration
	// Cancel, when non-nil, aborts the campaign's runs once it fires
	// (Options.Cancel); already-finished reports are unaffected, in-flight
	// runs tear down and report core.ErrCanceled.
	Cancel <-chan struct{}
}

// runOptions builds one run's Options from the campaign knobs.
func (cfg *CampaignConfig) runOptions() Options {
	opts := Options{
		MaxEvents: cfg.MaxEvents,
		MTBF:      cfg.MTBF, Retry: cfg.Retry, RecoveryDeadline: cfg.RecoveryDeadline,
		Cancel: cfg.Cancel,
	}
	if cfg.Trace {
		opts.Rec = obs.New()
	}
	return opts
}

// Fault kinds the expander draws from.
const (
	faultLinkFlap = iota
	faultVMKill
	faultPerturbConfig
	numFaultKinds
)

// benignPrefixes are RFC 5737 / benchmarking source ranges no fabric
// device uses: denying them exercises the reload path without changing
// forwarding behaviour, so the end-of-run FIB diff stays clean.
var benignPrefixes = []string{
	"192.0.2.0/24", "198.51.100.0/25", "203.0.113.0/24", "198.18.0.0/15",
}

// Chaos expands the base spec into cfg.N seeded fault sequences and runs
// them across the worker pool, each on its own fork of the base fabric
// converged once at the campaign seed. A fork owns its engine, cloud and
// emulation, so the aggregated report is byte-identical no matter how many
// workers execute it (the determinism contract the experiment harness
// already provides for figures).
func Chaos(base *Spec, cfg CampaignConfig) (*CampaignReport, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		cfg.N = DefaultChaosRuns
	}
	if cfg.FaultsPerRun <= 0 {
		cfg.FaultsPerRun = DefaultChaosFaults
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Enumerate fault candidates once, deterministically, from the base
	// fabric (every run forks the same topology).
	net, _, err := base.BuildNetwork()
	if err != nil {
		return nil, err
	}
	cand, err := faultCandidates(net)
	if err != nil {
		return nil, err
	}

	convBase := base.Clone()
	convBase.Seed = cfg.Seed
	// runOptions traces the shared convergence when cfg.Trace; every fork
	// starts from a deep copy of that recorder, so each run's trace is
	// complete.
	conv, err := Converge(convBase, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	// Run i's recorder goes to slot i (nil unless the campaign traces), so
	// traces line up with runs whatever the worker count.
	recs := make([]*obs.Recorder, cfg.N)
	out := &CampaignReport{Scenario: base.Name, Seed: cfg.Seed}
	out.Runs = parallel.Map(cfg.N, cfg.Workers, func(i int) *Report {
		sp := expandRun(base, cand, i, cfg.Seed, cfg.FaultsPerRun)
		opts := cfg.runOptions()
		recs[i] = opts.Rec
		rep, err := conv.Run(sp, opts)
		if err != nil {
			return &Report{Scenario: sp.Name, Seed: cfg.Seed, Error: err.Error()}
		}
		return rep
	})
	if cfg.Trace {
		out.Traces = recs
	}
	for _, r := range out.Runs {
		if r.Passed {
			out.Passed++
		} else {
			out.Failed++
		}
	}
	return out, nil
}

// candidates are the deterministic pools the fault expander draws from.
type candidates struct {
	// links are internal fabric links as [a, b] "device:iface" endpoints.
	links [][2]string
	// killable devices (their hosting VM is failed).
	killable []string
	// perturbable devices (benign ACL reload + rollback).
	perturbable []string
}

// faultCandidates enumerates flappable links and target devices. Only
// fully-internal links qualify: flapping a boundary link would cut a
// speaker's only session and leave the run's final state dependent on the
// fault draw.
func faultCandidates(net *topo.Network) (*candidates, error) {
	c := &candidates{}
	internal := func(l topo.Layer) bool {
		switch l {
		case topo.LayerToR, topo.LayerLeaf, topo.LayerSpine, topo.LayerBorder:
			return true
		}
		return false
	}
	for _, l := range net.Links {
		if internal(l.A.Device.Layer) && internal(l.B.Device.Layer) {
			c.links = append(c.links, [2]string{
				l.A.Device.Name + ":" + l.A.Name,
				l.B.Device.Name + ":" + l.B.Name,
			})
		}
	}
	for _, d := range net.Devices() {
		switch d.Layer {
		case topo.LayerToR, topo.LayerLeaf, topo.LayerSpine, topo.LayerBorder:
			c.killable = append(c.killable, d.Name)
		}
		switch d.Layer {
		case topo.LayerToR, topo.LayerLeaf:
			c.perturbable = append(c.perturbable, d.Name)
		}
	}
	if len(c.links) == 0 || len(c.killable) == 0 || len(c.perturbable) == 0 {
		return nil, fmt.Errorf("scenario: fabric has no chaos fault candidates")
	}
	return c, nil
}

// expandRun derives run i's concrete spec: the base steps, then
// faultsPerRun randomized fault events (each followed by convergence and
// the invariant sweep), then a final FIB diff against the initial baseline
// — every fault in the campaign is repaired, so a clean run ends exactly
// where it started. The campaign seed is the spec's seed (every run forks
// one convergence); the fault draws are seeded per run, from the campaign
// seed and i (a splitmix64-style constant keeps neighboring runs
// decorrelated).
func expandRun(base *Spec, cand *candidates, i int, campaignSeed int64, faultsPerRun int) *Spec {
	sp := base.Clone()
	sp.Name = fmt.Sprintf("%s/run-%03d", base.Name, i)
	sp.Seed = campaignSeed
	rng := rand.New(rand.NewSource(campaignSeed + int64(i+1)*-0x61c8864680b583eb))

	up, down := true, false
	kills := 0
	for f := 0; f < faultsPerRun; f++ {
		switch rng.Intn(numFaultKinds) {
		case faultLinkFlap:
			l := cand.links[rng.Intn(len(cand.links))]
			sp.Steps = append(sp.Steps,
				Step{Op: OpSetLink, Label: fmt.Sprintf("fault %d: flap", f), A: l[0], B: l[1], Up: &down},
				Step{Op: OpWaitConverge},
				Step{Op: OpSetLink, A: l[0], B: l[1], Up: &up},
				Step{Op: OpWaitConverge},
			)
		case faultVMKill:
			dev := cand.killable[rng.Intn(len(cand.killable))]
			kills++
			sp.Steps = append(sp.Steps,
				Step{Op: OpInjectVMFailure, Label: fmt.Sprintf("fault %d: vm-kill", f), Device: dev},
				Step{Op: OpWaitConverge},
				Step{Op: OpAssertRecoveredWithin, Duration: Duration(5 * time.Minute), Recoveries: kills},
			)
		case faultPerturbConfig:
			dev := cand.perturbable[rng.Intn(len(cand.perturbable))]
			pfx := benignPrefixes[rng.Intn(len(benignPrefixes))]
			sp.Steps = append(sp.Steps,
				Step{
					Op: OpReloadConfig, Label: fmt.Sprintf("fault %d: perturb", f), Device: dev,
					ACL: &ACLPatch{Name: "CHAOS-GUARD", DenySrc: pfx, BindIngress: true},
				},
				Step{Op: OpWaitConverge},
				Step{Op: OpReloadConfig, Device: dev, FromBaseline: true},
				Step{Op: OpWaitConverge},
			)
		}
	}
	sp.Steps = append(sp.Steps, Step{
		Op: OpAssertFIBDiff, Label: "campaign epilogue: forwarding state restored",
	})
	return sp
}
