package scenario

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"crystalnet/internal/checkpoint"
	"crystalnet/internal/cloud"
	"crystalnet/internal/core"
	"crystalnet/internal/topo"
)

// Converged is a reusable converged baseline for a spec: the fabric has
// been built, mocked up and driven to route-ready exactly once, and every
// call to Run forks it instead of re-converging. The N-run campaign cost
// drops from N×(mockup+convergence+steps) to 1×convergence + N×steps.
//
// A Converged value may serve concurrent Run calls (the chaos campaign
// forks from worker goroutines); the underlying emulation is only ever
// read. It must not be used after its parent emulation is advanced,
// mutated or cleared by other means.
type Converged struct {
	seed int64
	// The options the mockup ran with, beside the seed: a fork cannot run
	// with others (fork checks).
	images           map[string]ImageRef
	retry            cloud.RetryPolicy
	recoveryDeadline time.Duration

	orch *core.Orchestrator
	snap *checkpoint.Snapshot
	net  *topo.Network

	baseline *core.State // its Configs are the rollback anchors of every fork
	step0    StepResult
	header   Report
}

// Converge builds sp's fabric and drives it to route-ready, returning a
// forkable baseline. Only the mockup prologue runs — sp's steps are left
// for Converged.Run, which executes them on a fork. The spec's invariants
// are swept once at the converged point and recorded in the step-0 result
// every forked report starts from, exactly as a fresh run would record
// them.
func Converge(sp *Spec, opts Options) (*Converged, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	seed := resolveSeed(sp, opts)
	r := &runner{
		sp: sp, opts: opts,
		baselines: map[string]*core.State{},
		report:    &Report{Scenario: sp.Name, Seed: seed},
	}
	if err := r.mockup(seed); err != nil {
		return nil, err
	}
	snap, err := r.em.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: checkpoint: %w", sp.Name, err)
	}
	header := *r.report
	header.Steps = nil
	return &Converged{
		seed:     seed,
		orch:     r.orch,
		snap:     snap,
		net:      r.net,
		baseline: r.baselines[DefaultBaseline],
		step0:    r.report.Steps[0],
		header:   header,

		images:           maps.Clone(opts.Images),
		retry:            opts.Retry,
		recoveryDeadline: opts.RecoveryDeadline,
	}, nil
}

// Run forks the converged emulation and drives sp's steps on the fork.
// The report is byte-identical to what a fresh Run of sp with the same
// seed would produce: the forked engine continues the captured clock, FIFO
// sequence and RNG stream, so every step latency, jitter draw and event
// count matches.
//
// sp must resolve to the Converged's seed and opts must carry the Images,
// Retry and RecoveryDeadline Converge was given (forking cannot replay a
// different convergence), and sp must not contain attach-device steps —
// those grow the topology, which forks share copy-on-write with the parent.
func (cv *Converged) Run(sp *Spec, opts Options) (*Report, error) {
	r, err := cv.fork(sp, opts)
	if err != nil {
		return nil, err
	}
	return r.drive()
}

// fork is Run up to the first step: the checks, the forked emulation and a
// runner holding the baseline's step-0 report, ready to drive.
func (cv *Converged) fork(sp *Spec, opts Options) (*runner, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if seed := resolveSeed(sp, opts); seed != cv.seed {
		return nil, fmt.Errorf("scenario %s: seed %d does not match converged baseline seed %d",
			sp.Name, seed, cv.seed)
	}
	mismatch := ""
	switch {
	case !maps.Equal(opts.Images, cv.images):
		mismatch = "Images"
	case opts.Retry != cv.retry:
		mismatch = "Retry"
	case opts.RecoveryDeadline != cv.recoveryDeadline:
		mismatch = "RecoveryDeadline"
	}
	if mismatch != "" {
		return nil, fmt.Errorf("scenario %s: option %s does not match the converged baseline's", sp.Name, mismatch)
	}
	if err := CheckForkable(sp, opts); err != nil {
		return nil, err
	}
	em, err := cv.orch.Fork(cv.snap)
	if err != nil {
		return nil, err
	}
	if opts.Cancel != nil {
		em.SetCancel(opts.Cancel)
	}
	if opts.Rec != nil {
		// Hand the fork's recorder (a deep copy of everything the shared
		// convergence recorded) to the caller's handle, then rebind the
		// fork's engine to it so the steps below land in the same trace.
		opts.Rec.Adopt(em.Orchestrator().Eng.Recorder())
		em.Orchestrator().Eng.SetRecorder(opts.Rec)
	}
	// Start from the whole header Converge recorded, so a field added to
	// Report reaches forked reports the way it reaches fresh ones.
	report := cv.header
	report.Scenario = sp.Name
	r := &runner{
		sp: sp, opts: opts,
		orch:        em.Orchestrator(),
		em:          em,
		net:         cv.net,
		origConfigs: cv.baseline.Configs,
		baselines:   map[string]*core.State{DefaultBaseline: cv.baseline},
		report:      &report,
	}
	step0 := cv.step0
	step0.Diffs = slices.Clone(cv.step0.Diffs)
	step0.Invariants = slices.Clone(cv.step0.Invariants)
	r.report.Steps = append(r.report.Steps, step0)
	return r, nil
}

// Seed returns the resolved seed the baseline converged with. Specs run
// against this Converged must resolve to the same value.
func (cv *Converged) Seed() int64 { return cv.seed }

// Invalidate permanently retires the baseline: subsequent Run calls fail
// instead of forking. A warm pool calls it when it evicts the entry, so
// stale handles cannot revive state the pool has given up on. In-flight
// forks already materialized are unaffected. Safe from any goroutine.
func (cv *Converged) Invalidate() { cv.snap.Invalidate() }

// CheckForkable reports whether sp can run against a forked baseline
// instead of a fresh convergence. Two things disqualify it: armed MTBF
// failures (daemon timers cannot cross a checkpoint — Converge would have
// refused) and attach-device steps (they grow the topology, which forks
// share copy-on-write with the parent). Both the chaos Reuse path and the
// rehearsal service use this to decide fork-vs-fresh up front.
func CheckForkable(sp *Spec, opts Options) error {
	if opts.MTBF > 0 {
		return fmt.Errorf("scenario %s: MTBF failure injection cannot run on a forked emulation (daemon timers cannot cross a checkpoint)", sp.Name)
	}
	for i := range sp.Steps {
		if sp.Steps[i].Op == OpAttachDevice {
			return fmt.Errorf("scenario %s: attach-device cannot run on a forked emulation (mutates the shared topology)", sp.Name)
		}
	}
	return nil
}

// resolveSeed applies the same seed-resolution rules as Run: override,
// spec, then the default seed 1.
func resolveSeed(sp *Spec, opts Options) int64 {
	seed := sp.Seed
	if opts.SeedOverride != nil {
		seed = *opts.SeedOverride
	}
	if seed == 0 {
		seed = 1
	}
	return seed
}

// EffectiveSeed exposes the resolved (override → spec → default) seed for
// a spec/options pair without running anything; the serving layer keys its
// warm pool on it.
func EffectiveSeed(sp *Spec, opts Options) int64 { return resolveSeed(sp, opts) }
