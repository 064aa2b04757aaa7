package scenario

import (
	"fmt"
	"maps"
	"slices"

	"crystalnet/internal/batfish"
	"crystalnet/internal/checkpoint"
	"crystalnet/internal/core"
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
	// opts holds the Images, MTBF, Retry and RecoveryDeadline the mockup
	// ran with: a fork cannot run with others (fork checks).
	opts Options

	orch *core.Orchestrator
	snap *checkpoint.Snapshot

	baseline *core.State // its Configs are the rollback anchors of every fork
	// sweep is the verdict table of the step-0 no-blackhole sweep (nil when
	// the spec has none), which every fork's runner starts from. It is
	// immutable: forks replace it with their own, sharing what they did not
	// rewrite.
	sweep  *batfish.Sweep
	step0  StepResult
	header Report
}

// Converge builds sp's fabric and drives it to route-ready, returning a
// forkable baseline. Only the mockup prologue runs — sp's steps are left
// for Converged.Run, which executes them on a fork. The spec's invariants
// are swept once at the converged point and recorded in the step-0 result
// every forked report starts from, exactly as a fresh run would record
// them.
func Converge(sp *Spec, opts Options) (*Converged, error) {
	r, err := mockedUp(sp, opts)
	if err != nil {
		return nil, err
	}
	snap, err := r.em.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: checkpoint: %w", sp.Name, err)
	}
	header := *r.report
	header.Steps = nil
	return &Converged{
		opts: Options{
			Images: maps.Clone(opts.Images), MTBF: opts.MTBF,
			Retry: opts.Retry, RecoveryDeadline: opts.RecoveryDeadline,
		},
		orch:     r.orch,
		snap:     snap,
		baseline: r.baselines[DefaultBaseline],
		sweep:    r.sweep,
		step0:    r.report.Steps[0],
		header:   header,
	}, nil
}

// Run forks the converged emulation and drives sp's steps on the fork.
// The report is byte-identical to what a fresh Run of sp with the same
// seed would produce: the forked engine continues the captured clock, FIFO
// sequence and RNG stream, so every step latency, jitter draw and event
// count matches.
//
// sp must resolve to the Converged's seed and opts must carry the Images,
// MTBF, Retry and RecoveryDeadline Converge was given: forking cannot
// replay a different convergence.
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
	if seed := EffectiveSeed(sp, opts); seed != cv.header.Seed {
		return nil, fmt.Errorf("scenario %s: seed %d does not match converged baseline seed %d",
			sp.Name, seed, cv.header.Seed)
	}
	mismatch := ""
	switch {
	case !maps.Equal(opts.Images, cv.opts.Images):
		mismatch = "Images"
	case opts.MTBF != cv.opts.MTBF:
		mismatch = "MTBF"
	case opts.Retry != cv.opts.Retry:
		mismatch = "Retry"
	case opts.RecoveryDeadline != cv.opts.RecoveryDeadline:
		mismatch = "RecoveryDeadline"
	}
	if mismatch != "" {
		return nil, fmt.Errorf("scenario %s: option %s does not match the converged baseline's", sp.Name, mismatch)
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
		origConfigs: cv.baseline.Configs,
		baselines:   map[string]*core.State{DefaultBaseline: cv.baseline},
		sweep:       cv.sweep,
		report:      &report,
	}
	step0 := cv.step0
	step0.Diffs = slices.Clone(cv.step0.Diffs)
	step0.Invariants = slices.Clone(cv.step0.Invariants)
	r.report.Steps = append(r.report.Steps, step0)
	return r, nil
}

// Invalidate permanently retires the baseline: subsequent Run calls fail
// instead of forking. A warm pool calls it when it evicts the entry, so
// stale handles cannot revive state the pool has given up on. In-flight
// forks already materialized are unaffected. Safe from any goroutine.
func (cv *Converged) Invalidate() { cv.snap.Invalidate() }

// EffectiveSeed resolves a spec/options pair's seed as Run does: override,
// spec, then the default seed 1. The serving layer keys its warm pool on it.
func EffectiveSeed(sp *Spec, opts Options) int64 {
	seed := sp.Seed
	if opts.SeedOverride != nil {
		seed = *opts.SeedOverride
	}
	if seed == 0 {
		seed = 1
	}
	return seed
}
