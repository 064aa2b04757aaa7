package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/checkpoint"
	"crystalnet/internal/cloud"
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
	// key is the ConvergenceKey of the spec and options Converge ran: a
	// fork runs only a spec with the same key (fork checks).
	key string

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
// for Converged.Run, which validates and executes them on a fork, so sp may
// have none. The spec's invariants
// are swept once at the converged point and recorded in the step-0 result
// every forked report starts from, exactly as a fresh run would record
// them.
func Converge(sp *Spec, opts Options) (*Converged, error) {
	if err := sp.validateFabric(); err != nil {
		return nil, err
	}
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
		key:      ConvergenceKey(sp, opts),
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
// sp under opts must have the ConvergenceKey of the spec and options
// Converge was given: forking cannot replay a different convergence, so
// sp may differ from that spec only in its name, description and steps.
func (cv *Converged) Run(sp *Spec, opts Options) (*Report, error) {
	return cv.RunKey(ConvergenceKey(sp, opts), sp, opts)
}

// RunKey is Run for a caller that already holds key, ConvergenceKey(sp,
// opts): crystald's warm pool looked the baseline up by it, so a rehearsal
// computes its key once.
func (cv *Converged) RunKey(key string, sp *Spec, opts Options) (*Report, error) {
	r, err := cv.fork(key, sp, opts)
	if err != nil {
		return nil, err
	}
	return r.drive()
}

// fork is Run up to the first step: the checks, the forked emulation and a
// runner holding the baseline's step-0 report, ready to drive.
func (cv *Converged) fork(key string, sp *Spec, opts Options) (*runner, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if key != cv.key {
		return nil, fmt.Errorf("scenario %s: %s does not match the converged baseline's", sp.Name, keyField(key, cv.key))
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
// spec, then the default seed 1.
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

// ConvergenceKey is everything that shapes the convergence of sp under
// opts, as one string: the spec without its name, description and steps
// (only a fork runs those), with the seed resolved, then the Images, MTBF,
// Retry and RecoveryDeadline options that are set. It marshals through
// encoding/json, which orders struct fields by declaration and map keys
// lexically, so equal fabrics produce equal keys. Converge records it, a
// fork must match it, and crystald's warm pool is keyed by it.
func ConvergenceKey(sp *Spec, opts Options) string {
	c := sp.Clone()
	c.Name, c.Description, c.Steps = "", "", nil
	c.Seed = EffectiveSeed(sp, opts)
	k := convergenceKey{Spec: c, Images: opts.Images, MTBF: opts.MTBF, RecoveryDeadline: opts.RecoveryDeadline}
	if opts.Retry != (cloud.RetryPolicy{}) {
		k.Retry = &opts.Retry
	}
	b, err := json.Marshal(k)
	if err != nil {
		// Specs arrive through Parse; plain data cannot fail.
		panic(fmt.Sprintf("scenario: marshal convergence key: %v", err))
	}
	return string(b)
}

// convergenceKey is what ConvergenceKey marshals: the spec's fields, then
// the options that shape a convergence, each omitted when unset so that a
// spec under zero options keys as the spec alone.
type convergenceKey struct {
	*Spec
	Images           map[string]ImageRef `json:"Options.Images,omitempty"`
	MTBF             time.Duration       `json:"Options.MTBF,omitempty"`
	Retry            *cloud.RetryPolicy  `json:"Options.Retry,omitempty"`
	RecoveryDeadline time.Duration       `json:"Options.RecoveryDeadline,omitempty"`
}

// keyField names the first top-level field, in declaration order, in which
// the convergence keys a and b differ.
func keyField(a, b string) string {
	var fa, fb map[string]json.RawMessage
	if json.Unmarshal([]byte(a), &fa) != nil || json.Unmarshal([]byte(b), &fb) != nil {
		return "convergence key"
	}
	for _, t := range []reflect.Type{reflect.TypeFor[Spec](), reflect.TypeFor[convergenceKey]()} {
		for i := range t.NumField() {
			name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			if name != "" && !bytes.Equal(fa[name], fb[name]) {
				return name
			}
		}
	}
	return "convergence key"
}
