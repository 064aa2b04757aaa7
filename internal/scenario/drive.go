package scenario

import (
	"errors"
	"fmt"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/firmware"
	"crystalnet/internal/obs"
)

// Probe defaults: traceroute-style UDP with a generous TTL, one packet.
const (
	probePort     = 33434
	probeTTL      = 32
	probeInterval = time.Millisecond
	// defaultMaxEvents caps one convergence drive (same default as
	// Emulation.RunUntilConverged).
	defaultMaxEvents = 500_000_000
	// maxDetail bounds per-check failure listings in reports.
	maxDetail = 5
)

// Options tune a single scenario run.
type Options struct {
	// SeedOverride replaces the spec's seed when non-nil (campaigns use it
	// to derive per-run seeds).
	SeedOverride *int64
	// Images overrides/extends the spec's image pins — the firmware-
	// validation pipeline sweeps dev builds through one spec this way.
	Images map[string]ImageRef
	// MaxEvents caps each convergence drive (0 = default).
	MaxEvents uint64
	// Rec enables the Monitor plane's tracer for this run
	// (docs/OBSERVABILITY.md). On a fresh Run it becomes the emulation's
	// recorder; on Converged.Run it adopts the fork's recorder — including
	// everything the shared convergence recorded — so the caller's handle
	// always holds the run's complete trace.
	Rec *obs.Recorder
	// MTBF arms seeded random VM failures on every provisioned VM
	// (core.Options.MTBF); zero disables them. The failure timers are
	// daemon events, so convergence drives still terminate with them
	// armed, and a fork of a converged baseline re-arms them.
	MTBF time.Duration
	// Retry supervises VM boots with per-attempt deadlines, backoff and
	// replacement (core.Options.Retry). The zero value reproduces
	// unsupervised boots byte-for-byte.
	Retry cloud.RetryPolicy
	// RecoveryDeadline bounds each VM-failure recovery episode
	// (core.Options.RecoveryDeadline); zero means unbounded. Episodes
	// that exceed it are abandoned into the report's Degraded list.
	RecoveryDeadline time.Duration
	// Cancel, when non-nil, aborts the run once the channel fires: between
	// steps and — via core.Emulation.SetCancel — mid-convergence. The
	// abandoned emulation is torn down deterministically (events dropped,
	// firmware stopped, VMs cleared) before the run returns
	// core.ErrCanceled. The serving path (internal/serve) wires a request
	// context's Done channel here; nil leaves runs uncancelable and
	// byte-identical to before.
	Cancel <-chan struct{}
}

// runner executes one spec against one emulation.
type runner struct {
	sp   *Spec
	opts Options

	orch *core.Orchestrator
	em   *core.Emulation

	// origConfigs are the post-mockup device configurations — the initial
	// baseline's map, whatever save-baseline later stores under that name.
	// The values are the devices' own, shared with the running firmware and
	// every fork, never written: reload-config patches a clone and
	// fromBaseline rolls back to one.
	origConfigs map[string]*config.DeviceConfig
	baselines   map[string]*core.State
	lastFlow    uint64

	// sweep is the no-blackhole verdict table as of the last sweep: built by
	// the first, brought up to date by each later one, and on a fork the
	// converged baseline's, shared read-only. sweepResolved counts the
	// successors the run's sweeps resolved; only tests read it.
	sweep         *batfish.Sweep
	sweepResolved int

	report *Report
}

// Run executes a validated spec from scratch: build the fabric, mock up
// the emulation, then drive every step on the simulation clock, sweeping
// the spec's invariants at each convergence point. The returned report is
// fully determined by (spec, seed): identically-seeded runs produce
// byte-identical JSON.
func Run(sp *Spec, opts Options) (*Report, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	r, err := mockedUp(sp, opts)
	if err != nil {
		return nil, err
	}
	return r.drive()
}

// canceled reports whether the run's cancel channel has fired.
func (r *runner) canceled() bool {
	if r.opts.Cancel == nil {
		return false
	}
	select {
	case <-r.opts.Cancel:
		return true
	default:
		return false
	}
}

// abort tears the abandoned emulation down deterministically and returns
// the cancellation error the caller propagates.
func (r *runner) abort() error {
	r.em.Teardown()
	return fmt.Errorf("scenario %s: %w", r.sp.Name, core.ErrCanceled)
}

// drive executes every spec step against the runner's emulation and seals
// the report — the shared back half of Run and Converged.Run. A canceled
// run tears the emulation down and returns core.ErrCanceled instead of a
// report.
func (r *runner) drive() (*Report, error) {
	rec := r.orch.Eng.Recorder()
	for i := range r.sp.Steps {
		if r.canceled() {
			return nil, r.abort()
		}
		st := &r.sp.Steps[i]
		res := StepResult{Index: i + 1, Op: st.Op, Label: st.Label}
		start := r.orch.Eng.Now()
		res.Start = start.String()
		r.step(st, &res)
		end := r.orch.Eng.Now()
		res.End = end.String()
		res.VirtualLatency = end.Sub(start).String()
		if rec != nil {
			name := string(st.Op)
			if st.Label != "" {
				name = st.Label
			}
			rec.SpanAt("scenario", name, int64(start), int64(end),
				obs.Attr{K: "step", V: fmt.Sprint(res.Index)},
				obs.Attr{K: "pass", V: fmt.Sprint(res.Pass)})
		}
		r.report.Steps = append(r.report.Steps, res)
	}
	if r.canceled() {
		return nil, r.abort()
	}

	r.report.VirtualDuration = r.orch.Eng.Now().Sub(r.em.MockupStart).String()
	r.report.Traffic = r.em.Traffic().Report()
	r.report.Alerts = append([]string(nil), r.em.Alerts...)
	r.report.Degraded = append([]string(nil), r.em.Degraded()...)
	r.report.PendingFaults = r.em.FaultsPending()
	r.report.Passed = r.passed()
	r.report.CowCopies = r.em.CowCopies()
	return r.report, nil
}

// passed folds every step and invariant outcome. A fault still pending at
// the end of the run means an injected failure never fired — a lost fault
// must fail the run rather than pass silently.
func (r *runner) passed() bool {
	if r.report.Error != "" {
		return false
	}
	if r.report.PendingFaults > 0 {
		return false
	}
	for i := range r.report.Steps {
		if !r.report.Steps[i].Pass {
			return false
		}
		for _, c := range r.report.Steps[i].Invariants {
			if !c.Pass {
				return false
			}
		}
	}
	return true
}

// mockedUp returns a runner for sp, validated by its caller, whose
// emulation is mocked up (runner.mockup): the shared front half of Run and
// Converge.
func mockedUp(sp *Spec, opts Options) (*runner, error) {
	seed := EffectiveSeed(sp, opts)
	r := &runner{
		sp: sp, opts: opts,
		baselines: map[string]*core.State{},
		report:    &Report{Scenario: sp.Name, Seed: seed},
	}
	if err := r.mockup(seed); err != nil {
		return nil, err
	}
	return r, nil
}

// mockup builds the fabric and drives the emulation to route-ready,
// recording the synthetic step-0 result with the §8.1 metrics and the
// first invariant sweep.
func (r *runner) mockup(seed int64) error {
	net, clos, err := r.sp.BuildNetwork()
	if err != nil {
		return err
	}
	r.report.Fabric = clos.Name

	images := map[string]firmware.VendorImage{}
	addImage := func(vendor string, ref ImageRef) error {
		name := ref.Name
		if name == "" {
			name = vendor
		}
		img, err := image(name, ref.Version)
		if err != nil {
			return fmt.Errorf("scenario %s: image %s: %w", r.sp.Name, vendor, err)
		}
		images[vendor] = img
		return nil
	}
	for vendor, ref := range r.sp.Images {
		if err := addImage(vendor, ref); err != nil {
			return err
		}
	}
	for vendor, ref := range r.opts.Images {
		if err := addImage(vendor, ref); err != nil {
			return err
		}
	}

	must := append([]string(nil), r.sp.MustEmulate...)
	for _, pod := range r.sp.MustEmulatePods {
		for _, d := range net.DevicesInPod(pod) {
			must = append(must, d.Name)
		}
	}
	for _, names := range [][]string{must, r.sp.Emulate} {
		for _, name := range names {
			if net.Device(name) == nil {
				return fmt.Errorf("scenario %s: %w: unknown device %q", r.sp.Name, ErrBadSpec, name)
			}
		}
	}

	r.orch = core.New(core.Options{
		Seed: seed, Rec: r.opts.Rec,
		MTBF: r.opts.MTBF, Retry: r.opts.Retry, RecoveryDeadline: r.opts.RecoveryDeadline,
	})
	prep, err := r.orch.Prepare(core.PrepareInput{
		Network: net, MustEmulate: must, Emulate: r.sp.Emulate, Images: images,
	})
	if err != nil {
		return err
	}
	if prep.SafetyErr != nil {
		return fmt.Errorf("scenario %s: boundary unsafe: %w", r.sp.Name, prep.SafetyErr)
	}
	em, err := r.orch.Mockup(prep, false)
	if err != nil {
		return err
	}
	r.em = em
	if r.opts.Cancel != nil {
		em.SetCancel(r.opts.Cancel)
	}

	res := StepResult{Index: 0, Op: "mockup", Start: r.orch.Eng.Now().String(), Pass: true}
	metrics, err := em.RunUntilConverged(r.maxEvents(0))
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			return r.abort()
		}
		return fmt.Errorf("scenario %s: mockup did not converge: %w", r.sp.Name, err)
	}
	scale := prep.Plan.Scale()
	r.report.Emulated = scale.TotalEmulated
	r.report.Speakers = scale.Speakers
	r.report.VMs = len(prep.VMs())
	r.report.NetworkReady = metrics.NetworkReady.String()
	r.report.RouteReady = metrics.RouteReady.String()
	r.report.MockupLatency = metrics.Mockup.String()

	base := em.Save()
	r.baselines[DefaultBaseline], r.origConfigs = base, base.Configs

	// Attach the spec's traffic matrix at the converged baseline, before
	// the first invariant sweep: assert-flow-slo invariants see settled
	// traffic from convergence point zero onward.
	if r.sp.Traffic != nil {
		if err := r.attachTraffic(r.sp.Traffic, seed); err != nil {
			return fmt.Errorf("scenario %s: traffic: %w", r.sp.Name, err)
		}
	}

	res.End = r.orch.Eng.Now().String()
	res.VirtualLatency = metrics.Mockup.String()
	res.Detail = fmt.Sprintf("%d devices emulated, %d speakers, %d VMs",
		scale.TotalEmulated, scale.Speakers, r.report.VMs)
	r.sweepInvariants(&res)
	r.report.Steps = append(r.report.Steps, res)
	return nil
}

func (r *runner) maxEvents(stepCap uint64) uint64 {
	if stepCap > 0 {
		return stepCap
	}
	if r.opts.MaxEvents > 0 {
		return r.opts.MaxEvents
	}
	return defaultMaxEvents
}

// sweepInvariants evaluates every spec invariant into res — the continuous
// checking done at each convergence point.
func (r *runner) sweepInvariants(res *StepResult) {
	for i := range r.sp.Invariants {
		res.Invariants = append(res.Invariants, r.check(&r.sp.Invariants[i]))
	}
}
