package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/rib"
	"crystalnet/internal/telemetry"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
	"crystalnet/internal/vendors"
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
	// armed — but they preclude checkpointing (Converge rejects it).
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
	// Shards, when positive, runs convergence sharded across one domain
	// per VM with this many worker goroutines (core.Options.Shards).
	// Reports are byte-identical across positive values; 0 keeps the
	// classic single-engine schedule, whose event order (and therefore
	// report bytes) differs from any sharded run.
	Shards int
}

// runner executes one spec against one emulation.
type runner struct {
	sp   *Spec
	opts Options

	orch *core.Orchestrator
	em   *core.Emulation
	net  *topo.Network

	// origConfigs are the post-mockup device configurations — the initial
	// baseline's map, whatever save-baseline later stores under that name.
	// The values are the devices' own, shared with the running firmware and
	// every fork, never written: reload-config patches a clone and
	// fromBaseline rolls back to one.
	origConfigs map[string]*config.DeviceConfig
	baselines   map[string]*core.State
	lastFlow    uint64

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
	seed := resolveSeed(sp, opts)

	r := &runner{
		sp: sp, opts: opts,
		baselines: map[string]*core.State{},
		report:    &Report{Scenario: sp.Name, Seed: seed},
	}
	if err := r.mockup(seed); err != nil {
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

// mockup builds the fabric and drives the emulation to route-ready,
// recording the synthetic step-0 result with the §8.1 metrics and the
// first invariant sweep.
func (r *runner) mockup(seed int64) error {
	net, clos, err := r.sp.BuildNetwork()
	if err != nil {
		return err
	}
	r.net = net
	r.report.Fabric = clos.Name

	images := map[string]firmware.VendorImage{}
	addImage := func(vendor string, ref ImageRef) error {
		name := ref.Name
		if name == "" {
			name = vendor
		}
		var img firmware.VendorImage
		var err error
		if ref.Version == "" {
			img, err = vendors.Default(name)
		} else {
			img, err = vendors.Get(name, ref.Version)
		}
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
		Shards: r.opts.Shards,
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

// step executes one step, filling res. Control-op errors mark the step
// failed but do not abort the run: a rehearsal wants the full trajectory.
func (r *runner) step(st *Step, res *StepResult) {
	if st.IsAssert() {
		var c Check
		if st.Op == OpAssertFIBDiff {
			// One whole-fabric diff serves the verdict and the report lines.
			diffs := r.fibDiffs(st)
			c = r.fibDiffCheck(st, diffs)
			res.Diffs = fibDiffStrings(diffs)
		} else {
			c = r.check(st)
		}
		res.Pass, res.Detail = c.Pass, c.Detail
		return
	}
	res.Pass = true
	fail := func(format string, args ...any) {
		res.Pass = false
		res.Detail = fmt.Sprintf(format, args...)
	}

	switch st.Op {
	case OpSetLink:
		da, ia, err := splitEndpoint(st.A)
		if err != nil {
			fail("%v", err)
			return
		}
		db, ib, err := splitEndpoint(st.B)
		if err != nil {
			fail("%v", err)
			return
		}
		if err := r.em.SetLink(da, ia, db, ib, *st.Up); err != nil {
			fail("%v", err)
			return
		}
		state := "down"
		if *st.Up {
			state = "up"
		}
		res.Detail = fmt.Sprintf("%s <-> %s %s", st.A, st.B, state)

	case OpReloadConfig:
		orig := r.origConfigs[st.Device]
		if orig == nil {
			fail("no baseline configuration for %q", st.Device)
			return
		}
		cfg := orig.Clone()
		if st.ACL != nil {
			if err := applyACLPatch(cfg, st.ACL); err != nil {
				fail("%v", err)
				return
			}
			res.Detail = fmt.Sprintf("%s: ACL %s deny %s", st.Device, st.ACL.Name, st.ACL.DenySrc)
		} else {
			res.Detail = fmt.Sprintf("%s: rollback to baseline", st.Device)
		}
		if err := r.em.ReloadDevice(st.Device, cfg, nil); err != nil {
			fail("%v", err)
		}

	case OpAttachDevice:
		if err := r.attachDevice(st.NewDevice); err != nil {
			fail("%v", err)
			return
		}
		res.Detail = fmt.Sprintf("attached %s (%s) to %s",
			st.NewDevice.Name, st.NewDevice.Vendor, strings.Join(st.NewDevice.Peers, ", "))

	case OpInjectPackets:
		dev := r.em.Devices[st.From]
		if dev == nil {
			fail("no device %q", st.From)
			return
		}
		dst, err := r.resolveDst(st)
		if err != nil {
			fail("%v", err)
			return
		}
		count := st.Count
		if count <= 0 {
			count = 1
		}
		interval := st.Interval.Std()
		if interval <= 0 {
			interval = probeInterval
		}
		flow, err := r.em.InjectPackets(st.From, dataplane.PacketMeta{
			Src: dev.Config().Loopback.Addr, Dst: dst,
			Proto: netpkt.ProtoUDP, SrcPort: probePort, DstPort: probePort,
			TTL: probeTTL,
		}, count, interval)
		if err != nil {
			fail("%v", err)
			return
		}
		r.lastFlow = flow
		res.Detail = fmt.Sprintf("%d probe(s) %s -> %s", count, st.From, dst)

	case OpInjectVMFailure:
		vm := r.em.VMName(st.Device)
		outcome, err := r.em.InjectVMFailure(st.Device)
		if err != nil {
			fail("%v", err)
			return
		}
		if outcome == core.FaultQueued {
			// The VM is mid-boot or mid-recovery: the fault is armed to
			// fire on its next Running transition, and the report's
			// PendingFaults tally keeps it visible until it does.
			res.Detail = fmt.Sprintf("queued VM failure for %s (hosting %s)", vm, st.Device)
		} else {
			res.Detail = fmt.Sprintf("failed VM %s (hosting %s)", vm, st.Device)
		}

	case OpExec:
		s, err := r.em.Login(st.Device)
		if err != nil {
			fail("%v", err)
			return
		}
		out, err := s.Exec(st.Command)
		if err != nil {
			fail("%v", err)
			return
		}
		if st.ExpectContains != "" && !strings.Contains(out, st.ExpectContains) {
			fail("output of %q missing %q", st.Command, st.ExpectContains)
			return
		}
		res.Detail = fmt.Sprintf("%s: %s (%d bytes)", st.Device, st.Command, len(out))

	case OpWaitConverge:
		before := r.orch.Eng.Fired()
		if _, err := r.em.RunUntilConverged(r.maxEvents(st.MaxEvents)); err != nil {
			fail("%v", err)
			return
		}
		res.Detail = fmt.Sprintf("%d events", r.orch.Eng.Fired()-before)
		r.sweepInvariants(res)

	case OpSleep:
		r.orch.Eng.RunFor(st.Duration.Std())
		res.Detail = fmt.Sprintf("slept %s", st.Duration.Std())

	case OpSaveBaseline:
		name := st.Baseline
		if name == "" {
			name = DefaultBaseline
		}
		r.baselines[name] = r.em.Save()
		res.Detail = fmt.Sprintf("saved baseline %q", name)

	case OpInjectTraffic:
		if err := r.attachTraffic(st.Traffic, r.report.Seed); err != nil {
			fail("%v", err)
			return
		}
		m := r.em.Traffic()
		res.Detail = fmt.Sprintf("%d flows in %d aggregates settled", m.Flows(), m.Aggregates())

	default:
		fail("unknown op %q", st.Op)
	}
}

// attachTraffic attaches a flow matrix to the emulation, defaulting its
// seed to the run seed so an unseeded traffic block still yields the
// deterministic, campaign-reproducible placement the report contract
// promises.
func (r *runner) attachTraffic(spec *traffic.Spec, seed int64) error {
	sp := *spec.Clone()
	if sp.Seed == 0 {
		sp.Seed = seed
	}
	return r.em.AttachTraffic(sp)
}

// attachDevice grows the topology and the running emulation (the new-rack
// rehearsal): add the device and its links, boot it, and reload each peer
// with a regenerated configuration so it learns the new sessions — exactly
// the operator workflow in production.
func (r *runner) attachDevice(nd *NewDevice) error {
	layer, err := parseLayer(nd.Layer)
	if err != nil {
		return err
	}
	if r.net.Device(nd.Name) != nil {
		return fmt.Errorf("device %q already in topology", nd.Name)
	}
	for _, peer := range nd.Peers {
		if r.em.Devices[peer] == nil {
			return fmt.Errorf("peer %q is not emulated", peer)
		}
	}
	asn := nd.ASN
	if asn == 0 {
		asn = topo.ToRAS(r.net.NumDevices())
	}
	d := r.net.AddDevice(nd.Name, layer, asn, nd.Vendor)
	for _, p := range nd.Originated {
		pfx, err := netpkt.ParsePrefix(p)
		if err != nil {
			return fmt.Errorf("originated %q: %w", p, err)
		}
		d.Originated = append(d.Originated, pfx)
	}
	for _, peer := range nd.Peers {
		r.net.Connect(d, r.net.MustDevice(peer))
	}
	var img firmware.VendorImage
	if nd.Version == "" {
		img, err = vendors.Default(nd.Vendor)
	} else {
		img, err = vendors.Get(nd.Vendor, nd.Version)
	}
	if err != nil {
		return err
	}
	if err := r.em.AttachNewDevice(nd.Name, img, nil, nil); err != nil {
		return err
	}
	// Neighbors learn the new sessions via operator reloads, as in
	// production (§3.2).
	for _, peer := range nd.Peers {
		cur := r.em.Devices[peer].Config()
		cfg := config.GenerateDevice(r.net.MustDevice(peer))
		cfg.Credential = cur.Credential
		if err := r.em.ReloadDevice(peer, cfg, nil); err != nil {
			return err
		}
	}
	return nil
}

// resolveDst resolves a step's probe destination: a literal IP or an
// offset into a device's first originated server prefix.
func (r *runner) resolveDst(st *Step) (netpkt.IP, error) {
	if st.Dst != "" {
		ip, err := netpkt.ParseIP(st.Dst)
		if err != nil {
			return 0, fmt.Errorf("dst %q: %w", st.Dst, err)
		}
		return ip, nil
	}
	d := r.net.Device(st.DstDevice)
	if d == nil {
		return 0, fmt.Errorf("dstDevice %q not in topology", st.DstDevice)
	}
	if len(d.Originated) == 0 {
		return 0, fmt.Errorf("dstDevice %q originates no prefixes", st.DstDevice)
	}
	return d.Originated[0].Addr + netpkt.IP(st.DstOffset), nil
}

// check evaluates one assertion against current emulation state.
func (r *runner) check(st *Step) Check {
	c := Check{Op: st.Op, Pass: true}
	fail := func(format string, args ...any) {
		c.Pass = false
		c.Detail = fmt.Sprintf(format, args...)
	}

	switch st.Op {
	case OpAssertReachable:
		dst, err := r.resolveDst(st)
		if err != nil {
			fail("%v", err)
			return c
		}
		path, ok := batfish.NewIndexWalker(r.liveLookup, r.em.Index()).Reachable(st.From, dst)
		want := st.Expect == nil || *st.Expect
		if ok != want {
			fail("reachable(%s -> %s) = %v, want %v (path %s)",
				st.From, dst, ok, want, strings.Join(path, " -> "))
		} else {
			c.Detail = fmt.Sprintf("%s -> %s via %d hops", st.From, dst, len(path))
		}

	case OpAssertFIBDiff:
		return r.fibDiffCheck(st, r.fibDiffs(st))

	case OpAssertNoBlackhole:
		failures := r.blackholes(st)
		if len(failures) > 0 {
			shown := failures
			if len(shown) > maxDetail {
				shown = shown[:maxDetail]
			}
			fail("%d blackholed pairs: %s", len(failures), strings.Join(shown, "; "))
		} else {
			c.Detail = "all server prefixes reachable"
		}

	case OpAssertRecoveredWithin:
		rec := r.em.Recoveries()
		min := st.Recoveries
		if min <= 0 {
			min = 1
		}
		if len(rec) < min {
			fail("%d recoveries recorded, want >= %d", len(rec), min)
			return c
		}
		var worst time.Duration
		for _, d := range rec {
			if d > worst {
				worst = d
			}
		}
		if worst > st.Duration.Std() {
			fail("slowest recovery %s exceeds bound %s", worst, st.Duration.Std())
		} else {
			c.Detail = fmt.Sprintf("%d recoveries, slowest %s (bound %s)",
				len(rec), worst, st.Duration.Std())
		}

	case OpAssertProbe:
		paths := r.probePaths()
		want := st.Expect == nil || *st.Expect
		if len(paths) == 0 {
			fail("no probe paths captured (inject-packets + wait-converge first)")
			return c
		}
		var rendered []string
		ok := true
		for _, p := range paths {
			if p.Delivered != want {
				ok = false
			}
			if len(rendered) < maxDetail {
				rendered = append(rendered, p.String())
			}
		}
		if !ok {
			fail("probe delivery != %v: %s", want, strings.Join(rendered, "; "))
		} else {
			c.Detail = strings.Join(rendered, "; ")
		}

	case OpAssertSessions:
		states := r.em.PullStates()
		names := r.filterDevices(st.Devices, st.Vendor)
		var bad []string
		for _, name := range names {
			if got := states[name].Established; got != st.Established {
				bad = append(bad, fmt.Sprintf("%s=%d", name, got))
			}
		}
		if len(bad) > 0 {
			if len(bad) > maxDetail {
				bad = bad[:maxDetail]
			}
			fail("sessions != %d on %s", st.Established, strings.Join(bad, ", "))
		} else {
			c.Detail = fmt.Sprintf("%d devices at %d established sessions", len(names), st.Established)
		}

	case OpAssertFIBLookup:
		ip, err := netpkt.ParseIP(st.IP)
		if err != nil {
			fail("ip %q: %v", st.IP, err)
			return c
		}
		want := st.Expect == nil || *st.Expect
		var names []string
		if st.Device != "" {
			names = []string{st.Device}
		} else {
			names = r.filterDevices(st.Devices, st.Vendor)
		}
		var bad []string
		for _, name := range names {
			d := r.em.Devices[name]
			if d == nil || d.FIB() == nil {
				bad = append(bad, name+"=no-fib")
				continue
			}
			if _, ok := d.FIB().Lookup(ip); ok != want {
				bad = append(bad, fmt.Sprintf("%s=%v", name, ok))
			}
		}
		if len(bad) > 0 {
			if len(bad) > maxDetail {
				bad = bad[:maxDetail]
			}
			fail("lookup(%s) != %v on %s", st.IP, want, strings.Join(bad, ", "))
		} else {
			c.Detail = fmt.Sprintf("%d devices route %s", len(names), st.IP)
		}

	case OpAssertDeviceState:
		d := r.em.Devices[st.Device]
		if d == nil {
			fail("no device %q", st.Device)
			return c
		}
		if got := d.State().String(); got != st.State {
			fail("%s state %s, want %s", st.Device, got, st.State)
		} else {
			c.Detail = fmt.Sprintf("%s is %s", st.Device, st.State)
		}

	case OpAssertFlowSLO:
		m := r.em.Traffic()
		if m == nil || m.Settles() == 0 {
			fail("no traffic attached (spec traffic or inject-traffic first)")
			return c
		}
		slo := m.SLO(st.Window.Std())
		var bad []string
		if st.MaxBlackholedPct != nil && slo.BlackholedPct > *st.MaxBlackholedPct {
			bad = append(bad, fmt.Sprintf("blackholed %.3f%% > %.3f%%", slo.BlackholedPct, *st.MaxBlackholedPct))
		}
		if st.MaxLostPct != nil && slo.LostPct > *st.MaxLostPct {
			bad = append(bad, fmt.Sprintf("lost %.3f%% > %.3f%%", slo.LostPct, *st.MaxLostPct))
		}
		if len(bad) > 0 {
			fail("flow SLO violated (window %s): %s", st.Window.Std(), strings.Join(bad, ", "))
		} else {
			c.Detail = fmt.Sprintf("blackholed %.3f%%, lost %.3f%% within SLO (window %s)",
				slo.BlackholedPct, slo.LostPct, st.Window.Std())
		}

	default:
		fail("unknown assertion %q", st.Op)
	}
	return c
}

// baselineName resolves a step's baseline reference.
func (r *runner) baselineName(st *Step) string {
	if st.Baseline != "" {
		return st.Baseline
	}
	return DefaultBaseline
}

// fibDiffs compares the current FIBs against the referenced baseline,
// optionally scoped to named devices.
func (r *runner) fibDiffs(st *Step) map[string][]rib.Diff {
	base := r.baselines[r.baselineName(st)]
	if base == nil {
		return map[string][]rib.Diff{"<missing-baseline>": {{}}}
	}
	diffs := r.em.DiffAgainst(base)
	if len(st.Devices) > 0 {
		scope := map[string]bool{}
		for _, d := range st.Devices {
			scope[d] = true
		}
		for name := range diffs {
			if !scope[name] {
				delete(diffs, name)
			}
		}
	}
	return diffs
}

// fibDiffCheck judges diffs (as fibDiffs returned them) against the step's
// difference budget.
func (r *runner) fibDiffCheck(st *Step, diffs map[string][]rib.Diff) Check {
	c := Check{Op: st.Op, Pass: true}
	total := 0
	for _, d := range diffs {
		total += len(d)
	}
	if total > st.MaxDiffs {
		names := make([]string, 0, len(diffs))
		for n := range diffs {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > maxDetail {
			names = names[:maxDetail]
		}
		c.Pass = false
		c.Detail = fmt.Sprintf("%d FIB differences vs baseline %q (max %d) on %s",
			total, r.baselineName(st), st.MaxDiffs, strings.Join(names, ", "))
	} else {
		c.Detail = fmt.Sprintf("%d differences (max %d)", total, st.MaxDiffs)
	}
	return c
}

// fibDiffStrings renders bounded, deterministic diff lines for the report.
func fibDiffStrings(diffs map[string][]rib.Diff) []string {
	names := make([]string, 0, len(diffs))
	for n := range diffs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		for _, d := range diffs[name] {
			if len(out) >= 2*maxDetail {
				out = append(out, "...")
				return out
			}
			out = append(out, fmt.Sprintf("%s: %s", name, d))
		}
	}
	return out
}

// liveLookup resolves a longest-prefix match in a device's live FIB trie, in
// place: the emulation is quiescent while a check runs, so pulling FIB
// snapshots just to index them again would only duplicate the tries.
func (r *runner) liveLookup(dev string, dst netpkt.IP) (*rib.Entry, bool) {
	d := r.em.Devices[dev]
	if d == nil || d.FIB() == nil {
		return nil, false
	}
	return d.FIB().Lookup(dst)
}

// blackholes sweeps reachability from every emulated fabric device toward
// a host in every server prefix the fabric originates, returning failing
// pairs. Speakers are excluded on both sides: they replay recorded
// boundary routes, not their own state. st.Devices scopes the source set.
func (r *runner) blackholes(st *Step) []string {
	plan := r.em.Plan()
	fabric := append(append([]string{}, plan.Internal...), plan.Boundary...)
	sort.Strings(fabric)

	sources := st.Devices
	if len(sources) == 0 {
		for _, name := range fabric {
			if r.em.Devices[name] != nil {
				sources = append(sources, name)
			}
		}
	}

	// Destinations: one host inside every originated server prefix,
	// attributed to its owning device so self-pairs are skipped.
	type dest struct {
		owner string
		ip    netpkt.IP
	}
	var dests []dest
	for _, name := range fabric {
		d := r.net.Device(name)
		if d == nil {
			continue
		}
		for _, p := range d.Originated {
			host := p.Addr
			if p.Len < 31 {
				host++ // subnet base is not a host on broadcast subnets
			}
			dests = append(dests, dest{owner: name, ip: host})
		}
	}

	var failures []string
	w := batfish.NewIndexWalker(r.liveLookup, r.em.Index())
	for _, src := range sources {
		for _, d := range dests {
			if d.owner == src {
				continue
			}
			if !w.Delivered(src, d.ip) {
				failures = append(failures, fmt.Sprintf("%s -> %s", src, d.ip))
			}
		}
	}
	return failures
}

// probePaths drains telemetry captures and returns the paths of the most
// recently injected flow.
func (r *runner) probePaths() []telemetry.Path {
	all := telemetry.ComputePaths(r.em.PullPackets())
	var out []telemetry.Path
	for _, p := range all {
		if p.Flow == r.lastFlow {
			out = append(out, p)
		}
	}
	return out
}

// filterDevices returns emulated device names scoped by an explicit list
// or a vendor-image name, sorted.
func (r *runner) filterDevices(devices []string, vendor string) []string {
	if len(devices) > 0 {
		out := append([]string(nil), devices...)
		sort.Strings(out)
		return out
	}
	var out []string
	for _, name := range r.em.List() {
		d := r.em.Devices[name]
		if d == nil {
			continue
		}
		if vendor == "" || d.Image.Name == vendor {
			out = append(out, name)
		}
	}
	return out
}

// applyACLPatch adds the patch's deny-source ACL to cfg and binds it
// inbound on every non-loopback interface when requested.
func applyACLPatch(cfg *config.DeviceConfig, patch *ACLPatch) error {
	pfx, err := netpkt.ParsePrefix(patch.DenySrc)
	if err != nil {
		return fmt.Errorf("acl denySrc %q: %w", patch.DenySrc, err)
	}
	if cfg.ACLs == nil {
		cfg.ACLs = map[string]*dataplane.ACL{}
	}
	cfg.ACLs[patch.Name] = &dataplane.ACL{
		Name:          patch.Name,
		Rules:         []dataplane.ACLRule{{Action: dataplane.ACLDeny, Src: &pfx}},
		DefaultAction: dataplane.ACLPermit,
	}
	if patch.BindIngress {
		for _, ic := range cfg.Interfaces {
			if ic.Name == "lo" {
				continue
			}
			cfg.Bindings = append(cfg.Bindings, config.ACLBinding{
				ACLName: patch.Name, Interface: ic.Name, Direction: config.In,
			})
		}
	}
	return nil
}

// splitEndpoint parses "device:interface".
func splitEndpoint(s string) (dev, iface string, err error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("bad endpoint %q (want device:interface)", s)
	}
	return s[:i], s[i+1:], nil
}
