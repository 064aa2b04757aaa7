package scenario

import (
	"errors"
	"fmt"
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

// baselineName resolves a step's baseline reference.
func (r *runner) baselineName(st *Step) string {
	if st.Baseline != "" {
		return st.Baseline
	}
	return DefaultBaseline
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
