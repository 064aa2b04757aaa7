// Package core implements the CrystalNet orchestrator — the "brain" of §3.2
// and the paper's primary contribution. It reads a production snapshot,
// computes a safe emulation boundary, plans and spawns cloud VMs with
// vendor-group anti-affinity, mocks up the PhyNet overlay and the
// management plane, boots firmware, surrounds the emulation with static
// speakers, and exposes the Prepare/Mockup/Control/Monitor API of Table 2.
//
// DESIGN.md §2 (core layer) inventories what Prepare/Mockup build; the
// Monitor plane it hosts is DESIGN.md §7 and docs/OBSERVABILITY.md.
package core

import (
	"fmt"
	"sort"
	"time"

	"crystalnet/internal/boundary"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/speaker"
	"crystalnet/internal/topo"
	"crystalnet/internal/vendors"
)

// Options tune the orchestrator.
type Options struct {
	// Seed makes the whole emulation reproducible.
	Seed int64
	// Backend selects the software bridge (§6.2: Linux bridge default).
	Backend phynet.BridgeBackend
	// DevicesPerVM / SpeakersPerVM are packing densities (§6.1, §8.4).
	DevicesPerVM, SpeakersPerVM int
	// VMCount, when positive, overrides the computed VM count for full
	// devices (the Figure 8 "DC/#VMs" experiments sweep this).
	VMCount int
	// StrawmanReload enables the §8.3 ablation: reloads tear down and
	// recreate interfaces instead of reusing the PhyNet layer.
	StrawmanReload bool
	// HealthInterval enables the §6.2 health/auto-recovery daemon when
	// positive.
	HealthInterval time.Duration
	// MTBF enables random VM failures with this mean time between failures
	// per VM (0 disables them). Failure timers are background (daemon)
	// events: they never keep a convergence wait alive.
	MTBF time.Duration
	// Retry supervises cloud boot operations (per-attempt deadline,
	// exponential backoff, replacement-VM fallback). The zero value keeps
	// the legacy unsupervised behavior byte-for-byte.
	Retry cloud.RetryPolicy
	// RecoveryDeadline bounds each VM-recovery episode when positive: an
	// episode that has not completed within the deadline (including across
	// re-failures) is abandoned into degraded mode instead of wedging the
	// emulation. 0 means unbounded.
	RecoveryDeadline time.Duration
	// Clouds spreads the emulation's VMs across this many clouds (§3.1:
	// CrystalNet can simultaneously use multiple public and private
	// clouds); frames between clouds cross the Internet overlay. 0/1 keeps
	// everything in one cloud.
	Clouds int
	// Credential is injected into every config (§6.1); defaults to
	// "crystalnet-ops".
	Credential string
	// Rec enables the Monitor plane's deterministic tracer: spans, events
	// and metrics stamped with engine virtual time (docs/OBSERVABILITY.md).
	// nil disables tracing at zero cost. The recorder is bound to the
	// orchestrator's engine and rides through checkpoint/fork.
	Rec *obs.Recorder
	// Shards, when positive, runs convergence sharded (DESIGN.md §10): the
	// device population is partitioned into one domain per VM, each with a
	// private engine, and domains drain in parallel on up to Shards worker
	// goroutines at every virtual instant. The value is the worker count
	// only — the domain partition is fixed by the topology, so the
	// emulation's observable output is byte-identical for every positive
	// Shards value (1 is the serial reference schedule). 0 keeps the classic
	// single-engine schedule, which orders events differently (per-domain
	// RNG streams) and therefore is not comparable byte-for-byte.
	Shards int
}

func (o *Options) defaults() {
	if o.DevicesPerVM <= 0 {
		o.DevicesPerVM = boundary.DevicesPerVM
	}
	if o.SpeakersPerVM <= 0 {
		o.SpeakersPerVM = boundary.SpeakersPerVM
	}
	if o.Credential == "" {
		o.Credential = "crystalnet-ops"
	}
}

// Orchestrator runs on a single machine and drives everything through the
// simulation engine and the cloud provider.
type Orchestrator struct {
	Eng   *sim.Engine
	Cloud *cloud.Provider
	opts  Options
}

// New creates an orchestrator with a fresh engine and cloud.
func New(opts Options) *Orchestrator {
	opts.defaults()
	eng := sim.NewEngine(opts.Seed)
	eng.SetRecorder(opts.Rec)
	c := cloud.NewProvider(eng)
	c.MTBF = opts.MTBF
	c.Retry = opts.Retry
	return &Orchestrator{Eng: eng, Cloud: c, opts: opts}
}

// Options returns the active options.
func (o *Orchestrator) Options() Options { return o.opts }

// PrepareInput is everything Prepare gathers from production services
// (§6.1): the topology snapshot, the devices operators must emulate,
// production configurations, and boundary route snapshots.
type PrepareInput struct {
	Network *topo.Network
	// MustEmulate lists required devices; Algorithm 1 grows it to a safe
	// boundary. Empty means "emulate every non-external device".
	MustEmulate []string
	// Emulate, when non-empty, is the exact emulated set — no Algorithm 1
	// growth. It is how solver output (boundary.Solve) is executed: the
	// plan is taken as-is and certified via Prop 5.2/5.3 with the Lemma
	// 5.1 fallback on scenario-scale topologies. Mutually exclusive with
	// MustEmulate.
	Emulate []string
	// Configs are production configurations; nil generates them (the
	// production pipeline's generator, §2).
	Configs map[string]*config.DeviceConfig
	// Images pins vendor images by vendor name; missing vendors use the
	// production default.
	Images map[string]firmware.VendorImage
	// BoundaryRoutes are the recorded announcements per speaker device;
	// nil synthesizes a snapshot (default route plus every excluded
	// device's originated prefixes).
	BoundaryRoutes map[string][]speaker.Announcement
	// Hardware names emulated devices that are real switches plugged in
	// through a fanout server (§4.1): they get no cloud VM, and their links
	// traverse the Internet overlay.
	Hardware []string
}

// exactLemmaLimit caps the topology size on which Prepare certifies an
// exact emulated set with the exponential Lemma 5.1 walk (matching the
// solver's default), so Prepare and boundary.Solve agree on safety.
const exactLemmaLimit = 32

// vmAssignment places one device on one VM of a vendor group.
type vmAssignment struct {
	group string
	index int // VM index within the group
}

// Preparation is Prepare's output and Mockup's input. A forked emulation
// shares all of it but the VM placements (fork), so what grows after Prepare
// — the config and image maps, the plan and its name lists — is replaced,
// never edited (AttachNewDevice).
type Preparation struct {
	Input   PrepareInput
	Plan    *boundary.Plan
	Configs map[string]*config.DeviceConfig
	Images  map[string]firmware.VendorImage // per device name
	Routes  map[string][]speaker.Announcement

	// VM planning: per vendor-group VM lists and device placements.
	groupVMs    map[string][]*cloud.VM
	assignments map[string]vmAssignment
	// hardware devices live on the fanout host instead of a VM.
	hardware map[string]bool
	// SafetyErr records why the boundary could not be certified safe (nil
	// when Prop 5.2 or 5.3 holds). Mockup refuses unsafe boundaries unless
	// forced.
	SafetyErr error
}

// VMs returns all spawned VMs.
func (p *Preparation) VMs() []*cloud.VM {
	var out []*cloud.VM
	keys := make([]string, 0, len(p.groupVMs))
	for g := range p.groupVMs {
		keys = append(keys, g)
	}
	sort.Strings(keys)
	for _, g := range keys {
		out = append(out, p.groupVMs[g]...)
	}
	return out
}

// Prepare executes the paper's Prepare API: boundary computation, config
// gathering, route snapshots and VM spawning.
func (o *Orchestrator) Prepare(in PrepareInput) (*Preparation, error) {
	if in.Network == nil {
		return nil, fmt.Errorf("core: no topology")
	}
	// 1. Compute the emulated set.
	var emulated map[string]bool
	exact := len(in.Emulate) > 0
	switch {
	case exact && len(in.MustEmulate) > 0:
		return nil, fmt.Errorf("core: Emulate and MustEmulate are mutually exclusive")
	case exact:
		emulated = map[string]bool{}
		for _, name := range in.Emulate {
			d := in.Network.Device(name)
			if d == nil {
				return nil, fmt.Errorf("core: unknown emulate device %q", name)
			}
			if d.Layer == topo.LayerExternal {
				return nil, fmt.Errorf("core: emulate device %q is external; external devices are replaced by speakers", name)
			}
			emulated[name] = true
		}
	case len(in.MustEmulate) == 0:
		emulated = map[string]bool{}
		for _, d := range in.Network.Devices() {
			if d.Layer != topo.LayerExternal {
				emulated[d.Name] = true
			}
		}
	default:
		var err error
		emulated, err = boundary.FindSafeDCBoundary(in.Network, in.MustEmulate)
		if err != nil {
			return nil, err
		}
	}
	plan, err := boundary.BuildPlan(in.Network, emulated)
	if err != nil {
		return nil, err
	}

	prep := &Preparation{
		Input: in, Plan: plan,
		Configs:  map[string]*config.DeviceConfig{},
		Images:   map[string]firmware.VendorImage{},
		Routes:   map[string][]speaker.Announcement{},
		hardware: map[string]bool{},
	}
	if exact {
		// Exact sets come from the solver, which may have certified them
		// via the Lemma 5.1 walk rather than the propositions; re-certify
		// the same way so a solver-planned fabric is not rejected.
		_, prep.SafetyErr = plan.Certify(exactLemmaLimit)
	} else {
		prep.SafetyErr = plan.CheckSafe()
	}
	for _, name := range in.Hardware {
		if !emulated[name] {
			return nil, fmt.Errorf("core: hardware device %q is not in the emulated set", name)
		}
		prep.hardware[name] = true
	}

	// 2. Configurations: production snapshot or generated, with the
	// unified credential injected (§6.1 preprocessing).
	for name := range emulated {
		var cfg *config.DeviceConfig
		if in.Configs != nil && in.Configs[name] != nil {
			cfg = in.Configs[name].Clone()
		} else {
			cfg = config.GenerateDevice(in.Network.MustDevice(name))
		}
		cfg.Credential = o.opts.Credential
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		prep.Configs[name] = cfg
		img, err := o.imageFor(in, in.Network.MustDevice(name).Vendor)
		if err != nil {
			return nil, err
		}
		if prep.hardware[name] {
			img = firmware.AsHardware(img)
		}
		prep.Images[name] = img
	}
	// Speakers run the speaker image with a generated config (sessions to
	// their boundary neighbors only).
	for _, name := range plan.Speakers {
		d := in.Network.MustDevice(name)
		cfg := config.GenerateDevice(d)
		// Drop sessions toward non-emulated neighbors: a speaker only holds
		// the boundary-facing sessions alive.
		var kept []config.BGPNeighbor
		for _, nb := range cfg.Neighbors {
			if owner := o.deviceByIP(in.Network, nb.IP); owner != "" && emulated[owner] {
				kept = append(kept, nb)
			}
		}
		cfg.Neighbors = kept
		cfg.Credential = o.opts.Credential
		prep.Configs[name] = cfg
		prep.Images[name] = vendors.MustGet(vendors.Speaker, "3.4.17")
		prep.Routes[name] = o.boundaryRoutes(in, plan, d)
	}

	// 3. VM planning and spawning (§6.2 vendor-group anti-affinity).
	o.planVMs(prep)
	if rec := o.Eng.Recorder(); rec != nil {
		rec.Event("phase", "prepare",
			obs.Attr{K: "emulated", V: fmt.Sprint(plan.Scale().TotalEmulated)},
			obs.Attr{K: "speakers", V: fmt.Sprint(len(plan.Speakers))},
			obs.Attr{K: "vms", V: fmt.Sprint(len(prep.VMs()))})
		rec.Gauge("vms", "").Set(float64(len(prep.VMs())))
	}
	return prep, nil
}

func (o *Orchestrator) imageFor(in PrepareInput, vendor string) (firmware.VendorImage, error) {
	if in.Images != nil {
		if img, ok := in.Images[vendor]; ok {
			return img, nil
		}
	}
	return vendors.Default(vendor)
}

// deviceByIP finds the device owning an interface address.
func (o *Orchestrator) deviceByIP(n *topo.Network, ip netpkt.IP) string {
	for _, d := range n.Devices() {
		for _, i := range d.Interfaces {
			if i.Addr.Addr == ip {
				return d.Name
			}
		}
	}
	return ""
}

// boundaryRoutes returns the announcements for one speaker: recorded
// snapshots when provided, else a synthesized view of the outside world — a
// default route plus the originated prefixes of the excluded devices in the
// speaker's own external component. The component scoping matters: in the
// real network a speaker only ever announced what was reachable *through*
// it, and announcing more would let traffic short-circuit into the wrong
// region of the boundary.
func (o *Orchestrator) boundaryRoutes(in PrepareInput, plan *boundary.Plan, sp *topo.Device) []speaker.Announcement {
	if in.BoundaryRoutes != nil {
		return in.BoundaryRoutes[sp.Name]
	}
	anns := []speaker.Announcement{{
		Prefix: netpkt.Prefix{Addr: 0, Len: 0},
		Path:   []uint32{sp.ASN},
	}}
	// Flood the non-emulated graph from the speaker to find the excluded
	// devices it fronts.
	visited := map[string]bool{sp.Name: true}
	queue := []*topo.Device{sp}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range cur.Neighbors() {
			if visited[nb.Name] || plan.Emulated[nb.Name] {
				continue
			}
			visited[nb.Name] = true
			queue = append(queue, nb)
			for _, p := range nb.Originated {
				anns = append(anns, speaker.Announcement{
					Prefix: p,
					Path:   []uint32{sp.ASN, nb.ASN},
				})
			}
		}
	}
	return anns
}

// planVMs groups devices by vendor, sizes VM groups, spawns VMs and
// assigns devices round-robin.
func (o *Orchestrator) planVMs(prep *Preparation) {
	plan := prep.Plan
	prep.groupVMs = map[string][]*cloud.VM{}
	prep.assignments = map[string]vmAssignment{}

	byVendor := map[string][]string{}
	emulatedNames := append(append([]string{}, plan.Internal...), plan.Boundary...)
	sort.Strings(emulatedNames)
	for _, name := range emulatedNames {
		if prep.hardware[name] {
			continue // real switches bring their own silicon
		}
		v := prep.Images[name].Name
		byVendor[v] = append(byVendor[v], name)
	}

	vendorsSorted := make([]string, 0, len(byVendor))
	for v := range byVendor {
		vendorsSorted = append(vendorsSorted, v)
	}
	sort.Strings(vendorsSorted)

	// Distribute an explicit VMCount across vendor groups proportionally.
	totalDevices := len(emulatedNames)
	for _, v := range vendorsSorted {
		names := byVendor[v]
		count := (len(names) + o.opts.DevicesPerVM - 1) / o.opts.DevicesPerVM
		if o.opts.VMCount > 0 && totalDevices > 0 {
			count = o.opts.VMCount * len(names) / totalDevices
			if count < 1 {
				count = 1
			}
		}
		sku := cloud.SKUStandard
		if img, err := vendors.Default(v); err == nil && img.Kind == firmware.VMImage {
			sku = cloud.SKUNested // §4.1: VM-based devices need nested virt
		}
		vms := o.Cloud.Provision(count, sku, v, nil)
		prep.groupVMs[v] = vms
		for i, name := range names {
			prep.assignments[name] = vmAssignment{group: v, index: i % count}
		}
	}
	// Speakers: lightweight, many per VM (§8.4).
	if len(plan.Speakers) > 0 {
		count := (len(plan.Speakers) + o.opts.SpeakersPerVM - 1) / o.opts.SpeakersPerVM
		vms := o.Cloud.Provision(count, cloud.SKUStandard, "speaker", nil)
		prep.groupVMs["speaker"] = vms
		for i, name := range plan.Speakers {
			prep.assignments[name] = vmAssignment{group: "speaker", index: i % count}
		}
	}
}

// Destroy releases every VM of a preparation (the Destroy API).
func (o *Orchestrator) Destroy(prep *Preparation) {
	for _, vm := range prep.VMs() {
		o.Cloud.Deprovision(vm)
	}
}
