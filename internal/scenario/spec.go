// Package scenario implements CrystalNet's declarative operation-rehearsal
// engine: the JSON scenario specs operators write, the deterministic runner
// that replays them against an emulation on the simulation clock with
// continuous invariant checking, and the seeded chaos-campaign layer that
// expands one spec into many randomized fault sequences fanned across cores.
//
// The paper's whole argument (§2, §9) is that risky operations — pod
// upgrades, firmware rollouts, failure drills — should be *rehearsed*
// against an emulated production network before they touch production. A
// spec captures one such rehearsal as data: the fabric to mock up, the
// operation steps (link flaps, config reloads, device attachments, VM
// failures, probes) and the assertions that must hold, so the same
// rehearsal is reproducible from a seed, diffable in review, and
// composable into chaos campaigns.
//
// DESIGN.md §5 is the full scenario-engine write-up: the step/invariant
// catalog, determinism contract and campaign layer.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"time"

	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

// Step operations. The non-assert ops cover the core.Emulation control API
// surface (Table 2); the assert-* ops are the invariant vocabulary.
const (
	OpSetLink         = "set-link"
	OpReloadConfig    = "reload-config"
	OpAttachDevice    = "attach-device"
	OpInjectPackets   = "inject-packets"
	OpInjectVMFailure = "inject-vm-failure"
	OpExec            = "exec"
	OpWaitConverge    = "wait-converge"
	OpSleep           = "sleep"
	OpSaveBaseline    = "save-baseline"
	OpInjectTraffic   = "inject-traffic"

	OpAssertReachable       = "assert-reachable"
	OpAssertFIBDiff         = "assert-fib-diff"
	OpAssertNoBlackhole     = "assert-no-blackhole"
	OpAssertRecoveredWithin = "assert-recovered-within"
	OpAssertProbe           = "assert-probe"
	OpAssertSessions        = "assert-sessions"
	OpAssertFIBLookup       = "assert-fib-lookup"
	OpAssertDeviceState     = "assert-device-state"
	OpAssertFlowSLO         = "assert-flow-slo"
)

// Spec ceilings: a spec arrives in a request body and everything it sizes is
// built before the first step runs, so what it can ask for is bounded
// (traffic.MaxFlows bounds the flow matrix the same way).
const (
	// MaxDevices caps the devices a spec's own numbers ask for — custom clos
	// dimensions and WAN routers — at the size of the largest fabric the
	// repo names: topo.LDC().NumDevices().
	MaxDevices = 4636
	// MaxOriginated caps the server prefixes a custom clos originates — pods
	// x torsPerPod x prefixesPerToR, each bounded above only one at a time —
	// at what the full L-DC originates. Every device holds a route for every
	// one of them, so this is the dimension that sizes the RIBs: 4,000 ToRs
	// of 4,636 prefixes each passed the per-dimension check and asked for
	// 18 million.
	MaxOriginated = 3600
	// MaxProbes caps one inject-packets step's count: every probe is an
	// event scheduled up front.
	MaxProbes = 10_000
	// MaxSteps caps len(steps). It leaves room for the longest spec the
	// daemon generates itself: a /v1/chaos variant at that endpoint's own
	// cap is four steps for each of 10,000 faults.
	MaxSteps = 1 << 16
)

// DefaultBaseline is the snapshot the runner saves automatically after the
// initial convergence; assert-fib-diff steps reference it when they name no
// explicit baseline.
const DefaultBaseline = "init"

// Duration marshals a time.Duration as a Go duration string ("45s") so
// specs stay human-readable.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a bare number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// Std returns the duration as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// ImageRef names a vendor image by exact version ("" = production default).
type ImageRef struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// ClosSpec mirrors topo.ClosSpec with JSON tags, for custom fabrics.
type ClosSpec struct {
	Name            string `json:"name"`
	Pods            int    `json:"pods"`
	ToRsPerPod      int    `json:"torsPerPod"`
	LeavesPerPod    int    `json:"leavesPerPod"`
	SpineGroups     int    `json:"spineGroups"`
	SpinesPerPlane  int    `json:"spinesPerPlane"`
	BordersPerGroup int    `json:"bordersPerGroup"`
	PrefixesPerToR  int    `json:"prefixesPerToR"`
}

// Topology selects the fabric a scenario mocks up: one of the named
// evaluation fabrics (Table 3) or a custom Clos spec, with optional WAN
// routers attached above the borders (they become boundary speakers).
type Topology struct {
	// DC is "sdc", "mdc" or "ldc"; empty requires Clos.
	DC string `json:"dc,omitempty"`
	// LDCScale downscales the L-DC fabric (default 8, as crystalctl).
	LDCScale int `json:"ldcScale,omitempty"`
	// WANPerGroup attaches this many external WAN routers per spine group.
	WANPerGroup int `json:"wanPerGroup,omitempty"`
	// Clos is a custom fabric spec (used when DC is empty).
	Clos *ClosSpec `json:"clos,omitempty"`
}

// NewDevice describes a device an attach-device step adds to the running
// emulation (the §3.2 new-rack-deployment rehearsal).
type NewDevice struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"` // tor, leaf, spine, border
	ASN    uint32 `json:"asn"`
	Vendor string `json:"vendor"`
	// Version pins the image; empty uses the vendor's production release.
	Version string `json:"version,omitempty"`
	// Peers are existing devices the new device links to.
	Peers []string `json:"peers"`
	// Originated are server prefixes the new device announces.
	Originated []string `json:"originated,omitempty"`
}

// ACLPatch is the declarative config mutation a reload-config step applies:
// clone the device's baseline configuration and add one deny-source ACL
// (the pod-upgrade rehearsal's shape — both the intended change and the
// fat-fingered variant are instances of it).
type ACLPatch struct {
	Name string `json:"name"`
	// DenySrc is the source prefix to deny; everything else is permitted.
	DenySrc string `json:"denySrc"`
	// BindIngress binds the ACL inbound on every non-loopback interface.
	BindIngress bool `json:"bindIngress"`
}

// Step is one operation or assertion. It is a flat union: Op selects the
// kind and Validate enforces which fields it requires.
type Step struct {
	Op    string `json:"op"`
	Label string `json:"label,omitempty"`

	// set-link: endpoints as "device:interface".
	A  string `json:"a,omitempty"`
	B  string `json:"b,omitempty"`
	Up *bool  `json:"up,omitempty"`

	// Device names the target of reload-config, inject-vm-failure, exec,
	// assert-device-state and assert-fib-lookup (single-device form).
	Device string `json:"device,omitempty"`

	// reload-config: exactly one of FromBaseline or ACL.
	FromBaseline bool      `json:"fromBaseline,omitempty"`
	ACL          *ACLPatch `json:"acl,omitempty"`

	// attach-device.
	NewDevice *NewDevice `json:"newDevice,omitempty"`

	// inject-packets / assert-reachable: probe source and destination. Dst
	// is a literal IP; DstDevice+DstOffset addresses into the first prefix
	// originated by a device (offset 0 is the subnet base).
	From      string   `json:"from,omitempty"`
	Dst       string   `json:"dst,omitempty"`
	DstDevice string   `json:"dstDevice,omitempty"`
	DstOffset uint32   `json:"dstOffset,omitempty"`
	Count     int      `json:"count,omitempty"`
	Interval  Duration `json:"interval,omitempty"`

	// exec.
	Command        string `json:"command,omitempty"`
	ExpectContains string `json:"expectContains,omitempty"`

	// wait-converge.
	MaxEvents uint64 `json:"maxEvents,omitempty"`

	// sleep / assert-recovered-within bound.
	Duration Duration `json:"duration,omitempty"`

	// save-baseline / assert-fib-diff reference.
	Baseline string `json:"baseline,omitempty"`

	// Assertions.
	Expect      *bool    `json:"expect,omitempty"`      // reachable / probe / fib-lookup
	MaxDiffs    int      `json:"maxDiffs,omitempty"`    // assert-fib-diff tolerance
	Devices     []string `json:"devices,omitempty"`     // scope for blackhole/fib-diff checks
	Vendor      string   `json:"vendor,omitempty"`      // assert-sessions / assert-fib-lookup scope
	Established int      `json:"established,omitempty"` // assert-sessions expected count
	IP          string   `json:"ip,omitempty"`          // assert-fib-lookup target
	State       string   `json:"state,omitempty"`       // assert-device-state expected state
	Recoveries  int      `json:"recoveries,omitempty"`  // assert-recovered-within min count

	// inject-traffic: the flow matrix to attach mid-run.
	Traffic *traffic.Spec `json:"traffic,omitempty"`
	// assert-flow-slo bounds. Window tolerates black-holes shorter than it
	// (transient convergence loss); zero means any black-hole counts.
	MaxBlackholedPct *float64 `json:"maxBlackholedPct,omitempty"`
	MaxLostPct       *float64 `json:"maxLostPct,omitempty"`
	Window           Duration `json:"window,omitempty"`
}

// Spec is one declarative rehearsal: fabric, emulation scope, steps and
// the invariants re-checked at every convergence point.
type Spec struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Topology    Topology `json:"topology"`

	// MustEmulate seeds Algorithm 1 with explicit device names;
	// MustEmulatePods expands to every device of the named pods. Both empty
	// means "emulate the whole fabric".
	MustEmulate     []string `json:"mustEmulate,omitempty"`
	MustEmulatePods []int    `json:"mustEmulatePods,omitempty"`

	// Emulate is the exact emulated set — no Algorithm 1 growth. It is
	// how /v1/plan and `crystalctl plan -solve` output is executed, so a
	// rehearsal forks a fabric no bigger than its plan. Mutually
	// exclusive with MustEmulate and MustEmulatePods.
	Emulate []string `json:"emulate,omitempty"`

	// Images pins vendor images ({vendor: {name, version}}).
	Images map[string]ImageRef `json:"images,omitempty"`

	// Invariants are assert-* steps evaluated after the initial convergence
	// and after every wait-converge step — the continuous checking layer.
	Invariants []Step `json:"invariants,omitempty"`

	// Traffic, when set, attaches a flow-level load matrix right after the
	// initial convergence, before the first invariant sweep — every
	// wait-converge then re-settles it and assert-flow-slo invariants
	// measure user impact continuously. A zero traffic seed inherits the
	// run seed.
	Traffic *traffic.Spec `json:"traffic,omitempty"`

	Steps []Step `json:"steps"`
}

// assertOps marks the step kinds allowed as invariants.
var assertOps = map[string]bool{
	OpAssertReachable:       true,
	OpAssertFIBDiff:         true,
	OpAssertNoBlackhole:     true,
	OpAssertRecoveredWithin: true,
	OpAssertProbe:           true,
	OpAssertSessions:        true,
	OpAssertFIBLookup:       true,
	OpAssertDeviceState:     true,
	OpAssertFlowSLO:         true,
}

// IsAssert reports whether the step is an assertion (usable as invariant).
func (s *Step) IsAssert() bool { return assertOps[s.Op] }

// Validate checks one step's required fields.
func (s *Step) Validate() error {
	switch s.Op {
	case OpSetLink:
		if s.A == "" || s.B == "" || s.Up == nil {
			return fmt.Errorf("set-link needs a, b and up")
		}
	case OpReloadConfig:
		if s.Device == "" {
			return fmt.Errorf("reload-config needs device")
		}
		if s.FromBaseline == (s.ACL != nil) {
			return fmt.Errorf("reload-config needs exactly one of fromBaseline or acl")
		}
		if s.ACL != nil && (s.ACL.Name == "" || s.ACL.DenySrc == "") {
			return fmt.Errorf("reload-config acl needs name and denySrc")
		}
	case OpAttachDevice:
		nd := s.NewDevice
		if nd == nil || nd.Name == "" || nd.Vendor == "" || len(nd.Peers) == 0 {
			return fmt.Errorf("attach-device needs newDevice{name, vendor, peers}")
		}
		if _, err := parseLayer(nd.Layer); err != nil {
			return err
		}
	case OpInjectPackets:
		if s.From == "" || (s.Dst == "" && s.DstDevice == "") {
			return fmt.Errorf("inject-packets needs from and dst or dstDevice")
		}
		if s.Count > MaxProbes {
			return fmt.Errorf("inject-packets count %d exceeds the limit of %d", s.Count, MaxProbes)
		}
	case OpInjectVMFailure:
		if s.Device == "" {
			return fmt.Errorf("inject-vm-failure needs device")
		}
	case OpExec:
		if s.Device == "" || s.Command == "" {
			return fmt.Errorf("exec needs device and command")
		}
	case OpWaitConverge, OpSaveBaseline:
		// No required fields.
	case OpInjectTraffic:
		if s.Traffic == nil {
			return fmt.Errorf("inject-traffic needs traffic")
		}
		if err := s.Traffic.Validate(); err != nil {
			return err
		}
	case OpAssertFlowSLO:
		if s.MaxBlackholedPct == nil && s.MaxLostPct == nil {
			return fmt.Errorf("assert-flow-slo needs maxBlackholedPct or maxLostPct")
		}
		if (s.MaxBlackholedPct != nil && *s.MaxBlackholedPct < 0) ||
			(s.MaxLostPct != nil && *s.MaxLostPct < 0) {
			return fmt.Errorf("assert-flow-slo bounds must be >= 0")
		}
		if s.Window < 0 {
			return fmt.Errorf("assert-flow-slo window must be >= 0")
		}
	case OpSleep:
		if s.Duration <= 0 {
			return fmt.Errorf("sleep needs a positive duration")
		}
	case OpAssertReachable:
		if s.From == "" || (s.Dst == "" && s.DstDevice == "") {
			return fmt.Errorf("assert-reachable needs from and dst or dstDevice")
		}
	case OpAssertFIBDiff, OpAssertNoBlackhole, OpAssertProbe:
		// All fields optional (defaults cover the common case).
	case OpAssertRecoveredWithin:
		if s.Duration <= 0 {
			return fmt.Errorf("assert-recovered-within needs a positive duration")
		}
	case OpAssertSessions:
		if s.Established <= 0 {
			return fmt.Errorf("assert-sessions needs established > 0")
		}
	case OpAssertFIBLookup:
		if s.IP == "" || (s.Device == "" && s.Vendor == "") {
			return fmt.Errorf("assert-fib-lookup needs ip and device or vendor")
		}
	case OpAssertDeviceState:
		if s.Device == "" || s.State == "" {
			return fmt.Errorf("assert-device-state needs device and state")
		}
	default:
		return fmt.Errorf("unknown op %q", s.Op)
	}
	return nil
}

// ErrBadSpec marks a fault in a spec that Validate cannot see because it
// only shows against the built fabric: a pinned device the topology does not
// contain. Run, Converge and everything that passes their errors on keep it
// errors.Is-able, so a server can answer 400 rather than 500.
var ErrBadSpec = errors.New("bad spec")

// Validate checks the whole spec: its fabric (validateFabric) and its steps.
func (sp *Spec) Validate() error {
	if err := sp.validateFabric(); err != nil {
		return err
	}
	if len(sp.Steps) == 0 {
		return fmt.Errorf("scenario %s: no steps", sp.Name)
	}
	if len(sp.Steps) > MaxSteps {
		return fmt.Errorf("scenario %s: %d steps exceeds the limit of %d", sp.Name, len(sp.Steps), MaxSteps)
	}
	for i := range sp.Steps {
		if err := sp.Steps[i].Validate(); err != nil {
			return fmt.Errorf("scenario %s: step %d: %w", sp.Name, i, err)
		}
	}
	return nil
}

// validateFabric checks everything Converge reads — the name, topology,
// emulated set, invariants and traffic — and not the steps, which only a
// run or a fork of the converged baseline executes.
func (sp *Spec) validateFabric() error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if sp.Topology.DC == "" && sp.Topology.Clos == nil {
		return fmt.Errorf("scenario %s: topology needs dc or clos", sp.Name)
	}
	if sp.Topology.DC != "" {
		switch sp.Topology.DC {
		case "sdc", "mdc", "ldc":
		default:
			return fmt.Errorf("scenario %s: unknown dc %q", sp.Name, sp.Topology.DC)
		}
	}
	// devices counts what the spec's own numbers ask for: WAN routers and,
	// for a custom clos, the fabric. A named dc is a fixed, known size.
	var devices int64
	if sp.Topology.DC == "" {
		c := sp.Topology.Clos
		// Every dimension sizes a slice or bounds a loop in topo.GenerateClos:
		// a negative one panics there and a zero one yields an empty fabric
		// that vacuously passes every invariant. Bounding each by MaxDevices
		// also keeps the device count below far inside int64.
		for _, dim := range []struct {
			name string
			v    int
		}{
			{"pods", c.Pods}, {"torsPerPod", c.ToRsPerPod}, {"leavesPerPod", c.LeavesPerPod},
			{"spineGroups", c.SpineGroups}, {"spinesPerPlane", c.SpinesPerPlane},
			{"bordersPerGroup", c.BordersPerGroup}, {"prefixesPerToR", c.PrefixesPerToR},
		} {
			if dim.v < 1 || dim.v > MaxDevices {
				return fmt.Errorf("scenario %s: clos %s must be between 1 and %d (got %d)", sp.Name, dim.name, MaxDevices, dim.v)
			}
		}
		// Each factor is at most MaxDevices, so the product fits an int64.
		if n := int64(c.Pods) * int64(c.ToRsPerPod) * int64(c.PrefixesPerToR); n > MaxOriginated {
			return fmt.Errorf("scenario %s: clos originates %d prefixes (pods x torsPerPod x prefixesPerToR), the limit is %d", sp.Name, n, MaxOriginated)
		}
		devices = int64(c.Pods)*int64(c.ToRsPerPod+c.LeavesPerPod) +
			int64(c.SpineGroups)*(int64(c.LeavesPerPod)*int64(c.SpinesPerPlane)+int64(c.BordersPerGroup))
	}
	if w := sp.Topology.WANPerGroup; w > MaxDevices {
		return fmt.Errorf("scenario %s: wanPerGroup %d exceeds the limit of %d", sp.Name, w, MaxDevices)
	} else if w > 0 {
		devices += int64(sp.closSpec().SpineGroups) * int64(w)
	}
	if devices > int64(MaxDevices) {
		return fmt.Errorf("scenario %s: topology asks for %d devices, the limit is %d", sp.Name, devices, MaxDevices)
	}
	if len(sp.Emulate) > 0 && (len(sp.MustEmulate) > 0 || len(sp.MustEmulatePods) > 0) {
		return fmt.Errorf("scenario %s: emulate (an exact set) is mutually exclusive with mustEmulate/mustEmulatePods", sp.Name)
	}
	for i := range sp.Invariants {
		inv := &sp.Invariants[i]
		if !inv.IsAssert() {
			return fmt.Errorf("scenario %s: invariant %d: %q is not an assertion", sp.Name, i, inv.Op)
		}
		if err := inv.Validate(); err != nil {
			return fmt.Errorf("scenario %s: invariant %d: %w", sp.Name, i, err)
		}
	}
	if sp.Traffic != nil {
		if err := sp.Traffic.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sp.Name, err)
		}
	}
	return nil
}

// Parse decodes and validates a spec from JSON. Unknown fields are
// rejected so typos in hand-written specs fail loudly.
func Parse(data []byte) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sp, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Clone deep-copies the spec so campaign expansion can append fault steps
// without mutating the base.
func (sp *Spec) Clone() *Spec {
	c := *sp
	c.MustEmulate = append([]string(nil), sp.MustEmulate...)
	c.MustEmulatePods = append([]int(nil), sp.MustEmulatePods...)
	c.Emulate = append([]string(nil), sp.Emulate...)
	c.Images = maps.Clone(sp.Images)
	if sp.Topology.Clos != nil {
		cl := *sp.Topology.Clos
		c.Topology.Clos = &cl
	}
	c.Traffic = sp.Traffic.Clone()
	c.Invariants = cloneSteps(sp.Invariants)
	c.Steps = cloneSteps(sp.Steps)
	return &c
}

func cloneSteps(steps []Step) []Step {
	out := append([]Step(nil), steps...)
	for i := range out {
		s := &out[i]
		if s.Up != nil {
			v := *s.Up
			s.Up = &v
		}
		if s.Expect != nil {
			v := *s.Expect
			s.Expect = &v
		}
		if s.ACL != nil {
			a := *s.ACL
			s.ACL = &a
		}
		if s.NewDevice != nil {
			nd := *s.NewDevice
			nd.Peers = append([]string(nil), nd.Peers...)
			nd.Originated = append([]string(nil), nd.Originated...)
			s.NewDevice = &nd
		}
		s.Traffic = s.Traffic.Clone()
		if s.MaxBlackholedPct != nil {
			v := *s.MaxBlackholedPct
			s.MaxBlackholedPct = &v
		}
		if s.MaxLostPct != nil {
			v := *s.MaxLostPct
			s.MaxLostPct = &v
		}
		s.Devices = append([]string(nil), s.Devices...)
	}
	return out
}

// BuildNetwork materializes the spec's fabric (deterministically — the
// chaos layer also calls this at expansion time to enumerate flappable
// links).
func (sp *Spec) BuildNetwork() (*topo.Network, topo.ClosSpec, error) {
	if sp.Topology.DC == "" && sp.Topology.Clos == nil {
		return nil, topo.ClosSpec{}, fmt.Errorf("scenario %s: no topology", sp.Name)
	}
	clos := sp.closSpec()
	n := topo.GenerateClos(clos)
	if w := sp.Topology.WANPerGroup; w > 0 {
		topo.AttachWAN(n, clos, w)
	}
	return n, clos, nil
}

// closSpec resolves the topology block to the fabric it names: a named dc,
// else the custom clos (the zero spec when neither is set).
func (sp *Spec) closSpec() topo.ClosSpec {
	switch sp.Topology.DC {
	case "sdc":
		return topo.SDC()
	case "mdc":
		return topo.MDC()
	case "ldc":
		scale := sp.Topology.LDCScale
		if scale <= 0 {
			scale = 8
		}
		return topo.LDCScaled(scale)
	}
	if c := sp.Topology.Clos; c != nil {
		return topo.ClosSpec{
			Name: c.Name, Pods: c.Pods, ToRsPerPod: c.ToRsPerPod,
			LeavesPerPod: c.LeavesPerPod, SpineGroups: c.SpineGroups,
			SpinesPerPlane: c.SpinesPerPlane, BordersPerGroup: c.BordersPerGroup,
			PrefixesPerToR: c.PrefixesPerToR,
		}
	}
	return topo.ClosSpec{}
}

func parseLayer(s string) (topo.Layer, error) {
	switch s {
	case "tor":
		return topo.LayerToR, nil
	case "leaf":
		return topo.LayerLeaf, nil
	case "spine":
		return topo.LayerSpine, nil
	case "border":
		return topo.LayerBorder, nil
	}
	return 0, fmt.Errorf("unknown layer %q (want tor, leaf, spine or border)", s)
}
