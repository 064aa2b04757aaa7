// Package crystalnet is the public facade of the CrystalNet network
// emulator — a from-scratch Go reproduction of "CrystalNet: Faithfully
// Emulating Large Production Networks" (SOSP 2017).
//
// CrystalNet boots vendor device firmware inside PhyNet container sandboxes
// on (simulated) cloud VMs, wires them into the production topology with
// VXLAN virtual links, loads production configurations, surrounds the
// emulation with static BGP speakers at a provably safe boundary, and lets
// operators rehearse network operations — firmware upgrades, configuration
// changes, failure drills — with the same tools they use in production.
//
// Typical use:
//
//	o := crystalnet.New(crystalnet.Options{Seed: 1})
//	prep, err := o.Prepare(crystalnet.PrepareInput{
//		Network:     network,            // production topology snapshot
//		MustEmulate: []string{"tor-p7-0"}, // Algorithm 1 grows a safe boundary
//	})
//	em, err := o.Mockup(prep, false)
//	metrics, err := em.RunUntilConverged(0)
//	// ... validate: em.PullFIBs(), em.InjectPackets(...), em.Login(...)
//	em.Clear(nil)
//	o.Destroy(prep)
//
// The facade re-exports the orchestration API from internal/core plus the
// domain types a validation workflow needs. Deeper substrates (the BGP and
// OSPF stacks, the PhyNet layer, the boundary theory) live in internal/
// packages and are documented there.
package crystalnet

import (
	"io"

	"crystalnet/internal/bgp"
	"crystalnet/internal/boundary"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/rib"
	"crystalnet/internal/scenario"
	"crystalnet/internal/serve"
	"crystalnet/internal/speaker"
	"crystalnet/internal/telemetry"
	"crystalnet/internal/topo"
	"crystalnet/internal/vendors"
)

// Orchestration API (Table 2 of the paper).
type (
	// Orchestrator is the CrystalNet brain: Prepare/Mockup/Destroy.
	Orchestrator = core.Orchestrator
	// Options tune seeding, VM packing, bridge backend and ablations.
	Options = core.Options
	// PrepareInput is the production snapshot Prepare ingests.
	PrepareInput = core.PrepareInput
	// Preparation is Prepare's output and Mockup's input.
	Preparation = core.Preparation
	// Emulation is a running mocked-up network with the Control and
	// Monitor APIs.
	Emulation = core.Emulation
	// Metrics are the §8.1 latency measurements.
	Metrics = core.Metrics
	// RetryPolicy supervises cloud VM boots: per-attempt deadlines,
	// deterministic jittered backoff, and replacement after the attempt
	// budget. The zero value reproduces unsupervised boots byte-for-byte.
	RetryPolicy = cloud.RetryPolicy
	// FaultOutcome reports whether an injected VM fault fired immediately
	// or was queued for the VM's next Running transition.
	FaultOutcome = core.FaultOutcome
)

// Outcomes of Emulation.InjectVMFailure.
const (
	FaultFired  = core.FaultFired
	FaultQueued = core.FaultQueued
)

// DefaultRetryPolicy returns the boot-supervision defaults used when a
// non-zero RetryPolicy leaves fields unset.
func DefaultRetryPolicy() RetryPolicy { return cloud.DefaultRetryPolicy }

// Topology modelling.
type (
	// Network is a device/link topology.
	Network = topo.Network
	// Device is one network device.
	Device = topo.Device
	// ClosSpec parameterizes a generated Clos datacenter fabric.
	ClosSpec = topo.ClosSpec
	// Layer is a device's fabric tier.
	Layer = topo.Layer
	// RegionSpec parameterizes the §7 Case-1 multi-DC region.
	RegionSpec = topo.RegionSpec
)

// Fabric layers re-exported for topology construction.
const (
	LayerHost     = topo.LayerHost
	LayerToR      = topo.LayerToR
	LayerLeaf     = topo.LayerLeaf
	LayerSpine    = topo.LayerSpine
	LayerBorder   = topo.LayerBorder
	LayerBackbone = topo.LayerBackbone
	LayerWAN      = topo.LayerWAN
	LayerExternal = topo.LayerExternal
)

// Configuration and validation types.
type (
	// DeviceConfig is a vendor-neutral device configuration.
	DeviceConfig = config.DeviceConfig
	// PacketMeta is the 5-tuple of an injected probe.
	PacketMeta = dataplane.PacketMeta
	// CaptureRecord is one telemetry observation.
	CaptureRecord = firmware.CaptureRecord
	// Path is a reconstructed probe trajectory.
	Path = telemetry.Path
	// Snapshot is a pulled forwarding table.
	Snapshot = rib.Snapshot
	// Announcement is a recorded boundary route a speaker replays.
	Announcement = speaker.Announcement
	// Plan classifies devices around an emulation boundary.
	Plan = boundary.Plan
	// BoundarySolveOptions tunes SolveBoundary; BoundarySolveResult is its
	// ranked output.
	BoundarySolveOptions = boundary.SolveOptions
	BoundarySolveResult  = boundary.SolveResult
)

// Configuration building blocks re-exported for scenario authoring.
type (
	// Aggregate is an aggregate-address statement (the Figure 1 feature).
	Aggregate = config.Aggregate
	// ACL is an ordered packet filter; ACLRule one entry; ACLBinding its
	// interface attachment.
	ACL        = dataplane.ACL
	ACLRule    = dataplane.ACLRule
	ACLBinding = config.ACLBinding
	// Policy is a BGP route-map; Rule one entry; RuleMatch its match block.
	Policy    = bgp.Policy
	Rule      = bgp.Rule
	RuleMatch = bgp.Match
	// Prefix is an IPv4 CIDR prefix; IP an IPv4 address.
	Prefix = netpkt.Prefix
	IP     = netpkt.IP
	// Image is a bootable vendor firmware image.
	Image = firmware.VendorImage
	// DeviceState is the firmware lifecycle state.
	DeviceState = firmware.DeviceState
)

// ACL and policy verdicts, binding directions and firmware states.
const (
	ACLPermit = dataplane.ACLPermit
	ACLDeny   = dataplane.ACLDeny
	Permit    = bgp.Permit
	Deny      = bgp.Deny
	In        = config.In
	Out       = config.Out

	DeviceRunning = firmware.DeviceRunning
	DeviceCrashed = firmware.DeviceCrashed
	DeviceStopped = firmware.DeviceStopped

	// ProtoUDP/ProtoTCP/ProtoICMP are IP protocol numbers for probe specs.
	ProtoUDP  = netpkt.ProtoUDP
	ProtoTCP  = netpkt.ProtoTCP
	ProtoICMP = netpkt.ProtoICMP
)

// MustParsePrefix and MustParseIP parse CIDR/dotted-quad literals.
func MustParsePrefix(s string) Prefix { return netpkt.MustParsePrefix(s) }

// MustParseIP parses a dotted-quad IPv4 literal.
func MustParseIP(s string) IP { return netpkt.MustParseIP(s) }

// GenerateRegion builds the multi-datacenter region of §7 Case 1.
func GenerateRegion(spec RegionSpec) *Network { return topo.GenerateRegion(spec) }

// New creates an orchestrator.
func New(opts Options) *Orchestrator { return core.New(opts) }

// GenerateClos builds a Clos datacenter fabric from a spec.
func GenerateClos(spec ClosSpec) *Network { return topo.GenerateClos(spec) }

// NewNetwork returns an empty topology for hand-built scenarios.
func NewNetwork(name string) *Network { return topo.NewNetwork(name) }

// SDC, MDC and LDC are the paper's evaluation fabrics (Table 3).
func SDC() ClosSpec { return topo.SDC() }

// MDC returns the medium datacenter spec.
func MDC() ClosSpec { return topo.MDC() }

// LDC returns the large datacenter spec.
func LDC() ClosSpec { return topo.LDC() }

// LDCScaled returns L-DC with its pod count divided by factor, preserving
// the spine/border shape (the fabric the scale benchmarks and boundary
// experiments run when the full 4636-device L-DC will not fit).
func LDCScaled(factor int) ClosSpec { return topo.LDCScaled(factor) }

// FindSafeDCBoundary is Algorithm 1: grow a must-emulate set to a safe
// boundary by walking child-to-parent edges.
func FindSafeDCBoundary(n *Network, must []string) (map[string]bool, error) {
	return boundary.FindSafeDCBoundary(n, must)
}

// BuildPlan classifies devices relative to an emulated set and exposes the
// §5.2 safety checks.
func BuildPlan(n *Network, emulated map[string]bool) (*Plan, error) {
	return boundary.BuildPlan(n, emulated)
}

// SolveBoundary searches for the cheapest certified-safe emulated set
// containing targets, ranked by VM count and hourly cost — the automated
// alternative to hand-picking a must-emulate set for FindSafeDCBoundary.
func SolveBoundary(n *Network, targets []string, opts BoundarySolveOptions) (*BoundarySolveResult, error) {
	return boundary.Solve(n, targets, opts)
}

// ComputePaths reconstructs probe paths from pulled captures.
func ComputePaths(records []CaptureRecord) []Path { return telemetry.ComputePaths(records) }

// GenerateConfigs derives production-style configurations from a topology.
func GenerateConfigs(n *Network) map[string]*DeviceConfig { return config.Generate(n) }

// Scenario engine: declarative operation rehearsals and chaos campaigns
// (internal/scenario). A Scenario is a JSON-codable rehearsal spec; the
// runner executes it deterministically on the simulation clock and emits a
// structured ScenarioReport.
type (
	// Scenario is a declarative rehearsal spec.
	Scenario = scenario.Spec
	// ScenarioStep is one operation or assertion in a scenario.
	ScenarioStep = scenario.Step
	// ScenarioOptions tune one run (seed override, image pins, event cap).
	ScenarioOptions = scenario.Options
	// ScenarioImage pins a vendor image by name/version inside a spec.
	ScenarioImage = scenario.ImageRef
	// ScenarioReport is a run's structured JSON-ready outcome.
	ScenarioReport = scenario.Report
	// ConvergedScenario is a reusable converged baseline: Converge once,
	// then fork per variant instead of re-converging (see ConvergeScenario).
	ConvergedScenario = scenario.Converged
	// CampaignConfig parameterizes a chaos campaign.
	CampaignConfig = scenario.CampaignConfig
	// CampaignReport aggregates a campaign's per-run reports.
	CampaignReport = scenario.CampaignReport
)

// LoadScenario reads and validates a scenario spec from a JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario decodes and validates a scenario spec from JSON bytes.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunScenario executes a rehearsal spec and returns its report.
func RunScenario(sp *Scenario, opts ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(sp, opts)
}

// ConvergeScenario builds sp's fabric and drives it to route-ready once,
// returning a baseline whose Run method forks the converged emulation per
// variant. Forked reports are byte-identical to fresh same-seed runs.
func ConvergeScenario(sp *Scenario, opts ScenarioOptions) (*ConvergedScenario, error) {
	return scenario.Converge(sp, opts)
}

// ChaosCampaign expands a base spec into seeded fault sequences and runs
// them across a worker pool; reports are identical for any worker count.
func ChaosCampaign(base *Scenario, cfg CampaignConfig) (*CampaignReport, error) {
	return scenario.Chaos(base, cfg)
}

// CheckScenarioForkable reports whether sp can run against a forked
// converged baseline (no MTBF faults, no attach-device steps) — the test
// the warm pool and chaos Reuse apply before forking.
func CheckScenarioForkable(sp *Scenario, opts ScenarioOptions) error {
	return scenario.CheckForkable(sp, opts)
}

// ErrCanceled is returned (wrapped) by scenario runs whose
// ScenarioOptions.Cancel channel fired; the abandoned emulation has been
// torn down deterministically.
var ErrCanceled = core.ErrCanceled

// Rehearsal service (internal/serve, docs/API.md): crystald's HTTP layer.
// A RehearsalServer keeps converged base fabrics warm in a checkpoint
// pool and serves rehearsal/chaos requests whose response bytes are
// identical to the batch crystalctl commands.
type (
	// RehearsalServer serves /v1/rehearse, /v1/chaos, /v1/status,
	// /v1/pool/invalidate, /healthz and /metrics.
	RehearsalServer = serve.Server
	// ServeConfig tunes pool capacity, concurrency quotas and metrics.
	ServeConfig = serve.Config
	// WarmPool is the checkpoint pool behind a RehearsalServer.
	WarmPool = serve.Pool
)

// NewRehearsalServer builds the crystald HTTP server and its warm pool.
func NewRehearsalServer(cfg ServeConfig) *RehearsalServer { return serve.NewServer(cfg) }

// Monitor plane: the deterministic tracer and metrics registry
// (internal/obs, docs/OBSERVABILITY.md). Pass a Recorder via Options.Rec or
// ScenarioOptions.Rec to trace a run; nil keeps tracing disabled at zero
// cost. Traces are stamped with simulation virtual time, so identically-
// seeded runs export byte-identical files.
type (
	// Recorder collects sim-time-stamped spans, events and metrics.
	Recorder = obs.Recorder
	// TracePart names one recorder in a multi-run Chrome trace export
	// (one trace-viewer process per part).
	TracePart = obs.Part
	// LiveMetrics is the metrics registry type. The rehearsal service
	// exposes a wall-clock instance at /metrics; every Recorder holds a
	// sim-time instance of its own, and the two never mix.
	LiveMetrics = obs.Registry
)

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return obs.New() }

// NewLiveMetrics returns an empty wall-clock metrics registry.
func NewLiveMetrics() *LiveMetrics { return obs.NewRegistry(obs.WallBuckets) }

// WriteChromeTrace renders one or more recorders as a single Chrome
// trace_event file — open it in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Campaigns pass one part per run.
func WriteChromeTrace(w io.Writer, parts ...TracePart) error {
	return obs.WriteChrome(w, parts...)
}

// VendorImage returns a vendor's device software image by exact version;
// DefaultImage returns its production release.
func VendorImage(name, version string) (firmware.VendorImage, error) {
	return vendors.Get(name, version)
}

// DefaultImage returns the vendor's production image.
func DefaultImage(name string) (firmware.VendorImage, error) { return vendors.Default(name) }
