package serve

// Wire types for crystald's HTTP/JSON API. Rehearsal responses are NOT
// defined here on purpose: /v1/rehearse returns the exact bytes of
// scenario.Report.JSON() and /v1/chaos the exact bytes of
// scenario.CampaignReport.JSON(), so a served rehearsal is
// indistinguishable from a batch `crystalctl run-scenario` — the
// byte-identity contract docs/API.md documents and the tests enforce.

import "crystalnet/internal/scenario"

// Header names the daemon reads and writes.
const (
	// TenantHeader carries the caller's tenant identity for per-tenant
	// concurrency quotas. Absent means the "default" tenant.
	TenantHeader = "X-Crystalnet-Tenant"
	// RequestHeader returns the server-assigned request/session ID.
	RequestHeader = "X-Crystalnet-Request"
	// PoolHeader reports how the warm pool served a rehearsal: "hit"
	// (forked a pooled baseline) or "miss" (converged a new baseline, now
	// pooled, and forked it).
	PoolHeader = "X-Crystalnet-Pool"
)

// Routes lists every path the server registers. cmd/doccheck cross-checks
// docs/API.md against it so the API reference cannot silently rot.
var Routes = []string{
	"/v1/rehearse",
	"/v1/chaos",
	"/v1/plan",
	"/v1/status",
	"/v1/pool/invalidate",
	"/healthz",
	"/metrics",
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// PlanRequest is the body of POST /v1/plan: a topology plus the devices a
// tenant needs emulated. The solver searches for the cheapest
// certified-safe emulated set containing them.
type PlanRequest struct {
	// Topology is the fabric to plan against — the same object scenario
	// specs carry (dc preset or custom clos, wanPerGroup, ...).
	Topology scenario.Topology `json:"topology"`
	// Targets are the device names the plan must emulate.
	Targets []string `json:"targets"`
	// Seed drives the solver's deterministic tie-breaking and becomes the
	// returned spec's seed.
	Seed int64 `json:"seed,omitempty"`
	// Alternatives caps the ranked near-optimal list (default 3).
	Alternatives int `json:"alternatives,omitempty"`
	// Warm asks the daemon to start converging the winning plan's
	// baseline into the warm pool in the background, so the tenant's
	// first rehearsal against the returned spec is a pool hit.
	Warm bool `json:"warm,omitempty"`
}

// PlanSolution is one certified-safe plan in a PlanResponse.
type PlanSolution struct {
	Strategy    string `json:"strategy"`
	Certificate string `json:"certificate"`
	// Emulate is the exact emulated set — paste it into a scenario
	// spec's "emulate" field to run this plan.
	Emulate  []string `json:"emulate"`
	Devices  int      `json:"devices"`
	Speakers int      `json:"speakers"`
	// Layers breaks the emulated devices down by layer name (Table 4).
	Layers     map[string]int `json:"layers"`
	Proportion float64        `json:"proportion"`
	VMs        int            `json:"vms"`
	HourlyUSD  float64        `json:"hourlyUsd"`
}

// PlanResponse is the body of POST /v1/plan.
type PlanResponse struct {
	Network       string         `json:"network"`
	Targets       []string       `json:"targets"`
	Seed          int64          `json:"seed"`
	Best          PlanSolution   `json:"best"`
	Alternatives  []PlanSolution `json:"alternatives,omitempty"`
	FullDevices   int            `json:"fullDevices"`
	FullVMs       int            `json:"fullVms"`
	FullHourlyUSD float64        `json:"fullHourlyUsd"`
	CostReduction float64        `json:"costReduction"`
	// Spec is a ready-to-rehearse scenario spec pinned to the winning
	// plan (topology + exact emulate set + seed): POST it to /v1/rehearse
	// (with your steps filled in) and the run forks a fabric no bigger
	// than the plan.
	Spec *scenario.Spec `json:"spec"`
	// PoolKey is the warm-pool key the spec resolves to; rehearsals whose
	// specs share the fabric (same topology, emulate set and seed) share
	// its baseline.
	PoolKey string `json:"poolKey"`
	// Warming reports whether a background convergence for that key was
	// running or started (Warm=true in the request).
	Warming bool `json:"warming"`
}

// StatusResponse is the body of GET /v1/status.
type StatusResponse struct {
	// Draining is true once graceful shutdown has begun: new work is
	// refused (503) while in-flight sessions run to completion.
	Draining bool `json:"draining"`
	// InFlight counts sessions currently executing.
	InFlight int `json:"inFlight"`
	// Served tallies completed requests by kind ("rehearse", "chaos").
	Served map[string]uint64 `json:"served"`
	// Sessions lists the in-flight sessions, oldest first.
	Sessions []SessionInfo `json:"sessions"`
	// Pool describes the warm checkpoint pool.
	Pool PoolStatus `json:"pool"`
}

// SessionInfo describes one in-flight request.
type SessionInfo struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Kind     string `json:"kind"`
	Scenario string `json:"scenario"`
	// AgeMS is wall-clock milliseconds since the session was admitted.
	AgeMS int64 `json:"ageMs"`
}

// PoolStatus describes the warm pool for /v1/status.
type PoolStatus struct {
	// Capacity is the configured maximum number of warm baselines.
	Capacity int `json:"capacity"`
	// Rewarm reports whether invalidated entries re-converge in the
	// background.
	Rewarm    bool              `json:"rewarm"`
	Hits      uint64            `json:"hits"`
	Misses    uint64            `json:"misses"`
	Evictions uint64            `json:"evictions"`
	Entries   []PoolEntryStatus `json:"entries"`
}

// PoolEntryStatus describes one pooled baseline.
type PoolEntryStatus struct {
	// Fabric names the entry's topology (the dc preset or custom Clos
	// name) — the human-readable face of the pool key.
	Fabric string `json:"fabric"`
	Seed   int64  `json:"seed"`
	// State is "warming" while the baseline converges, "ready" after.
	State string `json:"state"`
	// Refs counts borrowers currently forking from the entry.
	Refs int `json:"refs"`
}

// InvalidateResponse is the body of POST /v1/pool/invalidate.
type InvalidateResponse struct {
	// Invalidated counts the entries retired.
	Invalidated int `json:"invalidated"`
	// Rewarming reports whether retired entries are re-converging in the
	// background.
	Rewarming bool `json:"rewarming"`
}
