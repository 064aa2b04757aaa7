package scenario

import (
	"encoding/json"
	"fmt"

	"crystalnet/internal/core"
	"crystalnet/internal/obs"
	"crystalnet/internal/traffic"
)

// Check is the outcome of one assertion — a step's own assert or one
// invariant evaluated at a convergence point.
type Check struct {
	Op     string `json:"op"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// StepResult records one executed step: virtual-time cost, pass/fail, and
// the invariant sweep run at its convergence point (wait-converge steps and
// the initial mockup).
type StepResult struct {
	Index int    `json:"index"`
	Op    string `json:"op"`
	Label string `json:"label,omitempty"`
	// Start/End/VirtualLatency are virtual (simulation-clock) times.
	Start          string `json:"start"`
	End            string `json:"end"`
	VirtualLatency string `json:"virtualLatency"`
	Pass           bool   `json:"pass"`
	Detail         string `json:"detail,omitempty"`
	// Diffs carries assert-fib-diff findings (bounded, per-device sorted).
	Diffs []string `json:"diffs,omitempty"`
	// Invariants are the continuous checks swept at this step's
	// convergence point.
	Invariants []Check `json:"invariants,omitempty"`
}

// Report is the structured output of one scenario run. Every field is
// derived from the seeded simulation, so identically-seeded runs marshal
// to byte-identical JSON regardless of scheduling (the chaos layer's
// serial-vs-parallel contract).
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Fabric   string `json:"fabric"`
	// Emulated/Speakers/VMs summarize the mocked-up boundary.
	Emulated int `json:"emulated"`
	Speakers int `json:"speakers"`
	VMs      int `json:"vms"`
	// NetworkReady/RouteReady/MockupLatency are the §8.1 metrics.
	NetworkReady  string `json:"networkReady"`
	RouteReady    string `json:"routeReady"`
	MockupLatency string `json:"mockupLatency"`
	// VirtualDuration is total virtual time from mockup to the last step.
	VirtualDuration string       `json:"virtualDuration"`
	Steps           []StepResult `json:"steps"`
	// Traffic is the per-class flow accounting at the run's last settle,
	// present when the run attached a traffic matrix (spec traffic or an
	// inject-traffic step).
	Traffic *traffic.Report `json:"traffic,omitempty"`
	Passed  bool            `json:"passed"`
	// Alerts are the §6.2 health-monitor alerts raised during the run.
	Alerts []string `json:"alerts,omitempty"`
	// Degraded lists recovery episodes that were abandoned (deadline
	// exceeded, VM gone) and left devices down — the run completed in
	// degraded mode rather than hanging.
	Degraded []string `json:"degraded,omitempty"`
	// PendingFaults counts injected VM faults that were still queued when
	// the run ended — a nonzero value means a fault was lost, and the run
	// is failed regardless of its checks.
	PendingFaults int `json:"pendingFaults,omitempty"`
	// Error is set when the run aborted before completing all steps.
	Error string `json:"error,omitempty"`
	// CowCopies is how much routing state shared with the converged
	// baseline the run's steps had to copy (core.Emulation.CowCopies): all
	// zero on a fresh run, which shares nothing. It is a cost of how the run
	// was served, not a result of it, so it is never serialized — forked and
	// fresh reports stay byte-identical.
	CowCopies core.CowCopies `json:"-"`
}

// JSON marshals the report with stable indentation.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Reports are plain data; marshaling cannot fail on them.
		panic(fmt.Sprintf("scenario: marshal report: %v", err))
	}
	return append(b, '\n')
}

// Summary renders a one-line human outcome.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	failed := 0
	for i := range r.Steps {
		if !r.Steps[i].Pass {
			failed++
		}
		for _, c := range r.Steps[i].Invariants {
			if !c.Pass {
				failed++
			}
		}
	}
	return fmt.Sprintf("%s: %s (%d steps, %d failed checks, virtual %s)",
		r.Scenario, verdict, len(r.Steps), failed, r.VirtualDuration)
}

// CampaignReport aggregates a chaos campaign's runs in input order.
type CampaignReport struct {
	Scenario string    `json:"scenario"`
	Seed     int64     `json:"seed"`
	Runs     []*Report `json:"runs"`
	Passed   int       `json:"passed"`
	Failed   int       `json:"failed"`
	// Traces holds each run's recorder when CampaignConfig.Trace is set,
	// indexed like Runs. Excluded from the JSON report — export them with
	// obs.WriteChrome (one process per run) or per-run WriteJSON.
	Traces []*obs.Recorder `json:"-"`
}

// JSON marshals the campaign report with stable indentation.
func (c *CampaignReport) JSON() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("scenario: marshal campaign report: %v", err))
	}
	return append(b, '\n')
}
