package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"crystalnet/internal/cloud"
	"crystalnet/internal/core"
)

// mtbfSpec layers background MTBF faults under the driven steps: a long
// sleep lets the seeded failure timers fire, then convergence drives the
// recoveries home before the invariant sweep.
func mtbfSpec() *Spec {
	return tinySpec(
		Step{Op: OpSleep, Duration: Duration(30 * time.Minute)},
		Step{Op: OpWaitConverge},
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
		Step{Op: OpWaitConverge},
		Step{Op: OpSleep, Duration: Duration(30 * time.Minute)},
		Step{Op: OpWaitConverge},
	)
}

// mtbfCampaign is the failure-path campaign over mtbfSpec.
func mtbfCampaign() CampaignConfig {
	return CampaignConfig{
		N: 4, Seed: 99, FaultsPerRun: 2,
		MTBF:             2 * time.Hour,
		Retry:            cloud.RetryPolicy{MaxAttempts: 3, BootDeadline: 90 * time.Second},
		RecoveryDeadline: 30 * time.Minute,
	}
}

// failureCounts counts a report's injected VM failures and the failure
// alerts it raised: background faults raise the same failure alerts as
// injected ones, so any beyond the injected count came from MTBF.
func failureCounts(r *Report) (injected, failures int) {
	for _, st := range r.Steps {
		if st.Op == string(OpInjectVMFailure) {
			injected++
		}
	}
	return injected, alertsFailed(r.Alerts)
}

// alertsFailed counts failure alerts.
func alertsFailed(alerts []string) int {
	n := 0
	for _, a := range alerts {
		if strings.Contains(a, "failed") {
			n++
		}
	}
	return n
}

// TestMTBFCampaignSerialParallelIdentical is the failure-path chaos
// contract: a campaign with background MTBF faults layered on top of the
// injected sequences completes with zero lost faults, bounded alert
// growth, and byte-identical reports for any worker count.
func TestMTBFCampaignSerialParallelIdentical(t *testing.T) {
	base := mtbfSpec()
	cfg := mtbfCampaign()

	cfg.Workers = 1
	serial, err := Chaos(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Chaos(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Fatalf("MTBF campaign reports differ between 1 and 4 workers")
	}
	if serial.Passed+serial.Failed != cfg.N {
		t.Fatalf("campaign lost runs: %d + %d != %d", serial.Passed, serial.Failed, cfg.N)
	}
	background := 0
	for _, r := range serial.Runs {
		if r.PendingFaults != 0 {
			t.Fatalf("%s: %d faults lost:\n%s", r.Scenario, r.PendingFaults, r.JSON())
		}
		if !r.Passed {
			t.Fatalf("%s failed:\n%s", r.Scenario, r.JSON())
		}
		// Every alert must be a discrete recovery-lifecycle event, not an
		// unbounded repeat: with dedup in place a tiny run stays small.
		if len(r.Alerts) > 60 {
			t.Fatalf("%s: %d alerts — unbounded growth", r.Scenario, len(r.Alerts))
		}
		injected, failures := failureCounts(r)
		if failures < injected {
			t.Fatalf("%s: %d injected faults but only %d failure alerts — a fault vanished",
				r.Scenario, injected, failures)
		}
		background += failures - injected
	}
	if background == 0 {
		t.Fatal("no background MTBF fault fired in any run; raise the sleep or lower MTBF")
	}
}

// TestMTBFCampaignForksMatchFresh: the background failures armed when the
// campaign's shared convergence is checkpointed cross into every fork. Each
// run of the MTBF campaign byte-equals a fresh run of its expanded spec at
// the campaign seed, and background failures fire after the checkpoint.
func TestMTBFCampaignForksMatchFresh(t *testing.T) {
	base := mtbfSpec()
	cfg := mtbfCampaign()
	cfg.Workers = 2
	camp, err := Chaos(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MTBF: cfg.MTBF, Retry: cfg.Retry, RecoveryDeadline: cfg.RecoveryDeadline}
	convBase := base.Clone()
	convBase.Seed = cfg.Seed
	conv, err := Converge(convBase, opts)
	if err != nil {
		t.Fatal(err)
	}
	if conv.orch.Eng.Pending() == 0 {
		t.Fatal("no background failure armed at the checkpoint")
	}
	atCheckpoint := alertsFailed(conv.snap.Origin.(*core.Emulation).Alerts)
	cand := chaosCandidates(t, base)
	after := 0
	for i, got := range camp.Runs {
		fresh, err := Run(expandRun(base, cand, i, cfg.Seed, cfg.FaultsPerRun), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.JSON(), fresh.JSON()) {
			t.Fatalf("campaign run %d differs from fresh run\ncampaign:\n%s\nfresh:\n%s", i, got.JSON(), fresh.JSON())
		}
		injected, failures := failureCounts(got)
		after += failures - injected - atCheckpoint
	}
	if after <= 0 {
		t.Fatal("no background failure fired after the checkpoint")
	}
}

// TestLostFaultFailsRun ends a run with a fault still queued (injected
// while its VM was mid-reboot, never driven to convergence): the report
// must carry the pending count and fail, not pass silently.
func TestLostFaultFailsRun(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
	)
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingFaults != 1 {
		t.Fatalf("PendingFaults = %d, want 1", rep.PendingFaults)
	}
	if rep.Passed {
		t.Fatalf("run passed with a pending fault:\n%s", rep.JSON())
	}
	if !strings.Contains(rep.Steps[2].Detail, "queued VM failure") {
		t.Fatalf("second inject not reported as queued: %q", rep.Steps[2].Detail)
	}
	// Both steps themselves succeeded — only the lost fault fails the run.
	for _, st := range rep.Steps {
		if !st.Pass {
			t.Fatalf("step %d failed: %s", st.Index, st.Detail)
		}
	}
}

// TestFailurePathByteDeterminism runs the full hardening stack — boot
// supervision, recovery deadlines, background MTBF faults — twice with one
// seed and demands byte-identical reports: the retry layer draws all its
// jitter from the engine stream.
func TestFailurePathByteDeterminism(t *testing.T) {
	opts := Options{
		MTBF:             90 * time.Minute,
		Retry:            cloud.RetryPolicy{MaxAttempts: 2, BootDeadline: 60 * time.Second},
		RecoveryDeadline: 20 * time.Minute,
	}
	a, err := Run(mtbfSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mtbfSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("failure-path runs diverged:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
	if a.PendingFaults != 0 {
		t.Fatalf("%d faults lost under the failure stack", a.PendingFaults)
	}
}
