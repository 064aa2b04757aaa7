package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crystalnet/internal/scenario"
)

// planReq posts a PlanRequest and returns the response plus raw body.
func planReq(t *testing.T, ts *httptest.Server, req PlanRequest) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func tinyPlanRequest(warm bool) PlanRequest {
	return PlanRequest{
		Topology: tinySpec("ignored", 0).Topology,
		Targets:  []string{"tor-p0-0"},
		Seed:     7,
		Warm:     warm,
	}
}

func TestPlanSolveThenRehearseHitsPool(t *testing.T) {
	// The planner's contract: POST /v1/plan returns a certified-safe plan
	// smaller than full emulation plus a ready-to-rehearse spec, and (with
	// warm=true) prewarms the pool so the follow-up rehearsal is a hit on a
	// fabric no bigger than the plan.
	_, ts := newTestServer(t, Config{PoolSize: 2})

	resp, body := planReq(t, ts, tinyPlanRequest(true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(RequestHeader) == "" {
		t.Fatalf("missing %s header", RequestHeader)
	}
	var plan PlanResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if plan.Best.Certificate == "" {
		t.Fatal("best plan has no safety certificate")
	}
	if plan.Best.Devices >= plan.FullDevices {
		t.Fatalf("best plan emulates %d of %d devices — no smaller than full emulation",
			plan.Best.Devices, plan.FullDevices)
	}
	if plan.Best.VMs > plan.FullVMs {
		t.Fatalf("best plan needs %d VMs, full emulation only %d", plan.Best.VMs, plan.FullVMs)
	}
	found := false
	for _, name := range plan.Best.Emulate {
		if name == "tor-p0-0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("target missing from emulate set %v", plan.Best.Emulate)
	}
	if plan.Spec == nil || len(plan.Spec.Emulate) != len(plan.Best.Emulate) {
		t.Fatalf("returned spec does not carry the winning emulate set: %+v", plan.Spec)
	}
	if !plan.Warming {
		t.Fatal("warm=true but the daemon reports no prewarm")
	}
	if plan.PoolKey == "" {
		t.Fatal("missing pool key")
	}

	// Rehearse the returned spec: the prewarmed baseline must be reused,
	// and the mockup must be exactly as big as the plan promised.
	rResp, rBody := rehearse(t, ts, plan.Spec, "")
	if rResp.StatusCode != http.StatusOK {
		t.Fatalf("rehearse status %d: %s", rResp.StatusCode, rBody)
	}
	if got := rResp.Header.Get(PoolHeader); got != "hit" {
		t.Fatalf("%s = %q, want hit (prewarmed plan baseline)", PoolHeader, got)
	}
	var report struct {
		Emulated int  `json:"emulated"`
		Passed   bool `json:"passed"`
	}
	if err := json.Unmarshal(rBody, &report); err != nil {
		t.Fatal(err)
	}
	if !report.Passed {
		t.Fatalf("plan rehearsal failed:\n%s", rBody)
	}
	if report.Emulated != plan.Best.Devices {
		t.Fatalf("rehearsal emulated %d devices, plan promised %d", report.Emulated, plan.Best.Devices)
	}
}

func TestPlanResponseDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	_, first := planReq(t, ts, tinyPlanRequest(false))
	_, second := planReq(t, ts, tinyPlanRequest(false))
	if !bytes.Equal(first, second) {
		t.Fatalf("identical plan requests returned different bytes:\n%s\n---\n%s", first, second)
	}
}

func TestPlanRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name string
		req  PlanRequest
		want string
	}{
		{"no targets", PlanRequest{Topology: tinySpec("x", 0).Topology}, "needs targets"},
		{"unknown device", PlanRequest{Topology: tinySpec("x", 0).Topology, Targets: []string{"nope"}}, "unknown"},
		{"no topology", PlanRequest{Targets: []string{"tor-p0-0"}}, "topology"},
	}
	for _, tc := range cases {
		resp, body := planReq(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}
}

func TestPrewarmIdempotentAndClosed(t *testing.T) {
	p := NewPool(2, 0, true, nil)
	sp := tinySpec("prewarm", 3)
	opts := scenario.Options{}
	if !p.Prewarm(PoolKey(sp, opts), sp, opts) {
		t.Fatal("first prewarm refused")
	}
	if !p.Prewarm(PoolKey(sp, opts), sp, opts) {
		t.Fatal("repeat prewarm refused (should be a no-op, not an error)")
	}
	st := p.Status()
	if len(st.Entries) != 1 {
		t.Fatalf("prewarm duplicated the entry: %d entries", len(st.Entries))
	}
	p.Close()
	late := tinySpec("late", 4)
	if p.Prewarm(PoolKey(late, opts), late, opts) {
		t.Fatal("prewarm accepted after close")
	}
}
