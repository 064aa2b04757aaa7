package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"crystalnet/internal/scenario"
	"crystalnet/internal/traffic"
)

func boolp(v bool) *bool { return &v }

// tinySpec builds a fast custom-Clos rehearsal: link flap, converge,
// restore, converge, under a no-blackhole invariant.
func tinySpec(name string, seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name: name,
		Seed: seed,
		Topology: scenario.Topology{
			WANPerGroup: 1,
			Clos: &scenario.ClosSpec{
				Name: "tiny", Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2,
				SpineGroups: 1, SpinesPerPlane: 2, BordersPerGroup: 2,
				PrefixesPerToR: 1,
			},
		},
		Invariants: []scenario.Step{{Op: scenario.OpAssertNoBlackhole}},
		Steps: []scenario.Step{
			{Op: scenario.OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
			{Op: scenario.OpWaitConverge},
			{Op: scenario.OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(true)},
			{Op: scenario.OpWaitConverge},
		},
	}
}

func specBody(t *testing.T, sp *scenario.Spec) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func rehearse(t *testing.T, ts *httptest.Server, sp *scenario.Spec, tenant string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/rehearse", specBody(t, sp))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHTTPRehearsalMatchesBatchBytes(t *testing.T) {
	// The service's core contract, the HTTP extension of
	// scenario.TestForkedRunMatchesFreshRun: a warm-pool-served rehearsal
	// returns the exact bytes a batch scenario.Run produces.
	want, err := scenario.Run(tinySpec("http-vs-batch", 7), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Passed {
		t.Fatalf("batch run failed:\n%s", want.JSON())
	}

	_, ts := newTestServer(t, Config{PoolSize: 2})
	// First request converges the pool entry (miss), second forks it
	// (hit); both must match the batch bytes.
	for i, wantMode := range []string{"miss", "hit"} {
		resp, body := rehearse(t, ts, tinySpec("http-vs-batch", 7), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(PoolHeader); got != wantMode {
			t.Fatalf("request %d: %s = %q, want %q", i, PoolHeader, got, wantMode)
		}
		if resp.Header.Get(RequestHeader) == "" {
			t.Fatalf("request %d: missing %s header", i, RequestHeader)
		}
		if !bytes.Equal(body, want.JSON()) {
			t.Fatalf("request %d: served report differs from batch run\nbatch:\n%s\nserved:\n%s",
				i, want.JSON(), body)
		}
	}
}

func TestConcurrentForkStorm(t *testing.T) {
	// N concurrent rehearsals against one fabric: exactly one convergence
	// (the rest coalesce), every response byte-identical. check.sh runs
	// this under -race.
	s, ts := newTestServer(t, Config{PoolSize: 2, MaxInFlight: 32, TenantInFlight: 32})
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := rehearse(t, ts, tinySpec("storm", 7), "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	st := s.Pool().Status()
	if st.Misses != 1 {
		t.Fatalf("pool misses = %d, want 1 (storm must coalesce onto one convergence)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Fatalf("pool hits = %d, want %d", st.Hits, n-1)
	}
}

func TestTenantQuota(t *testing.T) {
	// A tenant at its concurrency cap gets 429; another tenant is
	// unaffected. Stall the first tenant's slot with a request parked on
	// a never-converging... simpler: quota of 1 and a slow in-flight run
	// held open via a blocking body read is fragile — instead drive
	// begin/end directly.
	s := NewServer(Config{TenantInFlight: 1, MaxInFlight: 4})
	defer s.Pool().Close()
	a1, code, err := s.begin("rehearse", "team-a", "x")
	if err != nil {
		t.Fatalf("admit 1: %d %v", code, err)
	}
	if _, code, err = s.begin("rehearse", "team-a", "x"); err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("tenant over quota admitted (code %d, err %v)", code, err)
	}
	b1, code, err := s.begin("rehearse", "team-b", "x")
	if err != nil {
		t.Fatalf("other tenant blocked: %d %v", code, err)
	}
	s.end(a1)
	a2, code, err := s.begin("rehearse", "team-a", "x")
	if err != nil {
		t.Fatalf("slot not released: %d %v", code, err)
	}
	s.end(a2)
	s.end(b1)

	// Global cap.
	s2 := NewServer(Config{MaxInFlight: 1, TenantInFlight: 4})
	defer s2.Pool().Close()
	g1, _, err := s2.begin("rehearse", "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, code, err := s2.begin("rehearse", "b", "x"); err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("global cap not enforced (code %d, err %v)", code, err)
	}
	s2.end(g1)
}

func TestDrainRefusesAndFinishes(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1})

	// Healthy before drain.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d before drain", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, body := rehearse(t, ts, tinySpec("late", 7), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("rehearse during drain = %d (%s), want 503", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d after drain, want 503", resp.StatusCode)
	}

	// Drained server reports zero sessions.
	var st StatusResponse
	resp, err = http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Draining || st.InFlight != 0 || len(st.Sessions) != 0 {
		t.Fatalf("status after drain: %+v", st)
	}
}

func TestStatusAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	resp, body := rehearse(t, ts, tinySpec("obs", 7), "team-obs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearse: %d: %s", resp.StatusCode, body)
	}

	var st StatusResponse
	r2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.Served["rehearse"] != 1 {
		t.Fatalf("served[rehearse] = %d, want 1", st.Served["rehearse"])
	}
	if st.Pool.Capacity != 2 || st.Pool.Misses != 1 || len(st.Pool.Entries) != 1 {
		t.Fatalf("pool status: %+v", st.Pool)
	}
	if e := st.Pool.Entries[0]; e.Fabric != "tiny" || e.Seed != 7 || e.State != "ready" || e.Refs != 0 {
		t.Fatalf("pool entry: %+v", e)
	}

	r3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(r3.Body)
	r3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"http_requests", "pool_misses", "http_latency_bucket", "serve_fork_cow_copies_bucket"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestPoolStatusMatchesMetrics: /v1/status and /metrics read the same
// counters, so after a miss, a hit and an eviction they cannot disagree.
func TestPoolStatusMatchesMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1})
	for _, sp := range []*scenario.Spec{tinySpec("miss", 7), tinySpec("hit", 7), tinySpec("evict", 8)} {
		if resp, body := rehearse(t, ts, sp, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", sp.Name, resp.StatusCode, body)
		}
	}
	st := s.Pool().Status()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("pool status = %d hits, %d misses, %d evictions; want 1, 2, 1", st.Hits, st.Misses, st.Evictions)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\npool_hits 1\n", "\npool_misses 2\n", "\npool_evictions 1\n"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

func TestRehearseBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	marshal := func(edit func(*scenario.Spec)) string {
		sp := tinySpec("bad", 3)
		edit(sp)
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct{ name, body string }{
		{"not json", "{not json"},
		// A negative dimension used to reach make() inside the warm goroutine
		// and exit the process; an all-zero fabric used to PASS with nothing
		// emulated.
		{"negative clos dimension", marshal(func(sp *scenario.Spec) { sp.Topology.Clos.SpineGroups = -1 })},
		{"all-zero clos", marshal(func(sp *scenario.Spec) { sp.Topology.Clos = &scenario.ClosSpec{Name: "void"} })},
		// This one validated, and BuildNetwork made 168,136 devices of it
		// (1.2 s, 287 MB) before Prepare had even started.
		{"clos over the device ceiling", `{"name":"big","topology":{"clos":{"pods":3000,"torsPerPod":48,"leavesPerPod":8,` +
			`"spineGroups":4,"spinesPerPlane":4,"bordersPerGroup":2,"prefixesPerToR":4}},"steps":[{"op":"wait-converge"}]}`},
		// 4,005 devices, each asked to hold 18.5 million routes.
		{"clos over the originated-prefix ceiling", `{"name":"wide","topology":{"clos":{"pods":1000,"torsPerPod":4,"leavesPerPod":1,` +
			`"spineGroups":1,"spinesPerPlane":1,"bordersPerGroup":1,"prefixesPerToR":4636}},"steps":[{"op":"wait-converge"}]}`},
		{"unbounded wanPerGroup", marshal(func(sp *scenario.Spec) { sp.Topology.WANPerGroup = 2_000_000_000 })},
		// Every probe is a closure scheduled up front.
		{"inject-packets count", marshal(func(sp *scenario.Spec) {
			sp.Steps = append(sp.Steps, scenario.Step{Op: scenario.OpInjectPackets,
				From: "tor-p0-0", DstDevice: "tor-p1-0", Count: 2_000_000_000})
		})},
		{"too many steps", marshal(func(sp *scenario.Spec) {
			sp.Steps = slices.Repeat(sp.Steps[1:2], scenario.MaxSteps+1)
		})},
		// Faults only the built fabric can show are still the client's.
		{"unknown emulate device", marshal(func(sp *scenario.Spec) { sp.Emulate = []string{"nope"} })},
		{"unknown mustEmulate device", marshal(func(sp *scenario.Spec) { sp.MustEmulate = []string{"nope"} })},
		// flows x share used to wrap to zero and leave a worker handing out
		// the 2^63 "remaining" flows one at a time.
		{"2^63 flows", marshal(func(sp *scenario.Spec) {
			sp.Traffic = &traffic.Spec{Flows: 1 << 63, Classes: []traffic.ClassSpec{{Name: "x", Share: 4}}}
		})},
		{"2^63 flows injected mid-run", marshal(func(sp *scenario.Spec) {
			sp.Steps = append(sp.Steps, scenario.Step{Op: scenario.OpInjectTraffic,
				Traffic: &traffic.Spec{Flows: 1 << 63, Classes: []traffic.ClassSpec{{Name: "x", Share: 4}}}})
		})},
		{"too many classes", marshal(func(sp *scenario.Spec) {
			sp.Traffic = &traffic.Spec{Flows: 1000}
			for i := 0; i <= traffic.MaxClasses; i++ {
				sp.Traffic.Classes = append(sp.Traffic.Classes, traffic.ClassSpec{Name: fmt.Sprint("c", i), Share: 1})
			}
		})},
	} {
		resp, err := http.Post(ts.URL+"/v1/rehearse", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || e.Error == "" {
			t.Errorf("%s: status %d, body %+v (%v); want 400 with an ErrorResponse", tc.name, resp.StatusCode, e, derr)
		}
	}
	r2, err := http.Get(ts.URL + "/v1/rehearse")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET rehearse = %d, want 405", r2.StatusCode)
	}
	// The daemon is still serving after all of the above.
	if resp, body := rehearse(t, ts, tinySpec("after-bad", 3), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearsal after bad requests: %d: %s", resp.StatusCode, body)
	}
}

// TestChaosWorkIsBounded: n × faults has a ceiling, checked before a session
// opens; non-positive values still mean the defaults.
func TestChaosWorkIsBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"n=10001&faults=1", http.StatusBadRequest},
		{"n=1&faults=10001", http.StatusBadRequest},
		{"n=101&faults=100", http.StatusBadRequest},
		{"n=0&faults=2000", http.StatusBadRequest}, // default n = 20
		{"n=4294967296&faults=4294967296", http.StatusBadRequest},
		{"n=nine", http.StatusBadRequest},
		{"n=1&faults=-3&workers=1", http.StatusOK}, // default faults = 6
	} {
		resp, err := http.Post(ts.URL+"/v1/chaos?"+tc.query, "application/json", specBody(t, tinySpec("bounded", 7)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.query, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.want == http.StatusBadRequest {
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("%s: body %q is not an ErrorResponse (%v)", tc.query, body, err)
			}
		}
	}
}

// TestWarmPanicIsContained bypasses validation through the pool's converge
// seam: a convergence that panics on the warm goroutine must fail its own
// waiters and nothing else.
func TestWarmPanicIsContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.pool.converge = func(*scenario.Spec, scenario.Options) (*scenario.Converged, error) {
		panic("makeslice: len out of range")
	}
	resp, body := rehearse(t, ts, tinySpec("boom", 3), "")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Fatalf("panicking warm: %d: %s; want 500 naming the panic", resp.StatusCode, body)
	}
	if got := s.live.Counter("pool.warm_panics", "").Value(); got != 1 {
		t.Errorf("pool.warm_panics = %v, want 1", got)
	}
	if st := s.pool.Status(); len(st.Entries) != 0 {
		t.Errorf("failed warm left entries behind: %+v", st.Entries)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a warm panic = %d", hz.StatusCode)
	}
	s.pool.converge = scenario.Converge
	if resp, body := rehearse(t, ts, tinySpec("boom", 3), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearsal after a warm panic: %d: %s", resp.StatusCode, body)
	}
}

// TestOversizedBodyGets413 pins the body bound on every route that reads a
// spec: one byte over maxSpecBytes is refused as too large — not truncated
// into a JSON syntax error — with the uniform error body, and the refusal
// holds no session slot.
func TestOversizedBodyGets413(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantInFlight: 1})
	// A spec that would parse if only it ended: the old LimitReader cut it
	// at the bound and reported "unexpected end of JSON input".
	huge := append([]byte(`{"name":"`), bytes.Repeat([]byte{'a'}, maxSpecBytes+1-len(`{"name":"`))...)
	for _, route := range []string{"/v1/rehearse", "/v1/chaos", "/v1/pool/invalidate", "/v1/plan"} {
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s with %d bytes: status %d, body %+v (%v); want 413 with an ErrorResponse",
				route, len(huge), resp.StatusCode, e, derr)
		}
		// At the bound the body is read whole and fails on its own merits.
		resp, err = http.Post(ts.URL+route, "application/json", bytes.NewReader(huge[:maxSpecBytes]))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with exactly %d bytes: status %d, want 400", route, maxSpecBytes, resp.StatusCode)
		}
	}
	s.mu.Lock()
	inFlight, sessions, tenants := s.inFlight, len(s.sessions), len(s.tenants)
	s.mu.Unlock()
	if inFlight != 0 || sessions != 0 || tenants != 0 {
		t.Fatalf("refused bodies left sessions behind: inFlight=%d sessions=%d tenants=%d", inFlight, sessions, tenants)
	}
	// The tenant's single slot is still free.
	if resp, body := rehearse(t, ts, tinySpec("after-413", 3), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearsal after refusals: %d: %s", resp.StatusCode, body)
	}
}

func TestChaosEndpointMatchesBatch(t *testing.T) {
	base := tinySpec("chaos-http", 7)
	want, err := scenario.Chaos(base, scenario.CampaignConfig{
		N: 2, Seed: 7, FaultsPerRun: 2, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(
		ts.URL+"/v1/chaos?n=2&faults=2&seed=7&workers=1",
		"application/json", specBody(t, tinySpec("chaos-http", 7)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want.JSON()) {
		t.Fatalf("served campaign differs from batch campaign\nbatch:\n%s\nserved:\n%s",
			want.JSON(), body)
	}
}

func TestPoolInvalidateEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 2, NoRewarm: true})
	if resp, body := rehearse(t, ts, tinySpec("inv", 7), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearse: %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Post(ts.URL+"/v1/pool/invalidate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ir InvalidateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Invalidated != 1 || ir.Rewarming {
		t.Fatalf("invalidate response: %+v", ir)
	}
	if got := len(s.Pool().Status().Entries); got != 0 {
		t.Fatalf("pool entries after invalidate = %d, want 0 (NoRewarm)", got)
	}
	// The next rehearsal re-converges (miss), not a stale hit.
	resp2, body := rehearse(t, ts, tinySpec("inv", 7), "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rehearse after invalidate: %d: %s", resp2.StatusCode, body)
	}
	if got := resp2.Header.Get(PoolHeader); got != "miss" {
		t.Fatalf("%s after invalidate = %q, want miss", PoolHeader, got)
	}
}

// TestRehearseAttachSpecForks: an attach-device spec forks a pooled
// baseline like any other — posted twice it is a miss, then a hit — and
// both answers are the bytes of a fresh batch run.
func TestRehearseAttachSpecForks(t *testing.T) {
	sp := tinySpec("attach", 7)
	sp.Steps = append(sp.Steps,
		scenario.Step{Op: scenario.OpAttachDevice, NewDevice: &scenario.NewDevice{
			Name: "tor-new", Layer: "tor", Vendor: "ctnra",
			Peers: []string{"leaf-p0-0", "leaf-p0-1"},
		}},
		scenario.Step{Op: scenario.OpWaitConverge},
	)
	want, err := scenario.Run(sp.Clone(), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	for _, mode := range []string{"miss", "hit"} {
		resp, body := rehearse(t, ts, sp, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attach rehearse: %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(PoolHeader); got != mode {
			t.Fatalf("%s = %q, want %s", PoolHeader, got, mode)
		}
		if !bytes.Equal(body, want.JSON()) {
			t.Fatalf("%s: report differs from batch run\nbatch:\n%s\nserved:\n%s", mode, want.JSON(), body)
		}
	}
}

// TestRehearseAttachOfANewVendor attaches a ToR of a vendor the fabric does
// not run yet, so the emulation provisions a VM for it mid-run; the request
// used to end in a 500 (the VM had no fabric host to place the ToR on).
func TestRehearseAttachOfANewVendor(t *testing.T) {
	sp := tinySpec("new-vendor", 7)
	sp.Steps = append(sp.Steps,
		scenario.Step{Op: scenario.OpAttachDevice, NewDevice: &scenario.NewDevice{
			Name: "tor-new", Layer: "tor", Vendor: "vma",
			Peers: []string{"leaf-p0-0", "leaf-p0-1"},
		}},
		scenario.Step{Op: scenario.OpWaitConverge},
	)
	_, ts := newTestServer(t, Config{})
	resp, body := rehearse(t, ts, sp, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearse: %d: %s", resp.StatusCode, body)
	}
	want, err := scenario.Run(sp.Clone(), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.JSON()) {
		t.Fatalf("report differs from the batch run")
	}
}

func TestWarmPreconverges(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 2})
	if err := s.Warm(tinySpec("prewarm", 7)); err != nil {
		t.Fatal(err)
	}
	resp, body := rehearse(t, ts, tinySpec("prewarm", 7), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rehearse: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(PoolHeader); got != "hit" {
		t.Fatalf("first rehearsal after Warm = %q, want hit", got)
	}
}
