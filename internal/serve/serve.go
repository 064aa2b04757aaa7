// Package serve is crystald's rehearsal-as-a-service layer: an HTTP/JSON
// front end over the scenario engine that keeps converged base fabrics
// warm in a checkpoint pool and forks one per request.
//
// The contract that makes the service trustworthy is byte-identity: the
// body of a 200 response from POST /v1/rehearse is exactly what a batch
// `crystalctl run-scenario` of the same spec prints, and /v1/chaos
// likewise matches `crystalctl chaos`. The warm pool is a pure latency
// optimization — forks continue the captured clock, FIFO sequence and RNG
// stream, so a served report cannot be distinguished from a cold one.
//
// Lifecycle: every request becomes a session with a server-assigned ID,
// admitted against a global and a per-tenant concurrency quota. A client
// disconnect cancels the session's run mid-convergence (scenario
// Options.Cancel → core teardown), so abandoned rehearsals release their
// VMs deterministically instead of leaking goroutines. Drain flips the
// daemon into a refuse-new/finish-in-flight mode for graceful SIGTERM.
//
// docs/API.md is the endpoint reference; DESIGN.md §"Rehearsal service"
// is the architecture write-up.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"crystalnet/internal/core"
	"crystalnet/internal/obs"
	"crystalnet/internal/scenario"
)

// maxSpecBytes bounds a request body; hand-written specs are a few KB.
const maxSpecBytes = 4 << 20

// maxChaosFaultSteps caps n × faults of one /v1/chaos request — the fault
// steps, each with its convergence and invariant sweep, that a single
// request may queue. The defaults (20 × 6) use about 1% of it.
const maxChaosFaultSteps = 10000

// cowCopyBounds are the buckets of serve.fork_cow_copies, in copies: powers
// of four from a quiet step (tens) past a whole M-DC fabric's FIB entries.
var cowCopyBounds = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// PoolSize caps the warm checkpoint pool (default 4).
	PoolSize int
	// MaxInFlight caps concurrent sessions across all tenants
	// (default 16; <0 disables the cap).
	MaxInFlight int
	// TenantInFlight caps concurrent sessions per tenant (default 4;
	// <0 disables the cap).
	TenantInFlight int
	// MaxEvents caps each convergence drive (0 = scenario default).
	MaxEvents uint64
	// NoRewarm disables background re-convergence of invalidated pool
	// entries.
	NoRewarm bool
	// Live receives operational metrics; nil gets the server a fresh
	// private registry (so /metrics always works).
	Live *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 4
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.TenantInFlight == 0 {
		c.TenantInFlight = 4
	}
	if c.Live == nil {
		c.Live = obs.NewRegistry(obs.WallBuckets)
	}
	return c
}

// session is one admitted request.
type session struct {
	ID       string
	Tenant   string
	Kind     string
	Scenario string
	Started  time.Time
}

// Server implements crystald's HTTP API. Create with NewServer, mount via
// Handler, stop with Drain.
type Server struct {
	cfg  Config
	live *obs.Registry
	pool *Pool
	mux  http.Handler

	mu       sync.Mutex
	idle     *sync.Cond // broadcast when inFlight drops to zero
	nextID   uint64
	sessions map[string]*session
	tenants  map[string]int
	served   map[string]uint64
	inFlight int
	draining bool
}

// NewServer builds a Server and its warm pool from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		live:     cfg.Live,
		pool:     NewPool(cfg.PoolSize, cfg.MaxEvents, !cfg.NoRewarm, cfg.Live),
		sessions: map[string]*session{},
		tenants:  map[string]int{},
		served:   map[string]uint64{},
	}
	s.idle = sync.NewCond(&s.mu)
	mux := http.NewServeMux()
	for _, route := range Routes {
		var h http.HandlerFunc
		switch route {
		case "/v1/rehearse":
			h = s.handleRehearse
		case "/v1/chaos":
			h = s.handleChaos
		case "/v1/plan":
			h = s.handlePlan
		case "/v1/status":
			h = s.handleStatus
		case "/v1/pool/invalidate":
			h = s.handleInvalidate
		case "/healthz":
			h = s.handleHealthz
		case "/metrics":
			h = s.handleMetrics
		}
		mux.Handle(route, s.live.Middleware(route, h))
	}
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the warm pool (status endpoints, tests).
func (s *Server) Pool() *Pool { return s.pool }

// Warm pre-converges a baseline for sp so the first rehearsal against its
// fabric is already a pool hit. crystald -warm uses it at boot.
func (s *Server) Warm(sp *scenario.Spec) error {
	opts := scenario.Options{MaxEvents: s.cfg.MaxEvents}
	if err := scenario.CheckForkable(sp, opts); err != nil {
		return err
	}
	_, release, _, err := s.pool.Acquire(sp, opts, nil)
	if err != nil {
		return err
	}
	release()
	return nil
}

// Drain begins graceful shutdown: new sessions are refused with 503 while
// in-flight ones finish. It returns once the server is idle and the pool
// is closed, or with ctx's error if the deadline passes first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inFlight > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		s.pool.Close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// begin admits a request as a session, enforcing drain and quotas. The
// returned status code is set only on refusal.
func (s *Server) begin(kind, tenant, name string) (*session, int, error) {
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting new work")
	}
	if s.cfg.MaxInFlight > 0 && s.inFlight >= s.cfg.MaxInFlight {
		return nil, http.StatusTooManyRequests, fmt.Errorf("serve: server at capacity (%d in flight)", s.inFlight)
	}
	if s.cfg.TenantInFlight > 0 && s.tenants[tenant] >= s.cfg.TenantInFlight {
		return nil, http.StatusTooManyRequests, fmt.Errorf("serve: tenant %q at capacity (%d in flight)", tenant, s.tenants[tenant])
	}
	s.nextID++
	sess := &session{
		ID:     fmt.Sprintf("r-%06d", s.nextID),
		Tenant: tenant, Kind: kind, Scenario: name,
		Started: time.Now(),
	}
	s.sessions[sess.ID] = sess
	s.tenants[tenant]++
	s.inFlight++
	s.live.Gauge("serve.sessions", "").Set(float64(s.inFlight))
	return sess, 0, nil
}

// end retires a session and wakes Drain when the server goes idle.
func (s *Server) end(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	s.tenants[sess.Tenant]--
	if s.tenants[sess.Tenant] <= 0 {
		delete(s.tenants, sess.Tenant)
	}
	s.served[sess.Kind]++
	s.inFlight--
	s.live.Gauge("serve.sessions", "").Set(float64(s.inFlight))
	if s.inFlight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// writeError sends the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// readBody reads a request body of at most maxSpecBytes. On failure it
// returns the status to answer with: 413 for a larger body — which a plain
// LimitReader would have cut short into a baffling JSON syntax error — and
// 400 for a body that could not be read.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("serve: read body: %w", err)
	}
	return body, 0, nil
}

// readSpec parses a request body as a scenario spec, returning the status
// to answer with on failure.
func readSpec(w http.ResponseWriter, r *http.Request) (*scenario.Spec, int, error) {
	body, code, err := readBody(w, r)
	if err != nil {
		return nil, code, err
	}
	sp, err := scenario.Parse(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return sp, 0, nil
}

// runErrorStatus is the status for a rehearsal that failed after its spec
// parsed: 400 when the fault is still the spec's (scenario.ErrBadSpec — a
// device name the fabric does not have), 500 otherwise.
func runErrorStatus(err error) int {
	if errors.Is(err, scenario.ErrBadSpec) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// handleRehearse runs one scenario and returns the batch-identical report.
//
//	POST /v1/rehearse          body: scenario spec JSON
//	→ 200 scenario.Report JSON (exact crystalctl run-scenario bytes)
//	  X-Crystalnet-Request: session ID
//	  X-Crystalnet-Pool: hit | miss | bypass
func (s *Server) handleRehearse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	sp, code, err := readSpec(w, r)
	if err != nil {
		writeError(w, code, err)
		return
	}
	sess, code, err := s.begin("rehearse", r.Header.Get(TenantHeader), sp.Name)
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer s.end(sess)
	w.Header().Set(RequestHeader, sess.ID)

	opts := scenario.Options{MaxEvents: s.cfg.MaxEvents, Cancel: r.Context().Done()}
	var rep *scenario.Report
	mode := "bypass"
	if scenario.CheckForkable(sp, opts) == nil {
		cv, release, hit, aerr := s.pool.Acquire(sp, opts, r.Context().Done())
		if aerr != nil {
			if errors.Is(aerr, core.ErrCanceled) {
				return // client gone; nothing to write
			}
			writeError(w, runErrorStatus(aerr), aerr)
			return
		}
		defer release()
		if hit {
			mode = "hit"
		} else {
			mode = "miss"
		}
		if rep, err = cv.Run(sp, opts); err == nil {
			// How much of the shared baseline this request had to copy: the
			// figure that says a spec has stopped being cheap to rehearse.
			s.live.HistogramWith("serve.fork_cow_copies", "", cowCopyBounds).Observe(float64(rep.CowCopies.Total()))
		}
	} else {
		rep, err = scenario.Run(sp, opts)
	}
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			return // torn down deterministically; client gone
		}
		writeError(w, runErrorStatus(err), err)
		return
	}
	w.Header().Set(PoolHeader, mode)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rep.JSON())
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int64) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: query %s=%q: not an integer", name, v)
	}
	return n, nil
}

// handleChaos runs a chaos campaign against the posted base spec.
//
//	POST /v1/chaos?n=20&faults=6&seed=1&workers=0&reuse=true
//	  body: base scenario spec JSON
//	→ 200 scenario.CampaignReport JSON (exact crystalctl chaos bytes)
//
// reuse defaults to true (converge once, fork per run) and silently
// falls back to per-run convergence when the spec is not forkable.
// n × faults above maxChaosFaultSteps is a 400.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	sp, code, err := readSpec(w, r)
	if err != nil {
		writeError(w, code, err)
		return
	}
	var cfg scenario.CampaignConfig
	var qerr error
	geti := func(name string, def int64) int64 {
		n, err := queryInt(r, name, def)
		if err != nil && qerr == nil {
			qerr = err
		}
		return n
	}
	n, faults := geti("n", 0), geti("faults", 0)
	cfg.Seed = geti("seed", 0)
	cfg.Workers = int(geti("workers", 0))
	if qerr != nil {
		writeError(w, http.StatusBadRequest, qerr)
		return
	}
	if n <= 0 {
		n = scenario.DefaultChaosRuns
	}
	if faults <= 0 {
		faults = scenario.DefaultChaosFaults
	}
	// Each factor is checked first so the product cannot overflow.
	if n > maxChaosFaultSteps || faults > maxChaosFaultSteps || n*faults > maxChaosFaultSteps {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: chaos n=%d x faults=%d exceeds the %d fault steps one request may queue", n, faults, maxChaosFaultSteps))
		return
	}
	cfg.N, cfg.FaultsPerRun = int(n), int(faults)
	cfg.MaxEvents = s.cfg.MaxEvents
	cfg.Cancel = r.Context().Done()
	cfg.Reuse = r.URL.Query().Get("reuse") != "false" &&
		scenario.CheckForkable(sp, scenario.Options{}) == nil

	sess, code, err := s.begin("chaos", r.Header.Get(TenantHeader), sp.Name)
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer s.end(sess)
	w.Header().Set(RequestHeader, sess.ID)

	crep, err := scenario.Chaos(sp, cfg)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(crep.JSON())
}

// handleStatus reports sessions, quotas and the pool.
//
//	GET /v1/status → 200 StatusResponse JSON
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: GET only"))
		return
	}
	now := time.Now()
	s.mu.Lock()
	st := StatusResponse{
		Draining: s.draining,
		InFlight: s.inFlight,
		Served:   map[string]uint64{},
	}
	for k, v := range s.served {
		st.Served[k] = v
	}
	for _, sess := range s.sessions {
		st.Sessions = append(st.Sessions, SessionInfo{
			ID: sess.ID, Tenant: sess.Tenant, Kind: sess.Kind,
			Scenario: sess.Scenario,
			AgeMS:    now.Sub(sess.Started).Milliseconds(),
		})
	}
	s.mu.Unlock()
	// Oldest session first; IDs are monotonic so this is by admission.
	slices.SortFunc(st.Sessions, func(a, b SessionInfo) int { return cmp.Compare(a.ID, b.ID) })
	st.Pool = s.pool.Status()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// handleInvalidate retires warm pool entries.
//
//	POST /v1/pool/invalidate        (empty body → all entries)
//	  body: scenario spec JSON      (→ that fabric's entry only)
//	→ 200 InvalidateResponse JSON
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	body, code, err := readBody(w, r)
	if err != nil {
		writeError(w, code, err)
		return
	}
	var sp *scenario.Spec
	if len(body) > 0 {
		if sp, err = scenario.Parse(body); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	n := s.pool.Invalidate(sp, scenario.Options{MaxEvents: s.cfg.MaxEvents})
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(InvalidateResponse{
		Invalidated: n,
		Rewarming:   n > 0 && !s.cfg.NoRewarm,
	})
}

// handleHealthz is the liveness/readiness probe.
//
//	GET /healthz → 200 "ok" | 503 "draining"
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	_, _ = io.WriteString(w, "ok\n")
}

// handleMetrics exposes the live registry in Prometheus text format.
//
//	GET /metrics → 200 text/plain
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.live.WriteProm(w)
}
