package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"crystalnet/internal/boundary"
	"crystalnet/internal/scenario"
)

// Prewarm starts converging a baseline for sp in the background without
// borrowing it: a no-op when key, PoolKey(sp, opts), is already pooled or
// warming. It never blocks on the convergence. Reports whether an entry for
// the key exists (false only when the pool is closed).
func (p *Pool) Prewarm(key string, sp *scenario.Spec, opts scenario.Options) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if _, ok := p.entries[key]; !ok {
		p.insertLocked(key, baseSpec(sp, opts))
	}
	return true
}

// handlePlan runs the boundary solver for a tenant's target devices and
// returns the winning certified-safe plan, ranked alternatives, and a
// ready-to-rehearse spec whose exact emulate set keys into the warm pool —
// so the tenant's rehearsal forks a fabric no bigger than its plan.
//
//	POST /v1/plan    body: PlanRequest JSON
//	→ 200 PlanResponse JSON (deterministic for identical requests)
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	body, code, err := readBody(w, r)
	if err != nil {
		writeError(w, code, err)
		return
	}
	var req PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: plan request: %w", err))
		return
	}
	if len(req.Targets) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: plan request needs targets"))
		return
	}

	sess, code, err := s.begin("plan", r.Header.Get(TenantHeader), "plan")
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer s.end(sess)
	w.Header().Set(RequestHeader, sess.ID)

	// The spec below is also how the topology gets validated and built —
	// exactly the object a follow-up rehearsal will carry.
	spec := &scenario.Spec{
		Name:     "plan",
		Seed:     req.Seed,
		Topology: req.Topology,
		Steps:    []scenario.Step{{Op: scenario.OpWaitConverge}},
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n, _, err := spec.BuildNetwork()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := boundary.Solve(n, req.Targets, boundary.SolveOptions{
		Seed: req.Seed, MaxAlternatives: req.Alternatives,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	spec.Name = "plan-" + res.Network
	spec.Description = fmt.Sprintf("solver plan for %d targets (%s, %s)",
		len(res.Targets), res.Best.Strategy, res.Best.Certificate)
	spec.Emulate = res.Best.Emulated

	opts := scenario.Options{MaxEvents: s.cfg.MaxEvents}
	key := PoolKey(spec, opts)
	warming := false
	if req.Warm {
		warming = s.pool.Prewarm(key, spec, opts)
	}

	resp := PlanResponse{
		Network:       res.Network,
		Targets:       res.Targets,
		Seed:          res.Seed,
		Best:          planSolution(res.Best),
		FullDevices:   res.FullDevices,
		FullVMs:       res.FullVMs,
		FullHourlyUSD: res.FullHourlyUSD,
		CostReduction: res.CostReduction,
		Spec:          spec,
		PoolKey:       key,
		Warming:       warming,
	}
	for _, alt := range res.Alternatives {
		resp.Alternatives = append(resp.Alternatives, planSolution(alt))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// planSolution converts a solver solution to its wire form.
func planSolution(sol boundary.Solution) PlanSolution {
	layers := map[string]int{}
	for l, c := range sol.Scale.LayerCounts {
		layers[l.String()] = c
	}
	return PlanSolution{
		Strategy:    sol.Strategy,
		Certificate: string(sol.Certificate),
		Emulate:     sol.Emulated,
		Devices:     sol.Scale.TotalEmulated,
		Speakers:    sol.Scale.Speakers,
		Layers:      layers,
		Proportion:  sol.Scale.Proportion,
		VMs:         sol.Scale.VMs,
		HourlyUSD:   sol.HourlyUSD,
	}
}
