package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/checkpoint"
	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/scenario"
	"crystalnet/internal/serve"
)

// replayJob is what the parent hands a replay child: half of the traced
// pass of a warm phase. A request costs what it costs largely through the
// collector, and the collector's work grows with the live heap; so each half
// runs in a process that holds one converged baseline, as crystald does.
//
// The service half (Staged false) replays Requests rehearsals whole, through
// the public calls serve's rehearse handler makes, in-process and over
// loopback HTTP against the handler crystald mounts. The staged half takes
// scenario.Converged.Run apart on a baseline built through core, one span per
// call, and runs the probes on that baseline.
type replayJob struct {
	Shape    warmShape `json:"shape"`
	Requests int       `json:"requests"`
	Staged   bool      `json:"staged,omitempty"`
	Probes   bool      `json:"probes,omitempty"`
	Smoke    bool      `json:"smoke,omitempty"`
}

type replayOut struct {
	Attempted  int                `json:"attempted"`
	Violations []string           `json:"violations,omitempty"`
	Layer      map[string]float64 `json:"layer"`
	Spans      []span             `json:"spans"`
}

func (o *replayOut) fail(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

func runReplay(job replayJob) (*replayOut, error) {
	gen, err := newFlapGen(job.Shape)
	if err != nil {
		return nil, err
	}
	warm, err := scenario.Parse(gen.warmSpec())
	if err != nil {
		return nil, err
	}
	out := &replayOut{Layer: map[string]float64{}}
	tr := newTracer()
	if job.Staged {
		err = replayStaged(job, gen, warm, tr, out)
	} else {
		err = replayService(job, gen, warm, tr, out)
	}
	out.Spans = tr.spans
	return out, err
}

// replayService times each request as the rehearse handler runs it, and once
// more through the handler itself.
func replayService(job replayJob, gen *flapGen, warm *scenario.Spec, tr *tracer, out *replayOut) error {
	srv := serve.NewServer(serve.Config{NoRewarm: true})
	if err := srv.Warm(warm); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { _ = srv.Drain(context.Background()) }() // only closes the idle pool
	client := newClient(ts.Listener.Addr().String())

	var httpMS []float64
	hits := 0
	cost := startCost()
	for i := 0; i < job.Requests; i++ {
		req := gen.next()
		var body []byte
		var res response

		inProcess := func() {
			var sp *scenario.Spec
			var cv *scenario.Converged
			var release func()
			var rep *scenario.Report
			var hit bool
			var err error
			tr.beginOp()
			tr.do("request", func() {
				tr.do("scenario.parse", func() { sp, err = scenario.Parse(req) })
				if err != nil {
					return
				}
				tr.do("serve.acquire", func() { cv, release, hit, err = srv.Pool().Acquire(sp, scenario.Options{}, nil) })
				if err != nil {
					return
				}
				tr.do("scenario.run", func() { rep, err = cv.Run(sp, scenario.Options{}) })
				release()
				if err != nil {
					return
				}
				tr.do("scenario.report_json", func() { body = rep.JSON() })
			})
			out.Attempted++
			switch {
			case err != nil:
				out.fail("replay %d: %v", i, err)
			case !rep.Passed:
				out.fail("replay %d: report did not pass", i)
			}
			if hit {
				hits++
			}
		}
		overHTTP := func() {
			res = client.rehearse(req)
			out.Attempted++
			switch {
			case res.err != nil:
				out.fail("replay %d over HTTP: %v", i, res.err)
				return
			case res.pool != "hit":
				out.fail("replay %d over HTTP: pool %q, want hit", i, res.pool)
			default:
				hits++
			}
			httpMS = append(httpMS, ms(res.latency))
		}
		// Each pass leaves a fork's worth of garbage to the next; alternating
		// keeps either from always paying for it.
		if i%2 == 0 {
			inProcess()
			overHTTP()
		} else {
			overHTTP()
			inProcess()
		}
		if body != nil && res.err == nil && !bytes.Equal(res.body, body) {
			out.fail("replay %d: HTTP report differs from the in-process report", i)
		}
	}
	passes := max(2*job.Requests, 1)
	cost.stop(false).reportPerOp(out.Layer, passes, 0)

	out.Layer["scenario.parse_us"] = 1000 * median(perOp(tr.spans, "scenario.parse"))
	out.Layer["serve.acquire_us"] = 1000 * median(perOp(tr.spans, "serve.acquire"))
	out.Layer["scenario.report_json_us"] = 1000 * median(perOp(tr.spans, "scenario.report_json"))
	out.Layer["trace.run_ms"] = median(perOp(tr.spans, "scenario.run"))
	out.Layer["trace.http_ms"] = median(httpMS)
	out.Layer["serve.pool_hit_ratio"] = float64(hits) / float64(passes)
	return nil
}

// replayStaged is Converged.Run taken apart. scenario.Converged keeps its
// fork private, so the stages run on a baseline built here through core, with
// the same calls scenario's runner makes.
func replayStaged(job replayJob, gen *flapGen, warm *scenario.Spec, tr *tracer, out *replayOut) error {
	net, _, err := warm.BuildNetwork()
	if err != nil {
		return err
	}
	o := core.New(core.Options{Seed: emulationSeed})
	prep, err := o.Prepare(core.PrepareInput{Network: net})
	if err != nil {
		return err
	}
	before := startCost()
	em, err := o.Mockup(prep, false)
	if err != nil {
		return err
	}
	metrics, err := em.RunUntilConverged(0)
	if err != nil {
		return err
	}
	busy := time.Since(before.wall)
	if warm.Traffic != nil {
		ts := *warm.Traffic.Clone()
		ts.Seed = emulationSeed
		if err := em.AttachTraffic(ts); err != nil {
			return err
		}
	}
	baseline := before.stop(true)
	var snap *checkpoint.Snapshot
	tr.do("core.checkpoint", func() { snap, err = em.Checkpoint() })
	if err != nil {
		return err
	}
	routes := 0
	for _, d := range em.Devices {
		routes += d.FIB().Len()
	}
	events := float64(firedEvents(snap))
	out.Layer["sim.events"] = events
	out.Layer["sim.route_ready_virtual_s"] = metrics.RouteReady.Seconds()
	out.Layer["sim.network_ready_virtual_s"] = metrics.NetworkReady.Seconds()
	out.Layer["rib.routes"] = float64(routes)
	baseline.report(out.Layer, events, float64(routes), busy)
	if m := em.Traffic(); m != nil {
		out.Layer["traffic.aggregates"] = float64(m.Aggregates())
	}

	var stepEvents uint64
	walks := 0
	for i := 0; i < job.Requests; i++ {
		sp, err := scenario.Parse(gen.next())
		if err != nil {
			return err
		}
		var fork *core.Emulation
		tr.beginOp()
		tr.do("stages", func() {
			tr.do("core.fork", func() { fork, err = o.Fork(snap) })
			if err != nil {
				return
			}
			fired := fork.Orchestrator().Eng.Fired()
			for s := range sp.Steps {
				st := &sp.Steps[s]
				if st.Op != scenario.OpSetLink {
					continue // each set-link is followed by its wait-converge
				}
				tr.do("core.step_converge", func() {
					if err = setLink(fork, st); err == nil {
						_, err = fork.RunUntilConverged(0)
					}
				})
				if err != nil {
					return
				}
				// RunUntilConverged has already settled the matrix; settling
				// again at the same state costs the same and can be timed.
				if fork.Traffic() != nil {
					tr.do("traffic.settle", fork.SettleTraffic)
				}
				tr.do("batfish.sweep", func() {
					n, black := sweep(fork)
					if i == 0 {
						walks += n
					}
					if black > 0 {
						err = fmt.Errorf("%d blackholed pairs after %s", black, st.A)
					}
				})
				if err != nil {
					return
				}
			}
			if i == 0 {
				stepEvents = fork.Orchestrator().Eng.Fired() - fired
			}
		})
		out.Attempted++
		if err != nil {
			out.fail("replay %d stages: %v", i, err)
		}
	}

	settle := median(perOp(tr.spans, "traffic.settle"))
	out.Layer["core.fork_ms"] = median(perOp(tr.spans, "core.fork"))
	out.Layer["core.step_converge_ms"] = median(perOp(tr.spans, "core.step_converge")) - settle
	out.Layer["traffic.settle_ms"] = settle
	out.Layer["batfish.sweep_ms"] = median(perOp(tr.spans, "batfish.sweep"))
	out.Layer["sim.step_events"] = float64(stepEvents)
	out.Layer["batfish.walks"] = float64(walks)
	if settle > 0 {
		perRequest := float64(len(warm.Steps) / 2) // one settle per set-link + wait-converge pair
		out.Layer["traffic.flows_settled_per_s"] = float64(warm.Traffic.Flows) * perRequest / (settle / 1000)
	}
	if job.Probes {
		for k, v := range runProbes(em, job.Shape.Stream, job.Smoke) {
			out.Layer[k] = v
		}
	}
	return nil
}

// perOp sums the spans called name within each operation and returns the
// sums in milliseconds, one per operation that has any.
func perOp(spans []span, name string) []float64 {
	byOp := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			byOp[s.Op] += s.dur()
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(byOp[op])
	}
	return out
}

func setLink(em *core.Emulation, st *scenario.Step) error {
	da, ia, ok1 := strings.Cut(st.A, ":")
	db, ib, ok2 := strings.Cut(st.B, ":")
	if !ok1 || !ok2 {
		return fmt.Errorf("bad set-link endpoints %q, %q", st.A, st.B)
	}
	return em.SetLink(da, ia, db, ib, *st.Up)
}

// sweep is the assert-no-blackhole invariant made from the same public
// calls scenario's runner uses: a live-FIB walker asked whether every
// emulated device reaches a host in every originated server prefix. It
// returns how many Delivered calls it made and how many failed.
func sweep(em *core.Emulation) (walks, blackholed int) {
	cfgs := make(map[string]*config.DeviceConfig, len(em.Devices))
	for name, c := range em.Configs() {
		cfgs[name] = c
	}
	for name, d := range em.Devices {
		if c := d.Config(); c != nil {
			cfgs[name] = c
		}
	}
	fabric, dests := fabricDests(em)
	w := batfish.NewLiveWalker(liveLookup(em), cfgs)
	for _, src := range fabric {
		if em.Devices[src] == nil {
			continue
		}
		for _, d := range dests {
			if d.owner == src {
				continue
			}
			walks++
			if !w.Delivered(src, d.pfx.Addr+1) {
				blackholed++
			}
		}
	}
	return walks, blackholed
}
