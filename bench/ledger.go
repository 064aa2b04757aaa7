package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// ledger is the document one invocation writes: every metric of every
// workload it ran, stamped with the code and the host that produced it, so
// two documents can be held against each other with -diff.
type ledger struct {
	Stamp     stamp                     `json:"stamp"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

type stamp struct {
	SHA        string `json:"sha"`
	Dirty      bool   `json:"dirty"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Time       string `json:"time"`
}

type workloadEntry struct {
	Why        string                `json:"why"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Violations []string              `json:"violations,omitempty"`
	EndToEnd   map[string]e2eEntry   `json:"end_to_end"`
	PerLayer   map[string]layerEntry `json:"per_layer"`
}

// e2eEntry is one end-to-end metric over a document's runs: each run
// contributes one value, so the quartiles are the run-to-run spread.
type e2eEntry struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
}

type layerEntry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

func newStamp(env *benchEnv, seed int64, seconds int) stamp {
	st := stamp{
		SHA: "unknown", Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: env.procs, GOGC: "default (100)",
		Seed: seed, Seconds: seconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
	// A driver checkout is not a git repository; the stamp then says so.
	if out, err := exec.Command("git", "-C", env.root, "rev-parse", "HEAD").Output(); err == nil {
		st.SHA = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", env.root, "status", "--porcelain").Output(); err == nil {
			st.Dirty = len(out) > 0
		}
	}
	return st
}

// ledgerSets is how many untraced runs of a workload one document holds;
// their spread is the document's quartiles. Two documents compare under -diff
// only if both have it, so it is not a flag.
const ledgerSets = 3

// measure runs one workload sets times untraced for each of docs documents,
// then once traced, and folds the lot into one ledger entry per document.
// The documents' runs alternate, so a host that changes speed while the
// workload is measured (README.md, "Bounds") slows all of them alike; the
// traced pass is shared.
func measure(env *benchEnv, w workload, seed int64, b budget, docs, sets int, smoke bool, log io.Writer) ([]*workloadEntry, error) {
	runs := make([][]*runResult, docs)
	for i := 0; i < docs*sets; i++ {
		fmt.Fprintf(log, "%s: run %d/%d\n", w.name, i+1, docs*sets)
		r, err := runWorkload(env, w, seed, b)
		if err != nil {
			return nil, err
		}
		runs[i%docs] = append(runs[i%docs], r)
	}
	fmt.Fprintf(log, "%s: traced pass\n", w.name)
	t, err := runTraced(env, w, seed, smoke)
	if err != nil {
		return nil, err
	}
	entries := make([]*workloadEntry, docs)
	for d := range entries {
		entries[d] = fold(w, runs[d], t)
	}
	return entries, nil
}

// fold reduces one document's runs of a workload and the traced pass to the
// workload's ledger entry.
func fold(w workload, runs []*runResult, t *tracedResult) *workloadEntry {
	e := &workloadEntry{Why: w.why, EndToEnd: map[string]e2eEntry{}, PerLayer: map[string]layerEntry{}}
	violate := func(format string, args ...any) {
		e.Failed++
		e.Violations = append(e.Violations, fmt.Sprintf(format, args...))
	}
	samples := map[string][]float64{}
	var latencies []float64
	exact := runs[0].Exact
	for i, r := range runs {
		e.Attempted += r.Attempted
		e.Failed += r.Failed
		e.Violations = append(e.Violations, r.Violations...)
		for name, v := range r.Metrics {
			samples[name] = append(samples[name], v)
		}
		latencies = append(latencies, r.LatencyMS...)
		e.Attempted++
		for k, v := range r.Exact {
			if exact[k] != v {
				violate("run %d: %s = %v, run 0 had %v", i, k, v, exact[k])
			}
		}
	}

	e.Attempted += t.Attempted + 1
	for _, v := range t.Violations {
		violate("traced: %s", v)
	}
	for k, v := range t.ColdExact {
		if exact[k] != v {
			violate("traced: %s = %v, untraced reps had %v", k, v, exact[k])
		}
	}

	for _, def := range endToEnd {
		var vals []float64
		switch def.Name {
		case "error_rate":
			vals = []float64{float64(e.Failed) / float64(max(e.Attempted, 1))}
		case "rehearse_p90_ms":
			// Over the timed requests of all runs together, and only where
			// that is enough of them.
			if p90, err := percentile(latencies, 90); err == nil {
				vals = []float64{p90}
			}
		default:
			vals = samples[def.Name]
		}
		if len(vals) > 0 {
			e.EndToEnd[def.Name] = e2eEntry{def.Unit, def.Better, def.Bound, summarize(vals)}
		}
	}
	for _, def := range perLayer {
		e.PerLayer[def.Name] = layerEntry{Value: t.Layer[def.Name], Unit: def.Unit, Exact: def.Exact}
	}
	if untraced := median(samples["mockup_wall_s"]); untraced > 0 {
		// The traced cold child against the untraced reps' median: what the
		// spans themselves cost.
		pct := 100 * (t.Layer["trace.mockup_wall_s"]/untraced - 1)
		e.PerLayer["trace_overhead_pct"] = layerEntry{Value: pct, Unit: "%"}
	}
	return e
}

// print lists every metric by name and unit.
func (l *ledger) print(out io.Writer) {
	st := l.Stamp
	fmt.Fprintf(out, "crystalnet bench @ %s (dirty=%v) %s %s nproc=%d GOMAXPROCS=%d GOGC=%s seed=%d seconds=%d\n",
		st.SHA, st.Dirty, st.Go, st.Platform, st.NProc, st.GOMAXPROCS, st.GOGC, st.Seed, st.Seconds)
	fmt.Fprintln(out, "host time throughout, except sim.*_virtual_s (simulated time); one closed-loop client over loopback")
	for _, name := range sortedKeys(l.Workloads) {
		e := l.Workloads[name]
		fmt.Fprintf(out, "\n== %s: %d attempted, %d failed\n", name, e.Attempted, e.Failed)
		for _, v := range e.Violations {
			fmt.Fprintf(out, "   VIOLATION %s\n", v)
		}
		for _, def := range endToEnd {
			m, ok := e.EndToEnd[def.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "   %-30s %14.4f %-6s median of n=%d (min %.4f, max %.4f, q1 %.4f, q3 %.4f)\n",
				def.Name, m.Median, m.Unit, m.N, m.Min, m.Max, m.Q1, m.Q3)
		}
		for _, k := range sortedKeys(e.PerLayer) {
			m := e.PerLayer[k]
			note := ""
			if m.Exact {
				note = "exact"
			}
			fmt.Fprintf(out, "   %-30s %14.4f %-6s %s\n", k, m.Value, m.Unit, note)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to an old and a new summary. A row whose
// own run-to-run spread, on either side, is wider than the bound cannot show
// a change of that size either way: it is unresolved, not unchanged.
func judge(old, cur e2eEntry) string {
	for _, side := range []e2eEntry{old, cur} {
		if share, known := side.spread(); known && share > cur.Bound {
			return verdictUnresolved
		}
	}
	worse := cur.Median - old.Median
	if cur.Better == "higher" {
		worse = -worse
	}
	if worse > cur.Bound*old.Median {
		return verdictRegressed
	}
	return verdictOK
}

// diff prints one row per workload and end-to-end metric present in both
// documents and returns how many regressed and how many were unresolved.
func diff(old, cur *ledger, out io.Writer) (regressed, unresolved int) {
	fmt.Fprintf(out, "old %s (dirty=%v)  new %s (dirty=%v)\n", old.Stamp.SHA, old.Stamp.Dirty, cur.Stamp.SHA, cur.Stamp.Dirty)
	fmt.Fprintf(out, "%-18s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, name := range sortedKeys(cur.Workloads) {
		ow, ok := old.Workloads[name]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			o, ok1 := ow.EndToEnd[def.Name]
			c, ok2 := cur.Workloads[name].EndToEnd[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := judge(o, c)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			change := "n/a"
			if o.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(c.Median-o.Median)/o.Median)
			}
			fmt.Fprintf(out, "%-18s %-18s %12.4f %12.4f %8s %5.0f%%  %s\n",
				name, def.Name, o.Median, c.Median, change, 100*c.Bound, v)
		}
	}
	return regressed, unresolved
}
