package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crystalnet/internal/scenario"
	"crystalnet/internal/serve"
)

func TestPercentileNearestRankAndFloor(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	got, err := percentile(samples, 90)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (nearest rank)", got, err)
	}
	if got, err := percentile(samples, 50); err != nil || got != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", got, err)
	}
	// 99 samples leave 9 beyond p90 (rank 90): refused.
	if _, err := percentile(samples[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples accepted; want refusal below 10 samples beyond it")
	}
	if _, err := percentile(samples, 99); err == nil {
		t.Fatal("p99 of 100 samples accepted; only one sample lies beyond it")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of nothing accepted")
	}
}

// The driver computes spread with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if s := summarize([]float64{4, 2, 9}); s.N != 3 || s.Median != 4 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summarize = %+v", s)
	}
	if _, known := summarize([]float64{1, 2}).spread(); known {
		t.Error("spread of two samples reported as known")
	}
}

func TestSpanSelfTimeAndStageSums(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: 20..30 counted once
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "deep", Start: 25, End: 45}, // a grandchild is b's business
	}
	if got := selfTime(spans, 1); got != 50 {
		t.Errorf("self time of p = %d, want 50", got)
	}
	if got := selfTime(spans, 3); got != 10 {
		t.Errorf("self time of b = %d, want 10", got)
	}

	// Sequential stages, as the tracer records them: parts and the remainder
	// add up to the whole.
	tr := newTracer()
	tr.beginOp()
	tr.do("whole", func() {
		tr.do("x", func() {})
		tr.do("y", func() { tr.do("inner", func() {}) })
		tr.do("x", func() {})
	})
	parts, total, rest := stageSums(tr.spans, "whole")
	if len(parts) != 2 || parts["inner"] != 0 {
		t.Errorf("parts = %v, want only the direct children x and y", parts)
	}
	if sum := parts["x"] + parts["y"] + rest; sum != total || rest < 0 {
		t.Errorf("x %v + y %v + unattributed %v = %v, want total %v", parts["x"], parts["y"], rest, sum, total)
	}
	for _, s := range tr.spans {
		if s.Op != 1 {
			t.Errorf("span %s has op %d, want 1", s.Name, s.Op)
		}
	}
	var off *tracer
	ran := false
	off.beginOp()
	off.do("untraced", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

func TestFlapGenerator(t *testing.T) {
	for _, shape := range []warmShape{
		{Fabric: "sdc", Flows: 1000, Stream: 7},
		{Fabric: "mdc", Stream: 7},
	} {
		a, err := newFlapGen(shape)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newFlapGen(shape)
		other := shape
		other.Stream = 8
		c, _ := newFlapGen(other)

		warm, err := scenario.Parse(a.warmSpec())
		if err != nil {
			t.Fatalf("%s warm spec: %v", shape.Fabric, err)
		}
		key := serve.PoolKey(warm, scenario.Options{})
		same, distinct := true, map[string]bool{}
		for i := 0; i < 20; i++ {
			sa, sb, sc := a.next(), b.next(), c.next()
			if !bytes.Equal(sa, sb) {
				t.Fatalf("%s: request %d differs between two generators of one seed", shape.Fabric, i)
			}
			sp, err := scenario.Parse(sa)
			if err != nil {
				t.Fatalf("%s: request %d does not parse: %v", shape.Fabric, i, err)
			}
			if serve.PoolKey(sp, scenario.Options{}) != key {
				t.Fatalf("%s: request %d has another pool key than the warm spec", shape.Fabric, i)
			}
			if !strings.HasPrefix(sp.Steps[0].A, "tor-") || !strings.HasPrefix(sp.Steps[0].B, "leaf-") {
				t.Fatalf("%s: request %d flaps %s <-> %s, want a ToR uplink", shape.Fabric, i, sp.Steps[0].A, sp.Steps[0].B)
			}
			distinct[sp.Steps[0].A+sp.Steps[0].B] = true
			// Names carry the request index on both sides, so compare links.
			spc, _ := scenario.Parse(sc)
			same = same && spc.Steps[0].A == sp.Steps[0].A && spc.Steps[0].B == sp.Steps[0].B
		}
		if same {
			t.Errorf("%s: another seed flapped the same 20 links", shape.Fabric)
		}
		if len(distinct) < 10 {
			t.Errorf("%s: 20 requests hit only %d distinct links", shape.Fabric, len(distinct))
		}
	}
}

func entry(better string, bound float64, vals ...float64) e2eEntry {
	return e2eEntry{Unit: "x", Better: better, Bound: bound, summary: summarize(vals)}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, cur e2eEntry
		want     string
	}{
		{"flat", entry("lower", 0.1, 10, 10.1, 10.2), entry("lower", 0.1, 10.2, 10.3, 10.4), verdictOK},
		{"slower past the bound", entry("lower", 0.1, 10, 10.1, 10.2), entry("lower", 0.1, 11.5, 11.6, 11.7), verdictRegressed},
		{"faster", entry("lower", 0.1, 10, 10.1, 10.2), entry("lower", 0.1, 5, 5.1, 5.2), verdictOK},
		{"throughput down", entry("higher", 0.1, 30, 30.5, 31), entry("higher", 0.1, 25, 25.2, 25.4), verdictRegressed},
		{"throughput up", entry("higher", 0.1, 30, 30.5, 31), entry("higher", 0.1, 40, 40.5, 41), verdictOK},
		{"old side too noisy", entry("lower", 0.1, 8, 10, 13), entry("lower", 0.1, 20, 20.1, 20.2), verdictUnresolved},
		{"new side too noisy", entry("lower", 0.1, 10, 10.1, 10.2), entry("lower", 0.1, 8, 10, 13), verdictUnresolved},
		{"single samples compare by value", entry("lower", 0.2, 100), entry("lower", 0.2, 130), verdictRegressed},
		{"error rate stays zero", entry("lower", 0, 0), entry("lower", 0, 0), verdictOK},
		{"any new error", entry("lower", 0, 0), entry("lower", 0, 0.001), verdictRegressed},
	} {
		if got := judge(c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestDiffCommand(t *testing.T) {
	doc := func(wall, p50 []float64) *ledger {
		return &ledger{Workloads: map[string]*workloadEntry{"cold_mdc": {EndToEnd: map[string]e2eEntry{
			"mockup_wall_s":   entry("lower", 0.10, wall...),
			"rehearse_p50_ms": entry("lower", 0.10, p50...),
			"error_rate":      entry("lower", 0, 0),
		}}}}
	}
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, l); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", doc([]float64{15, 15.1, 15.2}, []float64{30, 31, 32}))
	flat := write("flat.json", doc([]float64{15.3, 15.2, 15.1}, []float64{31, 31.5, 32}))
	slow := write("slow.json", doc([]float64{18, 18.1, 18.2}, []float64{31, 31.5, 32}))

	var out bytes.Buffer
	if code := run([]string{"-diff", base, flat}, &out, &out); code != 0 {
		t.Errorf("flat diff exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-diff", base, slow}, &out, &out); code == 0 {
		t.Errorf("regressed diff exit 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || strings.Count(out.String(), verdictOK) != 2 {
		t.Errorf("want one regressed row and two ok rows, each on its own line:\n%s", out.String())
	}
}

// fold is where a document's runs become its verdict: the exact counts of
// every run and of the traced pass must agree, and each disagreement is one
// failed operation that error_rate shows.
func TestFoldHoldsExactCountsTogether(t *testing.T) {
	run := func(events float64) *runResult {
		return &runResult{
			Metrics: map[string]float64{"mockup_wall_s": 14}, LatencyMS: []float64{30, 31},
			Exact: map[string]float64{"sim.events": events}, Attempted: 10,
		}
	}
	traced := func(events float64) *tracedResult {
		return &tracedResult{Layer: map[string]float64{}, ColdExact: map[string]float64{"sim.events": events}, Attempted: 5}
	}
	w := workloads[0]

	e := fold(w, []*runResult{run(100), run(100), run(100)}, traced(100))
	if e.Failed != 0 || e.EndToEnd["error_rate"].Median != 0 || e.EndToEnd["mockup_wall_s"].N != 3 {
		t.Errorf("agreeing runs: failed %d, entry %+v", e.Failed, e.EndToEnd)
	}
	if _, ok := e.EndToEnd["rehearse_p90_ms"]; ok {
		t.Error("p90 reported from six latencies")
	}
	if !e.PerLayer["sim.events"].Exact || e.PerLayer["trie.lookup_ns"].Exact {
		t.Error("exact flag does not follow the metric table")
	}

	e = fold(w, []*runResult{run(100), run(101), run(100)}, traced(99))
	if e.Failed != 2 || len(e.Violations) != 2 || e.EndToEnd["error_rate"].Median == 0 {
		t.Errorf("one run and the traced pass disagree: failed %d, violations %v", e.Failed, e.Violations)
	}
}

// BENCHMARK.json repeats the tables in metrics.go and run.go for the driver.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in run.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s", i, doc.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the driver allows 200", w.name, len(w.why))
		}
	}
	var driver []metricDef
	for _, def := range endToEnd {
		if def.DriverBound > 0 {
			driver = append(driver, def)
		}
	}
	if len(doc.EndToEnd) != len(driver) {
		t.Fatalf("%d end_to_end metrics, want %d", len(doc.EndToEnd), len(driver))
	}
	sawSetup := false
	for i, def := range driver {
		got := doc.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || math.Abs(got.Bound-def.DriverBound) > 1e-9 {
			t.Errorf("end_to_end %d: %+v, want %+v", i, got, def)
		}
		if def.DriverBound > 0.25 {
			t.Errorf("%s: bound %v above the 0.25 the driver allows", def.Name, def.DriverBound)
		}
		sawSetup = sawSetup || def.Name == "setup_s"
	}
	if !sawSetup {
		t.Error("no setup_s among the driver's end-to-end metrics")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics, want %d (at most 128)", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, def := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer %d: %+v, want %+v", i, got, def)
		}
		if seen[def.Name] {
			t.Errorf("%s listed twice", def.Name)
		}
		seen[def.Name] = true
	}
}
