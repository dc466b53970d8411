package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesTables: BENCHMARK.json and the program's metric tables and
// workload list say the same thing.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	ws := newWorkloads(base{})
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		name(s.Workloads[i].Name)
		if s.Workloads[i].Name != w.name() || s.Workloads[i].Why != w.why() {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, s.Workloads[i].Name, s.Workloads[i].Why, w.name(), w.why())
		}
		if len(w.why()) > 200 || strings.Contains(w.why(), "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name())
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.Name)
		if got := s.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit or bound", d.Name)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		if got := s.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("per-layer metric %s: bad unit or direction", d.Name)
		}
	}
}

// smoke runs one pass of the named workloads at the probe sizes.
func smoke(t *testing.T, seed int64, trace bool, names ...string) map[string]*workloadReport {
	t.Helper()
	c := config{seed: seed, seconds: 0.01, sz: tinySizes, dir: t.TempDir()}
	out := map[string]*workloadReport{}
	for _, w := range pick(c, names) {
		var r *workloadReport
		var err error
		if trace {
			r, _, err = runTrace(c, w)
		} else {
			r, err = runEndToEnd(c, w)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s (trace %v): attempted %d, failed %d: %v", r.Name, trace, r.Attempted, r.Failed, r.Notes)
		}
		out[r.Name] = r
	}
	return out
}

// checkMetrics: every metric of the table is there once, with its unit and a
// finite value, and nothing else is.
func checkMetrics(t *testing.T, r *workloadReport, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", r.Name, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", r.Name, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", r.Name, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", r.Name, d.Name, v.Value)
		}
	}
}

// deterministic counters: functions of the inputs alone, so equal for one
// seed and different for another.
var counters = []string{
	"gen.arcs", "cluster.msgs_per_superstep", "cluster.bytes_per_superstep",
	"storage.misses_per_op", "storage.evictions_per_op", "storage.bytes_read_per_op",
	"gnn.sampled_vertices_per_batch",
}

func TestSmoke(t *testing.T) {
	all := workloadNames()
	e1, e2 := smoke(t, 1, false, all...), smoke(t, 1, false, all...)
	t1 := smoke(t, 1, true, all...)
	for _, name := range all {
		checkMetrics(t, e1[name], endToEnd)
		checkMetrics(t, t1[name], perLayer)
		for _, d := range endToEnd {
			if v := e1[name].Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v)
			}
		}
		line, err := e1[name].line()
		if err != nil {
			t.Fatal(err)
		}
		var parsed map[string]json.RawMessage
		if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
			t.Errorf("%s: result line %s: want exactly correct, attempted, failed, metrics", name, line)
		}

		a, b := e1[name].Metrics["alloc_mb_per_op"].Value, e2[name].Metrics["alloc_mb_per_op"].Value
		// serve_path's allocation depends on how each burst splits into engine
		// runs, which is the scheduler's choice; at probe sizes an op allocates
		// ~12 KB, so a goroutine stack more or less is a percent or two
		tol := 0.01
		if name == "serve_path" {
			tol = 0.10
		}
		if math.Abs(a-b) > tol*a+0.001 {
			t.Errorf("%s: alloc_mb_per_op %v then %v with one seed", name, a, b)
		}
		if t1[name].Metrics["harness.verify_ok"].Value != 1 {
			t.Errorf("%s: harness.verify_ok is not 1", name)
		}
	}

	// Every traced pass measures every layer, so two workloads — the two with
	// a provider of their own — cover every counter.
	own := []string{"pr_disk", "gnn_disk"}
	t2, t3 := smoke(t, 1, true, own...), smoke(t, 2, true, own...)
	for _, name := range own {
		differs := false
		for _, c := range counters {
			x, y, z := t1[name].Metrics[c].Value, t2[name].Metrics[c].Value, t3[name].Metrics[c].Value
			if x != y {
				t.Errorf("%s: counter %s = %v then %v with one seed", name, c, x, y)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Errorf("%s: no deterministic counter changed with the seed", name)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "gnndist", StartNs: 0, EndNs: 100e6},
		{ID: 2, Parent: 1, Layer: "gnn", StartNs: 10e6, EndNs: 40e6},
		{ID: 3, Parent: 1, Layer: "storage", StartNs: 40e6, EndNs: 90e6},
		{ID: 4, Parent: 3, Layer: "gnn", StartNs: 50e6, EndNs: 60e6},
	}
	self := layerSelfMs(spans)
	want := map[string]float64{"gnndist": 20, "gnn": 40, "storage": 40}
	for layer, ms := range want {
		if self[layer] != ms {
			t.Errorf("self time of %s = %v ms, want %v", layer, self[layer], ms)
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 100}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := median(xs[:4]); got != 3 {
		t.Errorf("median of four = %v, want 3", got)
	}
	s := summarize(xs, "ms")
	if s.N != 5 || s.Min != 1 || s.P10 != 1 || s.Median != 4 || s.MAD != 2 {
		t.Errorf("summarize = %+v", s)
	}
	if got := percentile(xs, 95); got != 100 {
		t.Errorf("p95 = %v, want 100", got)
	}
}
