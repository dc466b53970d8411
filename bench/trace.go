package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer's public functions.
// Spans nest by the harness's own call structure: Parent is the span that
// was open when this one began (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory for the -trace pass. A nil *tracer records
// nothing, which is how the end-to-end pass runs the same code untraced.
// Every span is opened and closed on the harness goroutine, so a stack of
// open ids is all the parent tracking needs.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs f inside a span and returns f's wall time. It times f whether or
// not tr is nil, so callers use one code path for both passes.
func (tr *tracer) do(layer, name string, f func()) time.Duration {
	if tr == nil {
		t := time.Now()
		f()
		return time.Since(t)
	}
	id := len(tr.spans) + 1
	parent := 0
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Workload: tr.workload, Layer: layer, Name: name})
	tr.open = append(tr.open, id)
	start := time.Now()
	f()
	end := time.Now()
	tr.open = tr.open[:len(tr.open)-1]
	tr.spans[id-1].StartNs = start.Sub(tr.t0).Nanoseconds()
	tr.spans[id-1].EndNs = end.Sub(tr.t0).Nanoseconds()
	return end.Sub(start)
}

// layerSelfMs sums, per layer, each span's duration minus the part its child
// spans cover.
func layerSelfMs(spans []span) map[string]float64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Layer] += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e6
	}
	return self
}

type traceFile struct {
	Spans       []span                        `json:"spans"`
	LayerSelfMs map[string]map[string]float64 `json:"layer_self_ms"` // workload → layer → ms
}

// writeTrace writes every recorded span, plus the per-layer self times
// derived from them, to <dir>/trace.json.
func writeTrace(dir string, tracers []*tracer) error {
	out := traceFile{LayerSelfMs: map[string]map[string]float64{}}
	for _, tr := range tracers {
		out.Spans = append(out.Spans, tr.spans...)
		out.LayerSelfMs[tr.workload] = layerSelfMs(tr.spans)
	}
	return writeJSON(filepath.Join(dir, "trace.json"), out)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
