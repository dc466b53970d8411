package main

import (
	"fmt"
	"runtime"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // how long the timed phase of one workload measures
	sz      sizes
	dir     string // scratch directory for block files
}

// workloadReport is one workload's entry in report.json, and the source of
// the result line the contract asks for.
type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]value  `json:"metrics"`
	Timings   map[string]timing `json:"timings"`
	Notes     []string          `json:"notes,omitempty"`
	WallS     float64           `json:"wall_s"`
}

var calibSink uint64

// calibrate is a fixed pure-CPU loop run next to every job. Its time tells a
// slow machine from slow code: it touches no memory and none of the repo.
func calibrate() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(t))
}

// jobRun is the timed phase: identical jobs of fixed work, one after another.
type jobRun struct {
	results    []jobResult
	calibMs    []float64
	allocBytes uint64 // TotalAlloc over the jobs, collections and calibration excluded
}

// timedJobs adds jobs to run until the budget is used up and at least minJobs
// have been added. Before each job, outside its timer, the heap is collected
// so no job pays for its predecessor's garbage.
func timedJobs(run *jobRun, budget time.Duration, minJobs int, w workload) error {
	var mem runtime.MemStats
	start := time.Now()
	var last time.Duration
	for n := 0; n < minJobs || time.Since(start)+last < budget; n++ {
		runtime.GC()
		run.calibMs = append(run.calibMs, calibrate())
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		r, err := w.job(nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&mem)
		run.allocBytes += mem.TotalAlloc - before
		w.check(&r)
		r.forget()
		run.results = append(run.results, r)
		last = r.wall
	}
	return nil
}

// runEndToEnd is the untraced pass: set-up (several times, for a median),
// timed jobs, then verification. Every end-to-end metric comes from here.
func runEndToEnd(c config, w workload) (rep *workloadReport, err error) {
	begin := time.Now()
	var setupS []float64
	for i := 0; i < c.sz.setupReps; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name(), err)
			}
		}
		runtime.GC()
		t := time.Now()
		if err := w.setup(nil, i); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		if _, err := w.job(nil); err != nil { // the one warm-up job
			return nil, fmt.Errorf("%s: warm-up: %w", w.name(), err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			rep, err = nil, fmt.Errorf("%s: close: %w", w.name(), cerr)
		}
	}()

	// A workload with an open-loop phase measures in slices — closed, open,
	// closed, open, ... — so that both kinds of sample span the whole window
	// and neither sits entirely inside one regime of the host.
	budget, slices := c.seconds, 1
	ol, hasOpen := w.(openLooper)
	if hasOpen {
		budget, slices = budget*(1-serveOpenShare), serveSlices
	}
	openN := int(c.seconds * serveOpenShare * serveOpenRate)
	if openN < c.sz.openQueries {
		openN = c.sz.openQueries
	}
	run := &jobRun{}
	var open openResult
	for i := 0; i < slices; i++ {
		if err := timedJobs(run, time.Duration(budget/float64(slices)*float64(time.Second)), (c.sz.minJobs+slices-1)/slices, w); err != nil {
			return nil, fmt.Errorf("%s: job: %w", w.name(), err)
		}
		if hasOpen {
			part := ol.openLoop(nil, (openN+slices-1)/slices)
			w.check(&part.jobResult)
			open.add(part)
		}
	}
	samples, perJob := samplesMs(run.results)
	jobT := summarize(samples, "ms")
	timings := map[string]timing{
		"job_ms":   jobT,
		"setup_s":  summarize(setupS, "s"),
		"calib_ms": summarize(run.calibMs, "ms"),
	}
	// The job time reported is the fast decile, not the median: the shared
	// host only ever slows a job, in regimes that last longer than a run, so
	// the median tracks the host and the low decile tracks the code (README,
	// "Noise"). Median, min and MAD are in report.json beside it.
	ops := float64(w.ops()) / float64(perJob) // per timed sample
	m := newMetricSet(endToEnd)
	m.set("throughput", ops/(jobT.P10/1e3))
	m.set("alloc_mb_per_op", float64(run.allocBytes)/1e6/(ops*float64(jobT.N)))
	m.set("setup_s", timings["setup_s"].Median)

	results := run.results
	latency := jobT.P10
	if hasOpen {
		timings["open_from_due_ms"] = summarize(open.fromDueMs, "ms")
		timings["open_gen_late_ms"] = summarize(open.lateMs, "ms")
		latency = timings["open_from_due_ms"].Median
		results = append(results, open.jobResult)
	}
	m.set("latency_ms", latency)

	// live heap with the workload's graph, provider and engine still referenced
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	m.set("heap_live_mb", float64(mem.HeapAlloc)/1e6)

	attempted, failed, notes := w.verify(results)
	values, err := m.complete()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	return &workloadReport{
		Name: w.name(), Why: w.why(), Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: values, Timings: timings, Notes: notes, WallS: time.Since(begin).Seconds(),
	}, nil
}

// runTrace is the traced pass: a few jobs with harness spans and the engines'
// own tracing on, interleaved with untraced ones so the overhead of tracing
// is measured, then the per-layer measurements. No end-to-end metric comes
// from here.
func runTrace(c config, w workload) (rep *workloadReport, tr *tracer, err error) {
	begin := time.Now()
	tr = newTracer(w.name())
	if err := w.setup(tr, 0); err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			rep, err = nil, fmt.Errorf("%s: close: %w", w.name(), cerr)
		}
	}()
	if _, err := w.job(nil); err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name(), err)
	}

	pb := &probes{seed: c.seed, dir: c.dir}
	defer pb.close()
	lc := &layerCtx{tr: tr, m: newMetricSet(perLayer), probes: pb, seed: c.seed}
	var calib []float64
	io0 := w.ioStats()
	for i := 0; i < c.sz.traceJobs; i++ {
		for _, t := range []*tracer{nil, tr} {
			runtime.GC()
			calib = append(calib, calibrate())
			r, err := w.job(t)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: job: %w", w.name(), err)
			}
			w.check(&r)
			if t == nil {
				lc.untraced = append(lc.untraced, r)
			} else {
				lc.traced = append(lc.traced, r)
			}
		}
	}
	lc.io = w.ioStats().Sub(io0)
	results := append(append([]jobResult(nil), lc.untraced...), lc.traced...)
	if ol, ok := w.(openLooper); ok {
		lc.open = ol.openLoop(tr, c.sz.openQueries)
		w.check(&lc.open.jobResult)
		results = append(results, lc.open.jobResult)
	}
	attempted, failed, notes := w.verify(results)

	if err := w.layers(lc); err != nil {
		return nil, nil, fmt.Errorf("%s: layers: %w", w.name(), err)
	}
	untraced := summarize(wallsMs(lc.untraced), "ms")
	traced := summarize(wallsMs(lc.traced), "ms")
	lc.m.set("harness.jobs", float64(lc.jobs()))
	lc.m.set("harness.job_mad_pct", untraced.madPct())
	lc.m.set("harness.job_min_ms", untraced.Min)
	lc.m.set("harness.calib_ms", median(calib))
	lc.m.set("harness.trace_overhead_pct", 100*(traced.Median-untraced.Median)/untraced.Median)
	lc.m.set("harness.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	ok := 0.0
	if failed == 0 {
		ok = 1
	}
	lc.m.set("harness.verify_ok", ok)
	values, err := lc.m.complete()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	return &workloadReport{
		Name: w.name(), Why: w.why(), Trace: true, Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: values, Notes: notes, WallS: time.Since(begin).Seconds(),
		Timings: map[string]timing{"job_ms": untraced, "traced_job_ms": traced, "calib_ms": summarize(calib, "ms")},
	}, tr, nil
}
