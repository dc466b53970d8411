// Command bench is the repository's one benchmark: five fixed workloads
// driven through the public entry points, five end-to-end metrics on each,
// and — in a separate traced pass — per-layer metrics that attribute the
// whole to its parts. BENCHMARK.json at the repository root describes it;
// README.md in this directory explains every choice.
//
//	bash bench/run.sh                                        # every workload, end to end
//	bash bench/run.sh -workload pr_mem -seed 7 -seconds 10   # one workload; last stdout line is its JSON result
//	bash bench/run.sh -workload gnn_disk -trace 1            # the per-layer pass; writes bench/out/trace.json
//	bash bench/run.sh -selfcheck                             # two end-to-end passes, compared within the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// fingerprint identifies the machine and build a report came from.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func environment() fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), Commit: "unknown",
	}
	if fp.GOGC == "" {
		fp.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

type report struct {
	Env       fingerprint       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *workloadReport) line() ([]byte, error) {
	return json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
}

func printReport(w io.Writer, r *workloadReport) {
	pass := "end to end"
	if r.Trace {
		pass = "per layer (traced pass)"
	}
	fmt.Fprintf(w, "\n== %s — %s — %.1f s\n   %s\n", r.Name, pass, r.WallS, r.Why)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "   %-34s %16.6g %s\n", name, v.Value, v.Unit)
	}
	tn := make([]string, 0, len(r.Timings))
	for name := range r.Timings {
		tn = append(tn, name)
	}
	sort.Strings(tn)
	for _, name := range tn {
		t := r.Timings[name]
		fmt.Fprintf(w, "   [%s: n=%d min=%.4g p10=%.4g median=%.4g mad=%.4g %s]\n", name, t.N, t.Min, t.P10, t.Median, t.MAD, t.Unit)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   VERIFY: %s\n", n)
	}
}

// selfcheck runs the end-to-end pass twice back to back and names every
// metric whose two values differ by more than its bound.
func selfcheck(stdout io.Writer, c config, names []string) (bool, error) {
	var passes [2]map[string]*workloadReport
	for p := range passes {
		passes[p] = map[string]*workloadReport{}
		for _, w := range pick(c, names) {
			r, err := runEndToEnd(c, w)
			if err != nil {
				return false, err
			}
			if !r.Correct {
				return false, fmt.Errorf("%s: verification failed: %v", r.Name, r.Notes)
			}
			passes[p][r.Name] = r
		}
	}
	ok := true
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := passes[0][name].Metrics[d.Name].Value, passes[1][name].Metrics[d.Name].Value
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			verdict := "ok"
			if hi > lo*(1+d.Bound) {
				verdict, ok = "DIFFERS BY MORE THAN ITS BOUND", false
			}
			fmt.Fprintf(stdout, "%-10s %-16s %14.6g %14.6g %s  %+6.2f%% of ±%.0f%%  %s\n",
				name, d.Name, a, b, d.Unit, 100*(b-a)/a, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

// pick returns fresh workloads for the given names, in table order.
func pick(c config, names []string) []workload {
	var out []workload
	for _, w := range newWorkloads(base{sz: c.sz, seed: c.seed, dir: c.dir}) {
		for _, n := range names {
			if n == w.name() {
				out = append(out, w)
			}
		}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range newWorkloads(base{}) {
		names = append(names, w.name())
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "seed of every generated input")
	name := fs.String("workload", "", "run one workload (default: all); its result is the last line of stdout, as JSON")
	seconds := fs.Float64("seconds", 15, "how long the timed phase of one workload measures")
	trace := fs.Int("trace", 0, "1 = the per-layer pass (traced jobs, layer drives, trace.json); 0 = the end-to-end pass")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for report.json, trace.json and scratch block files")
	check := fs.Bool("selfcheck", false, "run the end-to-end pass twice and fail if any metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	names := workloadNames()
	if *name != "" {
		known := false
		for _, n := range names {
			known = known || n == *name
		}
		if !known {
			fmt.Fprintf(stderr, "bench: unknown workload %q; have %v\n", *name, names)
			return 2
		}
		names = []string{*name}
	}
	env := environment()
	if env.NumCPU < workers || env.GOMAXPROCS < workers {
		fmt.Fprintf(stderr, "bench: WARNING: %d CPUs, GOMAXPROCS %d, but every engine runs %d workers: timings will not be comparable\n",
			env.NumCPU, env.GOMAXPROCS, workers)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c := config{seed: *seed, seconds: *seconds, sz: fullSizes, dir: dir}

	if *check {
		ok, err := selfcheck(stdout, c, names)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	rep := report{Env: env, Seed: *seed, Seconds: *seconds}
	var tracers []*tracer
	fmt.Fprintf(stdout, "bench: seed %d, %.3g s per workload, %+v\n", *seed, *seconds, env)
	status := 0
	for _, w := range pick(c, names) {
		var r *workloadReport
		var err error
		if *trace == 1 {
			var tr *tracer
			if r, tr, err = runTrace(c, w); err == nil {
				tracers = append(tracers, tr)
			}
		} else {
			r, err = runEndToEnd(c, w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printReport(stdout, r)
		rep.Workloads = append(rep.Workloads, r)
		if !r.Correct {
			status = 1
		}
	}
	if err := writeJSON(filepath.Join(*out, "report.json"), rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *trace == 1 {
		if err := writeTrace(*out, tracers); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *name != "" {
		line, err := rep.Workloads[0].line()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}

func main() {
	start := time.Now()
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	fmt.Fprintf(os.Stderr, "bench: done in %.1f s, exit %d\n", time.Since(start).Seconds(), code)
	os.Exit(code)
}
