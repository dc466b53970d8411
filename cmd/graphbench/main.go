// Command graphbench runs the paper-reproduction experiments and prints
// their tables. With no arguments it lists the experiments; pass experiment
// ids (or "all") to run them.
//
//	graphbench                   # list experiments
//	graphbench fig1 tab1-gpu     # run two experiments
//	graphbench all               # regenerate every table and claim
//	graphbench -check all        # render each experiment once and run its
//	                             # typed claims (internal/hypo) on that table
//	                             # instead of printing it
//	graphbench -trace out.json   # write an observability trace (one Pregel
//	                             # and one gnndist workload) to out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"graphsys/internal/cluster"
	"graphsys/internal/experiments"
	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/graph/gen"
	"graphsys/internal/hypo"
	"graphsys/internal/obs"
	"graphsys/internal/pregel"
	"graphsys/internal/storage"
	"graphsys/internal/tensor"
)

func main() {
	os.Exit(run())
}

// run is main's body with a normal return path, so the pprof writers
// installed by -cpuprofile/-mutexprofile always flush (os.Exit would skip
// their defers).
func run() int {
	traceOut := flag.String("trace", "", "write a JSON observability trace (traffic matrix, round series, worker skew) for one Pregel and one gnndist workload to this file")
	check := flag.Bool("check", false, "render each selected experiment once and run its typed claims on that table instead of printing it; non-zero exit on a panic or any refuted hypothesis")
	par := flag.Int("parallelism", 0, "goroutines for the tensor compute kernels (0 = GOMAXPROCS); results are bitwise identical at any setting")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	mutexProf := flag.String("mutexprofile", "", "write a mutex-contention profile to this file — the messaging path's lock behaviour under load")
	source := flag.String("source", "mem", "graph adjacency source: mem (in-memory CSR) or disk (engines spill each graph to a compressed block file and read it through a bounded block cache; results are byte-identical)")
	memBudget := flag.Int64("memory-budget", 0, "with -source disk: total adjacency memory budget in bytes (resident index/degrees + decoded-block cache; 0 = half the raw CSR per graph); a budget too small for even one block per worker is a typed storage.ErrBudget, never an OOM")
	blockBytes := flag.Int("block-bytes", 0, "with -source disk: target compressed block size in bytes (0 = storage default)")
	evict := flag.String("evict", "lru", "with -source disk: block-cache eviction policy, lru or mru (mru wins on cyclic full scans)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphbench [-check] [-trace out.json] [-parallelism n] [-source mem|disk] [-memory-budget bytes] [-block-bytes n] [-evict lru|mru] [-cpuprofile cpu.out] [-mutexprofile mutex.out] [all | <experiment-id>...]\n\n")
		list()
	}
	flag.Parse()
	tensor.SetParallelism(*par)
	switch *source {
	case "mem":
		// default: nothing to install
	case "disk":
		pol, err := storage.ParseEvictPolicy(*evict)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: %v\n", err)
			return 1
		}
		storage.SetDefault(&storage.Policy{
			Disk:        true,
			BudgetBytes: *memBudget,
			BlockBytes:  *blockBytes,
			Evict:       pol,
		})
		defer storage.SetDefault(nil)
	default:
		fmt.Fprintf(os.Stderr, "graphbench: -source must be mem or disk, got %q\n", *source)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "graphbench: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "graphbench: %v\n", err)
			}
		}()
	}
	args := flag.Args()
	if *traceOut != "" {
		if err := writeTrace(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: %v\n", err)
			return 1
		}
		if len(args) == 0 {
			return 0
		}
	}
	if len(args) == 0 {
		list()
		return 0
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	if *check {
		return runChecks(ids)
	}
	for _, id := range ids {
		exp, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "graphbench: unknown experiment %q (run with no args to list)\n", id)
			return 1
		}
		start := time.Now()
		table, err := runExperiment(exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: experiment %s failed: %v\n", id, err)
			return 1
		}
		table.Fprint(os.Stdout)
		// timing goes to stderr: stdout is the deterministic artifact
		// (results.txt, EXPERIMENTS.md) and wall time is a host property
		fmt.Fprintf(os.Stderr, "  [%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runChecks renders each selected experiment once and evaluates its
// registered typed claims on that table. An experiment without claims is
// still rendered, so a panic inside it fails the run.
func runChecks(ids []string) int {
	failed := 0
	for _, id := range ids {
		exp, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "graphbench: unknown experiment %q (run with no args to list)\n", id)
			return 1
		}
		table, err := runExperiment(exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: experiment %s failed: %v\n", id, err)
			return 1
		}
		if exp.Claims == nil {
			fmt.Printf("hypothesis run %q: rendered; no claims registered\n", exp.ID)
			continue
		}
		rep, err := runHypotheses(exp.ID, exp.Claims(table))
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: checking %s panicked: %v\n", id, err)
			return 1
		}
		rep.Fprint(os.Stdout)
		if !rep.Pass() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "graphbench: %d of %d experiment hypothesis sets FAILED\n", failed, len(ids))
		return 1
	}
	fmt.Printf("graphbench: all %d experiments render and pass their claims\n", len(ids))
	return 0
}

// runHypotheses converts a panic inside an experiment's claims (e.g. a
// cross-validation assertion) into an error, like runExperiment does.
func runHypotheses(name string, hs []hypo.Hypothesis) (rep *hypo.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return hypo.Run(name, hs), nil
}

// runExperiment runs one experiment, converting a panic inside it (the
// engines return errors from their entry points; the experiment helpers
// re-panic on the impossible ones) into an error so main can report it on
// stderr with a non-zero exit instead of a half-printed table and a stack.
func runExperiment(exp experiments.Experiment) (t *experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return exp.Run(), nil
}

// writeTrace runs one Pregel workload (PageRank on an R-MAT graph over a
// 2-host NVLink-style topology) and one gnndist workload (synchronous
// training with a deliberate straggler) with the observability layer on, and
// writes both traces as one JSON document.
func writeTrace(path string) error {
	g := gen.RMAT(11, 8, 1)
	_, pr, err := pregel.PageRank(g, 10, pregel.Config{
		Workers: 8,
		RunOptions: cluster.RunOptions{
			Trace: true,
			Topology: func(net *cluster.Network) {
				cluster.RingTopology(net, 4, 0.05) // 2 hosts × 4 workers, fast intra-host links
			},
		},
	})
	if err != nil {
		return err
	}
	pr.Trace.Workload = "pregel/pagerank-rmat"

	task := gnn.SyntheticCommunityTask(300, 3, 2, 0.3, 17)
	dres, err := gnndist.TrainSync(task, gnndist.TrainerConfig{
		Workers:     4,
		TimeBudget:  20,
		WorkerSpeed: []float64{1, 1, 1, 2}, // worker 3 is a 2× straggler
		RunOptions:  cluster.RunOptions{Trace: true},
	})
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	traces := []*obs.Trace{pr.Trace, dres.Trace}
	if err := obs.WriteAll(f, traces); err != nil {
		return err
	}
	for _, t := range traces {
		fmt.Printf("  trace %s\n", t.Summary())
	}
	fmt.Printf("graphbench: wrote %d traces to %s\n", len(traces), path)
	return nil
}

func list() {
	fmt.Println("experiments (paper artifact → id):")
	for _, e := range experiments.All() {
		fmt.Printf("  %-16s %s\n", e.ID, e.Title)
	}
}
