package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/partition"
	"graphsys/internal/quegel"
	"graphsys/internal/serve"
	"graphsys/internal/storage"
)

// Fixed shape of every workload; only the sizes below change between the
// real run and the probe/smoke sizes.
const (
	workers = 2 // = nproc on the sandbox; every engine runs at this width

	prDegree     = 16 // R-MAT edge factor of the PageRank graph
	prIters      = 8  // PageRank iterations per job (9 supersteps)
	prBudgetFrac = 0.15

	taskClasses    = 8
	taskNoiseDims  = 24
	taskTrainFrac  = 0.3
	gnnHidden      = 64
	gnnBatchSize   = 64
	gnnRounds      = 2 // TrainSync rounds per job (TimeBudget at unit worker speed)
	gnnEpochs      = 2 // TrainDistGNN epochs per job
	gnnBudgetFrac  = 0.05
	serveDegree    = 8
	serveBatch     = 8  // closed-loop window and Options.Batch
	serveOpenRate  = 30 // open-loop arrivals per second, never retuned (README, "Open loop")
	serveOpenShare = 0.6
	serveSlices    = 3 // closed/open alternations per run
)

var gnnFanouts = []int{10, 10}

// sizes are the knobs that differ between the measured run and the small
// inputs used for idle-layer probes and the smoke test.
type sizes struct {
	prScale       int // R-MAT scale of the PageRank graph
	prBlockBytes  int // 0 = storage default (64 KiB)
	taskN         int // vertices of the community task
	gnnBlockBytes int
	serveScale    int // R-MAT scale of the query graph
	burstsPerJob  int // closed-loop bursts of serveBatch queries per job
	openQueries   int // open-loop arrivals in a -trace run or a probe
	minJobs       int // timed jobs per run, whatever -seconds says
	setupReps     int // set-ups per run; setup_s is their median
	traceJobs     int // traced (and untraced) jobs in a -trace run
}

var fullSizes = sizes{
	prScale: 16, taskN: 65536, gnnBlockBytes: 16 << 10, serveScale: 13,
	burstsPerJob: 10, openQueries: 150, minJobs: 9, setupReps: 3, traceJobs: 3,
}

// tinySizes serve two purposes: the smoke test runs every workload on them,
// and a -trace run measures on them the layers its workload leaves idle.
var tinySizes = sizes{
	prScale: 9, prBlockBytes: 2 << 10, taskN: 2048, gnnBlockBytes: 1 << 10, serveScale: 9,
	burstsPerJob: 2, openQueries: 6, minJobs: 2, setupReps: 1, traceJobs: 1,
}

// diskGraph is a block file written from an in-memory graph plus a cached
// provider opened over it. The provider is caller-owned and reused across
// jobs; close releases it and removes the file.
type diskGraph struct {
	info      *storage.Info
	prov      *storage.CachedProvider
	budget    int64
	policy    storage.EvictPolicy
	writeTime time.Duration
}

// cacheBudget is the provider's total budget: the resident part off the top
// plus frac of the raw CSR for decoded blocks. On probe-size graphs that
// share cannot hold one block per worker, so it is raised to the minimum
// OpenCached accepts; at the measured sizes the fraction always wins.
func cacheBudget(info *storage.Info, frac float64) int64 {
	cache := int64(frac * float64(info.RawCSRBytes))
	if floor := int64(workers) * info.MaxDecodedBytes; cache < floor {
		cache = floor
	}
	return info.ResidentBytes + cache
}

func openDisk(tr *tracer, path string, g *graph.Graph, blockBytes int, frac float64, pol storage.EvictPolicy) (*diskGraph, error) {
	d := &diskGraph{policy: pol}
	var err error
	d.writeTime = tr.do("storage", "write", func() {
		d.info, err = storage.Write(path, g, storage.Options{BlockBytes: blockBytes})
	})
	if err != nil {
		return nil, fmt.Errorf("write block file: %w", err)
	}
	d.budget = cacheBudget(d.info, frac)
	tr.do("storage", "open", func() {
		d.prov, err = storage.OpenCached(path, d.budget, workers, pol)
	})
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("open block file: %w", err)
	}
	return d, nil
}

func (d *diskGraph) close() error {
	if d == nil {
		return nil
	}
	err := d.prov.Close()
	if rmErr := os.Remove(d.info.Path); err == nil {
		err = rmErr
	}
	return err
}

// prFixture is what the PageRank workloads run on: the R-MAT graph, and for
// pr_disk the block file and provider over it.
type prFixture struct {
	g       *graph.Graph
	disk    *diskGraph // nil for the in-memory workload
	genTime time.Duration
}

func buildPR(tr *tracer, sz sizes, seed int64, path string, disk bool) (*prFixture, error) {
	f := &prFixture{}
	f.genTime = tr.do("gen", "rmat", func() { f.g = gen.RMAT(sz.prScale, prDegree, seed) })
	if disk {
		var err error
		if f.disk, err = openDisk(tr, path, f.g, sz.prBlockBytes, prBudgetFrac, storage.MRU); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *prFixture) close() error {
	if f == nil {
		return nil
	}
	return f.disk.close()
}

// gnnFixture is what the GNN workloads run on: the community task, for
// gnn_full the Metis partition, for gnn_disk the block file and provider.
type gnnFixture struct {
	task     *gnn.Task
	part     *partition.Partition // nil unless asked for
	disk     *diskGraph           // nil unless asked for
	genTime  time.Duration
	partTime time.Duration
}

func buildGNN(tr *tracer, sz sizes, seed int64, path string, part, disk bool) (*gnnFixture, error) {
	f := &gnnFixture{}
	f.genTime = tr.do("gen", "community_task", func() {
		f.task = gnn.SyntheticCommunityTask(sz.taskN, taskClasses, taskNoiseDims, taskTrainFrac, seed)
	})
	if part {
		// computed here so TrainDistGNN does not run Metis inside the timer
		f.partTime = tr.do("partition", "metis", func() { f.part = partition.Metis(f.task.G, workers) })
	}
	if disk {
		var err error
		if f.disk, err = openDisk(tr, path, f.task.G, sz.gnnBlockBytes, gnnBudgetFrac, storage.LRU); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *gnnFixture) close() error {
	if f == nil {
		return nil
	}
	return f.disk.close()
}

// serveFixture is the live query engine and the graph it serves.
type serveFixture struct {
	g       *graph.Graph
	eng     *quegel.Engine
	genTime time.Duration
}

func buildServe(tr *tracer, sz sizes, seed int64) (*serveFixture, error) {
	f := &serveFixture{}
	f.genTime = tr.do("gen", "rmat", func() { f.g = gen.RMAT(sz.serveScale, serveDegree, seed) })
	var err error
	tr.do("quegel", "new_engine", func() {
		f.eng, err = quegel.NewEngine(f.g, serve.Options{Workers: workers, Batch: serveBatch, Policy: serve.FIFO})
	})
	if err != nil {
		return nil, fmt.Errorf("start query engine: %w", err)
	}
	return f, nil
}

func (f *serveFixture) close() error {
	if f == nil || f.eng == nil {
		return nil
	}
	err := f.eng.Close()
	f.eng = nil
	return err
}

// probes are the small fixtures a -trace run measures idle layers on. Each
// is built on first use and lives until the run ends. Their build spans are
// not recorded: they are not part of the workload.
type probes struct {
	seed  int64
	dir   string
	pr    *prFixture
	gnn   *gnnFixture
	serve *serveFixture
}

func (p *probes) prDisk() (*prFixture, error) {
	if p.pr == nil {
		f, err := buildPR(nil, tinySizes, p.seed, filepath.Join(p.dir, "probe-pr.gsb"), true)
		if err != nil {
			return nil, err
		}
		p.pr = f
	}
	return p.pr, nil
}

func (p *probes) gnnAll() (*gnnFixture, error) {
	if p.gnn == nil {
		f, err := buildGNN(nil, tinySizes, p.seed, filepath.Join(p.dir, "probe-gnn.gsb"), true, true)
		if err != nil {
			return nil, err
		}
		p.gnn = f
	}
	return p.gnn, nil
}

func (p *probes) serving() (*serveFixture, error) {
	if p.serve == nil {
		f, err := buildServe(nil, tinySizes, p.seed)
		if err != nil {
			return nil, err
		}
		p.serve = f
	}
	return p.serve, nil
}

func (p *probes) close() {
	p.pr.close()
	p.gnn.close()
	p.serve.close()
}
