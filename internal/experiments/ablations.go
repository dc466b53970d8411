package experiments

import (
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/pregel"
	"graphsys/internal/tthinker"
)

func init() {
	register("abl-split", "Ablation: G-thinker budget-based task splitting on/off", AblationTaskSplit)
	register("abl-combiner", "Ablation: Pregel sender-side combiner on/off", AblationCombiner)
	register("abl-ordering", "Ablation: degeneracy vs natural vertex ordering for clique search", AblationOrdering)
}

// AblationTaskSplit shows what budget-based task splitting buys: it bounds
// the size of the largest indivisible task (MaxTaskTicks), which is the
// lower bound on makespan no task scheduler can beat. Without splitting, one
// dense root task dominates; with a budget, every task stays near the budget
// and the task pool can balance perfectly.
func AblationTaskSplit() *Table {
	t := &Table{ID: "abl-split", Title: "Task splitting on maximal cliques (dense ER(150, p=0.5))",
		Header: []string{"budget", "cliques", "tasks", "splits", "max task (ticks)", "total ticks", "parallelism bound"}}
	b := graph.NewBuilder(150, false)
	r := newDetRand(2)
	for u := 0; u < 150; u++ {
		for v := u + 1; v < 150; v++ {
			if r.float() < 0.5 {
				b.AddEdge(graph.V(u), graph.V(v))
			}
		}
	}
	g := b.Build()
	for _, budget := range []int64{0, 10000, 1000, 100} {
		res, stats := tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 8, Budget: budget})
		name := "off"
		if budget > 0 {
			name = itoa(budget)
		}
		bound := float64(stats.Ticks) / float64(stats.MaxTaskTicks)
		t.AddRow(name, res.Count, stats.Tasks, stats.Splits, stats.MaxTaskTicks, stats.Ticks,
			fmtF(bound)+"x")
	}
	t.Note("parallelism bound = total work / largest indivisible task; splitting raises it from a handful to the worker count and beyond")
	return t
}

// newDetRand is a tiny deterministic generator so the ablation does not
// depend on math/rand ordering.
type detRand struct{ s uint64 }

func newDetRand(seed uint64) *detRand { return &detRand{s: seed} }

func (d *detRand) float() float64 {
	d.s ^= d.s << 13
	d.s ^= d.s >> 7
	d.s ^= d.s << 17
	return float64(d.s%1_000_000) / 1_000_000
}

func fmtF(v float64) string {
	return itoa(int64(v*100)/100) + "." + itoa(int64(v*100)%100)
}

// AblationCombiner measures message reduction from Pregel combiners.
func AblationCombiner() *Table {
	t := &Table{ID: "abl-combiner", Title: "HashMin CC with and without a min-combiner",
		Header: []string{"graph", "combiner", "messages", "rounds"}}
	for _, n := range []int{1000, 4000} {
		g := gen.BarabasiAlbert(n, 6, int64(n))
		_, withRes := must3(pregel.HashMinCC(g, pregel.Config{Workers: 4}))
		prog := pregel.Program[int32, int32]{
			Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
			Compute: func(ctx *pregel.Context[int32], v graph.V, state *int32, msgs []int32) {
				min := *state
				if ctx.Superstep() == 0 {
					ctx.SendToNeighbors(v, min)
					ctx.VoteToHalt()
					return
				}
				for _, m := range msgs {
					if m < min {
						min = m
					}
				}
				if min < *state {
					*state = min
					ctx.SendToNeighbors(v, min)
				}
				ctx.VoteToHalt()
			},
		}
		noRes := must2(pregel.Run(g, prog, pregel.Config{Workers: 4}))
		t.AddRow(itoa(int64(n)), "yes", withRes.Net.Messages, withRes.Supersteps)
		t.AddRow(itoa(int64(n)), "no", noRes.Net.Messages, noRes.Supersteps)
	}
	t.Note("sender-side combining collapses per-destination messages (Pregel+'s message reduction)")
	return t
}

// AblationOrdering compares the clique-search design choices: pivoting
// on/off, and degeneracy vs natural root ordering.
func AblationOrdering() *Table {
	t := &Table{ID: "abl-ordering", Title: "Clique-search design choices (BA(500,12))",
		Header: []string{"variant", "cliques", "search nodes (ticks)", "max task"}}
	g := gen.BarabasiAlbert(500, 12, 1)
	type variant struct {
		name string
		run  func() (tthinker.CliqueResult, tthinker.Stats)
	}
	cfg := tthinker.Config{Workers: 4}
	for _, v := range []variant{
		{"BK + pivot + degeneracy", func() (tthinker.CliqueResult, tthinker.Stats) {
			return tthinker.MaximalCliques(g, false, cfg)
		}},
		{"BK + pivot + natural id", func() (tthinker.CliqueResult, tthinker.Stats) {
			return tthinker.MaximalCliquesNaturalOrder(g, false, cfg)
		}},
		{"BK WITHOUT pivot", func() (tthinker.CliqueResult, tthinker.Stats) {
			return tthinker.MaximalCliquesNoPivot(g, false, cfg)
		}},
	} {
		res, stats := v.run()
		t.AddRow(v.name, res.Count, stats.Ticks, stats.MaxTaskTicks)
	}
	t.Note("pivoting is the decisive choice (it prunes non-maximal branches); ordering mainly bounds root candidate sets")
	return t
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
