package tthinker

import (
	"slices"
	"sort"
	"sync/atomic"

	"graphsys/internal/graph"
)

// CliqueTask is a Bron–Kerbosch search-tree node: R is the current clique,
// P the candidates, X the excluded vertices. One root task per vertex under
// the degeneracy ordering keeps tasks balanced and the candidate sets small,
// the standard G-thinker decomposition for clique mining.
type CliqueTask struct {
	R, P, X []graph.V
}

// CliqueResult is the mergeable result of clique mining. Every clique is a
// sorted vertex list, and the result does not depend on the schedule:
// Largest is the lexicographically least of the largest cliques, and
// Cliques is sorted lexicographically.
type CliqueResult struct {
	Count   int64
	Largest []graph.V
	Cliques [][]graph.V // populated only when collecting
}

// mergeCliqueResults keeps the larger clique, and on a size tie the
// lexicographically least, so the merge is commutative. Cliques is sorted
// once when the run ends.
func mergeCliqueResults(a, b CliqueResult) CliqueResult {
	a.Count += b.Count
	if len(b.Largest) > len(a.Largest) || (len(b.Largest) == len(a.Largest) && lessVSlice(b.Largest, a.Largest)) {
		a.Largest = b.Largest
	}
	a.Cliques = append(a.Cliques, b.Cliques...)
	return a
}

// sortedClique returns a sorted copy of r.
func sortedClique(r []graph.V) []graph.V {
	c := append([]graph.V(nil), r...)
	slices.Sort(c)
	return c
}

// emitClique emits the maximal clique r as a sorted list.
func emitClique(ctx *Ctx[CliqueTask, CliqueResult], r []graph.V, collect bool) {
	res := CliqueResult{Count: 1, Largest: sortedClique(r)}
	if collect {
		res.Cliques = [][]graph.V{append([]graph.V(nil), res.Largest...)}
	}
	ctx.Emit(res)
}

// cliqueRootTasks builds one task per vertex using the degeneracy order:
// P = later neighbors, X = earlier neighbors.
func cliqueRootTasks(g *graph.Graph) []CliqueTask {
	order, _ := graph.DegeneracyOrder(g)
	return cliqueRootTasksOrdered(g, order)
}

// cliqueRootTasksNatural uses raw vertex-id order — the ablation baseline
// showing why degeneracy ordering matters (larger candidate sets, deeper
// search trees).
func cliqueRootTasksNatural(g *graph.Graph) []CliqueTask {
	order := make([]graph.V, g.NumVertices())
	for i := range order {
		order[i] = graph.V(i)
	}
	return cliqueRootTasksOrdered(g, order)
}

func cliqueRootTasksOrdered(g *graph.Graph, order []graph.V) []CliqueTask {
	pos := make([]int, g.NumVertices())
	for i, v := range order {
		pos[v] = i
	}
	tasks := make([]CliqueTask, 0, len(order))
	for _, v := range order {
		var p, x []graph.V
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				p = append(p, w)
			} else {
				x = append(x, w)
			}
		}
		tasks = append(tasks, CliqueTask{R: []graph.V{v}, P: p, X: x})
	}
	return tasks
}

// MaximalCliques enumerates all maximal cliques of g with task-parallel
// Bron–Kerbosch with pivoting. If collect is true the cliques themselves are
// returned (memory permitting); otherwise only the count and one largest
// clique are tracked.
func MaximalCliques(g *graph.Graph, collect bool, cfg Config) (CliqueResult, Stats) {
	return maximalCliques(g, cliqueRootTasks(g), bkPivot, collect, cfg)
}

// MaximalCliquesNaturalOrder is MaximalCliques with vertex-id root ordering
// instead of the degeneracy ordering — the ablation baseline for
// BenchmarkAblation_Ordering.
func MaximalCliquesNaturalOrder(g *graph.Graph, collect bool, cfg Config) (CliqueResult, Stats) {
	return maximalCliques(g, cliqueRootTasksNatural(g), bkPivot, collect, cfg)
}

// MaximalCliquesNoPivot runs Bron–Kerbosch WITHOUT pivot selection — the
// ablation baseline showing why every serious clique miner pivots: the
// search tree visits every clique (not just maximal ones).
func MaximalCliquesNoPivot(g *graph.Graph, collect bool, cfg Config) (CliqueResult, Stats) {
	return maximalCliques(g, cliqueRootTasks(g), bkPlain, collect, cfg)
}

// maximalCliques runs the Bron–Kerbosch variant bk over roots and sorts
// Cliques.
func maximalCliques(g *graph.Graph, roots []CliqueTask, bk func(*graph.Graph, *Ctx[CliqueTask, CliqueResult], []graph.V, []graph.V, []graph.V, bool), collect bool, cfg Config) (CliqueResult, Stats) {
	process := func(ctx *Ctx[CliqueTask, CliqueResult], t CliqueTask) {
		bk(g, ctx, t.R, t.P, t.X, collect)
	}
	res, stats := Run(roots, process, mergeCliqueResults, cfg)
	sort.Slice(res.Cliques, func(i, j int) bool { return lessVSlice(res.Cliques[i], res.Cliques[j]) })
	return res, stats
}

// bkPlain is Bron–Kerbosch without pivoting.
func bkPlain(g *graph.Graph, ctx *Ctx[CliqueTask, CliqueResult], r, p, x []graph.V, collect bool) {
	ctx.Tick()
	if len(p) == 0 && len(x) == 0 {
		emitClique(ctx, r, collect)
		return
	}
	p2 := append([]graph.V(nil), p...)
	x2 := append([]graph.V(nil), x...)
	for len(p2) > 0 {
		v := p2[len(p2)-1]
		p2 = p2[:len(p2)-1]
		nr := append(append([]graph.V(nil), r...), v)
		np := intersectAdj(g, v, p2)
		nx := intersectAdj(g, v, x2)
		if ctx.ShouldSplit() {
			ctx.Splitted()
			ctx.Spawn(CliqueTask{R: nr, P: np, X: nx})
		} else {
			bkPlain(g, ctx, nr, np, nx, collect)
		}
		x2 = append(x2, v)
	}
}

// bkPivot is Bron–Kerbosch with pivoting. When the task budget is exhausted
// it spawns the remaining branches as tasks instead of recursing (G-thinker's
// split of a long-running task).
func bkPivot(g *graph.Graph, ctx *Ctx[CliqueTask, CliqueResult], r, p, x []graph.V, collect bool) {
	ctx.Tick()
	if len(p) == 0 && len(x) == 0 {
		emitClique(ctx, r, collect)
		return
	}
	if len(p) == 0 {
		return
	}
	// pivot: vertex of P∪X with most neighbors in P
	pivot, best := graph.V(-1), -1
	for _, cand := range [][]graph.V{p, x} {
		for _, u := range cand {
			c := countIn(g, u, p)
			if c > best {
				pivot, best = u, c
			}
		}
	}
	// branch on P \ N(pivot)
	var branch []graph.V
	for _, v := range p {
		if !g.HasEdge(pivot, v) {
			branch = append(branch, v)
		}
	}
	p2 := append([]graph.V(nil), p...)
	x2 := append([]graph.V(nil), x...)
	for _, v := range branch {
		nr := append(append([]graph.V(nil), r...), v)
		np := intersectAdj(g, v, p2)
		nx := intersectAdj(g, v, x2)
		if ctx.ShouldSplit() {
			ctx.Splitted()
			ctx.Spawn(CliqueTask{R: nr, P: np, X: nx})
		} else {
			bkPivot(g, ctx, nr, np, nx, collect)
		}
		p2 = remove(p2, v)
		x2 = append(x2, v)
	}
}

func countIn(g *graph.Graph, u graph.V, set []graph.V) int {
	c := 0
	for _, v := range set {
		if g.HasEdge(u, v) {
			c++
		}
	}
	return c
}

func intersectAdj(g *graph.Graph, u graph.V, set []graph.V) []graph.V {
	var out []graph.V
	for _, v := range set {
		if g.HasEdge(u, v) {
			out = append(out, v)
		}
	}
	return out
}

func remove(set []graph.V, v graph.V) []graph.V {
	for i, x := range set {
		if x == v {
			return append(set[:i], set[i+1:]...)
		}
	}
	return set
}

// MaximumClique finds the maximum clique using task-parallel branch-and-bound
// with a globally shared incumbent size (the shared bound is how G-thinker's
// distributed B&B prunes across workers). Among maximum cliques it returns
// the lexicographically least sorted list, so it equals
// MaximalCliques(g, ...).Largest whatever the schedule.
func MaximumClique(g *graph.Graph, cfg Config) ([]graph.V, Stats) {
	var best atomic.Int64
	type res = CliqueResult
	process := func(ctx *Ctx[CliqueTask, res], t CliqueTask) {
		maxCliqueBB(g, ctx, &best, t.R, t.P)
	}
	roots := cliqueRootTasks(g)
	// larger candidate sets first, to improve the incumbent early: the task
	// pool pops its stack LIFO, so they go last
	sort.Slice(roots, func(i, j int) bool { return len(roots[i].P) < len(roots[j].P) })
	out, stats := Run(roots, process, mergeCliqueResults, cfg)
	return out.Largest, stats
}

func maxCliqueBB(g *graph.Graph, ctx *Ctx[CliqueTask, CliqueResult], best *atomic.Int64, r, p []graph.V) {
	ctx.Tick()
	// ties with the incumbent are emitted too, and only strictly smaller
	// bounds are pruned, so every maximum clique reaches the merge and the
	// least one wins
	if int64(len(r)) >= best.Load() {
		for {
			cur := best.Load()
			if int64(len(r)) <= cur || best.CompareAndSwap(cur, int64(len(r))) {
				break
			}
		}
		ctx.Emit(CliqueResult{Largest: sortedClique(r)})
	}
	if int64(len(r)+len(p)) < best.Load() {
		return // bound: cannot reach incumbent
	}
	p2 := append([]graph.V(nil), p...)
	for len(p2) > 0 {
		if int64(len(r)+len(p2)) < best.Load() {
			return
		}
		v := p2[len(p2)-1]
		p2 = p2[:len(p2)-1]
		np := intersectAdj(g, v, p2)
		nr := append(append([]graph.V(nil), r...), v)
		if ctx.ShouldSplit() {
			ctx.Splitted()
			ctx.Spawn(CliqueTask{R: nr, P: np})
		} else {
			maxCliqueBB(g, ctx, best, nr, np)
		}
	}
}
