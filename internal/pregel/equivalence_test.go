package pregel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// The engine has one message path and one combining path, and the program
// picks its classes: one per destination vertex when Combine is set and
// CombineKey is nil, CombineKeys per vertex when CombineKey is set, none when
// Combine is nil. The tests in this file hold each of the three to the
// serial reference (reference_test.go).
const (
	modeDense = iota
	modeKeyed
	modeUncombined
	numModes
)

var modeNames = [numModes]string{"dense", "keyed", "uncombined"}

// withMode rewrites p to take the given path. The keyed path splits each
// vertex into three classes by the message's bits, so messages of one
// destination combine only with those of equal key, and a combined result
// may belong to another class than the messages it merged.
func withMode[S, M any](p spec[S, M], mode int) spec[S, M] {
	switch mode {
	case modeKeyed:
		p.key = func(m M) int32 { return int32(msgBits(m) % 3) }
		p.keys = 3
	case modeUncombined:
		p.combine, p.key = nil, nil
	}
	return p
}

// msgBits returns the bits of a spec program's message.
func msgBits[M any](m M) uint64 {
	switch x := any(m).(type) {
	case float64:
		return math.Float64bits(x)
	case int32:
		return uint64(uint32(x))
	}
	panic(fmt.Sprintf("msgBits: no bits for %T", m))
}

// refMaxSteps is the superstep bound of every run in this file (Config's
// default).
const refMaxSteps = 1000

// randomPartition places each of n vertices on a worker drawn from seed.
func randomPartition(n, workers int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	part := make([]int, n)
	for v := range part {
		part[v] = rng.Intn(workers)
	}
	return part
}

// sameBits compares two states bit for bit (a float NaN equals itself).
func sameBits[S any](a, b S) bool {
	if x, ok := any(a).(float64); ok {
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	}
	return any(a) == any(b)
}

// compareToReference fails unless an engine run matches the reference bit
// for bit: the same states, the same superstep count and the same remote and
// local message counts.
func compareToReference[S any](t testing.TB, label string, res *Result[S], ref refResult[S]) {
	t.Helper()
	for v := range ref.states {
		if !sameBits(res.States[v], ref.states[v]) {
			t.Fatalf("%s: state[%d] = %v, reference says %v", label, v, res.States[v], ref.states[v])
		}
	}
	if res.Supersteps != ref.supersteps {
		t.Fatalf("%s: %d supersteps, reference ran %d", label, res.Supersteps, ref.supersteps)
	}
	if res.Net.Messages != ref.remote || res.Net.LocalMessages != ref.local {
		t.Fatalf("%s: %d remote / %d local messages, reference counts %d / %d",
			label, res.Net.Messages, res.Net.LocalMessages, ref.remote, ref.local)
	}
}

// checkAgainstReference runs p in the given mode on the engine and on the
// reference, and compares them.
func checkAgainstReference[S, M any](t testing.TB, g *graph.Graph, p spec[S, M], mode, workers int, part []int) *Result[S] {
	t.Helper()
	p = withMode(p, mode)
	res, err := Run(g, p.program(), Config{Workers: workers, Partition: part, MaxSupersteps: refMaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	compareToReference(t, modeNames[mode], res, refRun(g, p, part, workers, refMaxSteps))
	return res
}

// pageRankSpec mirrors PageRank's program; keep in sync with algorithms.go.
// The dense leg of TestPageRankBitwiseAcrossCommsPaths runs PageRank itself
// against this spec, so a drift between the two fails there.
func pageRankSpec(n float64, iters int) spec[float64, float64] {
	const d = 0.85
	return spec[float64, float64]{
		init: func(graph.V) float64 { return 1 / n },
		compute: func(ctx vertexAPI[float64], v graph.V, state *float64, msgs []float64) {
			if ctx.Superstep() > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				*state = (1-d)/n + d*sum
			}
			if ctx.Superstep() < iters {
				if deg := ctx.Degree(v); deg > 0 {
					ctx.SendToNeighbors(v, *state/float64(deg))
				}
			} else {
				ctx.VoteToHalt()
			}
		},
		combine: func(a, b float64) float64 { return a + b },
	}
}

// hashMinSpec mirrors HashMinCC's program; keep in sync with algorithms.go.
func hashMinSpec() spec[int32, int32] {
	return spec[int32, int32]{
		init: func(v graph.V) int32 { return int32(v) },
		compute: func(ctx vertexAPI[int32], v graph.V, state *int32, msgs []int32) {
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
		combine: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
	}
}

// equivalenceWorkers are the worker counts every equivalence test runs at;
// each gets its own seeded random partition.
var equivalenceWorkers = []int{1, 2, 3, 8}

// TestPageRankBitwiseAcrossCommsPaths: PageRank folds floats, so any
// difference in message order or combining structure from the reference
// shows up as a bit flip. The dense leg is PageRank itself; the keyed and
// uncombined legs run its spec with a three-class CombineKey and with the
// combiner stripped.
func TestPageRankBitwiseAcrossCommsPaths(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	const iters = 12
	p := pageRankSpec(float64(g.NumVertices()), iters)
	for _, workers := range equivalenceWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			part := randomPartition(g.NumVertices(), workers, int64(workers))
			_, res, err := PageRank(g, iters, Config{Workers: workers, Partition: part})
			if err != nil {
				t.Fatal(err)
			}
			compareToReference(t, modeNames[modeDense], res, refRun(g, p, part, workers, refMaxSteps))
			checkAgainstReference(t, g, p, modeKeyed, workers, part)
			checkAgainstReference(t, g, p, modeUncombined, workers, part)
		})
	}
}

// TestHashMinCCBitwiseAcrossCommsPaths: same contract for an int-min program.
func TestHashMinCCBitwiseAcrossCommsPaths(t *testing.T) {
	g := gen.BarabasiAlbert(400, 2, 11)
	p := hashMinSpec()
	for _, workers := range equivalenceWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			part := randomPartition(g.NumVertices(), workers, 100+int64(workers))
			_, res, err := HashMinCC(g, Config{Workers: workers, Partition: part})
			if err != nil {
				t.Fatal(err)
			}
			compareToReference(t, modeNames[modeDense], res, refRun(g, p, part, workers, refMaxSteps))
			checkAgainstReference(t, g, p, modeKeyed, workers, part)
			checkAgainstReference(t, g, p, modeUncombined, workers, part)
		})
	}
}

// TestNoCombinerEquivalence: with the combiner stripped, every raw message
// reaches the inbox in the reference's order (ascending sender rank, send
// order within a sender), so even float-summing programs match it bit for
// bit. For the order-insensitive HashMinCC min-fold, the uncombined answer
// must also equal the combined one exactly; for PageRank the combined fold
// has a different float grouping, so it is compared within an epsilon.
func TestNoCombinerEquivalence(t *testing.T) {
	g := gen.RMAT(9, 6, 7)
	const iters = 10
	pr := pageRankSpec(float64(g.NumVertices()), iters)
	for _, workers := range equivalenceWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			part := randomPartition(g.NumVertices(), workers, 200+int64(workers))
			cfg := Config{Workers: workers, Partition: part}

			prRes := checkAgainstReference(t, g, pr, modeUncombined, workers, part)
			combined, _, err := PageRank(g, iters, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v, r := range prRes.States {
				if math.Abs(combined[v]-r) > 1e-12 {
					t.Fatalf("combined rank[%d] = %v, uncombined %v — beyond reassociation noise", v, combined[v], r)
				}
			}

			ccRes := checkAgainstReference(t, g, hashMinSpec(), modeUncombined, workers, part)
			ccCombined, _, err := HashMinCC(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v, l := range ccRes.States {
				if l != ccCombined[v] {
					t.Fatalf("uncombined cc label[%d] = %d, combined %d — min-fold must be order-insensitive", v, l, ccCombined[v])
				}
			}
		})
	}
}

// FuzzPregelVsReference draws a graph, a worker count, a random partition, a
// message path and a program, and holds the engine to the reference. The
// seed corpus covers every path and program and runs with the unit tests.
func FuzzPregelVsReference(f *testing.F) {
	for i := 0; i < 2*numModes; i++ {
		f.Add(int64(i+1), uint8(40+37*i), uint8(3+i), int64(31*i), uint8(i%numModes), uint8(i/numModes))
	}
	f.Add(int64(5), uint8(0), uint8(7), int64(2), uint8(modeDense), uint8(1)) // one vertex, eight workers
	f.Fuzz(func(t *testing.T, graphSeed int64, n, workers uint8, partSeed int64, mode, alg uint8) {
		nv := 1 + int(n)%128
		w := 1 + int(workers)%8
		g := gen.ErdosRenyi(nv, int64(2*nv), graphSeed)
		part := randomPartition(nv, w, partSeed)
		m := int(mode) % numModes
		if alg%2 == 0 {
			checkAgainstReference(t, g, pageRankSpec(float64(nv), 6), m, w, part)
		} else {
			checkAgainstReference(t, g, hashMinSpec(), m, w, part)
		}
	})
}

// TestCombineKeyOutOfRangeFails: a key outside [0, CombineKeys) fails the
// run instead of combining into the next vertex's classes, and CombineKey
// without CombineKeys fails before the run starts.
func TestCombineKeyOutOfRangeFails(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 3)
	p := hashMinSpec()
	p.keys = 2
	for _, bad := range []int32{2, -1} {
		p.key = func(m int32) int32 {
			if m == 7 {
				return bad
			}
			return m % 2
		}
		_, err := Run(g, p.program(), Config{Workers: 3})
		if err == nil || !strings.Contains(err.Error(), "outside [0, 2)") {
			t.Fatalf("key %d: Run returned %v, want an out-of-range error", bad, err)
		}
	}
	p.keys = 0
	if _, err := Run(g, p.program(), Config{Workers: 3}); err == nil || !strings.Contains(err.Error(), "CombineKeys") {
		t.Fatalf("CombineKeys 0: Run returned %v, want an error", err)
	}
}

// TestSteadyStateAllocsPerRound: a steady-state PageRank superstep on the
// dense path must allocate (almost) nothing. Measured differentially — two
// runs on the same graph differing only in superstep count — so setup costs
// (graph, buffers, gang) cancel and only the per-round increment remains.
func TestSteadyStateAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	g := gen.RMAT(9, 8, 5)
	run := func(iters int) {
		if _, _, err := PageRank(g, iters, Config{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	const short, long = 10, 60
	aShort := testing.AllocsPerRun(3, func() { run(short) })
	aLong := testing.AllocsPerRun(3, func() { run(long) })
	perRound := (aLong - aShort) / float64(long-short)
	if math.IsNaN(perRound) || perRound > 2 {
		t.Fatalf("steady-state supersteps allocate %.2f allocs/round, want ≤ 2 (short=%v long=%v)", perRound, aShort, aLong)
	}
	t.Logf("steady-state PageRank: %.3f allocs/round", perRound)
}
