package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// naiveMatMul is an independent reference: the classic i-k-j loop the
// parallel blocked kernel must reproduce bit for bit. Each product is rounded
// to float32 before it is added, so no target may fuse the two.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += float32(av * b.At(k, j))
			}
		}
	}
	return out
}

func naiveMatMulT1(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(r, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += float32(av * b.At(r, j))
			}
		}
	}
	return out
}

func naiveMatMulT2(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += float32(a.At(i, k) * b.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	// sprinkle exact zeros so the zero-skip path is exercised
	for i := 0; i < len(m.Data)/7; i++ {
		m.Data[rng.Intn(len(m.Data))] = 0
	}
	return m
}

// zeroRow sets row i of m (if it has one) to zeros and returns m.
func zeroRow(m *Matrix, i int) *Matrix {
	if i < m.Rows {
		clear(m.Row(i))
	}
	return m
}

func bitwiseEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise equal)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulBitwiseDeterminism is the dedicated determinism test the kernel
// layer's contract requires: parallel results at any worker count are bitwise
// identical to an independent serial reference, across odd sizes, zero
// dimensions, and shapes large enough to cross SerialWorkThreshold. The
// kernels take the contraction four terms at a time, so the shapes include
// contractions of 4k, 4k+1, 4k+2 and 4k+3 terms (within and across a
// kBlock panel), outputs narrow and wide, and every operand has one row
// that is entirely zero.
func TestMatMulBitwiseDeterminism(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(8) // give the pool real concurrency even on small machines
	defer runtime.GOMAXPROCS(oldProcs)
	defer SetParallelism(0)

	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {7, 17, 33}, {33, 7, 1}, {1, 129, 1},
		{64, 64, 64}, {65, 129, 65}, {129, 64, 129}, {128, 128, 128},
		{96, 700, 96}, {257, 33, 61},
		{0, 5, 7}, {5, 0, 7}, {5, 7, 0},
		{1001, 32, 64}, {1003, 64, 8}, {1002, 30, 8}, {1000, 33, 3},
		{37, 9, 8}, {38, 10, 5}, {39, 11, 64}, {13, 131, 7}, {14, 130, 9}, {6, 5, 1},
	}
	rng := rand.New(rand.NewSource(42))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := zeroRow(randMat(m, k, rng), m/2)
		b := zeroRow(randMat(k, n, rng), k/2)
		wantMM := naiveMatMul(a, b)
		a2 := zeroRow(randMat(m, k, rng), m/2)
		b2 := zeroRow(randMat(m, n, rng), m/3)
		wantT1 := naiveMatMulT1(a2, b2)
		a3 := zeroRow(randMat(m, k, rng), m/2)
		b3 := zeroRow(randMat(n, k, rng), n/2)
		wantT2 := naiveMatMulT2(a3, b3)
		for _, p := range []int{1, 2, 8} {
			SetParallelism(p)
			tag := fmt.Sprintf("%dx%dx%d/p=%d", m, k, n, p)
			bitwiseEqual(t, "MatMul/"+tag, MatMul(a, b), wantMM)
			bitwiseEqual(t, "MatMulT1/"+tag, MatMulT1(a2, b2), wantT1)
			bitwiseEqual(t, "MatMulT2/"+tag, MatMulT2(a3, b3), wantT2)

			// Into variants on buffers with stale contents
			out := nanMat(m, n)
			MatMulInto(a, b, out)
			bitwiseEqual(t, "MatMulInto/"+tag, out, wantMM)
			out = nanMat(k, n)
			MatMulT1Into(a2, b2, out)
			bitwiseEqual(t, "MatMulT1Into/"+tag, out, wantT1)
			out = nanMat(m, n)
			MatMulT2Into(a3, b3, out)
			bitwiseEqual(t, "MatMulT2Into/"+tag, out, wantT2)
		}
		SetParallelism(0)
	}
}

func TestParallelFor(t *testing.T) {
	defer SetParallelism(0)
	for _, p := range []int{1, 2, 8, 64} {
		SetParallelism(p)
		const n = 1000
		seen := make([]int32, n)
		ParallelFor(n, 1<<20, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, c)
			}
		}
	}
	ParallelFor(0, 1<<20, func(lo, hi int) { t.Fatal("called for empty range") })
}

// TestParallelChunks: chunk c is [c·⌈n/parts⌉, min((c+1)·⌈n/parts⌉, n)), so
// the split depends on n and parts only, never on the pool.
func TestParallelChunks(t *testing.T) {
	for _, tc := range []struct{ n, parts, chunks int }{
		{10, 1, 1}, {10, 3, 3}, {10, 4, 4}, {5, 4, 3}, {7, 7, 7}, {3, 100, 3}, {9, 0, 1}, {0, 4, 0},
	} {
		size := 0
		if tc.n > 0 {
			size = (tc.n + max(tc.parts, 1) - 1) / max(tc.parts, 1)
		}
		lo, hi := make([]int, tc.chunks), make([]int, tc.chunks)
		calls := make([]int32, tc.chunks)
		ParallelChunks(tc.n, tc.parts, func(c, l, h int) {
			if c >= tc.chunks {
				t.Errorf("n=%d parts=%d: chunk index %d, want < %d", tc.n, tc.parts, c, tc.chunks)
				return
			}
			calls[c]++
			lo[c], hi[c] = l, h
		})
		for c := range calls {
			if calls[c] != 1 || lo[c] != c*size || hi[c] != min((c+1)*size, tc.n) {
				t.Fatalf("n=%d parts=%d: chunk %d ran %d times over [%d,%d), want once over [%d,%d)",
					tc.n, tc.parts, c, calls[c], lo[c], hi[c], c*size, min((c+1)*size, tc.n))
			}
		}
	}
}

func TestParallelDoNested(t *testing.T) {
	// Nested ParallelDo must not deadlock (inline fallback when workers busy).
	done := make(chan struct{})
	go func() {
		defer close(done)
		outer := make([]func(), 8)
		for i := range outer {
			outer[i] = func() {
				inner := make([]func(), 8)
				for j := range inner {
					inner[j] = func() {}
				}
				ParallelDo(inner)
			}
		}
		ParallelDo(outer)
	}()
	<-done
}

// nanMat returns a rows×cols matrix filled with NaN, standing in for a
// reused buffer's stale contents.
func nanMat(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(math.NaN())
	}
	return m
}

func TestReuse(t *testing.T) {
	m := New(4, 6)
	if got := Reuse(m, 4, 6); got != m {
		t.Fatal("Reuse with matching shape should return the same matrix")
	}
	got := Reuse(m, 2, 3)
	if got == m || got.Rows != 2 || got.Cols != 3 {
		t.Fatalf("Reuse with new shape: got %dx%d, same=%v", got.Rows, got.Cols, got == m)
	}
	if &got.Data[0] != &m.Data[0] {
		t.Fatal("Reuse to a smaller shape must keep the backing array")
	}
	if back := Reuse(got, 3, 8); len(back.Data) != 24 || &back.Data[0] != &m.Data[0] {
		t.Fatal("Reuse within the original capacity must keep the backing array")
	}
	grown := Reuse(got, 5, 6)
	if grown.Rows != 5 || grown.Cols != 6 || &grown.Data[0] == &m.Data[0] {
		t.Fatal("Reuse past the capacity must allocate a new array")
	}
	for _, r := range [][2]int{{0, 0}, {0, 3}, {1, 1}} {
		if e := Reuse(nil, r[0], r[1]); e.Rows != r[0] || e.Cols != r[1] || len(e.Data) != r[0]*r[1] {
			t.Fatalf("Reuse(nil, %d, %d) = %dx%d len %d", r[0], r[1], e.Rows, e.Cols, len(e.Data))
		}
	}
	fresh := Reuse(nil, 3, 3)
	for _, v := range fresh.Data {
		if v != 0 {
			t.Fatal("Reuse(nil, ...) must return a zero matrix")
		}
	}
}

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

func TestShapePanicsIncludeDimensions(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	expectPanic(t, "2x3", func() { Add(a, b) })
	expectPanic(t, "4x5", func() { a.AddInPlace(b) })
	expectPanic(t, "2x3", func() { a.AddScaled(b, 2) })
	expectPanic(t, "length 2 != cols 3", func() { a.AddRowVector(make([]float32, 2)) })
	expectPanic(t, "concat row mismatch 2x3 vs 4x5", func() { ConcatCols(a, b) })
	expectPanic(t, "split at 9 out of range for 2x3", func() { SplitColsInto(a, New(2, 9), New(2, 0)) })
	expectPanic(t, "matmul shape mismatch 2x3 × 4x5", func() { MatMul(a, b) })
	expectPanic(t, "matmulT1 shape mismatch 2x3ᵀ × 4x5", func() { MatMulT1(a, b) })
	expectPanic(t, "matmulT2 shape mismatch 2x3 × 2x5ᵀ", func() { MatMulT2(a, New(2, 5)) })
}

func TestIntoKernelValidation(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	expectPanic(t, "output 9x9, want 2x4", func() { MatMulInto(a, b, New(9, 9)) })
	sq := New(4, 4)
	expectPanic(t, "aliases an input", func() { MatMulInto(sq, sq, sq) })
}

func benchmarkMatMul256(b *testing.B, p int) {
	SetParallelism(p)
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(7))
	x := randMat(256, 256, rng)
	y := randMat(256, 256, rng)
	out := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(x, y, out)
	}
}

func BenchmarkMatMul256Serial(b *testing.B)   { benchmarkMatMul256(b, 1) }
func BenchmarkMatMul256Parallel(b *testing.B) { benchmarkMatMul256(b, 0) }
