package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float32{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("matmul = %v", c.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTransposedMatMuls(t *testing.T) {
	a := Xavier(4, 3, 1)
	b := Xavier(4, 5, 2)
	got := MatMulT1(a, b) // aᵀ b
	want := MatMul(a.T(), b)
	if MaxAbsDiff(got, want) > 1e-6 {
		t.Fatal("MatMulT1 mismatch")
	}
	d := Xavier(6, 3, 4)
	got3 := MatMulT2(a, d) // a dᵀ: (4,3)×(3,6)
	want3 := MatMul(a, d.T())
	if MaxAbsDiff(got3, want3) > 1e-6 {
		t.Fatal("MatMulT2 mismatch")
	}
}

func TestAddScaleApply(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{3, 4}})
	c := Add(a, b)
	if c.At(0, 0) != 4 || c.At(0, 1) != 6 {
		t.Fatal("add wrong")
	}
	c.Scale(2)
	if c.At(0, 1) != 12 {
		t.Fatal("scale wrong")
	}
	d := c.Apply(func(x float32) float32 { return -x })
	if d.At(0, 0) != -8 {
		t.Fatal("apply wrong")
	}
	c.AddScaled(a, 10)
	if c.At(0, 0) != 18 {
		t.Fatal("addscaled wrong")
	}
	c.AddInPlace(a)
	if c.At(0, 0) != 19 {
		t.Fatal("addinplace wrong")
	}
}

func TestRowOps(t *testing.T) {
	m := New(3, 2)
	m.AddRowVector([]float32{1, 2})
	for i := 0; i < 3; i++ {
		if m.At(i, 0) != 1 || m.At(i, 1) != 2 {
			t.Fatal("addrowvector wrong")
		}
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("row view not aliased")
	}
}

func TestConcatSplit(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5}, {6}})
	c := ConcatCols(a, b)
	if c.Cols != 3 || c.At(0, 2) != 5 || c.At(1, 1) != 4 {
		t.Fatal("concat wrong")
	}
	x, y := SplitCols(c, 2)
	if MaxAbsDiff(x, a) != 0 || MaxAbsDiff(y, b) != 0 {
		t.Fatal("split does not invert concat")
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float32{{1, 1}, {2, 2}, {3, 3}})
	s := SelectRows(m, []int{2, 0})
	if s.At(0, 0) != 3 || s.At(1, 0) != 1 {
		t.Fatal("select wrong")
	}
}

func TestXavierDeterministicBounded(t *testing.T) {
	a := Xavier(10, 10, 7)
	b := Xavier(10, 10, 7)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("xavier not deterministic")
	}
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range a.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("value %f outside xavier bound %f", v, limit)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		m := Xavier(5, 7, seed)
		return MaxAbsDiff(m.T().T(), m) == 0
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := Xavier(3, 4, seed)
		b := Xavier(4, 5, seed+1)
		c := Xavier(5, 2, seed+2)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm(t *testing.T) {
	m := FromRows([][]float32{{3, 4}})
	if math.Abs(m.Norm()-5) > 1e-9 {
		t.Fatalf("norm = %f", m.Norm())
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}
