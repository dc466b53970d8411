package tensor

// Axpy adds w·x[j] into y[j] for every j (x at least as long as y). Each
// product is rounded to float32 before it is added, so no target fuses the
// two.
func Axpy(y []float32, w float32, x []float32) {
	axpy(y, w, x[:len(y)])
}

// Axpy4 adds w0·x0[j], w1·x1[j], w2·x2[j] and w3·x3[j] into y[j], in that
// order, loading and storing y[j] once for the four terms: bitwise the same
// as four Axpy calls in a row, with a quarter of their loads and stores of y.
// This is the inner step of every dense and sparse kernel here and in
// internal/gnn. Each product is rounded to float32 before it is added.
//
// On amd64 the body is SSE2 assembly (axpy_amd64.s), four elements to a
// register; elsewhere, and under the race detector, whose instrumentation
// sees only Go stores, it is axpy4Go.
func Axpy4(y []float32, w0, w1, w2, w3 float32, x0, x1, x2, x3 []float32) {
	n := len(y)
	axpy4(y, w0, w1, w2, w3, x0[:n], x1[:n], x2[:n], x3[:n])
}

// axpyGo is Axpy's body in Go: the only one off amd64 and under the race
// detector, and the reference the tests hold the assembly to. x is as long
// as y.
func axpyGo(y []float32, w float32, x []float32) {
	x = x[:len(y)]
	for j, xv := range x {
		y[j] += float32(w * xv)
	}
}

// axpy4Go is Axpy4's body in Go, as axpyGo is Axpy's. It is kept out of
// line: inlined into a kernel's loop nest it competes with the caller's live
// values for registers and spills its own index, which costs more than the
// call.
//
//go:noinline
func axpy4Go(y []float32, w0, w1, w2, w3 float32, x0, x1, x2, x3 []float32) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for j, s := range y {
		s += float32(w0 * x0[j])
		s += float32(w1 * x1[j])
		s += float32(w2 * x2[j])
		s += float32(w3 * x3[j])
		y[j] = s
	}
}

// axpyNonzero is Axpy skipping a zero w, as every matmul kernel here does.
func axpyNonzero(y []float32, w float32, x []float32) {
	if w != 0 {
		Axpy(y, w, x)
	}
}
