//go:build amd64 && !race

package tensor

// axpy is Axpy's SSE2 body (axpy_amd64.s); x is as long as y.
//
//go:noescape
func axpy(y []float32, w float32, x []float32)

// axpy4 is Axpy4's SSE2 body (axpy_amd64.s); every x is as long as y.
//
//go:noescape
func axpy4(y []float32, w0, w1, w2, w3 float32, x0, x1, x2, x3 []float32)
