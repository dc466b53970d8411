//go:build !amd64 || race

package tensor

func axpy(y []float32, w float32, x []float32) { axpyGo(y, w, x) }

func axpy4(y []float32, w0, w1, w2, w3 float32, x0, x1, x2, x3 []float32) {
	axpy4Go(y, w0, w1, w2, w3, x0, x1, x2, x3)
}
