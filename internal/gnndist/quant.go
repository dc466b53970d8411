package gnndist

import (
	"math"

	"graphsys/internal/tensor"
)

// Quantizer compresses matrices to a given bit width with per-row symmetric
// scaling before they go on the wire, optionally carrying an error-feedback
// residual (EC-Graph's error-compensated compression): the quantisation
// error of round t is added to the input of round t+1, so the bias cancels
// over time instead of accumulating in the model.
type Quantizer struct {
	Bits       int  // 32 (no-op), 8, 4, 2, 1
	Compensate bool // error feedback on/off
	residual   *tensor.Matrix
	BytesSent  int64 // metered compressed payload
	BytesValue int64 // what fp32 would have cost
}

// NewQuantizer creates a quantizer. Widths outside [2, 32] are clamped
// (1-bit symmetric quantisation has no representable level).
func NewQuantizer(bits int, compensate bool) *Quantizer {
	if bits <= 0 || bits > 32 {
		bits = 32
	}
	if bits == 1 {
		bits = 2
	}
	return &Quantizer{Bits: bits, Compensate: compensate}
}

// Compress simulates quantise→transmit→dequantise of m, returning the values
// the receiver reconstructs, and accounts payload sizes. The caller sends
// the returned matrix; m itself is not modified.
func (q *Quantizer) Compress(m *tensor.Matrix) *tensor.Matrix {
	q.BytesValue += int64(len(m.Data)) * 4
	if q.Bits >= 32 {
		q.BytesSent += int64(len(m.Data)) * 4
		return m.Clone()
	}
	// scales: one fp32 per row
	q.BytesSent += int64(len(m.Data))*int64(q.Bits)/8 + int64(m.Rows)*4
	in := m
	if q.Compensate {
		if q.residual == nil {
			q.residual = tensor.New(m.Rows, m.Cols)
		}
		in = tensor.Add(m, q.residual)
	}
	out := tensor.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		quantizeRow(out.Row(i), in.Row(i), q.Bits)
	}
	if q.Compensate {
		// residual = input - transmitted
		for i := range q.residual.Data {
			q.residual.Data[i] = in.Data[i] - out.Data[i]
		}
	}
	return out
}

// quantizeRow writes to dst the symmetric per-row quantise→dequantise of
// src at the given bit width: one scale per row, max|src| over the
// 2^(bits-1) − 1 positive levels, each value rounded to the nearest level.
// An all-zero src leaves dst untouched. dst and src may be the same row.
func quantizeRow(dst, src []float32, bits int) {
	var max float64
	for _, v := range src {
		if a := math.Abs(float64(v)); a > max {
			max = a
		}
	}
	if max == 0 {
		return
	}
	scale := max / (float64(int64(1)<<(bits-1)) - 1)
	for j, v := range src {
		dst[j] = float32(math.Round(float64(v)/scale) * scale)
	}
}

// SnapshotResidual deep-copies the error-feedback residual (nil when
// compensation is off or the quantizer has not run yet). Together with
// nn.AdamState it makes a training checkpoint complete: the residual feeds
// into the next compressed push, so dropping it would change post-recovery
// gradients.
func (q *Quantizer) SnapshotResidual() *tensor.Matrix {
	if q.residual == nil {
		return nil
	}
	return q.residual.Clone()
}

// RestoreResidual rewinds the error-feedback residual to a snapshot.
func (q *Quantizer) RestoreResidual(r *tensor.Matrix) {
	if r == nil {
		q.residual = nil
		return
	}
	q.residual = r.Clone()
}

// CompressionRatio returns fp32 bytes / compressed bytes so far.
func (q *Quantizer) CompressionRatio() float64 {
	if q.BytesSent == 0 {
		return 1
	}
	return float64(q.BytesValue) / float64(q.BytesSent)
}
