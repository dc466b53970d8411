package tensor

import (
	"math"
	"testing"
)

// fuzzSpecials are the values FuzzAxpyVsLoop draws besides plain ones: both
// zeros, denormals, infinities, a NaN, and huge and tiny normals.
var fuzzSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 3e38, 1e30,
	1.1754944e-38, -1.2e-38, 1e-30,
	1, -1,
}

// fuzzFloats draws n values from data: an even byte picks a special, an odd
// one with the next byte makes a plain value of up to 15 significant bits.
func fuzzFloats(data []byte, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		if len(data) == 0 {
			out[i] = float32(i%7) - 3
			continue
		}
		b := data[i%len(data)]
		if b&1 == 0 {
			out[i] = fuzzSpecials[int(b>>1)%len(fuzzSpecials)]
			continue
		}
		out[i] = float32(int16(uint16(data[(i+1)%len(data)])<<8|uint16(b))) / 256
	}
	return out
}

// sameFloat reports whether a and b are bitwise equal or both NaN: the
// assembly keeps every non-NaN result bitwise, but a NaN's payload may
// differ from the Go loop's.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// FuzzAxpyVsLoop holds Axpy, Axpy4 and MatMulT2Into to the Go loops bit for
// bit (up to NaN payloads) on lengths 0–130, operands at offsets 0–3 (so
// some are unaligned, and each at its own offset) and values that include
// ±0, denormals, ±Inf, NaN and huge and tiny normals. It also checks that
// nothing past the end of y is written.
func FuzzAxpyVsLoop(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), []byte{1, 7})
	f.Add(uint8(7), uint8(3), []byte{0x41, 0x12, 0x93, 0x05, 0xb7})
	f.Add(uint8(33), uint8(2), []byte{0x11, 0x22, 0x33, 0x45, 0x57, 0x69, 0x7b, 0x8d, 0x9f})
	f.Add(uint8(130), uint8(1), []byte{0x3b, 0xc1, 0x75, 0x09, 0xe3, 0x2f, 0x51, 0xa7, 0x6d})
	f.Add(uint8(64), uint8(3), []byte{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 5, 9})
	f.Fuzz(func(t *testing.T, n, off uint8, data []byte) {
		ln, o := int(n)%131, int(off)%4
		vals := fuzzFloats(data, 5*(ln+4)+4)
		// vec returns operand v: ln values at offset (o+v)%4 of a backing
		// array four longer than needed, whose tail is a sentinel.
		vec := func(v int) ([]float32, []float32) {
			at := (o + v) % 4
			back := make([]float32, at+ln+4)
			copy(back, vals[v*(ln+4):])
			for j := at + ln; j < len(back); j++ {
				back[j] = -7
			}
			return back, back[at : at+ln]
		}
		w := vals[5*(ln+4):]
		_, x0 := vec(1)
		_, x1 := vec(2)
		_, x2 := vec(3)
		_, x3 := vec(4)
		check := func(name string, got, want []float32) {
			t.Helper()
			for j := range want {
				if !sameFloat(got[j], want[j]) {
					t.Fatalf("%s: n=%d off=%d element %d = %x, want %x", name, ln, o, j,
						math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		}

		yBack, y := vec(0)
		ref := append([]float32(nil), yBack...)
		Axpy(y, w[0], x0)
		axpyGo(ref[len(yBack)-ln-4:len(yBack)-4], w[0], x0)
		check("Axpy", yBack, ref)

		yBack, y = vec(0)
		ref = append([]float32(nil), yBack...)
		Axpy4(y, w[0], w[1], w[2], w[3], x0, x1, x2, x3)
		axpy4Go(ref[len(yBack)-ln-4:len(yBack)-4], w[0], w[1], w[2], w[3], x0, x1, x2, x3)
		check("Axpy4", yBack, ref)

		// a is rows×ln and b is cols×ln: the contraction runs over ln terms
		// (crossing a kBlock panel past 128) and b's rows cross a t2Cols
		// block of the output past 64.
		rows, cols := 1+o, 1+int(n)%67
		a, b := New(rows, ln), New(cols, ln)
		copy(a.Data, fuzzFloats(data[min(1, len(data)):], len(a.Data)))
		copy(b.Data, fuzzFloats(data[min(2, len(data)):], len(b.Data)))
		out := New(rows, cols)
		MatMulT2Into(a, b, out)
		check("MatMulT2Into", out.Data, naiveMatMulT2(a, b).Data)
	})
}
