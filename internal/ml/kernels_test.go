package ml

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestKernelPaths runs the bit-pinning tests of the models built on the
// vector kernels once per kernel path this CPU has: the generic twins, then
// the AVX2 kernels. Their digests are the same on both.
func TestKernelPaths(t *testing.T) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	tests := []struct {
		name string
		run  func(*testing.T)
	}{
		{"MLPGoldenDigest", TestMLPGoldenDigest},
		{"MLPMatchesDenseRef", TestMLPMatchesDenseRef},
		{"Determinism", TestDeterminism},
		{"LogisticGoldenDigest", TestLogisticGoldenDigest},
	}
	for _, avx2 := range []bool{false, true} {
		if avx2 && !saved {
			continue
		}
		name := "generic"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			useAVX2 = avx2
			for _, tc := range tests {
				t.Run(tc.name, tc.run)
			}
		})
	}
}

// kernelValues are the inputs IEEE-754 edge cases turn on: NaN, ±0, ±Inf,
// subnormals, values whose products overflow or underflow, and ordinary
// magnitudes.
var kernelValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3, 0.1, -3.7, 1e-3, 0.999,
	math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030, math.MaxFloat64,
	-math.MaxFloat64, 1e300, -1e-300, 1e-160, 1e160,
}

// kernelReader turns fuzz bytes into kernel inputs: a byte below 0xf0 picks
// one of kernelValues, a higher one reads the next eight bytes as raw float
// bits. With the bytes used up it cycles through kernelValues.
type kernelReader struct {
	data []byte
	k    int
}

func (r *kernelReader) next() float64 {
	r.k++
	if len(r.data) == 0 {
		return kernelValues[r.k%len(kernelValues)]
	}
	b := r.data[0]
	r.data = r.data[1:]
	if b >= 0xf0 && len(r.data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
		r.data = r.data[8:]
		return v
	}
	return kernelValues[int(b)%len(kernelValues)]
}

func (r *kernelReader) slice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.next()
	}
	return s
}

// sameBits reports whether a and b hold the same bits, counting any NaN as
// equal to any other: which operand's payload a NaN result carries is not
// part of the kernels' contract.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// FuzzKernels holds the AVX2 axpy and Adam kernels to their generic twins
// bit for bit. Lengths run from 0 to 107, so every tail of the unrolled
// loops runs; values include NaN, ±0, ±Inf and subnormals.
func FuzzKernels(f *testing.F) {
	if !useAVX2 {
		f.Skip("the CPU has no AVX2: only the generic kernels run")
	}
	for i, n := range []uint8{0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 100, 107} {
		data := make([]byte, 4*int(n))
		for j := range data {
			data[j] = byte(j*5 + i)
		}
		f.Add(n, 0.37, 1e-3, 0.1, 0.001, data)
		f.Add(n, math.Copysign(0, -1), 1e-3, 1-math.Pow(beta1, 40), 1-math.Pow(beta2, 40), data)
	}
	f.Add(uint8(9), math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, 0.0, []byte{11, 12, 13, 14, 1, 2, 0})
	f.Add(uint8(12), math.Inf(-1), -1.0, math.Copysign(0, -1), math.NaN(), []byte{0xf0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, v, lr, bc1, bc2 float64, data []byte) {
		size := int(n) % 108
		r := &kernelReader{data: data}

		z, x := r.slice(size), r.slice(size)
		want, got := append([]float64(nil), z...), append([]float64(nil), z...)
		axpyGeneric(want, v, x)
		axpyAVX2(got, v, x)
		if !sameBits(got, want) {
			t.Fatalf("axpy(len %d, v %v): AVX2 %v, generic %v", size, v, got, want)
		}

		p, g, m, s := r.slice(size), r.slice(size), r.slice(size), r.slice(size)
		pw, mw, sw := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), s...)
		adamGeneric(pw, g, mw, sw, beta1, 1-beta1, beta2, 1-beta2, lr, bc1, bc2, adamEps)
		adamAVX2(p, g, m, s, beta1, 1-beta1, beta2, 1-beta2, lr, bc1, bc2, adamEps)
		if !sameBits(p, pw) || !sameBits(m, mw) || !sameBits(s, sw) {
			t.Fatalf("adam(len %d, lr %v, bc1 %v, bc2 %v): AVX2 p %v m %v v %v, generic p %v m %v v %v",
				size, lr, bc1, bc2, p, m, s, pw, mw, sw)
		}
	})
}
