package ml

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestKernelPaths runs the bit-pinning tests of the models built on the
// vector kernels once per kernel path this CPU has: the generic twins, then
// the AVX2 kernels. Their digests are the same on both.
func TestKernelPaths(t *testing.T) {
	tests := []struct {
		name string
		run  func(*testing.T)
	}{
		{"MLPGoldenDigest", TestMLPGoldenDigest},
		{"MLPMatchesDenseRef", TestMLPMatchesDenseRef},
		{"Determinism", TestDeterminism},
		{"LogisticGoldenDigest", TestLogisticGoldenDigest},
	}
	kernelPaths(t, func(t *testing.T) {
		for _, tc := range tests {
			t.Run(tc.name, tc.run)
		}
	})
}

// kernelValues are the inputs IEEE-754 edge cases turn on: NaN, ±0, ±Inf,
// subnormals, values whose products overflow or underflow, and ordinary
// magnitudes, then logValues.
var kernelValues = append([]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3, 0.1, -3.7, 1e-3, 0.999,
	math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030, math.MaxFloat64,
	-math.MaxFloat64, 1e300, -1e-300, 1e-160, 1e160,
}, logValues...)

// logValues are the inputs logs's edge cases turn on: the logistic loss's
// clamp bounds, log's reduction boundary Sqrt2/2·2^k, where archLog and
// math/log.go can round apart (they do at k = 32), a signalling and a
// negative NaN.
var logValues = []float64{
	1e-12, 1 - 1e-12, math.Sqrt2 / 2, 0x1.6a09e667f3bcdp31, 0x1.6a09e667f3bcdp-1040,
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
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

// FuzzKernels holds the AVX2 kernels to their twins bit for bit: rowsum
// and Adam to the generic loops, logs to math.Log. Lengths run from
// 0 to 107, so every tail of the unrolled loops runs, rowsum's 48-, 4- and
// 1-wide blocks included; values include NaN, ±0, ±Inf and subnormals.
// rowsum sums 0–20 rows of a six-row table, so indices repeat.
func FuzzKernels(f *testing.F) {
	if !useAVX2 {
		f.Skip("the CPU has no AVX2: only the generic kernels run")
	}
	for i, n := range []uint8{0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 47, 48, 49, 52, 100, 107} {
		data := make([]byte, 4*int(n))
		for j := range data {
			data[j] = byte(j*5 + i)
		}
		f.Add(n, uint8(i), 1e-3, 0.1, 0.001, data)
		f.Add(n, uint8(20), 1e-3, 1-math.Pow(beta1, 40), 1-math.Pow(beta2, 40), data)
	}
	f.Add(uint8(9), uint8(3), math.Inf(1), math.SmallestNonzeroFloat64, 0.0, []byte{11, 12, 13, 14, 1, 2, 0})
	f.Add(uint8(12), uint8(1), -1.0, math.Copysign(0, -1), math.NaN(), []byte{0xf0, 1, 0, 0, 0, 0, 0, 0, 0})
	// Every logValues entry four times, as z, which the log kernel reads.
	var logData []byte
	for i := len(kernelValues) - len(logValues); i < len(kernelValues); i++ {
		logData = append(logData, byte(i), byte(i), byte(i), byte(i))
	}
	f.Add(uint8(28), uint8(2), 1.0, 1.0, 1.0, logData)
	f.Fuzz(func(t *testing.T, n, nrow uint8, lr, bc1, bc2 float64, data []byte) {
		size := int(n) % 108
		r := &kernelReader{data: data}

		z := r.slice(size)

		const tableRows = 6
		stride := size + int(nrow)%3
		idx, coef := make([]int, int(nrow)%21), r.slice(int(nrow)%21)
		for k := range idx {
			idx[k] = int(math.Float64bits(r.next()) % tableRows)
		}
		table := r.slice(tableRows * stride)
		want, got := append([]float64(nil), z...), append([]float64(nil), z...)
		rowsumGeneric(want, coef, idx, table, stride)
		rowsumAVX2(got, coef, idx, table, stride)
		if !sameBits(got, want) {
			t.Fatalf("rowsum(len %d, idx %v, coef %v): AVX2 %v, generic %v", size, idx, coef, got, want)
		}

		logIn := z[:size&^3]
		got = append([]float64(nil), logIn...)
		logAVX2(got)
		for i, in := range logIn {
			if w := math.Log(in); !sameBits(got[i:i+1], []float64{w}) {
				t.Fatalf("log(%v = %#016x): AVX2 %v (%#016x), math.Log %v (%#016x)",
					in, math.Float64bits(in), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
			}
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

// kernelPaths runs fn once per kernel path this CPU has, with useAVX2 set
// to match, and restores it afterwards.
func kernelPaths(t *testing.T, fn func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
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
			fn(t)
		})
	}
}

// TestLogsMatchesMath holds logs to math.Log bit for bit on both kernel
// paths: at every reduction boundary Sqrt2/2·2^k and its two neighbours,
// at the IEEE-754 special values, subnormals and the loss clamp's bounds,
// and on about four million random inputs, half of them raw bit patterns
// and half uniform on (0, 1), the logistic loss's range. Slice lengths that
// are not multiples of four run the kernel's math.Log tail too.
func TestLogsMatchesMath(t *testing.T) {
	var edges []float64
	for k := -1074; k <= 1023; k++ {
		v := math.Ldexp(math.Sqrt2/2, k)
		edges = append(edges, math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1)))
	}
	for _, b := range []uint64{0x7FF0000000000001, 0x7FF8000000000001, 0xFFF8000000000000, 0x000FFFFFFFFFFFFF, 0x8000000000000001} {
		edges = append(edges, math.Float64frombits(b))
	}
	for _, v := range kernelValues {
		edges = append(edges, v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for e := 1; e <= 52; e++ {
		edges = append(edges, math.Float64frombits(1<<e-1), math.Float64frombits(1<<(e-1)))
	}

	check := func(t *testing.T, in []float64) {
		t.Helper()
		got := append([]float64(nil), in...)
		logs(got)
		for i, v := range in {
			if w := math.Log(v); !sameBits(got[i:i+1], []float64{w}) {
				t.Fatalf("logs(%v = %#016x) = %v (%#016x), math.Log gives %v (%#016x)",
					v, math.Float64bits(v), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
			}
		}
	}
	kernelPaths(t, func(t *testing.T) {
		check(t, edges)
		rng := rand.New(rand.NewSource(1))
		buf := make([]float64, 1<<16+3)
		for chunk := 0; chunk < 64; chunk++ {
			for i := range buf {
				if i%2 == 0 {
					buf[i] = math.Float64frombits(rng.Uint64())
				} else {
					buf[i] = rng.Float64()
				}
			}
			check(t, buf[:len(buf)-chunk%4])
		}
	})
}

// TestRowsumLong holds rowsum to rowsumGeneric bit for bit on both kernel
// paths at the logistic sweep's shape, which FuzzKernels' short vectors do
// not reach: a z of 1,013 entries (a multiple of neither 48 nor 4) summed
// over 23 rows of a table whose stride is len(z), rows repeating. Values
// are random normals; every 37th table entry is one of kernelValues, so
// each edge case touches a few entries of z and leaves the rest finite.
func TestRowsumLong(t *testing.T) {
	const n, nrow, tableRows = 1013, 23, 17
	rng := rand.New(rand.NewSource(5))
	normals := func(k int) []float64 {
		s := make([]float64, k)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	z, coef, table := normals(n), normals(nrow), normals(tableRows*n)
	coef[3], coef[11] = math.Copysign(0, -1), 0x1p-1030
	for i := 0; i < len(table); i += 37 {
		table[i] = kernelValues[(i/37)%len(kernelValues)]
	}
	idx := make([]int, nrow)
	for k := range idx {
		idx[k] = (k * 7) % tableRows
	}
	want := append([]float64(nil), z...)
	rowsumGeneric(want, coef, idx, table, n)
	kernelPaths(t, func(t *testing.T) {
		got := append([]float64(nil), z...)
		rowsum(got, coef, idx, table, n)
		for i := range got {
			if !sameBits(got[i:i+1], want[i:i+1]) {
				t.Fatalf("rowsum z[%d] = %v (%#016x), rowsumGeneric gives %v (%#016x)",
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// TestRowsumBounds checks one in-range sum, then that rowsum panics on both
// kernel paths on a row that starts past the end of rows, one that starts
// inside it but overhangs, a negative index and too few coefficients.
func TestRowsumBounds(t *testing.T) {
	const h = 5
	rows := make([]float64, 3*h)
	for i := range rows {
		rows[i] = float64(i)
	}
	cases := []struct {
		name   string
		coef   []float64
		idx    []int
		stride int
	}{
		{"past-end", []float64{1, 1}, []int{0, 3}, h},
		{"overhang", []float64{1}, []int{2}, h + 1},
		{"negative", []float64{1}, []int{-1}, h},
		{"short-coef", []float64{1}, []int{0, 1}, h},
	}
	kernelPaths(t, func(t *testing.T) {
		z := make([]float64, h)
		rowsum(z, []float64{2, 0.5}, []int{2, 2}, rows, h)
		if want := []float64{25, 27.5, 30, 32.5, 35}; !sameBits(z, want) {
			t.Fatalf("rowsum = %v, want %v", z, want)
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("rowsum(idx %v, stride %d, %d coefficients) did not panic", tc.idx, tc.stride, len(tc.coef))
					}
				}()
				rowsum(make([]float64, h), tc.coef, tc.idx, rows, tc.stride)
			})
		}
	})
}
