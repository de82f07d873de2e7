package ml

import "math"

// The neural and linear fits spend their time in three loops, each with a
// pure-Go generic twin and, on amd64 CPUs with AVX2, an assembly kernel
// (kernels_amd64.s) chosen once at init through useAVX2:
//
//   - rowsum (z[i] += coef[k]·rows[idx[k]·stride+i], k in turn): the
//     logistic logit sweep, the MLP's layer sums, its layer-1 deltas and
//     its per-batch gradient rows, with z held in registers while the rows
//     stream;
//   - the Adam update;
//   - logs (x[i] = math.Log(x[i])): the logistic fit's loss.
//
// The twin is the fallback everywhere else and the reference FuzzKernels
// holds the kernel to.
//
// The kernels must give the twins' bits. Their lanes run across independent
// outputs, never across the terms of one sum, so each output is the same
// expression evaluated in the same order. Multiply and add stay separate,
// correctly rounded instructions (no FMA), and every constant, 1-beta1
// included, is computed in Go and passed in. The twins convert each product
// that feeds a sum to float64 explicitly, which keeps the compiler from
// fusing the two into an FMA on targets that have one.
//
// logs's twin is math.Log itself, so its kernel must give the bits of the
// running toolchain's amd64 archLog (math/log_amd64.s): the same masks,
// constants and operation order, four lanes at a time. One detail differs
// from the pure-Go math/log.go: archLog halves the reduced fraction when
// f1 <= Sqrt2/2 (its CMPSD not-less-than), where log.go tests f1 < Sqrt2/2,
// and at some x = Sqrt2/2·2^k (k = 32 among them) the two differ in the
// last bit.

// rowsum adds coef[k]·rows[idx[k]·stride:][:len(z)] to z for each k in
// turn, each entry one rounded product and one rounded sum per row. coef
// must be at least as long as idx. Every row is bounds-checked before the
// kernel starts, so a bad index panics and is never read.
func rowsum(z, coef []float64, idx []int, rows []float64, stride int) {
	if useAVX2 {
		coef = coef[:len(idx)]
		for _, j := range idx {
			_ = rows[j*stride:][:len(z)]
		}
		rowsumAVX2(z, coef, idx, rows, stride)
		return
	}
	rowsumGeneric(z, coef, idx, rows, stride)
}

func rowsumGeneric(z, coef []float64, idx []int, rows []float64, stride int) {
	coef = coef[:len(idx)]
	for k, j := range idx {
		v, r := coef[k], rows[j*stride:][:len(z)]
		for i, x := range r {
			z[i] += float64(v * x)
		}
	}
}

// indices returns 0, 1, …, n−1: rowsum's idx for a run over every row.
func indices(n int) []int {
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	return idx
}

// logs sets x[i] to math.Log(x[i]) for every i: the kernel takes whole
// groups of four and math.Log the rest.
func logs(x []float64) {
	n := 0
	if useAVX2 {
		n = len(x) &^ 3
		logAVX2(x[:n])
	}
	logsGeneric(x[n:])
}

func logsGeneric(x []float64) {
	for i, v := range x {
		x[i] = math.Log(v)
	}
}

// adamGeneric applies one Adam step to the parameters p with gradients g
// and moment estimates m and v, which must be at least as long as p. c1 and
// c2 are 1-b1 and 1-b2; bc1 and bc2 are the step's bias corrections,
// 1-b1^t and 1-b2^t.
func adamGeneric(p, g, m, v []float64, b1, c1, b2, c2, lr, bc1, bc2, eps float64) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for i, gi := range g {
		mi := float64(b1*m[i]) + float64(c1*gi)
		vi := float64(b2*v[i]) + float64(c2*gi*gi)
		m[i], v[i] = mi, vi
		p[i] -= lr * (mi / bc1) / (math.Sqrt(vi/bc2) + eps)
	}
}
