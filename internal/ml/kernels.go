package ml

import "math"

// The neural and linear fits spend their time in two loops: axpy
// (z[i] += v·r[i]), which runs every layer of the MLP and the logistic
// logit sweep, and the Adam update. Each has a pure-Go generic twin and, on
// amd64 CPUs with AVX2, an assembly kernel (kernels_amd64.s) chosen once at
// init through useAVX2. The twin is the fallback everywhere else and the
// reference FuzzKernels holds the kernel to.
//
// The kernels must give the twins' bits. Their lanes run across independent
// outputs, never across the terms of one sum, so each output is the same
// expression evaluated in the same order. Multiply and add stay separate,
// correctly rounded instructions (no FMA), and every constant, 1-beta1
// included, is computed in Go and passed in. The twins convert each product
// that feeds a sum to float64 explicitly, which keeps the compiler from
// fusing the two into an FMA on targets that have one.

// axpy adds v·r[i] to z[i] for every i in z; r must be at least as long.
func axpy(z []float64, v float64, r []float64) {
	if useAVX2 {
		axpyAVX2(z, v, r[:len(z)])
		return
	}
	axpyGeneric(z, v, r)
}

func axpyGeneric(z []float64, v float64, r []float64) {
	r = r[:len(z)]
	for i, x := range r {
		z[i] += float64(v * x)
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
