package ml

import (
	"math"
	"math/rand"
)

// MLP is a feed-forward network with two hidden ReLU layers of 100 units and
// a sigmoid output, trained with Adam on mini-batches — the paper's "DNN"
// (two hidden layers, 100 units each, ReLU).
type MLP struct {
	// Hidden is the width of both hidden layers (default 100, as in §4.1).
	Hidden int
	// Epochs is the number of passes over the training data.
	Epochs int
	// BatchSize for mini-batch SGD.
	BatchSize int
	// LearningRate for Adam.
	LearningRate float64
	// Seed drives init and shuffling.
	Seed int64

	// Layer weights, flat and row-major: w1 is Hidden×d, w2 Hidden×Hidden,
	// w3 1×Hidden.
	w1, w2, w3 []float64
	b1, b2     []float64
	b3         float64
	d          int // input width w1 was fitted on
	fitted     bool
}

// NewMLP returns the paper's DNN configuration.
func NewMLP(seed int64) *MLP {
	return &MLP{Hidden: 100, Epochs: 20, BatchSize: 64, LearningRate: 1e-3, Seed: seed}
}

// Name implements Classifier.
func (m *MLP) Name() string { return "DNN" }

// adam holds per-parameter Adam state.
type adam struct {
	m, v []float64
	t    int
	lr   float64
}

func newAdam(n int, lr float64) *adam {
	return &adam{m: make([]float64, n), v: make([]float64, n), lr: lr}
}

// step applies one Adam update to params given grads.
func (a *adam) step(params, grads []float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	for i := range params {
		g := grads[i]
		a.m[i] = beta1*a.m[i] + (1-beta1)*g
		a.v[i] = beta2*a.v[i] + (1-beta2)*g*g
		params[i] -= a.lr * (a.m[i] / bc1) / (math.Sqrt(a.v[i]/bc2) + eps)
	}
}

// Fit implements Classifier. The mini-batch SGD loop is inherently
// row-oriented, so each sample is gathered from the columnar matrix into a
// reused buffer. Backprop walks W2 by rows: one pass per nonzero d2[i]
// accumulates both gW2's row i and every d1[j], adding each d1[j]'s terms in
// increasing i exactly as a column walk would.
func (m *MLP) Fit(X *Matrix, y []int) error {
	if err := validate(X, y); err != nil {
		return err
	}
	if m.Hidden <= 0 {
		m.Hidden = 100
	}
	if m.Epochs <= 0 {
		m.Epochs = 20
	}
	if m.BatchSize <= 0 {
		m.BatchSize = 64
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 1e-3
	}
	rng := rand.New(rand.NewSource(m.Seed))
	n, d, h := X.Rows(), X.Cols(), m.Hidden

	// He initialisation for the ReLU layers.
	initLayer := func(rows, cols int) []float64 {
		w := make([]float64, rows*cols)
		scale := math.Sqrt(2 / float64(cols))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		return w
	}
	m.d = d
	m.w1 = initLayer(h, d)
	m.w2 = initLayer(h, h)
	m.w3 = initLayer(1, h)
	m.b1 = make([]float64, h)
	m.b2 = make([]float64, h)
	m.b3 = 0

	// One Adam state per tensor; weights are updated in place.
	optW1 := newAdam(h*d, m.LearningRate)
	optB1 := newAdam(h, m.LearningRate)
	optW2 := newAdam(h*h, m.LearningRate)
	optB2 := newAdam(h, m.LearningRate)
	optW3 := newAdam(h, m.LearningRate)
	optB3 := newAdam(1, m.LearningRate)

	gW1 := make([]float64, h*d)
	gW2 := make([]float64, h*h)
	gW3 := make([]float64, h)
	gB1 := make([]float64, h)
	gB2 := make([]float64, h)
	gB3 := make([]float64, 1)

	z1 := make([]float64, h)
	a1 := make([]float64, h)
	z2 := make([]float64, h)
	a2 := make([]float64, h)
	d2 := make([]float64, h)
	d1 := make([]float64, h)

	order := rng.Perm(n)
	xbuf := make([]float64, d)

	for epoch := 0; epoch < m.Epochs; epoch++ {
		// Reshuffle each epoch.
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for start := 0; start < n; start += m.BatchSize {
			end := min(start+m.BatchSize, n)
			batch := order[start:end]
			bs := float64(len(batch))
			clear(gW1)
			clear(gW2)
			clear(gW3)
			clear(gB1)
			clear(gB2)
			gB3[0] = 0
			for _, idx := range batch {
				x := X.Row(idx, xbuf)
				p := sigmoid(m.forward(x, z1, a1, z2, a2))
				// Backward (binary cross-entropy).
				dz3 := p - float64(y[idx])
				for j := 0; j < h; j++ {
					gW3[j] += dz3 * a2[j]
					d2[j] = dz3 * m.w3[j]
					if z2[j] <= 0 {
						d2[j] = 0
					}
				}
				gB3[0] += dz3
				clear(d1)
				for i, di := range d2 {
					if di == 0 {
						continue
					}
					grow := gW2[i*h : (i+1)*h]
					wrow := m.w2[i*h : (i+1)*h]
					for j := range grow {
						grow[j] += di * a1[j]
						d1[j] += di * wrow[j]
					}
					gB2[i] += di
				}
				for j, z := range z1 {
					if z <= 0 {
						d1[j] = 0
					}
				}
				for i, di := range d1 {
					if di == 0 {
						continue
					}
					grow := gW1[i*d : (i+1)*d]
					for j, v := range x {
						grow[j] += di * v
					}
					gB1[i] += di
				}
			}
			inv := 1 / bs
			scaleInPlace(gW1, inv)
			scaleInPlace(gW2, inv)
			scaleInPlace(gW3, inv)
			scaleInPlace(gB1, inv)
			scaleInPlace(gB2, inv)
			gB3[0] *= inv
			optW1.step(m.w1, gW1)
			optB1.step(m.b1, gB1)
			optW2.step(m.w2, gW2)
			optB2.step(m.b2, gB2)
			optW3.step(m.w3, gW3)
			b3s := []float64{m.b3}
			optB3.step(b3s, gB3)
			m.b3 = b3s[0]
		}
	}
	m.fitted = true
	return nil
}

func scaleInPlace(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// forward runs one sample through the network, filling both hidden layers'
// pre-activations (z1, z2) and ReLU activations (a1, a2), and returns the
// output logit. Only the first min(d, len(x)) inputs are read, so a matrix
// narrower or wider than the fitted one still predicts.
func (m *MLP) forward(x, z1, a1, z2, a2 []float64) float64 {
	if len(x) > m.d {
		x = x[:m.d]
	}
	dense(m.w1, m.d, m.b1, x, z1, a1)
	dense(m.w2, m.Hidden, m.b2, a1, z2, a2)
	z3 := m.b3
	for j, v := range a2 {
		z3 += m.w3[j] * v
	}
	return z3
}

// dense computes z = W·x + b and a = ReLU(z) for a row-major W with stride
// cols. Rows run four at a time with one accumulator each, so every z[i]
// still sums its terms in increasing j from b[i], bit for bit like a plain
// row loop, while x is read once per block instead of once per row.
func dense(w []float64, cols int, b, x, z, a []float64) {
	i := 0
	for ; i+4 <= len(z); i += 4 {
		r0 := w[i*cols : i*cols+len(x)]
		r1 := w[(i+1)*cols : (i+1)*cols+len(x)]
		r2 := w[(i+2)*cols : (i+2)*cols+len(x)]
		r3 := w[(i+3)*cols : (i+3)*cols+len(x)]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		z[i], z[i+1], z[i+2], z[i+3] = s0, s1, s2, s3
	}
	for ; i < len(z); i++ {
		s := b[i]
		for j, v := range x {
			s += w[i*cols+j] * v
		}
		z[i] = s
	}
	for i, s := range z {
		if s > 0 {
			a[i] = s
		} else {
			a[i] = 0
		}
	}
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	if !m.fitted {
		return out
	}
	h := m.Hidden
	z1, a1 := make([]float64, h), make([]float64, h)
	z2, a2 := make([]float64, h), make([]float64, h)
	xbuf := make([]float64, X.Cols())
	for r := range out {
		out[r] = sigmoid(m.forward(X.Row(r, xbuf), z1, a1, z2, a2))
	}
	return out
}
