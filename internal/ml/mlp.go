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
// reused buffer. Backprop visits only the active units (see forward): each
// pass over layer 1's active set serves two nonzero d2 rows, accumulating
// both rows of gW2 and every active d1 term, and each d1 term is still added
// in increasing row order exactly as a column walk would.
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

	p := newPass(h)
	// d1[k] is the gradient at layer 1's k-th active unit, p.act1[k].
	d1buf := make([]float64, h)

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
				prob := sigmoid(m.forward(x, p))
				// Backward (binary cross-entropy).
				dz3 := prob - float64(y[idx])
				for k, j := range p.act2 {
					gW3[j] += dz3 * p.val2[k]
				}
				gB3[0] += dz3
				d1 := d1buf[:len(p.act1)]
				clear(d1)
				// Nonzero d2 rows are taken in pairs; pend holds the first
				// of a pair until its partner turns up.
				pend, dpend := -1, 0.0
				for _, i := range p.act2 {
					di := dz3 * m.w3[i]
					if di == 0 {
						continue
					}
					gB2[i] += di
					if pend < 0 {
						pend, dpend = i, di
						continue
					}
					m.backRows(gW2, d1, p, pend, dpend, i, di)
					pend = -1
				}
				if pend >= 0 {
					m.backRow(gW2, d1, p, pend, dpend)
				}
				for k, i := range p.act1 {
					di := d1[k]
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

// backRows backpropagates two nonzero layer-2 rows i0 < i1 in one pass over
// layer 1's active set: gW2's rows i0 and i1 gain d·a1, and each active
// d1 term gains row i0's contribution before row i1's.
func (m *MLP) backRows(gW2, d1 []float64, p *pass, i0 int, d0 float64, i1 int, di1 float64) {
	h := m.Hidden
	g0, g1 := gW2[i0*h:(i0+1)*h], gW2[i1*h:(i1+1)*h]
	w0, w1 := m.w2[i0*h:(i0+1)*h], m.w2[i1*h:(i1+1)*h]
	val := p.val1[:len(p.act1)]
	d1 = d1[:len(p.act1)]
	for k, j := range p.act1 {
		a := val[k]
		g0[j] += d0 * a
		g1[j] += di1 * a
		d1[k] = d1[k] + d0*w0[j] + di1*w1[j]
	}
}

// backRow is backRows for the last, unpaired row.
func (m *MLP) backRow(gW2, d1 []float64, p *pass, i int, di float64) {
	h := m.Hidden
	g, w := gW2[i*h:(i+1)*h], m.w2[i*h:(i+1)*h]
	val := p.val1[:len(p.act1)]
	d1 = d1[:len(p.act1)]
	for k, j := range p.act1 {
		g[j] += di * val[k]
		d1[k] += di * w[j]
	}
}

func scaleInPlace(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// pass is one sample's trip through the network: the pre-activation
// scratch z and, per hidden layer, its active set — the units whose
// pre-activation is positive — as increasing unit indices plus their ReLU
// values. Every other unit's activation is zero.
type pass struct {
	z          []float64
	act1, act2 []int
	val1, val2 []float64
}

func newPass(h int) *pass {
	return &pass{
		z:    make([]float64, h),
		act1: make([]int, 0, h), act2: make([]int, 0, h),
		val1: make([]float64, 0, h), val2: make([]float64, 0, h),
	}
}

// forward runs one sample through the network, recording both hidden
// layers' active sets in p, and returns the output logit. Only the first
// min(d, len(x)) inputs are read, so a matrix narrower or wider than the
// fitted one still predicts.
//
// Layer 2, the output and backprop sum only over active units. That is
// exact, bit for bit, against summing over every unit: an inactive unit's
// term is w·0 = ±0 for finite w, each kept sum adds the same terms in the
// same order, and every accumulator starts at a bias or at +0. A
// round-to-nearest sum can only become −0 from −0 + −0, and no bias ever
// becomes −0 (biases start at +0, and Adam's b − step is −0 only when b
// already is), so no accumulator is −0 and adding ±0 leaves it unchanged.
// The argument needs finite weights (Inf·0 is NaN). Fit keeps them finite
// when its inputs are: Pipeline imputes NaN and rejects ±Inf before a fit,
// and each Adam step is bounded by about the learning rate. Layer 1 sums
// every input, so a prediction over non-finite inputs still matches the
// dense sums.
func (m *MLP) forward(x []float64, p *pass) float64 {
	if len(x) > m.d {
		x = x[:m.d]
	}
	dense(m.w1, m.d, m.b1, x, p.z)
	p.act1, p.val1 = active(p.z, p.act1, p.val1)
	denseActive(m.w2, m.Hidden, m.b2, p.act1, p.val1, p.z)
	p.act2, p.val2 = active(p.z, p.act2, p.val2)
	z3 := m.b3
	for k, j := range p.act2 {
		z3 += m.w3[j] * p.val2[k]
	}
	return z3
}

// active returns the indices and values of z's positive entries, reusing
// the storage of act and val, whose capacity must cover len(z). Every entry
// is written and only the count moves, so the compiler can drop the
// unpredictable branch on the sign.
func active(z []float64, act []int, val []float64) ([]int, []float64) {
	act, val = act[:len(z)], val[:len(z)]
	n := 0
	for i, s := range z {
		act[n], val[n] = i, s
		if s > 0 {
			n++
		}
	}
	return act[:n], val[:n]
}

// dense computes z = W·x + b for a row-major W with stride cols. Rows run
// four at a time with one accumulator each, so every z[i] still sums its
// terms in increasing j from b[i], bit for bit like a plain row loop, while
// x is read once per block instead of once per row.
func dense(w []float64, cols int, b, x, z []float64) {
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
}

// denseActive is dense over a sparse input: x[act[k]] = val[k] and every
// other input is zero, so each z[i] sums only the active terms, in
// increasing index order.
func denseActive(w []float64, cols int, b []float64, act []int, val, z []float64) {
	val = val[:len(act)]
	i := 0
	for ; i+4 <= len(z); i += 4 {
		r0 := w[i*cols : (i+1)*cols]
		r1 := w[(i+1)*cols : (i+2)*cols]
		r2 := w[(i+2)*cols : (i+3)*cols]
		r3 := w[(i+3)*cols : (i+4)*cols]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for k, j := range act {
			v := val[k]
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		z[i], z[i+1], z[i+2], z[i+3] = s0, s1, s2, s3
	}
	for ; i < len(z); i++ {
		s := b[i]
		r := w[i*cols : (i+1)*cols]
		for k, j := range act {
			s += r[j] * val[k]
		}
		z[i] = s
	}
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	if !m.fitted {
		return out
	}
	p := newPass(m.Hidden)
	xbuf := make([]float64, X.Cols())
	for r := range out {
		out[r] = sigmoid(m.forward(X.Row(r, xbuf), p))
	}
	return out
}
