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
	// w3 1×Hidden. Adam updates these; w1t and w2t are transposed copies,
	// refreshed after every step, that the forward pass reads.
	w1, w2, w3 []float64
	w1t, w2t   []float64
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

// Adam's moment decay rates and denominator guard.
const beta1, beta2, adamEps = 0.9, 0.999, 1e-8

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
	a.t++
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	g, m, v := grads[:len(params)], a.m[:len(params)], a.v[:len(params)]
	if useAVX2 {
		adamAVX2(params, g, m, v, beta1, 1-beta1, beta2, 1-beta2, a.lr, bc1, bc2, adamEps)
		return
	}
	adamGeneric(params, g, m, v, beta1, 1-beta1, beta2, 1-beta2, a.lr, bc1, bc2, adamEps)
}

// Fit implements Classifier. The mini-batch SGD loop is inherently
// row-oriented, so each sample is gathered from the columnar matrix into
// the batch's row of inputs, and its layer-1 activations are kept beside
// it. Backprop walks the nonzero layer-2 deltas in increasing unit order,
// and one rowsum adds each one's multiple of its row of w2 to the layer-1
// deltas. Every nonzero layer-2 delta, and every nonzero delta of an
// active layer-1 unit, joins its unit's list of (sample, delta) pairs.
// Once the batch is done, each row of gW2 and gW1 is one rowsum of its
// unit's deltas times its samples' a1 or x rows, in sample order. Every
// gradient entry sums its terms in the order the dense column walk did.
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
	m.w1t = make([]float64, d*h)
	m.w2t = make([]float64, h*h)
	m.transpose()

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

	p := newPass(h, d)
	d1 := make([]float64, h)
	// The nonzero layer-2 deltas and their units, for d1's rowsum.
	d2 := make([]float64, 0, h)
	d2Units := make([]int, 0, h)
	// One row per batch sample: its inputs and its layer-1 activations,
	// the rows each unit's gradient rowsum reads.
	batchMax := min(m.BatchSize, n)
	xs := make([]float64, batchMax*d)
	a1s := make([]float64, batchMax*h)
	g2 := newUnitDeltas(h, batchMax)
	g1 := newUnitDeltas(h, batchMax)

	order := rng.Perm(n)

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
			for s, idx := range batch {
				x := X.Row(idx, xs[s*d:])
				prob := sigmoid(m.forward(x, p))
				copy(a1s[s*h:], p.a1)
				// Backward (binary cross-entropy).
				dz3 := prob - float64(y[idx])
				for _, j := range p.act2 {
					gW3[j] += dz3 * p.a2[j]
				}
				gB3[0] += dz3
				d2, d2Units = d2[:0], d2Units[:0]
				for _, i := range p.act2 {
					di := dz3 * m.w3[i]
					if di == 0 {
						continue
					}
					gB2[i] += di
					g2.add(i, s, di)
					d2 = append(d2, di)
					d2Units = append(d2Units, i)
				}
				clear(d1)
				rowsum(d1, d2, d2Units, m.w2, h)
				for _, i := range p.act1 {
					di := d1[i]
					if di == 0 {
						continue
					}
					g1.add(i, s, di)
					gB1[i] += di
				}
			}
			g2.sum(gW2, a1s, h)
			g1.sum(gW1, xs, d)
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
			m.transpose()
		}
	}
	m.fitted = true
	return nil
}

// transpose refreshes w1t and w2t from w1 and w2.
func (m *MLP) transpose() {
	h, d := m.Hidden, m.d
	for i := 0; i < h; i++ {
		for j, w := range m.w1[i*d : (i+1)*d] {
			m.w1t[j*h+i] = w
		}
		for j, w := range m.w2[i*h : (i+1)*h] {
			m.w2t[j*h+i] = w
		}
	}
}

// unitDeltas holds, for each hidden unit, the batch samples with a nonzero
// delta for that unit and those deltas, in sample order. Unit i's pairs
// sit at [i·batch, i·batch+n[i]), so a batch never outgrows the storage.
type unitDeltas struct {
	samples []int
	deltas  []float64
	n       []int
	batch   int
}

func newUnitDeltas(h, batch int) *unitDeltas {
	return &unitDeltas{
		samples: make([]int, h*batch), deltas: make([]float64, h*batch),
		n: make([]int, h), batch: batch,
	}
}

// add appends sample s's delta for unit i.
func (u *unitDeltas) add(i, s int, delta float64) {
	k := i*u.batch + u.n[i]
	u.samples[k], u.deltas[k] = s, delta
	u.n[i]++
}

// sum adds to each unit's row of g, width w, its deltas times its samples'
// rows of rows, then empties every list.
func (u *unitDeltas) sum(g, rows []float64, w int) {
	for i, c := range u.n {
		k := i * u.batch
		rowsum(g[i*w:(i+1)*w], u.deltas[k:k+c], u.samples[k:k+c], rows, w)
		u.n[i] = 0
	}
}

func scaleInPlace(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// pass is one sample's trip through the network: per hidden layer, its
// activations and its active set, the increasing indices of the units
// whose pre-activation is positive. Every other unit's activation is +0.
// inputs (0…d−1) and act1Vals (the active units' a1 values) are layer 1's
// and layer 2's rowsum indices and coefficients.
type pass struct {
	a1, a2     []float64
	act1, act2 []int
	inputs     []int
	act1Vals   []float64
}

func newPass(h, d int) *pass {
	return &pass{
		a1: make([]float64, h), a2: make([]float64, h),
		act1: make([]int, 0, h), act2: make([]int, 0, h),
		inputs: indices(d), act1Vals: make([]float64, h),
	}
}

// forward runs one sample through the network, recording both hidden
// layers in p, and returns the output logit. Only the first min(d, len(x))
// inputs are read, so a matrix narrower or wider than the fitted one still
// predicts. Each layer is one rowsum: it starts from its bias and adds one
// input's column of weights at a time (a row of w1t or w2t), scaled by that
// input, so every unit sums its terms in increasing input order, as a
// row-by-row product would. Layer 1 sums over every input, layer 2 over the
// active layer-1 units.
//
// Layer 2 and the output sum only over active units, and backprop's gW2
// row sums add ±0 (a delta times an inactive unit's +0) for inactive
// layer-1 units. Both are exact, bit for bit, against dense sums: an
// inactive unit's term is w·0 = ±0 for finite w, each kept sum adds the
// same terms in the same order, and every accumulator starts at a bias or
// at +0. A round-to-nearest sum can only become −0 from −0 + −0, and no
// bias ever becomes −0 (biases start at +0, and Adam's b − step is −0 only
// when b already is), so no accumulator is −0 and adding ±0 leaves it
// unchanged. The argument needs finite weights (Inf·0 is NaN). Fit keeps
// them finite when its inputs are: Pipeline imputes NaN and rejects ±Inf
// before a fit, and each Adam step is bounded by about the learning rate.
// The layer-1 deltas of inactive units also collect terms, which backprop
// then ignores, as the dense walk zeroed them. Layer 1 sums every input,
// so a prediction over non-finite inputs still matches the dense sums.
func (m *MLP) forward(x []float64, p *pass) float64 {
	h := m.Hidden
	if len(x) > m.d {
		x = x[:m.d]
	}
	copy(p.a1, m.b1)
	rowsum(p.a1, x, p.inputs[:len(x)], m.w1t, h)
	p.act1 = relu(p.a1, p.act1)
	vals := p.act1Vals[:len(p.act1)]
	for k, j := range p.act1 {
		vals[k] = p.a1[j]
	}
	copy(p.a2, m.b2)
	rowsum(p.a2, vals, p.act1, m.w2t, h)
	p.act2 = relu(p.a2, p.act2)
	z3 := m.b3
	for _, j := range p.act2 {
		z3 += m.w3[j] * p.a2[j]
	}
	return z3
}

// relu sets a's entries that are not positive, NaN included, to +0 and
// returns the indices of the rest, reusing act's storage, whose capacity
// must cover len(a). Every index is written and only the count moves, so
// the compiler can drop the unpredictable branch on the sign.
func relu(a []float64, act []int) []int {
	act = act[:len(a)]
	n := 0
	for i, s := range a {
		act[n] = i
		var keep uint64
		if s > 0 {
			keep = ^uint64(0)
		}
		a[i] = math.Float64frombits(math.Float64bits(s) & keep)
		n += int(keep & 1)
	}
	return act[:n]
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	if !m.fitted {
		return out
	}
	p := newPass(m.Hidden, m.d)
	xbuf := make([]float64, X.Cols())
	for r := range out {
		out[r] = sigmoid(m.forward(X.Row(r, xbuf), p))
	}
	return out
}
