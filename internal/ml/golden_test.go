package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the columnar kernel to the historical row-major
// implementation: the reference tree below is the seed repo's CART verbatim
// (row-major [][]float64, per-node sort.Slice split search, materialized
// bootstrap samples). The new scratch-buffer split finder and the shared-
// matrix forest must reproduce its trees node for node and its forests
// probability for probability.

type refNode struct {
	feature     int
	thresh      float64
	left, right int
	prob        float64
}

type refTree struct {
	cfg   TreeConfig
	nodes []refNode
	rng   *rand.Rand
}

func newRefTree(cfg TreeConfig) *refTree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = 1
	}
	return &refTree{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (t *refTree) fit(X [][]float64, y []int) {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.build(X, y, idx, 0)
}

func (t *refTree) build(X [][]float64, y []int, idx []int, depth int) int {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	node := refNode{left: -1, right: -1, prob: float64(pos) / float64(len(idx))}
	self := len(t.nodes)
	t.nodes = append(t.nodes, node)
	if depth >= t.cfg.MaxDepth || pos == 0 || pos == len(idx) || len(idx) < 2*t.cfg.MinSamplesLeaf {
		return self
	}
	feat, thresh, gain := t.bestSplit(X, y, idx, pos)
	if feat < 0 || gain <= 1e-12 {
		return self
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][feat] <= thresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) < t.cfg.MinSamplesLeaf || len(rightIdx) < t.cfg.MinSamplesLeaf {
		return self
	}
	l := t.build(X, y, leftIdx, depth+1)
	r := t.build(X, y, rightIdx, depth+1)
	t.nodes[self].feature = feat
	t.nodes[self].thresh = thresh
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

func (t *refTree) bestSplit(X [][]float64, y []int, idx []int, pos int) (int, float64, float64) {
	d := len(X[0])
	feats := t.candidateFeatures(d)
	n := len(idx)
	parent := gini(pos, n)
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	if t.cfg.RandomSplits {
		for _, f := range feats {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range idx {
				v := X[i][f]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi <= lo {
				continue
			}
			thresh := lo + t.rng.Float64()*(hi-lo)
			ln, lp := 0, 0
			for _, i := range idx {
				if X[i][f] <= thresh {
					ln++
					lp += y[i]
				}
			}
			rn, rp := n-ln, pos-lp
			if ln < t.cfg.MinSamplesLeaf || rn < t.cfg.MinSamplesLeaf {
				continue
			}
			gain := parent - (float64(ln)*gini(lp, ln)+float64(rn)*gini(rp, rn))/float64(n)
			if gain > bestGain {
				bestFeat, bestThresh, bestGain = f, thresh, gain
			}
		}
		return bestFeat, bestThresh, bestGain
	}
	order := make([]int, n)
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		ln, lp := 0, 0
		for k := 0; k < n-1; k++ {
			i := order[k]
			ln++
			lp += y[i]
			if X[order[k+1]][f] == X[i][f] {
				continue
			}
			rn, rp := n-ln, pos-lp
			if ln < t.cfg.MinSamplesLeaf || rn < t.cfg.MinSamplesLeaf {
				continue
			}
			gain := parent - (float64(ln)*gini(lp, ln)+float64(rn)*gini(rp, rn))/float64(n)
			if gain > bestGain {
				bestFeat, bestGain = f, gain
				bestThresh = (X[i][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain
}

func (t *refTree) candidateFeatures(d int) []int {
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= d {
		out := make([]int, d)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := t.rng.Perm(d)
	return perm[:t.cfg.MaxFeatures]
}

// synthTies builds data with heavy value ties so the equivalence test also
// covers the unstable-sort-within-runs case.
func synthTies(n, d int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(rng.Intn(5)) // few distinct values → many ties
		}
		X[i] = row
		if row[0]+row[d-1] > 4 {
			y[i] = 1
		}
	}
	return X, y
}

func assertTreeMatchesRef(t *testing.T, tree *Tree, ref *refTree) {
	t.Helper()
	if len(tree.nodes) != len(ref.nodes) {
		t.Fatalf("node count %d, reference %d", len(tree.nodes), len(ref.nodes))
	}
	for i, n := range tree.nodes {
		r := ref.nodes[i]
		if n.feature != r.feature || n.thresh != r.thresh || n.left != r.left || n.right != r.right || n.prob != r.prob {
			t.Fatalf("node %d differs: got {f:%d t:%v l:%d r:%d p:%v}, ref {f:%d t:%v l:%d r:%d p:%v}",
				i, n.feature, n.thresh, n.left, n.right, n.prob,
				r.feature, r.thresh, r.left, r.right, r.prob)
		}
	}
}

func TestTreeGoldenEquivalence(t *testing.T) {
	configs := []TreeConfig{
		{MaxDepth: 8, Seed: 1},
		{MaxDepth: 12, MinSamplesLeaf: 3, Seed: 2},
		{MaxDepth: 10, MaxFeatures: 3, Seed: 3},
		{MaxDepth: 8, RandomSplits: true, Seed: 4},
		{MaxDepth: 12, MaxFeatures: 2, RandomSplits: true, MinSamplesLeaf: 2, Seed: 5},
	}
	datasets := []struct {
		name string
		X    [][]float64
		y    []int
	}{}
	for seed := int64(10); seed < 13; seed++ {
		X, y := synthLinear(400, 6, seed)
		datasets = append(datasets, struct {
			name string
			X    [][]float64
			y    []int
		}{"linear", X, y})
		Xt, yt := synthTies(400, 6, seed)
		datasets = append(datasets, struct {
			name string
			X    [][]float64
			y    []int
		}{"ties", Xt, yt})
	}
	for _, cfg := range configs {
		for _, ds := range datasets {
			tree := NewTree(cfg)
			if err := tree.Fit(mustMatrix(t, ds.X), ds.y); err != nil {
				t.Fatal(err)
			}
			ref := newRefTree(cfg)
			ref.fit(ds.X, ds.y)
			assertTreeMatchesRef(t, tree, ref)
		}
	}
}

// refForestProba reproduces the seed repo's forest: same per-tree seed
// derivation, materialized bootstrap samples, reference trees.
func refForestProba(X [][]float64, y []int, numTrees int, seed int64, bootstrap, randomSplits bool, probe [][]float64) []float64 {
	d := len(X[0])
	maxFeatures := int(math.Ceil(math.Sqrt(float64(d))))
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, numTrees)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]float64, len(probe))
	for ti := 0; ti < numTrees; ti++ {
		tree := newRefTree(TreeConfig{MaxFeatures: maxFeatures, RandomSplits: randomSplits, Seed: seeds[ti]})
		Xi, yi := X, y
		if bootstrap {
			sampleRng := rand.New(rand.NewSource(seeds[ti] ^ 0x5f5f5f5f))
			rows := bootstrapSample(sampleRng, len(X))
			Xi = make([][]float64, len(rows))
			yi = make([]int, len(rows))
			for k, r := range rows {
				Xi[k] = X[r]
				yi[k] = y[r]
			}
		}
		tree.fit(Xi, yi)
		for p, row := range probe {
			n := 0
			for {
				node := tree.nodes[n]
				if node.left < 0 {
					out[p] += node.prob
					break
				}
				if row[node.feature] <= node.thresh {
					n = node.left
				} else {
					n = node.right
				}
			}
		}
	}
	for i := range out {
		out[i] /= float64(numTrees)
	}
	return out
}

func TestForestGoldenEquivalence(t *testing.T) {
	X, y := synthLinear(500, 7, 21)
	probe := X[:40]
	m := mustMatrix(t, X)
	probeM := mustMatrix(t, probe)

	// Pin the exact kernel: this reference is the seed's sort-scan CART;
	// histogram-vs-exact equivalence is pinned separately in
	// histogram_test.go.
	rf := NewRandomForest(12, 77)
	rf.Histogram = false
	if err := rf.Fit(m, y); err != nil {
		t.Fatal(err)
	}
	got := rf.PredictProba(probeM)
	want := refForestProba(X, y, 12, 77, true, false, probe)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("RF proba[%d] = %v, reference %v", i, got[i], want[i])
		}
	}

	et := NewExtraTrees(12, 78)
	et.Histogram = false
	if err := et.Fit(m, y); err != nil {
		t.Fatal(err)
	}
	got = et.PredictProba(probeM)
	want = refForestProba(X, y, 12, 78, false, true, probe)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ET proba[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
}

func TestSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		vals := make([]float64, n)
		labs := make([]int8, n)
		type pair struct {
			v float64
			l int8
		}
		pairs := make([]pair, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(20)) // ties included
			labs[i] = int8(rng.Intn(2))
			pairs[i] = pair{vals[i], labs[i]}
		}
		sortPairs(vals, labs)
		sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		labelSum := func(ls []int8) int {
			s := 0
			for _, l := range ls {
				s += int(l)
			}
			return s
		}
		_ = labelSum
		for i := 1; i < n; i++ {
			if vals[i-1] > vals[i] {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
		// Same multiset of values, and same label sum per value run.
		i := 0
		for i < n {
			j := i
			for j < n && pairs[j].v == pairs[i].v {
				j++
			}
			if vals[i] != pairs[i].v {
				t.Fatalf("trial %d: value mismatch at %d", trial, i)
			}
			gotSum, wantSum := 0, 0
			for k := i; k < j; k++ {
				gotSum += int(labs[k])
				wantSum += int(pairs[k].l)
			}
			if gotSum != wantSum {
				t.Fatalf("trial %d: label sum mismatch in run at %d", trial, i)
			}
			i = j
		}
	}
}

// probaDigest is the SHA-256 of a probability vector's IEEE-754 bits, so a
// pin fails on any last-bit change.
func probaDigest(p []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMLPGoldenDigest pins the MLP's fitted probabilities bit for bit to the
// historical [][]float64 implementation with column-walking backprop. The
// second shape has a hidden width and an input width that are not multiples
// of four, and a short final mini-batch; its model is also probed with
// narrower and wider matrices than it was fitted on (PredictProba reads the
// first min(d, cols) inputs).
func TestMLPGoldenDigest(t *testing.T) {
	cases := []struct {
		name                     string
		n, d, hidden, epochs, bs int
		seed                     int64
		probeCols                []int
		want                     []string
	}{
		{"hidden100", 300, 13, 100, 3, 64, 1, []int{13}, []string{
			"7db7a62bb0616ad81331f8b5555fd01c13354167ba3685cf77eac56ab66941b7",
		}},
		{"hidden37-d7", 150, 7, 37, 4, 40, 2, []int{7, 5, 10}, []string{
			"8b4d0e0e7dc7794d9ba8e19d385ca07a4d3cb86ccde35610f9912157521483e7",
			"8012e911c0f9e47d41430c0ea3f6e5460bdaedaca2b469465c57e05a3b88f696",
			"8b4d0e0e7dc7794d9ba8e19d385ca07a4d3cb86ccde35610f9912157521483e7",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := synthLinear(tc.n, tc.d, tc.seed+40)
			m := &MLP{Hidden: tc.hidden, Epochs: tc.epochs, BatchSize: tc.bs, LearningRate: 1e-3, Seed: tc.seed}
			if err := m.Fit(mustMatrix(t, X), y); err != nil {
				t.Fatal(err)
			}
			for k, cols := range tc.probeCols {
				probe := make([][]float64, len(X))
				for i, row := range X {
					probe[i] = make([]float64, cols)
					for j := range probe[i] {
						probe[i][j] = row[j%tc.d] + float64(j/tc.d)
					}
				}
				if got := probaDigest(m.PredictProba(mustMatrix(t, probe))); got != tc.want[k] {
					t.Errorf("probe with %d columns: digest %s, want %s", cols, got, tc.want[k])
				}
			}
		})
	}
}

// refMLP is the dense MLP kernel from before forward and backprop learned to
// skip inactive ReLU units: every unit of both hidden layers enters every
// sum. Its refDense is the plain row loop the four-row blocked kernel
// reproduced bit for bit. TestMLPMatchesDenseRef holds the active-set kernel
// to it bit for bit.
type refMLP struct {
	MLP
}

func (m *refMLP) fit(X *Matrix, y []int) {
	rng := rand.New(rand.NewSource(m.Seed))
	n, d, h := X.Rows(), X.Cols(), m.Hidden

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
}

func (m *refMLP) forward(x, z1, a1, z2, a2 []float64) float64 {
	if len(x) > m.d {
		x = x[:m.d]
	}
	refDense(m.w1, m.d, m.b1, x, z1, a1)
	refDense(m.w2, m.Hidden, m.b2, a1, z2, a2)
	z3 := m.b3
	for j, v := range a2 {
		z3 += m.w3[j] * v
	}
	return z3
}

func refDense(w []float64, cols int, b, x, z, a []float64) {
	for i := range z {
		s := b[i]
		for j, v := range x {
			s += w[i*cols+j] * v
		}
		z[i] = s
		if s > 0 {
			a[i] = s
		} else {
			a[i] = 0
		}
	}
}

func (m *refMLP) predictProba(X *Matrix) []float64 {
	out := make([]float64, X.Rows())
	h := m.Hidden
	z1, a1 := make([]float64, h), make([]float64, h)
	z2, a2 := make([]float64, h), make([]float64, h)
	xbuf := make([]float64, X.Cols())
	for r := range out {
		out[r] = sigmoid(m.forward(X.Row(r, xbuf), z1, a1, z2, a2))
	}
	return out
}

// TestMLPMatchesDenseRef compares the active-set MLP with the dense
// reference bit for bit, across hidden widths down to a single unit, one-
// and many-input nets, short final mini-batches, an all-zero input column
// and all-zero rows (the imputed-missing case that leaves units dead), and
// probes narrower and wider than the fitted width.
func TestMLPMatchesDenseRef(t *testing.T) {
	cases := []struct {
		n, d, hidden, epochs, bs int
		seed                     int64
	}{
		{250, 13, 100, 3, 64, 1},
		{150, 13, 37, 4, 40, 2},
		{120, 1, 5, 8, 32, 3},
		{90, 13, 1, 6, 7, 4},
		{200, 1, 100, 3, 48, 5},
		{130, 13, 5, 10, 64, 6},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("hidden%d-d%d-bs%d", tc.hidden, tc.d, tc.bs)
		t.Run(name, func(t *testing.T) {
			X, y := synthLinear(tc.n, tc.d, tc.seed+70)
			for i := range X {
				if tc.d > 1 {
					X[i][tc.d/2] = 0
				}
				if i%11 == 3 {
					clear(X[i])
				}
			}
			cfg := MLP{Hidden: tc.hidden, Epochs: tc.epochs, BatchSize: tc.bs, LearningRate: 1e-3, Seed: tc.seed}
			m, ref := cfg, &refMLP{MLP: cfg}
			if err := m.Fit(mustMatrix(t, X), y); err != nil {
				t.Fatal(err)
			}
			ref.fit(mustMatrix(t, X), y)
			probeCols := []int{tc.d, tc.d + 3}
			if tc.d > 1 {
				probeCols = append(probeCols, tc.d-2)
			}
			for _, cols := range probeCols {
				probe := make([][]float64, len(X))
				for i, row := range X {
					probe[i] = make([]float64, cols)
					for j := range probe[i] {
						probe[i][j] = row[j%tc.d] + float64(j/tc.d)
					}
				}
				P := mustMatrix(t, probe)
				got, want := m.PredictProba(P), ref.predictProba(P)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("probe with %d columns, row %d: %v, reference %v", cols, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestLogisticGoldenDigest pins the bits of the logistic fit: its weights
// and bias, then its probabilities on the training rows. The first shape has
// a row count and a width that are not multiples of four. The second scales
// separable data so far that most logits pass sigmoid's ±35 cut-off, so the
// loss clamp on p decides the stopping rule.
func TestLogisticGoldenDigest(t *testing.T) {
	cases := []struct {
		name         string
		n, d         int
		seed         int64
		scale        float64
		fit, predict string
	}{
		{"linear-n403-d9", 403, 9, 50, 1,
			"950408b101c68221cb3088b9f4b02d060ac7e8c7f7f9d9801ee46cc93ffdaf63",
			"4cb14a3df982ef88caf7cd6ca00c2f83ff0464da165a6fedd3feac2debca1e1d"},
		{"saturated-n250-d5", 250, 5, 51, 40,
			"11202f05d1ae40598faf9f107e2d85d4781dcb1d1e6585e5d9f4a366b2c012fe",
			"347b2b3f4401e7a68c7d875bb0b0a54f139b8ffadb457dca6c10c908c3934d62"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := synthLinear(tc.n, tc.d, tc.seed)
			for _, row := range X {
				for j := range row {
					row[j] *= tc.scale
				}
			}
			m := mustMatrix(t, X)
			lr := NewLogistic()
			if err := lr.Fit(m, y); err != nil {
				t.Fatal(err)
			}
			if got := probaDigest(append(lr.Weights(), lr.bias)); got != tc.fit {
				t.Errorf("weights and bias: digest %s, want %s", got, tc.fit)
			}
			if got := probaDigest(lr.PredictProba(m)); got != tc.predict {
				t.Errorf("probabilities: digest %s, want %s", got, tc.predict)
			}
		})
	}
}
