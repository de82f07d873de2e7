package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
