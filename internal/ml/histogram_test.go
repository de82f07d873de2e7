package ml

import (
	"math"
	"math/rand"
	"testing"

	"smartfeat/internal/metrics"
)

// This file pins the histogram-binned split kernel (histogram.go) against
// the exact sort-scan kernel. Whenever every column has at most MaxBins
// distinct values, each bin holds exactly one observed value, so the
// histogram scan considers exactly the exact kernel's candidate cuts with
// identical thresholds, counts and gains — the grown trees must match node
// for node, through the subtraction trick, the shared root histograms and
// the tiny-node exact fallback alike. Columns with more distinct values
// scan a quantile subset of the cuts; there the kernels may grow different
// trees but must stay AUC-neutral (asserted with tolerance below).

// assertTreesIdentical compares two fitted trees node for node.
func assertTreesIdentical(t *testing.T, a, b *Tree) {
	t.Helper()
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, a.nodes[i], b.nodes[i])
		}
	}
	for j := range a.importance {
		if a.importance[j] != b.importance[j] {
			t.Fatalf("importance %d differs: %v vs %v", j, a.importance[j], b.importance[j])
		}
	}
}

// fitKernelPair trains two identically-configured trees, one per kernel.
func fitKernelPair(t *testing.T, cfg TreeConfig, X *Matrix, y []int) (hist, exact *Tree) {
	t.Helper()
	hcfg := cfg
	hcfg.Histogram = true
	hist = NewTree(hcfg)
	if err := hist.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ecfg := cfg
	ecfg.Histogram = false
	exact = NewTree(ecfg)
	if err := exact.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return hist, exact
}

// TestHistogramTreeEquivalenceTies forces the histogram path on every node
// (HistMinNode=2) over tie-heavy data whose columns all have fewer distinct
// values than MaxBins: the histogram tree must match the exact tree node
// for node. MaxFeatures=0 configs make every right child derive its
// histograms by subtraction; MaxFeatures-subsampled configs exercise the
// partial parent∩sibling overlap.
func TestHistogramTreeEquivalenceTies(t *testing.T) {
	configs := []TreeConfig{
		{MaxDepth: 8, HistMinNode: 2},
		{MaxDepth: 12, MinSamplesLeaf: 3, HistMinNode: 2},
		{MaxDepth: 10, MaxFeatures: 3, HistMinNode: 2, Seed: 3},
		{MaxDepth: 12, MaxFeatures: 2, MinSamplesLeaf: 2, HistMinNode: 2, Seed: 5},
	}
	for seed := int64(40); seed < 43; seed++ {
		Xr, y := synthTies(500, 6, seed)
		X := mustMatrix(t, Xr)
		for _, cfg := range configs {
			hist, exact := fitKernelPair(t, cfg, X, y)
			assertTreesIdentical(t, hist, exact)
		}
	}
}

// TestHistogramTinyNodeFallback runs with the default fallback threshold on
// data small enough that most nodes sit below it: the mixed hist-then-exact
// recursion must still match the pure exact kernel node for node (the
// fallback's sort-scan emits the same candidates the bin scan would).
func TestHistogramTinyNodeFallback(t *testing.T) {
	Xr, y := synthTies(400, 5, 77)
	X := mustMatrix(t, Xr)
	for _, cfg := range []TreeConfig{
		{MaxDepth: 10},                       // default HistMinNode: 128 — fallback everywhere below the top levels
		{MaxDepth: 10, HistMinNode: 1 << 30}, // fallback on every node
	} {
		hist, exact := fitKernelPair(t, cfg, X, y)
		assertTreesIdentical(t, hist, exact)
	}
}

// TestHistogramConstantColumns checks constant columns are skipped as
// uncuttable by both kernels, including the all-constant single-leaf case.
func TestHistogramConstantColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	X := NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		X.Col(0)[i] = 3.25                       // constant
		X.Col(1)[i] = float64(rng.Intn(6))       // informative-ish
		X.Col(2)[i] = -1                         // constant
		X.Col(3)[i] = float64(rng.Intn(3)) - 0.5 // few distinct
		if X.At(i, 1)+X.At(i, 3) > 3 {
			y[i] = 1
		}
	}
	hist, exact := fitKernelPair(t, TreeConfig{MaxDepth: 8, HistMinNode: 2}, X, y)
	assertTreesIdentical(t, hist, exact)
	if len(hist.nodes) < 3 {
		t.Fatal("tree should still split on the non-constant columns")
	}

	// All-constant matrix: no admissible cut anywhere — a single leaf.
	C := NewMatrix(50, 2)
	for i := 0; i < 50; i++ {
		C.Col(0)[i] = 1
		C.Col(1)[i] = 2
	}
	yc := make([]int, 50)
	for i := 25; i < 50; i++ {
		yc[i] = 1
	}
	leaf := NewTree(TreeConfig{Histogram: true, HistMinNode: 2})
	if err := leaf.Fit(C, yc); err != nil {
		t.Fatal(err)
	}
	if len(leaf.nodes) != 1 {
		t.Fatalf("all-constant data should yield a single leaf, got %d nodes", len(leaf.nodes))
	}
}

// TestHistogramForestEquivalence pins the forest paths on tie-heavy data:
// bootstrap forests (per-tree resampled rows over the shared forest bins)
// and non-bootstrap greedy forests (shared full-set root histograms) must
// reproduce the exact kernel's forests node for node; the extra-trees
// random-split rule ignores Histogram entirely and must be bit-identical
// by construction.
func TestHistogramForestEquivalence(t *testing.T) {
	X, y := presortTestData(500, 9, 17)
	mk := func(hist bool, bootstrap bool, randomSplits bool) *Forest {
		return &Forest{
			NumTrees:     15,
			Bootstrap:    bootstrap,
			RandomSplits: randomSplits,
			Histogram:    hist,
			HistMinNode:  2,
			Seed:         321,
			name:         "equiv",
		}
	}
	cases := []struct {
		name                    string
		bootstrap, randomSplits bool
	}{
		{"bootstrap-greedy (RF)", true, false},
		{"nonbootstrap-greedy", false, false},
		{"extra-trees", false, true},
	}
	for _, c := range cases {
		hist := mk(true, c.bootstrap, c.randomSplits)
		exact := mk(false, c.bootstrap, c.randomSplits)
		if err := hist.Fit(X, y); err != nil {
			t.Fatalf("%s hist: %v", c.name, err)
		}
		if err := exact.Fit(X, y); err != nil {
			t.Fatalf("%s exact: %v", c.name, err)
		}
		assertForestsIdentical(t, hist, exact, X)
	}
}

// TestHistogramQuantileAUCNeutral covers the quantile regime: continuous
// columns with far more distinct values than MaxBins, where the histogram
// kernel scans a quantile-spaced subset of the exact kernel's cut points.
// Trees may differ; held-out AUC must not (documented AUC-neutrality).
func TestHistogramQuantileAUCNeutral(t *testing.T) {
	Xr, y := synthLinear(2000, 8, 99)
	train, test := metrics.TrainTestSplit(len(Xr), 0.25, 5)
	Xtr, ytr := take(Xr, y, train)
	Xte, yte := take(Xr, y, test)
	mtr, mte := mustMatrix(t, Xtr), mustMatrix(t, Xte)

	aucOf := func(maxBins int, hist bool) float64 {
		f := NewRandomForest(30, 11)
		f.Histogram = hist
		f.MaxBins = maxBins
		if err := f.Fit(mtr, ytr); err != nil {
			t.Fatal(err)
		}
		auc, err := metrics.AUC(yte, f.PredictProba(mte))
		if err != nil {
			t.Fatal(err)
		}
		return auc
	}
	exact := aucOf(0, false)
	for _, maxBins := range []int{0, 64, 16} {
		hist := aucOf(maxBins, true)
		if math.Abs(hist-exact) > 0.02 {
			t.Fatalf("maxBins=%d: hist AUC %.4f vs exact %.4f — not AUC-neutral", maxBins, hist, exact)
		}
	}
}

// TestBinnedColInvariants checks the bin builder directly: bin counts stay
// within MaxBins, per-bin value ranges are disjoint and ordered, every row
// maps into the bin covering its value, the full-set root histogram sums
// to the training set, and the ≤MaxBins-distinct regime gets exactly one
// bin per distinct value.
func TestBinnedColInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name    string
		maxBins int
		gen     func(i int) float64
	}{
		{"continuous", 32, func(int) float64 { return rng.NormFloat64() }},
		{"ties", 32, func(int) float64 { return float64(rng.Intn(10)) }},
		{"skewed-runs", 8, func(i int) float64 {
			if i%5 != 0 {
				return 42 // one huge run
			}
			return rng.Float64()
		}},
		{"constant", 32, func(int) float64 { return 7 }},
	}
	for _, c := range cases {
		n := 600
		X := NewMatrix(n, 1)
		y := make([]int, n)
		pos := 0
		for i := 0; i < n; i++ {
			X.Col(0)[i] = c.gen(i)
			y[i] = i % 2
			pos += y[i]
		}
		s := newBinSet(X, y, c.maxBins)
		bc := s.column(0)
		if bc.nb > c.maxBins && c.maxBins >= 2 {
			t.Fatalf("%s: %d bins exceeds max %d", c.name, bc.nb, c.maxBins)
		}
		distinct := map[float64]bool{}
		for _, v := range X.Col(0) {
			distinct[v] = true
		}
		if len(distinct) <= c.maxBins && bc.nb != len(distinct) {
			t.Fatalf("%s: want one bin per distinct value (%d), got %d", c.name, len(distinct), bc.nb)
		}
		var cntSum, posSum int32
		for b := 0; b < bc.nb; b++ {
			if bc.lo[b] > bc.hi[b] {
				t.Fatalf("%s: bin %d has lo %v > hi %v", c.name, b, bc.lo[b], bc.hi[b])
			}
			if b > 0 && bc.hi[b-1] >= bc.lo[b] {
				t.Fatalf("%s: bins %d,%d overlap: hi %v, lo %v", c.name, b-1, b, bc.hi[b-1], bc.lo[b])
			}
			cntSum += bc.rootCnt[b]
			posSum += bc.rootPos[b]
		}
		if int(cntSum) != n || int(posSum) != pos {
			t.Fatalf("%s: root histogram sums %d/%d, want %d/%d", c.name, cntSum, posSum, n, pos)
		}
		for i, v := range X.Col(0) {
			b := bc.binOf[i]
			if v < bc.lo[b] || v > bc.hi[b] {
				t.Fatalf("%s: row %d value %v landed in bin %d [%v,%v]", c.name, i, v, b, bc.lo[b], bc.hi[b])
			}
		}
	}
}

// TestHistogramRefit checks a tree with histogram splits can be refitted on
// a differently-shaped matrix (the bin set and arena must rebuild).
func TestHistogramRefit(t *testing.T) {
	tr := NewTree(TreeConfig{MaxDepth: 6, Histogram: true, HistMinNode: 2})
	Xa, ya := synthTies(200, 4, 1)
	if err := tr.Fit(mustMatrix(t, Xa), ya); err != nil {
		t.Fatal(err)
	}
	Xb, yb := synthTies(300, 7, 2)
	if err := tr.Fit(mustMatrix(t, Xb), yb); err != nil {
		t.Fatal(err)
	}
	ref := NewTree(TreeConfig{MaxDepth: 6, Histogram: true, HistMinNode: 2})
	if err := ref.Fit(mustMatrix(t, Xb), yb); err != nil {
		t.Fatal(err)
	}
	assertTreesIdentical(t, tr, ref)
}

// TestLowerBound pins the binary search the bin assignment uses.
func TestLowerBound(t *testing.T) {
	vals := []float64{1, 2, 2, 2, 5, 8}
	cases := []struct {
		x    float64
		want int
	}{{0, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 4}, {5, 4}, {8, 5}, {9, 6}}
	for _, c := range cases {
		if got := lowerBound(vals, c.x); got != c.want {
			t.Fatalf("lowerBound(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := lowerBound(nil, 1); got != 0 {
		t.Fatalf("lowerBound(nil) = %d", got)
	}
}
