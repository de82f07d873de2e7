package ml

import (
	"math/rand"
	"testing"
)

// presortTestData builds a synthetic training set with plenty of tied values
// (the case where tie-ordering bugs in a shared sort would show up).
func presortTestData(rows, cols int, seed int64) (*Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	y := make([]int, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			// Quantized values force runs of equal keys in every column.
			m.Col(j)[i] = float64(rng.Intn(12)) + float64(j)
		}
		if rng.Float64() < 0.45 {
			y[i] = 1
		}
	}
	return m, y
}

// fitPair trains two identically-seeded forests, one with the shared presort
// cache and one on the per-tree reference path (no cache passed to fit).
func fitPair(t *testing.T, mk func() *Forest, X *Matrix, y []int) (*Forest, *Forest) {
	t.Helper()
	cached := mk()
	reference := mk()
	if err := cached.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reference.fit(X, y, nil)
	return cached, reference
}

// assertForestsIdentical compares two fitted forests node for node.
func assertForestsIdentical(t *testing.T, a, b *Forest, X *Matrix) {
	t.Helper()
	if len(a.trees) != len(b.trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(a.trees), len(b.trees))
	}
	for ti := range a.trees {
		ta, tb := a.trees[ti], b.trees[ti]
		if len(ta.nodes) != len(tb.nodes) {
			t.Fatalf("tree %d: node counts differ: %d vs %d", ti, len(ta.nodes), len(tb.nodes))
		}
		for ni := range ta.nodes {
			na, nb := ta.nodes[ni], tb.nodes[ni]
			if na != nb {
				t.Fatalf("tree %d node %d differs: %+v vs %+v", ti, ni, na, nb)
			}
		}
	}
	pa, pb := a.PredictProba(X), b.PredictProba(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
	ia, ib := a.Importances(), b.Importances()
	for j := range ia {
		if ia[j] != ib[j] {
			t.Fatalf("importance %d differs: %v vs %v", j, ia[j], ib[j])
		}
	}
}

// TestExtraTreesPresortEquivalence pins the shared presort cache against the
// per-tree reference path for the extra-trees (random split) rule: the
// random threshold draws, counts and gains must be bit-identical, so the
// grown forests must match node for node.
func TestExtraTreesPresortEquivalence(t *testing.T) {
	X, y := presortTestData(500, 9, 7)
	cached, reference := fitPair(t, func() *Forest { return NewExtraTrees(25, 99) }, X, y)
	assertForestsIdentical(t, cached, reference, X)
}

// TestGreedyNonBootstrapPresortEquivalence pins the shared presort for the
// greedy split rule on a non-bootstrap forest (the other consumer of the
// shared index set).
func TestGreedyNonBootstrapPresortEquivalence(t *testing.T) {
	X, y := presortTestData(400, 7, 21)
	mk := func() *Forest {
		return &Forest{NumTrees: 15, Seed: 4242, name: "NB-greedy"}
	}
	cached, reference := fitPair(t, mk, X, y)
	assertForestsIdentical(t, cached, reference, X)
}

// TestBootstrapForestSkipsPresort checks the cache is not attached when
// trees train on resampled rows (their index multisets differ, so the
// shared order would be wrong).
func TestBootstrapForestSkipsPresort(t *testing.T) {
	X, y := presortTestData(200, 5, 3)
	rf := NewRandomForest(5, 1)
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for ti, tree := range rf.trees {
		if tree.presort != nil {
			t.Fatalf("bootstrap tree %d must not share a presort", ti)
		}
	}
}

// TestUpperBound pins the binary search the random-split rule uses.
func TestUpperBound(t *testing.T) {
	vals := []float64{1, 2, 2, 2, 5, 8}
	cases := []struct {
		x    float64
		want int
	}{{0, 0}, {1, 1}, {2, 4}, {3, 4}, {5, 5}, {8, 6}, {9, 6}}
	for _, c := range cases {
		if got := upperBound(vals, c.x); got != c.want {
			t.Fatalf("upperBound(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := upperBound(nil, 1); got != 0 {
		t.Fatalf("upperBound(nil) = %d", got)
	}
}

// BenchmarkExtraTreesFitPresort measures the shared-presort extra-trees fit
// against the per-tree reference path (same data as BenchmarkExtraTreesFit).
func BenchmarkExtraTreesFitPresort(b *testing.B) {
	X, y := presortTestData(4000, 12, 5)
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewExtraTrees(40, 7)
			if err := f.Fit(X, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewExtraTrees(40, 7).fit(X, y, nil)
		}
	})
	// Greedy splits over the shared index set are where whole sorts are
	// eliminated (the random-split rule above never sorted; it only saves
	// its root min/max and counting scans).
	greedy := func() *Forest { return &Forest{NumTrees: 40, Seed: 7} }
	b.Run("greedy-shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := greedy().Fit(X, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-per-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			greedy().fit(X, y, nil)
		}
	})
}
