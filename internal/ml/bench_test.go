// Microbenchmarks for the columnar ML kernel. Baseline (row-major
// [][]float64, sort.Slice split finding) vs the flat-matrix kernel is
// recorded in PERF.md; these benches keep the numbers measurable in the
// BENCH trajectory.
package ml

import (
	"testing"
)

func benchMatrix(b *testing.B, n, d int) (*Matrix, []int) {
	b.Helper()
	X, y := synthLinear(n, d, 99)
	m, err := MatrixFromRows(X)
	if err != nil {
		b.Fatal(err)
	}
	return m, y
}

func BenchmarkTreeFit(b *testing.B) {
	X, y := benchMatrix(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTree(TreeConfig{MaxDepth: 10, Seed: 1})
		if err := tr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	X, y := benchMatrix(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewRandomForest(40, 1)
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraTreesFit(b *testing.B) {
	X, y := benchMatrix(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewExtraTrees(40, 1)
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramSplit compares the histogram-binned split kernel with
// the exact sort-scan kernel on the Quick-scale shapes: the RF-40 forest
// fit (bootstrap rows over forest-shared bins) and a full-feature greedy
// tree (where every right child derives its histograms by subtraction).
func BenchmarkHistogramSplit(b *testing.B) {
	X, y := benchMatrix(b, 2000, 20)
	for _, k := range []struct {
		name string
		hist bool
	}{{"hist", true}, {"exact", false}} {
		b.Run("forest-"+k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := NewRandomForest(40, 1)
				f.Histogram = k.hist
				if err := f.Fit(X, y); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("tree-"+k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := NewTree(TreeConfig{MaxDepth: 10, Histogram: k.hist, Seed: 1})
				if err := tr.Fit(X, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLogisticFit(b *testing.B) {
	X, y := benchMatrix(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := NewLogistic()
		if err := lr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPFit is one CAAFE DNN validation fit: 900 training rows of 13
// features, 8 epochs of the paper's 2×100 network.
func BenchmarkMLPFit(b *testing.B) {
	X, y := benchMatrix(b, 900, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMLP(1)
		m.Epochs = 8
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPPredict is the DNN's evaluation pass: PredictProba of the
// BenchmarkMLPFit network over 10,000 rows of 13 features.
func BenchmarkMLPPredict(b *testing.B) {
	Xtr, ytr := benchMatrix(b, 900, 13)
	m := NewMLP(1)
	m.Epochs = 8
	if err := m.Fit(Xtr, ytr); err != nil {
		b.Fatal(err)
	}
	X, _ := benchMatrix(b, 10000, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictProba(X)
	}
}

func BenchmarkMatrixTakeRows(b *testing.B) {
	X, _ := benchMatrix(b, 4000, 30)
	idx := make([]int, 3000)
	for i := range idx {
		idx[i] = (i * 7) % 4000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = X.TakeRows(idx)
	}
}
