package expr_test

import (
	"testing"

	"smartfeat/internal/datasets"
	"smartfeat/internal/expr"
)

// BenchmarkEvalRows realizes one generated feature over Bank's 41,189 rows:
// a ratio index of the shape the function generator writes, with a call
// node, so both the slot reads and the argument buffer are on the path.
func BenchmarkEvalRows(b *testing.B) {
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		b.Fatal(err)
	}
	e := expr.MustCompile("(Duration + log1p(Campaign)) / (Pdays + max(Previous, 0) + 1)")
	cols := make(map[string][]float64)
	for _, v := range e.Vars() {
		cols[v] = d.Frame.Column(v).Nums
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalRows(cols); err != nil {
			b.Fatal(err)
		}
	}
}
