package experiments

import (
	"context"
	"testing"

	"smartfeat/internal/datasets"
)

// BenchmarkEvaluateFrame runs the §4.1 protocol on the quick config's Bank
// frame (41,189 rows): gather the capped train sample and the test split,
// then fit and score all five models. B/op tracks what evaluation copies.
func BenchmarkEvaluateFrame(b *testing.B) {
	cfg := QuickConfig()
	d, err := datasets.Load("Bank", cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	clean := d.Frame.DropNA()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aucs, failures, err := EvaluateFrame(ctx, clean, d.Target, cfg.Models, cfg)
		if err != nil || len(aucs) != len(cfg.Models) {
			b.Fatalf("aucs %v, failures %v, err %v", aucs, failures, err)
		}
	}
}
