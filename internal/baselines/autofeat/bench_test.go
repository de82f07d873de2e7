package autofeat_test

import (
	"testing"

	"smartfeat/internal/baselines/autofeat"
	"smartfeat/internal/datasets"
	"smartfeat/internal/metrics"
)

// BenchmarkAutoFeatRun expands and selects on Heart (13 features after
// factorizing, 3,657 rows, 6,071 candidates) scored on the training rows of
// the quick configuration's split (test fraction 0.25, seed 2024), as the
// Table 4/5 AutoFeat cell runs it.
func BenchmarkAutoFeatRun(b *testing.B) {
	d, err := datasets.Load("Heart", 2024)
	if err != nil {
		b.Fatal(err)
	}
	f := d.Frame.DropNA().FactorizeAll()
	cfg := autofeat.DefaultConfig()
	cfg.TrainRows, _ = metrics.TrainTestSplit(f.Len(), 0.25, 2024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autofeat.Run(f, d.Target, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
