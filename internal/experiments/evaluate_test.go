package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/ml"
)

// TestScoreBlocksMatchesWholeMatrix holds blocked scoring to scoring the
// whole test matrix at once, bit for bit, for all five models: at test
// sizes 1, scoreBlock−1, scoreBlock and scoreBlock+1, on one and on two
// workers, with and without NaN in the rows (so the imputer writes into
// the block buffer too). A model that failed to fit gets no scores.
func TestScoreBlocksMatchesWholeMatrix(t *testing.T) {
	const n = 300 + scoreBlock + 1
	cfg := QuickConfig()
	for _, holes := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		f := dataframe.New()
		label := make([]float64, n)
		for j := 0; j < 4; j++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.NormFloat64() * float64(j+1)
				if holes && rng.Intn(10) == 0 {
					vals[i] = math.NaN()
				}
				if j == 0 && vals[i] > 0 {
					label[i] = 1
				}
			}
			if err := f.AddNumeric(fmt.Sprintf("x%d", j), vals); err != nil {
				t.Fatal(err)
			}
		}
		levels := make([]string, n)
		for i := range levels {
			levels[i] = string(rune('a' + rng.Intn(5)))
		}
		if err := f.Add(dataframe.NewCategorical("g", levels)); err != nil {
			t.Fatal(err)
		}
		g, err := f.Gatherer(f.Names())
		if err != nil {
			t.Fatal(err)
		}
		train := make([]int, 300)
		ytr := make([]int, len(train))
		for i := range train {
			train[i] = i
			ytr[i] = int(label[i])
		}
		Xtr := g.Gather(train, nil)
		pipes := make([]*ml.Pipeline, len(ml.ModelNames)+1) // the last never fits
		for k, name := range ml.ModelNames {
			clf, err := buildModel(name, int64(k), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pipes[k] = ml.NewPipeline(clf)
			if err := pipes[k].Fit(Xtr, ytr); err != nil {
				t.Fatal(err)
			}
		}
		for _, size := range []int{1, scoreBlock - 1, scoreBlock, scoreBlock + 1} {
			rows := make([]int, size)
			for i := range rows {
				rows[i] = n - 1 - i // unsorted, as any row set may be
			}
			whole := g.Gather(rows, nil)
			for _, workers := range []int{1, 2} {
				scores := scoreBlocks(context.Background(), g, rows, pipes, workers)
				if scores[len(pipes)-1] != nil {
					t.Fatal("a model that did not fit was scored")
				}
				for k, name := range ml.ModelNames {
					want := pipes[k].PredictProba(whole, nil)
					if len(scores[k]) != size {
						t.Fatalf("%s: %d scores for %d rows", name, len(scores[k]), size)
					}
					for i := range want {
						if math.Float64bits(scores[k][i]) != math.Float64bits(want[i]) {
							t.Fatalf("holes=%v size=%d workers=%d %s: row %d scores %v in blocks, %v whole", holes, size, workers, name, i, scores[k][i], want[i])
						}
					}
				}
			}
		}
	}
}

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
