// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus ablation benches for the design decisions DESIGN.md
// calls out. Each benchmark regenerates its artifact with the scaled-down
// Quick configuration and reports the headline quantities as custom metrics,
// so `go test -bench=. -benchmem` reproduces every result end to end. The
// table and figure benches run the same in-memory grid plans as
// cmd/experiments.
//
// The full-scale tables are produced by `go run ./cmd/experiments -all`.
package smartfeat_test

import (
	"context"
	"testing"

	"smartfeat/internal/core"
	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/fm"
	"smartfeat/internal/grid"
)

// benchConfig is the shared scaled-down evaluation configuration.
func benchConfig() experiments.Config {
	return experiments.QuickConfig()
}

// runSelection runs sel's grid plan over names in memory, as cmd/experiments
// does without run-directory flags, and fails the benchmark on any cell
// error.
func runSelection(b *testing.B, sel grid.Selection, names []string, cfg experiments.Config) *grid.RunResult {
	b.Helper()
	res, err := (&grid.Runner{Config: cfg}).Run(context.Background(), sel.Plan(names, nil))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable3DatasetStats regenerates Table 3 (dataset statistics).
func BenchmarkTable3DatasetStats(b *testing.B) {
	var rows []datasets.TableStats
	for i := 0; i < b.N; i++ {
		rows = datasets.Table3(benchConfig().Seed)
	}
	b.ReportMetric(float64(len(rows)), "datasets")
	total := 0
	for _, r := range rows {
		total += r.Rows
	}
	b.ReportMetric(float64(total), "total_rows")
}

// BenchmarkTable4AverageAUC regenerates the Table 4 comparison on two
// representative datasets (one small threshold-driven, one ratio-driven) and
// reports the SMARTFEAT average-AUC delta over the initial features.
func BenchmarkTable4AverageAUC(b *testing.B) {
	cfg := benchConfig()
	var delta float64
	names := []string{"Diabetes", "Tennis"}
	for i := 0; i < b.N; i++ {
		avg, _ := runSelection(b, grid.Selection{Table: 4}, names, cfg).Comparison(names, cfg)
		delta = avg.Cells[experiments.MethodSmartfeat]["Tennis"] - avg.Initial["Tennis"]
	}
	b.ReportMetric(delta, "sf_tennis_auc_delta")
}

// BenchmarkTable5MedianAUC regenerates the Table 5 (median) aggregate.
func BenchmarkTable5MedianAUC(b *testing.B) {
	cfg := benchConfig()
	var delta float64
	names := []string{"Diabetes"}
	for i := 0; i < b.N; i++ {
		_, median := runSelection(b, grid.Selection{Table: 5}, names, cfg).Comparison(names, cfg)
		delta = median.Cells[experiments.MethodSmartfeat]["Diabetes"] - median.Initial["Diabetes"]
	}
	b.ReportMetric(delta, "sf_diabetes_auc_delta")
}

// BenchmarkTable6FeatureImportance regenerates Table 6 (top-10 importance
// shares on Tennis) and reports SMARTFEAT's IG@10 share.
func BenchmarkTable6FeatureImportance(b *testing.B) {
	cfg := benchConfig()
	var ig float64
	var generated int
	for i := 0; i < b.N; i++ {
		rows, ok := runSelection(b, grid.Selection{Table: 6}, nil, cfg).Table6(grid.AblationDataset)
		if !ok {
			b.Fatal("table 6 incomplete")
		}
		for _, r := range rows {
			if r.Method == experiments.MethodSmartfeat {
				ig = r.IGAt10
				generated = r.Generated
			}
		}
	}
	b.ReportMetric(ig, "sf_IG@10_pct")
	b.ReportMetric(float64(generated), "sf_generated")
}

// BenchmarkTable7OperatorAblation regenerates Table 7 (operator ablation on
// Tennis) and reports the average-AUC gain of the binary-operator-only
// configuration over the initial features.
func BenchmarkTable7OperatorAblation(b *testing.B) {
	cfg := benchConfig()
	var binaryGain float64
	for i := 0; i < b.N; i++ {
		rows, ok := runSelection(b, grid.Selection{Table: 7}, nil, cfg).Table7(grid.AblationDataset)
		if !ok {
			b.Fatal("table 7 incomplete")
		}
		binaryGain = rows[2].Avg - rows[0].Avg // "+Binary" vs "Initial"
	}
	b.ReportMetric(binaryGain, "binary_avg_auc_gain")
}

// BenchmarkFigure1InteractionCost regenerates the Figure 1 comparison
// (row-level vs feature-level FM interaction) and reports the cost ratio at
// the largest size.
func BenchmarkFigure1InteractionCost(b *testing.B) {
	cfg := benchConfig()
	sizes := []int{100, 2000}
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := (&grid.Runner{Config: cfg}).Run(context.Background(), grid.Figure1Plan(sizes))
		if err != nil {
			b.Fatal(err)
		}
		points, ok := res.Figure1(sizes)
		if !ok {
			b.Fatal("figure 1 incomplete")
		}
		last := points[len(points)-1]
		if last.FeatureCostUSD > 0 {
			ratio = last.RowCostUSD / last.FeatureCostUSD
		}
	}
	b.ReportMetric(ratio, "rowlevel_vs_featurelevel_cost_x")
}

// BenchmarkFigure2Walkthrough regenerates the Figure 2 walk-through
// (Bucketized Age on the Table 1 insurance example).
func BenchmarkFigure2Walkthrough(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2Walkthrough(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEfficiency regenerates the §4.2 efficiency comparison on the
// smallest dataset and reports SMARTFEAT's feature-engineering seconds
// (including simulated FM latency). One worker keeps the timings
// uncontended.
func BenchmarkEfficiency(b *testing.B) {
	cfg := benchConfig()
	cfg.Workers = 1
	names := []string{"Diabetes"}
	var sfSeconds float64
	for i := 0; i < b.N; i++ {
		for _, r := range runSelection(b, grid.Selection{Efficiency: true}, names, cfg).Efficiency(names) {
			if r.Method == experiments.MethodSmartfeat {
				sfSeconds = r.Elapsed.Seconds()
			}
		}
	}
	b.ReportMetric(sfSeconds, "sf_seconds")
}

// BenchmarkDescriptionsAblation regenerates the §4.2 feature-description
// ablation and reports the average-AUC drop of names-only input.
func BenchmarkDescriptionsAblation(b *testing.B) {
	cfg := benchConfig()
	var drop float64
	for i := 0; i < b.N; i++ {
		abl, ok := runSelection(b, grid.Selection{Descriptions: true}, nil, cfg).Descriptions(grid.AblationDataset)
		if !ok {
			b.Fatal("descriptions ablation incomplete")
		}
		drop = abl.WithAvg - abl.NamesOnlyAvg
	}
	b.ReportMetric(drop, "names_only_avg_auc_drop")
}

// --- Ablation benches for DESIGN.md §5 design decisions ---

// BenchmarkAblationSelectorVsExhaustive contrasts SMARTFEAT's operator-
// guided candidate count against Featuretools-style exhaustion on Tennis
// (design decision 1: the selector prunes the operator space).
func BenchmarkAblationSelectorVsExhaustive(b *testing.B) {
	cfg := benchConfig()
	var guided, exhaustive int
	for i := 0; i < b.N; i++ {
		d, err := datasets.Load("Tennis", cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		clean := d.Frame.DropNA()
		sf := experiments.RunSmartfeat(context.Background(), d, clean, cfg, core.AllOperators())
		ft := experiments.RunFeaturetools(context.Background(), d, clean, cfg)
		guided, exhaustive = sf.Generated, ft.Generated
	}
	b.ReportMetric(float64(guided), "guided_candidates")
	b.ReportMetric(float64(exhaustive), "exhaustive_candidates")
}

// BenchmarkAblationVerification measures the verification filter's effect
// (design decision 4): the new columns one run keeps, and the ones the §3.3
// filter removed from it.
func BenchmarkAblationVerification(b *testing.B) {
	cfg := benchConfig()
	d, err := datasets.Load("Diabetes", cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	clean := d.Frame.DropNA()
	opts := core.Options{
		Target:            d.Target,
		TargetDescription: d.TargetDescription,
		Descriptions:      d.Descriptions,
		Model:             "RF",
		SamplingBudget:    cfg.SamplingBudget,
	}
	var kept, filtered int
	for i := 0; i < b.N; i++ {
		opts.SelectorFM = fm.NewGPT4Sim(cfg.Seed, cfg.FMErrorRate)
		opts.GeneratorFM = fm.NewGPT35Sim(cfg.Seed+1, cfg.FMErrorRate)
		res, err := core.Run(clean, opts)
		if err != nil {
			b.Fatal(err)
		}
		kept, filtered = len(res.AddedColumns()), len(res.FilterReport.Dropped)
	}
	b.ReportMetric(float64(kept), "kept_with_filter")
	b.ReportMetric(float64(filtered), "filtered_out")
}

// BenchmarkAblationPromptStrategy contrasts the proposal strategy's FM call
// count against sampling for the unary family (design decision 2): proposal
// asks once per attribute; sampling would pay per candidate.
func BenchmarkAblationPromptStrategy(b *testing.B) {
	cfg := benchConfig()
	d, err := datasets.Load("Diabetes", cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	clean := d.Frame.DropNA()
	var proposalCalls int
	for i := 0; i < b.N; i++ {
		res := experiments.RunSmartfeat(context.Background(), d, clean, cfg, core.OperatorSet{Unary: true})
		proposalCalls = res.FMUsage.Calls
	}
	// One proposal prompt per attribute (8 on Diabetes) vs the per-candidate
	// sampling budget it replaces.
	b.ReportMetric(float64(proposalCalls), "fm_calls")
	b.ReportMetric(float64(cfg.SamplingBudget), "sampling_budget_equiv")
}

// BenchmarkSmartfeatPipeline measures the core pipeline itself (feature
// generation only, no model training) on the Table 1 example scale.
func BenchmarkSmartfeatPipeline(b *testing.B) {
	d, err := datasets.Load("Diabetes", 7)
	if err != nil {
		b.Fatal(err)
	}
	clean := d.Frame.DropNA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(clean, core.Options{
			Target:            d.Target,
			TargetDescription: d.TargetDescription,
			Descriptions:      d.Descriptions,
			SelectorFM:        fm.NewGPT4Sim(int64(i), 0),
			GeneratorFM:       fm.NewGPT35Sim(int64(i)+1, 0),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
