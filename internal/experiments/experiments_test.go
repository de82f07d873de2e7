package experiments

import (
	"context"
	"strings"
	"testing"

	"smartfeat/internal/core"
	"smartfeat/internal/datasets"
)

// tinyConfig keeps integration tests fast: two small datasets, scaled-down
// models.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Models = []string{"LR", "NB"}
	cfg.MaxTrainRows = 500
	cfg.SamplingBudget = 4
	cfg.CAAFEIterations = 3
	return cfg
}

// comparisonCells runs every (dataset × method) comparison cell in a plain
// sequential loop and returns the results keyed by [dataset, method].
func comparisonCells(t *testing.T, names []string, cfg Config) map[[2]string]MethodResult {
	t.Helper()
	out := make(map[[2]string]MethodResult)
	for _, name := range names {
		for _, m := range ComparisonMethods() {
			res, err := RunCell(context.Background(), name, m, cfg)
			if err != nil {
				t.Fatalf("%s × %s: %v", name, m, err)
			}
			out[[2]string{name, m}] = res
		}
	}
	return out
}

// foldComparison folds completed cells into Tables 4/5.
func foldComparison(names []string, cfg Config, cells map[[2]string]MethodResult) (avg, median *ComparisonTable) {
	return ComparisonFromCells(names, cfg, func(dataset, method string) (MethodResult, CellState) {
		return cells[[2]string{dataset, method}], CellCompleted
	})
}

func TestRunCellProducesAllMethods(t *testing.T) {
	cells := comparisonCells(t, []string{"Diabetes"}, tinyConfig())
	if len(cells[[2]string{"Diabetes", MethodInitial}].AUCs) == 0 {
		t.Fatal("initial evaluation empty")
	}
	for _, m := range Methods() {
		if res := cells[[2]string{"Diabetes", m}]; res.Method != m {
			t.Fatalf("method %s missing (got %q)", m, res.Method)
		}
	}
	sf := cells[[2]string{"Diabetes", MethodSmartfeat}]
	if sf.Err != nil {
		t.Fatalf("smartfeat failed: %v", sf.Err)
	}
	if sf.Generated == 0 || sf.Frame == nil {
		t.Fatal("smartfeat produced nothing")
	}
	if avg, ok := sf.AvgAUC(); !ok || avg <= 0 || avg > 100 {
		t.Fatalf("avg AUC out of range: %v %v", avg, ok)
	}
}

func TestMethodResultAggregates(t *testing.T) {
	r := MethodResult{AUCs: map[string]float64{"LR": 80, "NB": 70, "RF": 90}}
	if avg, ok := r.AvgAUC(); !ok || avg != 80 {
		t.Fatalf("avg = %v", avg)
	}
	if med, ok := r.MedianAUC(); !ok || med != 80 {
		t.Fatalf("median = %v", med)
	}
	if !r.SupportsAllModels([]string{"LR", "NB"}) {
		t.Fatal("supports check wrong")
	}
	if r.SupportsAllModels([]string{"LR", "DNN"}) {
		t.Fatal("missing model should fail the check")
	}
	empty := MethodResult{}
	if _, ok := empty.AvgAUC(); ok {
		t.Fatal("empty should not aggregate")
	}
}

func TestTable3String(t *testing.T) {
	out := Table3String(tinyConfig())
	for _, name := range []string{"Diabetes", "Tennis", "41189"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table 3 missing %s:\n%s", name, out)
		}
	}
}

func TestComparisonFromCellsShape(t *testing.T) {
	names := []string{"Diabetes"}
	cfg := tinyConfig()
	avg, median := foldComparison(names, cfg, comparisonCells(t, names, cfg))
	if avg.Aggregate != "average" || median.Aggregate != "median" {
		t.Fatal("aggregates mislabeled")
	}
	if _, ok := avg.Initial["Diabetes"]; !ok {
		t.Fatal("initial missing")
	}
	s := avg.String()
	if !strings.Contains(s, "SMARTFEAT") || !strings.Contains(s, "Diabetes") {
		t.Fatalf("render broken:\n%s", s)
	}
}

func TestTable7OperatorAblation(t *testing.T) {
	var rows []AblationRow
	for _, c := range Table7Configs() {
		row, err := Table7Cell(context.Background(), "Tennis", c, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 configurations, got %d", len(rows))
	}
	if rows[0].Config != "Initial" || rows[5].Config != "all" {
		t.Fatalf("config order wrong: %v %v", rows[0].Config, rows[5].Config)
	}
	out := Table7String(rows, tinyConfig().Models)
	if !strings.Contains(out, "+Binary") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestFigure1CostsScaleWithRows(t *testing.T) {
	cfg := tinyConfig()
	var points []InteractionCost
	for _, n := range []int{50, 500} {
		p, err := Figure1Cell(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, p)
	}
	if len(points) != 2 {
		t.Fatalf("want 2 points, got %d", len(points))
	}
	// Row-level calls scale linearly with rows.
	if points[0].RowCalls != 50 || points[1].RowCalls != 500 {
		t.Fatalf("row calls: %d, %d", points[0].RowCalls, points[1].RowCalls)
	}
	// Feature-level calls do not scale with rows (same schema).
	ratio := float64(points[1].FeatureCalls) / float64(points[0].FeatureCalls)
	if ratio > 2 {
		t.Fatalf("feature-level calls should not scale with rows: %d vs %d",
			points[0].FeatureCalls, points[1].FeatureCalls)
	}
	// Row-level cost grows linearly with rows while feature-level cost is
	// flat, so the row/feature cost ratio must grow ~10× between the sizes.
	r0 := points[0].RowCostUSD / points[0].FeatureCostUSD
	r1 := points[1].RowCostUSD / points[1].FeatureCostUSD
	if r1 < 5*r0 {
		t.Fatalf("row/feature cost ratio should scale with rows: %.4f vs %.4f", r0, r1)
	}
	// Latency crosses over much earlier: at 500 rows the sequential row
	// completions already take longer than the whole pipeline.
	if points[1].RowLatency < points[1].FeatureLatency {
		t.Fatalf("row-level latency should dominate at 500 rows: %s vs %s",
			points[1].RowLatency, points[1].FeatureLatency)
	}
	if !strings.Contains(Figure1String(points), "rows") {
		t.Fatal("figure render broken")
	}
}

func TestFigure2Walkthrough(t *testing.T) {
	out, err := Figure2Walkthrough(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Bucketize_Age") {
		t.Fatalf("walkthrough missing the bucketized age feature:\n%s", out)
	}
	if !strings.Contains(out, "boundaries: [21") {
		t.Fatalf("walkthrough missing the 21-year boundary:\n%s", out)
	}
}

func TestDescriptionsAblation(t *testing.T) {
	full, err := DescriptionsCell(context.Background(), "Tennis", true, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	nameOnly, err := DescriptionsCell(context.Background(), "Tennis", false, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	abl := DescriptionsAblationFromCells("Tennis", full, nameOnly)
	if abl.WithAvg <= 0 || abl.NamesOnlyAvg <= 0 {
		t.Fatalf("ablation values: %+v", abl)
	}
	if !strings.Contains(abl.String(), "names only") {
		t.Fatal("render broken")
	}
}

func TestTable6FeatureImportance(t *testing.T) {
	var rows []ImportanceRow
	for _, m := range Methods() {
		row, err := Table6Cell(context.Background(), "Tennis", m, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 methods, got %d", len(rows))
	}
	bySel := map[string]ImportanceRow{}
	for _, r := range rows {
		bySel[r.Method] = r
		if r.IGAt10 < 0 || r.IGAt10 > 100 {
			t.Fatalf("share out of range: %+v", r)
		}
	}
	// AutoFeat expands far more candidates than SMARTFEAT (Table 6 shape).
	if bySel[MethodAutoFeat].Generated <= bySel[MethodSmartfeat].Generated {
		t.Fatalf("autofeat should generate more: %d vs %d",
			bySel[MethodAutoFeat].Generated, bySel[MethodSmartfeat].Generated)
	}
	if !strings.Contains(Table6String(rows), "IG@10") {
		t.Fatal("render broken")
	}
}

// TestEfficiencyRows prices live comparison cells and checks the fold emits
// rows in the sequential (dataset, method) order.
func TestEfficiencyRows(t *testing.T) {
	cells := comparisonCells(t, []string{"Diabetes"}, tinyConfig())
	rows := EfficiencyFromCells([]string{"Diabetes"}, func(dataset, method string) (MethodResult, bool) {
		res, ok := cells[[2]string{dataset, method}]
		return res, ok
	})
	want := Methods()
	if len(rows) != len(want) {
		t.Fatalf("want %d rows, got %d", len(want), len(rows))
	}
	for i, r := range rows {
		if r.Method != want[i] || r.Dataset != "Diabetes" {
			t.Fatalf("row %d is %s/%s, want Diabetes/%s", i, r.Dataset, r.Method, want[i])
		}
	}
	if !strings.Contains(EfficiencyString(rows), "Diabetes") {
		t.Fatal("render broken")
	}
}

func TestSmartfeatOperatorSubset(t *testing.T) {
	cfg := tinyConfig()
	d, err := datasets.Load("Tennis", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSmartfeat(context.Background(), d, d.Frame.DropNA(), cfg, core.OperatorSet{HighOrder: true})
	// Tennis has no valid group-by keys: the high-order-only run generates
	// nothing (the Table 7 "+High-order ≈ initial" behaviour).
	if res.Selected != 0 {
		t.Fatalf("high-order-only on Tennis should add nothing, got %d", res.Selected)
	}
}
