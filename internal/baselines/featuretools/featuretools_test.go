package featuretools

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/featselect"
)

func testFrame(t *testing.T) *dataframe.Frame {
	t.Helper()
	f := dataframe.New()
	if err := f.AddNumeric("a", []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("b", []float64{2, 3, 1, 5, 4, 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("c", []float64{0, 1, 0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(dataframe.NewCategorical("g", []string{"x", "x", "y", "y", "z", "z"})); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("y", []float64{0, 1, 0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunExpandsExhaustively(t *testing.T) {
	f := testFrame(t)
	cfg := DefaultConfig()
	cfg.AggPrimitives = true // emulate a normalized entityset
	res, err := Run(f, "y", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 numeric features → 3 pairs × 2 primitives = 6 transform features,
	// plus 1 categorical × 3 numerics × 2 aggs = 6 agg features.
	if res.Generated != 12 {
		t.Fatalf("generated = %d, want 12", res.Generated)
	}
	if !res.Frame.Has("a + b") {
		t.Fatalf("expected pair features, have %v", res.Frame.Names())
	}
	hasAgg := false
	for _, c := range res.NewColumns {
		if strings.Contains(c, "by g") {
			hasAgg = true
		}
	}
	if !hasAgg {
		t.Fatalf("expected agg features to survive, have %v", res.NewColumns)
	}
	if res.Selected > res.Generated {
		t.Fatal("selected cannot exceed generated")
	}
	// Input untouched.
	if f.Has("a + b") {
		t.Fatal("input frame mutated")
	}
}

func TestRunSelectionDropsCorrelated(t *testing.T) {
	f := dataframe.New()
	_ = f.AddNumeric("a", []float64{1, 2, 3, 4, 5, 6})
	// b is a small constant offset: a+b correlates perfectly with a.
	_ = f.AddNumeric("b", []float64{1, 1, 1, 1, 1, 1})
	_ = f.AddNumeric("y", []float64{0, 1, 0, 1, 0, 1})
	cfg := DefaultConfig()
	cfg.AggPrimitives = false
	res, err := Run(f, "y", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.NewColumns {
		if name == "a + b" {
			t.Fatal("perfectly correlated feature should have been dropped")
		}
	}
	droppedReason := false
	for _, d := range res.NewColumns {
		_ = d
	}
	_ = droppedReason
	if res.Generated != 2 {
		t.Fatalf("generated = %d", res.Generated)
	}
}

func TestRunSkipsHighCardinalityGroups(t *testing.T) {
	f := testFrame(t)
	cfg := DefaultConfig()
	cfg.MaxGroupCardinality = 2 // g has 3 levels → skipped
	res, err := Run(f, "y", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.NewColumns {
		if strings.Contains(c, "by g") {
			t.Fatal("high-cardinality group should be skipped")
		}
	}
}

func TestRunErrors(t *testing.T) {
	f := testFrame(t)
	if _, err := Run(f, "missing", DefaultConfig()); err == nil {
		t.Fatal("missing target should error")
	}
}

func TestRunContextAgnostic(t *testing.T) {
	// The expansion must not look at the label: identical features given
	// different labels yield identical candidate sets.
	f1 := testFrame(t)
	f2 := testFrame(t)
	f2.Drop("y")
	if err := f2.AddNumeric("y", []float64{1, 0, 1, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	r1, err := Run(f1, "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(f2, "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Generated != r2.Generated {
		t.Fatal("expansion should be label-agnostic")
	}
}

// expandThenVerify is the selection Run made before it checked candidates
// as it made them: every candidate joins the frame, then VerifyFeatures
// filters them all.
func expandThenVerify(t *testing.T, input *dataframe.Frame, target string, cfg Config) (*dataframe.Frame, []string) {
	t.Helper()
	f := input.Clone()
	var numeric, categorical, candidates []string
	for _, name := range f.Names() {
		switch {
		case name == target:
		case f.Column(name).Kind == dataframe.Numeric:
			numeric = append(numeric, name)
		default:
			categorical = append(categorical, name)
		}
	}
	add := func(name string, vals []float64) {
		if !f.Has(name) && f.AddNumeric(name, vals) == nil {
			candidates = append(candidates, name)
		}
	}
	for i := range numeric {
		for j := i + 1; j < len(numeric); j++ {
			a, b := f.Column(numeric[i]).Floats(), f.Column(numeric[j]).Floats()
			sum, prod := make([]float64, f.Len()), make([]float64, f.Len())
			for k := range sum {
				sum[k], prod[k] = a[k]+b[k], a[k]*b[k]
			}
			add(numeric[i]+" + "+numeric[j], sum)
			add(numeric[i]+" * "+numeric[j], prod)
		}
	}
	for _, cat := range categorical {
		if !cfg.AggPrimitives || f.Column(cat).Cardinality() > cfg.MaxGroupCardinality {
			continue
		}
		for _, num := range numeric {
			for _, fn := range []dataframe.AggFunc{dataframe.AggMean, dataframe.AggMax} {
				if vals, err := f.GroupByTransform([]string{cat}, num, fn); err == nil {
					add(fmt.Sprintf("%s(%s) by %s", fn, num, cat), vals)
				}
			}
		}
	}
	opts := featselect.FilterOptions{MaxNullFrac: 0.5, DropSingleValued: true, MaxAbsCorrelation: cfg.MaxAbsCorrelation}
	return f, featselect.VerifyFeatures(f, candidates, map[string]bool{target: true}, nil, opts).Kept
}

// TestRunMatchesExpandThenVerify holds the per-candidate selection to the
// old expand-then-filter one on a frame where every path of the filter
// fires: NaN rows (whose correlations fall back to featselect.Pearson),
// a mostly-NaN column (the null rule), a constant sum (single-valued),
// near-duplicate columns (the correlation cap) and aggregation features.
func TestRunMatchesExpandThenVerify(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(9))
	cols := map[string][]float64{}
	for _, name := range []string{"a", "b", "c", "holes", "sparse", "neg", "y"} {
		cols[name] = make([]float64, n)
	}
	groups := make([]string, n)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		cols["a"][i] = a
		cols["b"][i] = 2*a + 0.01*rng.NormFloat64()
		cols["c"][i] = rng.ExpFloat64()
		cols["holes"][i] = rng.NormFloat64()
		if i%9 == 0 {
			cols["holes"][i] = math.NaN()
		}
		cols["sparse"][i] = math.NaN()
		if i%3 == 0 {
			cols["sparse"][i] = rng.NormFloat64()
		}
		cols["neg"][i] = 5 - a
		cols["y"][i] = float64(rng.Intn(2))
		groups[i] = string(rune('p' + rng.Intn(4)))
	}
	f := dataframe.New()
	for _, name := range []string{"a", "b", "c", "holes", "sparse", "neg", "y"} {
		if err := f.AddNumeric(name, cols[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Add(dataframe.NewCategorical("g", groups)); err != nil {
		t.Fatal(err)
	}
	for _, agg := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AggPrimitives = agg
		res, err := Run(f, "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, want := expandThenVerify(t, f, "y", cfg)
		if got := strings.Join(res.NewColumns, "|"); got != strings.Join(want, "|") {
			t.Fatalf("agg=%v: kept\n%s\nwant\n%s", agg, got, strings.Join(want, "|"))
		}
		if len(want) == 0 || len(want) == res.Generated {
			t.Fatalf("agg=%v: %d of %d kept; the fixture should keep some and drop some", agg, len(want), res.Generated)
		}
		if got, want := strings.Join(res.Frame.Names(), "|"), strings.Join(ref.Names(), "|"); got != want {
			t.Fatalf("agg=%v: frame columns\n%s\nwant\n%s", agg, got, want)
		}
		for _, name := range want {
			got, ref := res.Frame.Column(name).Floats(), ref.Column(name).Floats()
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("agg=%v: %s row %d = %v, want %v", agg, name, i, got[i], ref[i])
				}
			}
		}
	}
}

// BenchmarkFeaturetoolsRun expands and selects on the quick config's Bank
// frame (41,189 rows, ten numeric features, 72 candidates). B/op tracks
// what the run holds beside what it keeps.
func BenchmarkFeaturetoolsRun(b *testing.B) {
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		b.Fatal(err)
	}
	clean := d.Frame.DropNA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(clean, d.Target, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
