package featuretools

import (
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
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
	copy(f2.Column("y").Nums, []float64{1, 0, 1, 0, 1, 0})
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
