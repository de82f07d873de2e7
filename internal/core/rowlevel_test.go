package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"smartfeat/internal/fm"
)

// TestRunRowLevelScenarioThroughPipeline drives §3.3's scenario 2 end to
// end: an extractor candidate whose transformation requires row-level
// completion, gated by the user's cost budget.
func TestRunRowLevelScenarioThroughPipeline(t *testing.T) {
	f := insuranceFrame(t)
	// Scripted selector: one extractor sample demanding row-level work.
	selector := fm.NewScripted(
		`{"kind":"rowlevel","name":"Population_Density_City","description":"Approximate population density for each City, obtained by row-level completion","columns":["City"]}`,
	)
	generator := fm.NewGPT35Sim(5, 0) // answers the per-row prompts

	opts := Options{
		Target:            "Safe",
		Descriptions:      insuranceDescriptions,
		SelectorFM:        selector,
		GeneratorFM:       generator,
		Operators:         OperatorSet{Extractor: true},
		SamplingBudget:    1,
		RowLevelBudgetUSD: 5, // generous: run the full pass
	}
	res, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rowFeature *GeneratedFeature
	for i := range res.Features {
		if res.Features[i].Candidate.Name == "Population_Density_City" {
			rowFeature = &res.Features[i]
		}
	}
	if rowFeature == nil {
		t.Fatalf("row-level candidate missing: %+v", res.Features)
	}
	if rowFeature.Status != StatusRowLevel {
		t.Fatalf("status = %s (%s)", rowFeature.Status, rowFeature.Detail)
	}
	col := res.Frame.Column("Population_Density_City")
	if col == nil {
		t.Fatal("row-level feature not materialised")
	}
	if col.Float(0) != 18838 { // SF from the knowledge base
		t.Fatalf("SF density = %v", col.Float(0))
	}
	// One FM call per row was spent on the generator side.
	if generator.Usage().Calls < f.Len() {
		t.Fatalf("row-level pass should cost ≥ %d calls, got %d", f.Len(), generator.Usage().Calls)
	}
}

// TestRunRowLevelBudgetGate verifies scenario 2's other branch: a tight
// budget produces example values and skips the full pass.
func TestRunRowLevelBudgetGate(t *testing.T) {
	f := insuranceFrame(t)
	selector := fm.NewScripted(
		`{"kind":"rowlevel","name":"Population_Density_City","description":"Approximate population density for each City, obtained by row-level completion","columns":["City"]}`,
	)
	opts := Options{
		Target:            "Safe",
		Descriptions:      insuranceDescriptions,
		SelectorFM:        selector,
		GeneratorFM:       fm.NewGPT35Sim(6, 0),
		Operators:         OperatorSet{Extractor: true},
		SamplingBudget:    1,
		RowLevelBudgetUSD: 0, // never run the full pass
	}
	res, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.Has("Population_Density_City") {
		t.Fatal("feature must not be materialised under the budget gate")
	}
	found := false
	for _, g := range res.Features {
		if g.Status == StatusRowLevelSkipped {
			found = true
			if !strings.Contains(g.Detail, "examples:") {
				t.Fatalf("skip detail should include example values: %s", g.Detail)
			}
			if !strings.Contains(g.Detail, "exceeds budget") {
				t.Fatalf("skip detail should state the cost: %s", g.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("expected a row-level-skipped feature: %+v", res.Features)
	}
}

// TestRunDataSourceScenarioThroughPipeline drives scenario 3: the selector
// proposes an enrichment for which no function exists; the pipeline records
// the suggested source without touching the frame.
func TestRunDataSourceScenarioThroughPipeline(t *testing.T) {
	f := insuranceFrame(t)
	selector := fm.NewScripted(
		`{"kind":"datasource","name":"External_Enrichment","description":"No in-model transformation applies; consider joining https://www.census.gov/data"}`,
	)
	opts := Options{
		Target:         "Safe",
		Descriptions:   insuranceDescriptions,
		SelectorFM:     selector,
		GeneratorFM:    fm.NewScripted(), // must never be called
		Operators:      OperatorSet{Extractor: true},
		SamplingBudget: 1,
	}
	res, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	sugg := res.Suggestions()
	if len(sugg) != 1 || !strings.Contains(sugg[0], "census.gov") {
		t.Fatalf("suggestions = %v", sugg)
	}
	if res.GeneratorUsage.Calls != 0 {
		t.Fatal("data-source candidates must not consume generator FM calls")
	}
	if f.Width() != res.Frame.Width() {
		t.Fatal("data-source candidates must not add columns")
	}
}

// TestRunContextCancellation checks an already-canceled context aborts the
// pipeline between FM calls while still returning the partial result with
// its usage accounting — the contract cmd/smartfeat's Ctrl-C handling
// depends on.
func TestRunContextCancellation(t *testing.T) {
	f := insuranceFrame(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{
		Target:       "Safe",
		Descriptions: insuranceDescriptions,
		SelectorFM:   fm.NewGPT4Sim(1, 0),
		GeneratorFM:  fm.NewGPT35Sim(2, 0),
	}
	res, err := RunContext(ctx, f, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancellation must still return the partial result")
	}
	if len(res.Features) != 0 {
		t.Fatalf("pre-canceled run should not generate candidates: %d", len(res.Features))
	}
	if res.SelectorUsage.Calls != 0 {
		t.Fatalf("pre-canceled run should not spend FM calls: %+v", res.SelectorUsage)
	}

	// A live context runs to completion with an identical-options twin.
	res2, err := RunContext(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Features) == 0 || res2.SelectorUsage.Calls == 0 {
		t.Fatal("live context should complete the run")
	}
}

// TestCompleteRowsParsesNumbers covers the row-completion value parsing.
func TestCompleteRowsParsesNumbers(t *testing.T) {
	f := insuranceFrame(t)
	model := fm.NewScripted("42", "not-a-number", "17.5")
	vals, err := CompleteRows(tctx, model, f, "X", 3)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 42 || vals[2] != 17.5 {
		t.Fatalf("vals = %v", vals)
	}
	if vals[1] == vals[1] { // NaN check without math import
		t.Fatalf("non-numeric answer should be NaN, got %v", vals[1])
	}
	// Exhausted model mid-pass → error.
	if _, err := CompleteRows(tctx, fm.NewScripted("1"), f, "X", 2); err == nil {
		t.Fatal("exhausted FM should error")
	}
}
