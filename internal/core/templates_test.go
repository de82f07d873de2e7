package core

import (
	"strings"
	"testing"

	"smartfeat/internal/fm"
)

// TestUnaryPromptGolden pins the Table 2 unary proposal template: the prompt
// must carry the data agenda, the prediction class, the downstream model and
// the proposal instruction with confidence levels.
func TestUnaryPromptGolden(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "Whether the policyholder is safe", insuranceDescriptions)
	got := unaryPrompt(a, "Decision Tree", "Age")
	for _, want := range []string{
		"Task: propose-unary",
		"Dataset description:",
		"- Age (numeric",
		"Age of the policyholder in years",
		"Prediction class: Safe (Whether the policyholder is safe)",
		"Downstream model: Decision Tree",
		"Attribute: Age",
		`Consider the unary operators on the attribute "Age"`,
		"confidence levels (certain/high/medium/low)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("unary prompt missing %q:\n%s", want, got)
		}
	}
	// The target column itself must not be listed as a feature.
	if strings.Contains(got, "- Safe (") {
		t.Error("target leaked into the agenda block")
	}
}

// TestHighOrderPromptGolden pins the Table 2 high-order sampling template
// (the df.groupby phrasing is part of the paper's template).
func TestHighOrderPromptGolden(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	got := highOrderPrompt(a, "RF")
	for _, want := range []string{
		"Task: sample-highorder",
		"'df.groupby(groupby_col)[agg_col].transform(function)'",
		"groupby_col",
		"agg_col",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("high-order prompt missing %q:\n%s", want, got)
		}
	}
}

func TestBinaryAndExtractorPrompts(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	bp := binaryPrompt(a, "RF")
	if !strings.Contains(bp, "Task: sample-binary") || !strings.Contains(bp, "arithmetic operators +, -, *, /") {
		t.Fatalf("binary prompt malformed:\n%s", bp)
	}
	ep := extractorPrompt(a, "RF")
	if !strings.Contains(ep, "Task: sample-extractor") || !strings.Contains(ep, "population density") {
		t.Fatalf("extractor prompt malformed:\n%s", ep)
	}
}

func TestFunctionPromptGolden(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	got := functionPrompt(a, "RF", Candidate{
		Name:        "Bucketized_age",
		Inputs:      []string{"Age"},
		Operator:    "bucketize",
		Description: "Bucketization of Age attribute",
	})
	for _, want := range []string{
		"Task: generate-function",
		"New feature: Bucketized_age",
		"Relevant columns: Age",
		"Operator: bucketize",
		"Description: Bucketization of Age attribute",
		"Generate the optimal transformation function",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("function prompt missing %q:\n%s", want, got)
		}
	}
}

func TestRowPromptGolden(t *testing.T) {
	got := rowPrompt("Population_Density_City", "Sex: M, Age: 21, City: SF")
	for _, want := range []string{
		"Task: complete-row",
		"Row: Sex: M, Age: 21, City: SF, Population_Density_City: ?",
		"value for the masked attribute",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("row prompt missing %q:\n%s", want, got)
		}
	}
}

// TestPromptsRoundTripThroughSimulatedFM verifies the co-designed contract:
// every template renders into a form the simulated FM parses and answers.
func TestPromptsRoundTripThroughSimulatedFM(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "is safe", insuranceDescriptions)
	model := fm.NewGPT4Sim(3, 0)
	prompts := []string{
		unaryPrompt(a, "RF", "Age"),
		binaryPrompt(a, "RF"),
		highOrderPrompt(a, "RF"),
		extractorPrompt(a, "RF"),
	}
	for i, p := range prompts {
		if _, err := model.Complete(tctx, p); err != nil {
			t.Errorf("prompt %d rejected by the simulated FM: %v", i, err)
		}
	}
}

// TestAgendaGrowsIntoPrompts verifies the iterative loop of §3.1: a feature
// added to the agenda appears in the next rendered prompt.
func TestAgendaGrowsIntoPrompts(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	spec := TransformSpec{Kind: KindBucketize, Input: "Age", Boundaries: []float64{21, 35, 50}}
	if _, err := spec.Apply(f, "Bucketized_age"); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("Bucketized_age", "Bucketization of Age attribute"); err != nil {
		t.Fatal(err)
	}
	got := unaryPrompt(a, "RF", "Age")
	if !strings.Contains(got, "- Bucketized_age (numeric") {
		t.Fatalf("new feature missing from updated agenda:\n%s", got)
	}
}
