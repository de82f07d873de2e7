package core

import (
	"context"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// tctx is the default context for pipeline components under test.
var tctx = context.Background()

// insuranceFrame reproduces Table 1 (the motivating example), expanded to a
// few more rows so group statistics are meaningful.
func insuranceFrame(t *testing.T) *dataframe.Frame {
	t.Helper()
	csv := `Sex,Age,Age of car,Make,Claim in last 6 month,City,Safe
M,21,6,Honda,1,SF,0
F,35,2,Toyota,0,LA,1
M,42,8,Ford,0,SEA,1
F,22,14,Chevrolet,1,SF,0
M,45,3,BMW,0,SEA,1
F,56,5,Volkswagen,0,LA,1
M,33,4,Honda,0,SF,1
F,28,9,Toyota,1,LA,0
M,51,1,Ford,0,SEA,1
F,24,11,Chevrolet,1,SF,0
M,38,7,BMW,0,LA,1
F,47,2,Volkswagen,0,SEA,1
`
	f, err := dataframe.ReadCSVString(csv)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var insuranceDescriptions = map[string]string{
	"Sex":                   "Sex of the policyholder",
	"Age":                   "Age of the policyholder in years",
	"Age of car":            "Age of the insured car in years",
	"Make":                  "Manufacturer of the car",
	"Claim in last 6 month": "Number of claims filed in the last 6 months",
	"City":                  "City of residence",
}

func insuranceOptions(seed int64) Options {
	return Options{
		Target:            "Safe",
		TargetDescription: "Whether the policyholder is safe and unlikely to file a claim (1 = safe)",
		Descriptions:      insuranceDescriptions,
		Model:             "RF",
		SelectorFM:        fm.NewGPT4Sim(seed, 0),
		GeneratorFM:       fm.NewGPT35Sim(seed+1, 0),
	}
}

func TestAgendaBasics(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "is safe", insuranceDescriptions)
	cols := a.Columns()
	if len(cols) != 6 {
		t.Fatalf("agenda columns = %v", cols)
	}
	for _, c := range cols {
		if c == "Safe" {
			t.Fatal("target must not appear in agenda")
		}
	}
	if a.Describe("Age") != "Age of the policyholder in years" {
		t.Fatal("description lookup broken")
	}
	rendered := a.Render()
	if !strings.Contains(rendered, "- Age (numeric") || !strings.Contains(rendered, "levels=[LA|SEA|SF]") {
		t.Fatalf("render missing metadata:\n%s", rendered)
	}
}

func TestAgendaAddRemove(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	if err := a.Add("NotInFrame", "x"); err == nil {
		t.Fatal("adding a column missing from the frame should error")
	}
	if err := f.AddNumeric("NewFeat", make([]float64, f.Len())); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("NewFeat", "a new feature"); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("NewFeat", "again"); err == nil {
		t.Fatal("duplicate add should error")
	}
	if !a.Has("NewFeat") {
		t.Fatal("added feature missing")
	}
	a.Remove("NewFeat")
	if a.Has("NewFeat") {
		t.Fatal("remove failed")
	}
}

func TestAgendaFallsBackToNames(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", nil) // the §4.2 minimal-input regime
	if a.Describe("Age") != "Age" {
		t.Fatalf("name-only fallback broken: %q", a.Describe("Age"))
	}
	if a.TargetDescription() != "Safe" {
		t.Fatal("target description fallback broken")
	}
}

func TestParseSpecVariants(t *testing.T) {
	good := []string{
		`{"kind":"bucketize","input":"Age","boundaries":[21,35,50]}`,
		`{"kind":"minmax","input":"Age"}`,
		`{"kind":"standardize","input":"Age"}`,
		`{"kind":"expr","expr":"Age / 2"}`,
		`{"kind":"dummies","input":"City","max_levels":5}`,
		`{"kind":"datesplit","input":"Date"}`,
		`{"kind":"groupby","group":["Make"],"agg":"Claim","function":"mean"}`,
		`{"kind":"mapvalues","input":"City","mapping":{"SF":18838}}`,
		`{"kind":"rowlevel"}`,
		`{"kind":"datasource","source":"https://example.com"}`,
		"The best transformation is:\n```json\n{\"kind\":\"minmax\",\"input\":\"Age\"}\n```\nhope that helps!",
	}
	for _, s := range good {
		if _, err := ParseSpec(s); err != nil {
			t.Errorf("ParseSpec(%q) failed: %v", s, err)
		}
	}
	bad := []string{
		``,
		`no json here`,
		`{"kind":"bucketize","input":"Age"}`, // missing boundaries
		`{"kind":"expr","expr":"(((bad"}`,    // non-compiling formula
		`{"kind":"groupby","group":[],"agg":"x","function":"mean"}`,     // empty group
		`{"kind":"groupby","group":["a"],"agg":"x","function":"magic"}`, // bad agg
		`{"kind":"mapvalues","input":"City"}`,                           // no mapping
		`{"kind":"teleport"}`,                                           // unknown kind
		`{"kind":"minmax"}`,                                             // no input
		`{"kind":"bucketize","input":"Age","boundaries":[21,35,`,        // truncated
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) should fail", s)
		}
	}
}

func TestSpecApplyExprAndGroupBy(t *testing.T) {
	f := insuranceFrame(t)
	spec := TransformSpec{Kind: KindExpr, Expr: "2024 - `Age of car`"}
	added, err := spec.Apply(f, "Manufacturing_Year")
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || f.Column("Manufacturing_Year").Nums[0] != 2018 {
		t.Fatalf("expr apply wrong: %v", added)
	}
	spec = TransformSpec{Kind: KindGroupBy, Group: []string{"Make"}, Agg: "Claim in last 6 month", Function: "mean"}
	added, err = spec.Apply(f, "GroupBy_Make_mean_Claim")
	if err != nil {
		t.Fatal(err)
	}
	col := f.Column(added[0])
	// Honda rows: claims 1 and 0 → mean 0.5.
	if col.Nums[0] != 0.5 {
		t.Fatalf("groupby apply wrong: %v", col.Nums[0])
	}
}

func TestSpecApplyErrors(t *testing.T) {
	f := insuranceFrame(t)
	cases := []TransformSpec{
		{Kind: KindExpr, Expr: "Ghost + 1"},                           // missing column
		{Kind: KindExpr, Expr: "Sex + 1"},                             // categorical column
		{Kind: KindExpr, Expr: "1 + 2"},                               // constant
		{Kind: KindBucketize, Input: "Sex", Boundaries: []float64{1}}, // categorical
		{Kind: KindRowLevel},                                          // not directly applicable
		{Kind: KindDummies, Input: "Age"},                             // numeric dummies
	}
	for i, spec := range cases {
		if _, err := spec.Apply(f, "x"); err == nil {
			t.Errorf("case %d should fail: %+v", i, spec)
		}
	}
}

func TestSpecInputColumns(t *testing.T) {
	spec := TransformSpec{Kind: KindExpr, Expr: "a + b / c"}
	cols := spec.InputColumns()
	if len(cols) != 3 {
		t.Fatalf("expr inputs = %v", cols)
	}
	spec = TransformSpec{Kind: KindGroupBy, Group: []string{"g1", "g2"}, Agg: "a", Function: "mean"}
	if cols = spec.InputColumns(); len(cols) != 3 || cols[2] != "a" {
		t.Fatalf("groupby inputs = %v", cols)
	}
	spec = TransformSpec{Kind: KindMinMax, Input: "x"}
	if cols = spec.InputColumns(); len(cols) != 1 || cols[0] != "x" {
		t.Fatalf("unary inputs = %v", cols)
	}
}

func TestExtractJSON(t *testing.T) {
	if got := extractJSON(`prefix {"a": {"b": 1}} suffix`); got != `{"a": {"b": 1}}` {
		t.Fatalf("nested extract = %q", got)
	}
	if got := extractJSON(`{"s": "has } brace"}`); got != `{"s": "has } brace"}` {
		t.Fatalf("string-brace extract = %q", got)
	}
	if extractJSON("no json") != "" || extractJSON(`{"open": 1`) != "" {
		t.Fatal("invalid json should yield empty")
	}
}

func TestSelectorProposeUnary(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "is safe", insuranceDescriptions)
	sel := NewSelector(fm.NewGPT4Sim(1, 0), "RF")
	cands, err := sel.ProposeUnary(tctx, a, "Age")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("age should yield unary candidates")
	}
	found := false
	for _, c := range cands {
		if c.Operator == "bucketize" {
			found = true
			if c.Name != "Bucketize_Age" {
				t.Fatalf("name convention: %s", c.Name)
			}
			if len(c.Inputs) != 1 || c.Inputs[0] != "Age" {
				t.Fatalf("inputs: %v", c.Inputs)
			}
		}
		if c.Family != OpFamilyUnary {
			t.Fatal("family must be unary")
		}
	}
	if !found {
		t.Fatalf("bucketize not among candidates: %+v", cands)
	}
}

func TestParseUnaryProposals(t *testing.T) {
	resp := "Sure! Here are my suggestions:\nbucketize (certain): Banding of Age\nnormalize (medium): Scaling\n"
	props, err := parseUnaryProposals(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 || props[0].Operator != "bucketize" || props[0].Confidence != "certain" {
		t.Fatalf("parsed: %+v", props)
	}
	if _, err := parseUnaryProposals("no structured lines at all"); err == nil {
		t.Fatal("unparseable response should error")
	}
}

func TestSelectorSampleBinaryValidation(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	// Scripted FM returning a hallucinated column.
	sel := NewSelector(fm.NewScripted(`{"op":"divide","left":"Ghost","right":"Age"}`), "RF")
	if _, err := sel.SampleBinary(tctx, a); err == nil {
		t.Fatal("unknown column must be rejected")
	}
	sel = NewSelector(fm.NewScripted(`{"op":"conjure","left":"Age","right":"Age of car"}`), "RF")
	if _, err := sel.SampleBinary(tctx, a); err == nil {
		t.Fatal("invalid op must be rejected")
	}
	sel = NewSelector(fm.NewScripted(`not json at all`), "RF")
	if _, err := sel.SampleBinary(tctx, a); err == nil {
		t.Fatal("non-JSON must be rejected")
	}
	sel = NewSelector(fm.NewScripted(`{"op":"divide","left":"Age","right":"Age of car"}`), "RF")
	c, err := sel.SampleBinary(tctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name == "" || c.Family != OpFamilyBinary {
		t.Fatalf("candidate: %+v", c)
	}
}

func TestSelectorSampleHighOrderPrefills(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	sel := NewSelector(fm.NewScripted(`{"groupby_col":["Make"],"agg_col":"Claim in last 6 month","function":"mean"}`), "RF")
	c, err := sel.SampleHighOrder(tctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec == nil || c.Spec.Kind != KindGroupBy {
		t.Fatal("high-order candidate must pre-fill its spec (no generator FM call)")
	}
	if c.Name != "GroupBy_Make_mean_Claim_in_last_6_month" {
		t.Fatalf("name convention: %s", c.Name)
	}
	// Bad aggregation function must be rejected at selection time.
	sel = NewSelector(fm.NewScripted(`{"groupby_col":["Make"],"agg_col":"Age","function":"magic"}`), "RF")
	if _, err := sel.SampleHighOrder(tctx, a); err == nil {
		t.Fatal("invalid function must be rejected")
	}
}

func TestGeneratorRealizeBucketize(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	gen := NewGenerator(fm.NewGPT35Sim(3, 0), "RF")
	g := gen.Realize(tctx, f, a, Candidate{
		Name:        "Bucketize_Age",
		Inputs:      []string{"Age"},
		Description: "Bucketization of Age attribute",
		Family:      OpFamilyUnary,
		Operator:    "bucketize",
	})
	if g.Status != StatusAdded {
		t.Fatalf("status = %s (%s)", g.Status, g.Detail)
	}
	col := f.Column("Bucketize_Age")
	if col == nil {
		t.Fatal("feature not added")
	}
	// Age 21 is in the 21-35 band (boundary inclusive above): bucket 1.
	if col.Nums[0] != 1 {
		t.Fatalf("bucket of age 21 = %v", col.Nums[0])
	}
}

func TestGeneratorDuplicateRejected(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	gen := NewGenerator(fm.NewGPT35Sim(3, 0), "RF")
	c := Candidate{Name: "Age", Inputs: []string{"Age"}, Operator: "bucketize", Family: OpFamilyUnary}
	g := gen.Realize(tctx, f, a, c)
	if g.Status != StatusFailed || !strings.Contains(g.Detail, "duplicate") {
		t.Fatalf("duplicate name should fail: %+v", g)
	}
}

func TestGeneratorDataSource(t *testing.T) {
	f := insuranceFrame(t)
	a := NewAgenda(f, "Safe", "", insuranceDescriptions)
	gen := NewGenerator(fm.NewScripted(`{"kind":"datasource","source":"https://census.gov"}`), "RF")
	g := gen.Realize(tctx, f, a, Candidate{Name: "External", Inputs: []string{"City"}, Operator: "extractor", Family: OpFamilyExtractor})
	if g.Status != StatusDataSource || !strings.Contains(g.Detail, "census.gov") {
		t.Fatalf("data-source scenario broken: %+v", g)
	}
	if f.Has("External") {
		t.Fatal("data-source candidates must not add columns")
	}
}

func TestGeneratorRowLevelBudget(t *testing.T) {
	f := insuranceFrame(t)

	// Budget too small: produce examples, skip the full pass.
	fmModel := fm.NewGPT35Sim(5, 0)
	gen := NewGenerator(fmModel, "RF")
	gen.RowLevelBudgetUSD = 0
	c := Candidate{Name: "Population_Density_City", Inputs: []string{"City"}, Operator: "extractor", Family: OpFamilyExtractor}
	g := gen.realizeRowLevel(tctx, f, c, GeneratedFeature{Candidate: c})
	if g.Status != StatusRowLevelSkipped {
		t.Fatalf("status = %s", g.Status)
	}
	if !strings.Contains(g.Detail, "examples:") {
		t.Fatalf("skipped row-level should include examples: %s", g.Detail)
	}
	if f.Has(c.Name) {
		t.Fatal("skipped feature must not be added")
	}

	// Generous budget: full pass adds the column.
	gen.RowLevelBudgetUSD = 100
	g = gen.realizeRowLevel(tctx, f, c, GeneratedFeature{Candidate: c})
	if g.Status != StatusRowLevel {
		t.Fatalf("status = %s (%s)", g.Status, g.Detail)
	}
	col := f.Column(c.Name)
	if col == nil {
		t.Fatal("row-level feature missing")
	}
	if col.Nums[0] != 18838 { // SF density from the KB
		t.Fatalf("row-level value = %v", col.Nums[0])
	}
	// FM was called once per row (plus examples earlier).
	if fmModel.Usage().Calls < f.Len() {
		t.Fatalf("row-level should cost ≥ %d calls, got %d", f.Len(), fmModel.Usage().Calls)
	}
}

func TestRunEndToEndInsurance(t *testing.T) {
	f := insuranceFrame(t)
	res, err := Run(f, insuranceOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) == 0 {
		t.Fatal("no features generated")
	}
	added := res.AddedColumns()
	if len(added) == 0 {
		t.Fatal("no features survived")
	}
	// The motivating features: bucketized age must be present.
	if !res.Frame.Has("Bucketize_Age") {
		t.Fatalf("Bucketize_Age missing; added = %v", added)
	}
	// The original frame is untouched.
	if f.Has("Bucketize_Age") {
		t.Fatal("Run must not mutate its input")
	}
	// Usage is accounted for both models.
	if res.SelectorUsage.Calls == 0 || res.GeneratorUsage.Calls == 0 {
		t.Fatalf("usage not accounted: %+v %+v", res.SelectorUsage, res.GeneratorUsage)
	}
	// Feature-level property: FM calls do not scale with rows.
	if res.SelectorUsage.Calls+res.GeneratorUsage.Calls > 200 {
		t.Fatalf("too many FM calls for feature-level interaction: %d",
			res.SelectorUsage.Calls+res.GeneratorUsage.Calls)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestRunOperatorAblation(t *testing.T) {
	f := insuranceFrame(t)
	opts := insuranceOptions(11)
	opts.Operators = OperatorSet{Unary: true}
	res, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Features {
		if g.Candidate.Family != OpFamilyUnary {
			t.Fatalf("unary-only run produced %s feature", g.Candidate.Family)
		}
	}
	opts = insuranceOptions(12)
	opts.Operators = OperatorSet{HighOrder: true}
	res, err = Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Features {
		if g.Candidate.Family != OpFamilyHighOrder {
			t.Fatalf("high-order-only run produced %s feature", g.Candidate.Family)
		}
	}
}

func TestRunSamplingBudgetCapsFMCalls(t *testing.T) {
	f := insuranceFrame(t)
	optsSmall := insuranceOptions(13)
	optsSmall.Operators = OperatorSet{Binary: true}
	optsSmall.SamplingBudget = 2
	resSmall, err := Run(f, optsSmall)
	if err != nil {
		t.Fatal(err)
	}
	optsBig := insuranceOptions(13)
	optsBig.Operators = OperatorSet{Binary: true}
	optsBig.SamplingBudget = 8
	resBig, err := Run(f, optsBig)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.SelectorUsage.Calls >= resBig.SelectorUsage.Calls {
		t.Fatalf("budget should bound selector calls: %d vs %d",
			resSmall.SelectorUsage.Calls, resBig.SelectorUsage.Calls)
	}
	if len(resSmall.Features) > 2 {
		t.Fatalf("budget 2 should cap candidates, got %d", len(resSmall.Features))
	}
}

func TestRunErrorThreshold(t *testing.T) {
	f := insuranceFrame(t)
	opts := insuranceOptions(17)
	opts.Operators = OperatorSet{HighOrder: true}
	opts.SamplingBudget = 50
	opts.ErrorThreshold = 3
	// A selector FM that always errors out its samples.
	opts.SelectorFM = fm.NewSimulated(fm.SimulatedConfig{Seed: 5, ErrorRate: 1, Pricing: fm.GPT4Pricing})
	res, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors[OpFamilyHighOrder] != 3 {
		t.Fatalf("error threshold should stop at 3, got %d", res.Errors[OpFamilyHighOrder])
	}
	if res.SelectorUsage.Calls > 5 {
		t.Fatalf("threshold should bound calls, got %d", res.SelectorUsage.Calls)
	}
}

func TestRunDropHeuristic(t *testing.T) {
	f := insuranceFrame(t)
	opts := insuranceOptions(19)
	opts.Operators = OperatorSet{Unary: true} // nothing reuses the originals
	res, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Age gets a unary transform and nothing else uses it → dropped.
	dropped := false
	for _, d := range res.DroppedOriginals {
		if d == "Age" {
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("Age should be dropped by the heuristic; dropped = %v", res.DroppedOriginals)
	}
	if res.Frame.Has("Age") {
		t.Fatal("dropped original still in frame")
	}
}

func TestRunValidation(t *testing.T) {
	f := insuranceFrame(t)
	opts := insuranceOptions(23)
	opts.Target = "Missing"
	if _, err := Run(f, opts); err == nil {
		t.Fatal("missing target should error")
	}
	opts = insuranceOptions(23)
	opts.SelectorFM = nil
	if _, err := Run(f, opts); err == nil {
		t.Fatal("nil FM should error")
	}
}

func TestRunDeterminism(t *testing.T) {
	f := insuranceFrame(t)
	r1, err := Run(f, insuranceOptions(31))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(f, insuranceOptions(31))
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := r1.AddedColumns(), r2.AddedColumns()
	if len(c1) != len(c2) {
		t.Fatalf("runs differ: %v vs %v", c1, c2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("runs differ at %d: %s vs %s", i, c1[i], c2[i])
		}
	}
}

func TestResultSuggestions(t *testing.T) {
	r := &Result{Features: []GeneratedFeature{
		{Candidate: Candidate{Name: "Ext"}, Status: StatusDataSource, Detail: "https://x"},
		{Candidate: Candidate{Name: "Other"}, Status: StatusAdded},
	}}
	s := r.Suggestions()
	if len(s) != 1 || !strings.Contains(s[0], "https://x") {
		t.Fatalf("suggestions = %v", s)
	}
}
