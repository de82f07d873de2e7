package caafe

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// tctx is the default context for the loops under test.
var tctx = context.Background()

// ratioFrame plants a ratio signal so validation-gated retention has
// something to find.
func ratioFrame(t *testing.T, n int, zeroFrac float64, seed int64) *dataframe.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := dataframe.New()
	num := make([]float64, n)
	den := make([]float64, n)
	noise := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		num[i] = rng.Float64()*10 + 5
		if rng.Float64() < zeroFrac {
			den[i] = 0
		} else {
			// Wide denominator range reaching near zero: the ratio has 1/x
			// curvature no linear fit on the raw pair can represent, so
			// retention genuinely requires the divide feature.
			den[i] = rng.Float64()*39 + 1
		}
		noise[i] = rng.NormFloat64()
		safeDen := den[i]
		if safeDen == 0 {
			safeDen = 20
		}
		if num[i]/safeDen+0.6*noise[i]+0.4*rng.NormFloat64() > 1.3 {
			y[i] = 1
		}
	}
	if err := f.AddNumeric("TotalWins", num); err != nil { // count role
		t.Fatal(err)
	}
	if err := f.AddNumeric("TotalAttempts", den); err != nil { // count role
		t.Fatal(err)
	}
	if err := f.AddNumeric("Misc", noise); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

var descriptions = map[string]string{
	"TotalWins":     "Number of points won",
	"TotalAttempts": "Number of points attempted",
	"Misc":          "Unrelated measurement noise",
}

func TestRunRetainsHelpfulRatio(t *testing.T) {
	f := ratioFrame(t, 800, 0, 1)
	res, err := Run(tctx, f, "y", descriptions, fm.NewGPT4Sim(3, 0), "LR", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no candidates generated")
	}
	if res.Retained == 0 {
		t.Fatal("the planted ratio should be retained")
	}
	if res.HasNonFinite {
		t.Fatal("no zeros → no Inf expected")
	}
	if res.Usage.Calls == 0 {
		t.Fatal("usage not accounted")
	}
	// Input untouched.
	if f.Width() != 4 {
		t.Fatal("input mutated")
	}
}

func TestRunValidationRejectsNoise(t *testing.T) {
	// With labels independent of everything, nothing should be retained.
	rng := rand.New(rand.NewSource(9))
	f := dataframe.New()
	n := 600
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.NormFloat64()
		cols[1][i] = rng.NormFloat64()
		y[i] = float64(rng.Intn(2))
	}
	_ = f.AddNumeric("NumA", cols[0])
	_ = f.AddNumeric("NumB", cols[1])
	_ = f.AddNumeric("y", y)
	res, err := Run(tctx, f, "y", nil, fm.NewGPT4Sim(5, 0), "LR", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retained > 2 { // occasional flukes are tolerable, systematic isn't
		t.Fatalf("validation should reject noise features, retained %d", res.Retained)
	}
}

func TestRunDivideByZeroProducesInf(t *testing.T) {
	// With a zero-heavy denominator and a real ratio signal, the retained
	// divide feature carries ±Inf — the Diabetes failure mode.
	f := ratioFrame(t, 900, 0.3, 7)
	cfg := DefaultConfig()
	cfg.Iterations = 25 // enough draws to sample the divide
	res, err := Run(tctx, f, "y", descriptions, fm.NewGPT4Sim(11, 0), "LR", cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundDivide := false
	for _, c := range res.NewColumns {
		col := res.Frame.Column(c)
		for _, v := range col.Floats() {
			if math.IsInf(v, 0) {
				foundDivide = true
			}
		}
	}
	if !foundDivide && !res.HasNonFinite {
		t.Skip("divide not sampled under this seed; covered by candidate.compute test")
	}
	if foundDivide && !res.HasNonFinite {
		t.Fatal("HasNonFinite flag should be set")
	}
}

func TestCandidateComputeRawSemantics(t *testing.T) {
	f := dataframe.New()
	_ = f.AddNumeric("a", []float64{4, 0, 6})
	_ = f.AddNumeric("b", []float64{2, 0, 0})
	c := candidate{op: "divide", left: "a", right: "b", name: "r"}
	vals := c.compute(f)
	if vals[0] != 2 {
		t.Fatalf("4/2 = %v", vals[0])
	}
	if !math.IsNaN(vals[1]) { // 0/0
		t.Fatalf("0/0 = %v, want NaN", vals[1])
	}
	if !math.IsInf(vals[2], 1) { // 6/0
		t.Fatalf("6/0 = %v, want +Inf", vals[2])
	}
	for _, op := range []string{"add", "subtract", "multiply"} {
		c.op = op
		_ = c.compute(f)
	}
	// Null propagation.
	f.Column("a").SetNull(0)
	c.op = "add"
	if !math.IsNaN(c.compute(f)[0]) {
		t.Fatal("null row should be NaN")
	}
}

func TestRunDNNTimeout(t *testing.T) {
	f := ratioFrame(t, 100, 0, 13)
	cfg := DefaultConfig()
	cfg.DNNBudgetRows = 50
	_, err := Run(tctx, f, "y", descriptions, fm.NewGPT4Sim(1, 0), "DNN", cfg)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// Other models unaffected by the DNN budget.
	if _, err := Run(tctx, f, "y", descriptions, fm.NewGPT4Sim(1, 0), "NB", cfg); err != nil {
		t.Fatalf("NB should run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	f := ratioFrame(t, 50, 0, 17)
	if _, err := Run(tctx, f, "missing", nil, fm.NewGPT4Sim(1, 0), "LR", DefaultConfig()); err == nil {
		t.Fatal("missing target should error")
	}
}

func TestParseCandidateValidation(t *testing.T) {
	f := ratioFrame(t, 20, 0, 19)
	if _, err := parseCandidate(`{"op":"divide","left":"TotalWins","right":"Ghost"}`, f, "y"); err == nil {
		t.Fatal("unknown column should be rejected")
	}
	if _, err := parseCandidate(`{"op":"conjure","left":"TotalWins","right":"Misc"}`, f, "y"); err == nil {
		t.Fatal("invalid op should be rejected")
	}
	if _, err := parseCandidate(`garbage`, f, "y"); err == nil {
		t.Fatal("non-JSON should be rejected")
	}
	if _, err := parseCandidate(`{"op":"divide","left":"TotalWins","right":"y"}`, f, "y"); err == nil {
		t.Fatal("target as input should be rejected")
	}
	c, err := parseCandidate(`{"op":"divide","left":"TotalWins","right":"TotalAttempts"}`, f, "y")
	if err != nil {
		t.Fatal(err)
	}
	if c.name == "" {
		t.Fatal("default name should be synthesized")
	}
}
