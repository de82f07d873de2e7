package autofeat

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"smartfeat/internal/dataframe"
)

func synthFrame(t *testing.T, n int, seed int64) *dataframe.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := dataframe.New()
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64() + 3
		b[i] = rng.NormFloat64() + 3
		if a[i]*a[i]+0.3*rng.NormFloat64() > 9.5 {
			y[i] = 1
		}
	}
	if err := f.AddNumeric("a", a); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("b", b); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunSelectsInformativeExpansion(t *testing.T) {
	f := synthFrame(t, 600, 1)
	res, err := Run(f, "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated < 50 {
		t.Fatalf("expansion too small: %d", res.Generated)
	}
	if res.Selected == 0 || res.Selected > DefaultConfig().SelectTopK {
		t.Fatalf("selected = %d", res.Selected)
	}
	// The top pick should involve a (the squared signal's base).
	found := false
	for _, c := range res.NewColumns {
		if containsStr(c, "a") {
			found = true
		}
	}
	if !found {
		t.Fatalf("selection missed the signal feature: %v", res.NewColumns)
	}
	// Input untouched.
	if f.Width() != 3 {
		t.Fatal("input frame mutated")
	}
}

func TestRunTimeoutOnLargeData(t *testing.T) {
	f := synthFrame(t, 1000, 2)
	cfg := DefaultConfig()
	cfg.BudgetCellOps = 1000 // tiny budget
	_, err := Run(f, "y", cfg)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	f := synthFrame(t, 50, 3)
	if _, err := Run(f, "missing", DefaultConfig()); err == nil {
		t.Fatal("missing target should error")
	}
	g := dataframe.New()
	_ = g.Add(dataframe.NewCategorical("c", []string{"a", "b"}))
	_ = g.AddNumeric("y", []float64{0, 1})
	if _, err := Run(g, "y", DefaultConfig()); err == nil {
		t.Fatal("no numeric features should error")
	}
}

func TestExpansionCountFormula(t *testing.T) {
	// 11 base features (the Tennis case): step1 = 55, pool = 66,
	// step2 = 66·65 = 4290 → 4345 candidates (the paper reports 1,978 with
	// the reference tool's symbolic dedup; same order of magnitude).
	f := dataframe.New()
	n := 60
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11"} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*10 + 1
		}
		if err := f.AddNumeric(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = float64(i % 2)
	}
	_ = f.AddNumeric("y", y)
	res, err := Run(f, "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 55+66*65 {
		t.Fatalf("generated = %d, want %d", res.Generated, 55+66*65)
	}
}

func TestRedundancyFilter(t *testing.T) {
	f := synthFrame(t, 400, 5)
	cfg := DefaultConfig()
	cfg.SelectTopK = 3
	res, err := Run(f, "y", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Selected features should not be near-duplicates of each other: the
	// greedy filter enforces pairwise |corr| ≤ 0.9.
	for i := 0; i < len(res.NewColumns); i++ {
		for j := i + 1; j < len(res.NewColumns); j++ {
			a := res.Frame.Column(res.NewColumns[i]).Floats()
			b := res.Frame.Column(res.NewColumns[j]).Floats()
			if corrAbs(a, b) > 0.9001 {
				t.Fatalf("redundant selection: %s vs %s", res.NewColumns[i], res.NewColumns[j])
			}
		}
	}
}

func corrAbs(a, b []float64) float64 {
	var sa, sb float64
	n := 0
	for i := range a {
		if isNaN(a[i]) || isNaN(b[i]) {
			continue
		}
		sa += a[i]
		sb += b[i]
		n++
	}
	if n < 2 {
		return 0
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cov, va, vb float64
	for i := range a {
		if isNaN(a[i]) || isNaN(b[i]) {
			continue
		}
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	r := cov / (sqrt(va) * sqrt(vb))
	if r < 0 {
		return -r
	}
	return r
}

func isNaN(v float64) bool { return v != v }
func sqrt(v float64) float64 {
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRunAllocsBounded pins the scoring loop's memory: on a Heart-shaped
// frame (13 features, 3,657 rows, 6,071 candidates) a run may allocate a
// small multiple of rows × pool floats, never a full column per candidate.
func TestRunAllocsBounded(t *testing.T) {
	const rows, base = 3657, 13
	rng := rand.New(rand.NewSource(24))
	f := dataframe.New()
	for k := 0; k < base; k++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()*float64(k+1) + float64(k)
		}
		if err := f.AddNumeric(fmt.Sprintf("f%d", k), vals); err != nil {
			t.Fatal(err)
		}
	}
	y := make([]float64, rows)
	for i := range y {
		if rng.Float64() < 0.3 {
			y[i] = 1
		}
	}
	if err := f.AddNumeric("y", y); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TrainRows = rng.Perm(rows)[:rows*3/4]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(f, "y", cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pool := base * (1 + len(unaryTransforms))
	if res.Generated != base*len(unaryTransforms)+pool*(pool-1) {
		t.Fatalf("generated %d candidates", res.Generated)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	bound := uint64(8 * rows * pool * 8) // 8 × rows × pool float64s
	t.Logf("allocated %d B for %d candidates; bound %d B", allocated, res.Generated, bound)
	if allocated > bound {
		t.Fatalf("Run allocated %d B, over %d B (8 × rows × pool floats)", allocated, bound)
	}
}
