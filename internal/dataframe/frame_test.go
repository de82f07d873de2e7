package dataframe

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustFrame(t *testing.T) *Frame {
	t.Helper()
	f := New()
	if err := f.AddNumeric("age", []float64{21, 35, 42, 22, 45, 56}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(NewCategorical("city", []string{"SF", "LA", "SEA", "SF", "SEA", "LA"})); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("claim", []float64{1, 0, 0, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddAndLookup(t *testing.T) {
	f := mustFrame(t)
	if f.Len() != 6 || f.Width() != 3 {
		t.Fatalf("got %dx%d, want 6x3", f.Len(), f.Width())
	}
	if !f.Has("age") || f.Has("nope") {
		t.Fatal("Has is wrong")
	}
	if f.Column("city").Kind != Categorical {
		t.Fatal("city should be categorical")
	}
	if got := f.Names(); got[0] != "age" || got[1] != "city" || got[2] != "claim" {
		t.Fatalf("Names order wrong: %v", got)
	}
}

func TestAddErrors(t *testing.T) {
	f := mustFrame(t)
	if err := f.AddNumeric("age", []float64{1, 2, 3, 4, 5, 6}); err == nil {
		t.Fatal("duplicate name should error")
	}
	if err := f.AddNumeric("short", []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := f.Add(nil); err == nil {
		t.Fatal("nil series should error")
	}
	if err := f.Add(NewNumeric("", []float64{1, 2, 3, 4, 5, 6})); err == nil {
		t.Fatal("unnamed series should error")
	}
}

func TestDropAndReindex(t *testing.T) {
	f := mustFrame(t)
	f.Drop("city")
	if f.Has("city") || f.Width() != 2 {
		t.Fatal("drop failed")
	}
	// Index must be rebuilt: claim should still resolve.
	if f.Column("claim") == nil {
		t.Fatal("reindex broken")
	}
	f.Drop("not-there") // no-op, no panic
}

// TestCloneSharesSeries: a clone holds the source's own *Series (columns
// are immutable, so no data is copied), but its column list is its own: Add
// and Drop on either frame leave the other's Names and Width alone.
func TestCloneSharesSeries(t *testing.T) {
	f := mustFrame(t)
	names := f.Names()
	g := f.Clone()
	for _, name := range names {
		if g.Column(name) != f.Column(name) {
			t.Fatalf("clone copied series %q", name)
		}
	}
	if err := g.AddNumeric("extra", make([]float64, f.Len())); err != nil {
		t.Fatal(err)
	}
	g.Drop("age")
	if got := f.Names(); f.Width() != 3 || !slices.Equal(got, names) || f.Has("extra") {
		t.Fatalf("Add/Drop on the clone changed the source: %v", got)
	}
	if f.Column("age") == nil || f.Column("claim") != g.Column("claim") {
		t.Fatal("source lookups broken by the clone's Drop")
	}
	f.Drop("city")
	if got := g.Names(); !slices.Equal(got, []string{"city", "claim", "extra"}) {
		t.Fatalf("Drop on the source changed the clone: %v", got)
	}
}

func TestTake(t *testing.T) {
	f := mustFrame(t)
	g := f.Take([]int{5, 0})
	if g.Len() != 2 {
		t.Fatalf("take len = %d", g.Len())
	}
	if g.Column("age").Float(0) != 56 || g.Column("age").Float(1) != 21 {
		t.Fatal("take order wrong")
	}
}

func TestDropNA(t *testing.T) {
	f := mustFrame(t)
	f.Column("age").SetNull(2)
	g := f.DropNA()
	if g.Len() != 5 {
		t.Fatalf("dropna len = %d, want 5", g.Len())
	}
	for i := 0; i < g.Len(); i++ {
		if g.Column("age").IsNull(i) {
			t.Fatal("null survived dropna")
		}
	}
}

func TestMatrixAndLabels(t *testing.T) {
	f := mustFrame(t)
	m, err := gather(f, []string{"age", "claim"}, allRows(f.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 6 || m.At(0, 0) != 21 || m.At(0, 1) != 1 {
		t.Fatal("matrix values wrong")
	}
	codes, err := gather(f, []string{"city"}, allRows(f.Len()))
	if err != nil {
		t.Fatal(err)
	}
	enc, _, err := f.Factorize("city")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Len(); i++ {
		if got, want := codes.At(i, 0), enc.Float(i); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("city row %d gathers %v, Factorize gives %v", i, got, want)
		}
	}
	if _, err := gather(f, []string{"missing"}, nil); err == nil {
		t.Fatal("missing column should error")
	}
	y, err := f.IntLabels("claim")
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[1] != 0 {
		t.Fatal("labels wrong")
	}
	if _, err := f.IntLabels("city"); err == nil {
		t.Fatal("categorical labels should error")
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewNumeric("x", []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("std = %v", got)
	}
	if lo, hi := s.Bounds(); lo != 2 || hi != 9 {
		t.Fatal("min/max wrong")
	}
	if got := s.Quantile(0.5); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("median = %v", got)
	}
	if s.Quantile(0) != 2 || s.Quantile(1) != 9 {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestSeriesNulls(t *testing.T) {
	s := NewNumeric("x", []float64{1, math.NaN(), 3})
	if !s.IsNull(1) || s.IsNull(0) {
		t.Fatal("NaN should be null")
	}
	if s.NullCount() != 1 {
		t.Fatal("null count wrong")
	}
	if got := s.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean should skip nulls: %v", got)
	}
	c := NewCategorical("c", []string{"a", "b"})
	c.SetNull(0)
	if !c.IsNull(0) || c.IsNull(1) {
		t.Fatal("categorical null wrong")
	}
}

func TestCardinalityAndLevels(t *testing.T) {
	s := NewCategorical("c", []string{"b", "a", "b", "c"})
	if s.Cardinality() != 3 {
		t.Fatal("cardinality wrong")
	}
	lv := s.Levels()
	if len(lv) != 3 || lv[0] != "a" || lv[2] != "c" {
		t.Fatalf("levels = %v", lv)
	}
	k := NewNumeric("n", []float64{1, 1, 2})
	if k.Cardinality() != 2 {
		t.Fatal("numeric cardinality wrong")
	}
	if !NewNumeric("const", []float64{3, 3, 3}).IsConstant() {
		t.Fatal("constant not detected")
	}
}

// TestDistinctBitsSpreadsIntegralFloats holds the distinct-value table to
// short probe runs on the keys an unmixed hash degenerates on: integral
// floats and powers of two, whose bit patterns differ only in their top
// bits. With every bit mixed, no run of occupied slots at half load comes
// near 100; hashing the low bits alone puts every key in one run.
func TestDistinctBitsSpreadsIntegralFloats(t *testing.T) {
	vals := make([]float64, 0, 22098)
	for i := 1; i <= 20000; i++ {
		vals = append(vals, float64(i))
	}
	for e := -1074; e <= 1023; e++ {
		vals = append(vals, math.Ldexp(1, e))
	}
	slots, n, _, _ := distinctBits(NewNumeric("v", vals))
	if want := 20000 + 2098 - 15; n != want { // 2^0..2^14 are among the integers
		t.Fatalf("distinctBits counts %d keys, want %d", n, want)
	}
	longest, run := 0, 0
	for _, k := range append(slots, slots...) { // runs wrap around
		if k == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	if longest > 100 {
		t.Fatalf("longest probe run is %d slots over %d keys in %d slots", longest, n, len(slots))
	}
}

// TestDistinctBitsGrowth counts columns whose first rows mislead the
// table's size estimate, against a map: all distinct, evenly drawn from a
// few thousand values, skewed toward a few values, repeating at first and
// distinct after, distinct at first and repeating after, with and without
// nulls. Whatever size the table grows to, the count and Bounds must hold.
func TestDistinctBitsGrowth(t *testing.T) {
	const rows = 20000
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func(i int) float64{
		"distinct": func(i int) float64 { return float64(i) * 0.25 },
		"even":     func(int) float64 { return float64(rng.Intn(3000)) - 1500 },
		"skewed":   func(int) float64 { return math.Floor(math.Exp(rng.Float64() * 9)) },
		"lateDistinct": func(i int) float64 {
			if i < 3000 {
				return float64(i % 7)
			}
			return float64(i)
		},
		"earlyDistinct": func(i int) float64 {
			if i < 3000 {
				return float64(i)
			}
			return float64(i % 5000)
		},
	}
	for name, value := range shapes {
		for _, nulls := range []bool{false, true} {
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = value(i)
			}
			s := NewNumeric(name, vals)
			want := make(map[float64]bool)
			wlo, whi := math.Inf(1), math.Inf(-1)
			for i, v := range vals {
				if nulls && i%3 == 0 {
					s.SetNull(i)
					continue
				}
				want[v] = true
				wlo, whi = min(wlo, v), max(whi, v)
			}
			slots, n, lo, hi := distinctBits(s)
			if n != len(want) || lo != wlo || hi != whi {
				t.Errorf("%s (nulls %v): %d values in [%v, %v], the map %d in [%v, %v]", name, nulls, n, lo, hi, len(want), wlo, whi)
			}
			if 2*n > len(slots) {
				t.Errorf("%s (nulls %v): %d keys in %d slots, over half load", name, nulls, n, len(slots))
			}
		}
	}
}

func TestIsConstant(t *testing.T) {
	nan := math.NaN()
	masked := NewNumeric("masked", []float64{1, 2, 1})
	masked.SetNull(1)
	catNull := NewCategorical("cat-null", []string{"a", "b", "a"})
	catNull.SetNull(1)
	cases := []struct {
		s    *Series
		want bool
	}{
		{NewNumeric("empty", nil), true},
		{NewNumeric("one row", []float64{7}), true},
		{NewNumeric("all null", []float64{nan, nan}), true},
		{NewNumeric("nulls around one value", []float64{nan, 3, nan, 3}), true},
		{NewNumeric("nan is null", []float64{3, nan, 4}), false},
		{NewNumeric("signed zeros", []float64{0, math.Copysign(0, -1), 0}), true},
		{NewNumeric("second value last", []float64{5, 5, 5, 6}), false},
		{masked, true},
		{NewCategorical("one level", []string{"x", "x"}), true},
		{NewCategorical("two levels", []string{"x", "y", "x"}), false},
		{catNull, true},
	}
	for _, c := range cases {
		if got := c.s.IsConstant(); got != c.want {
			t.Errorf("%s: IsConstant() = %v, want %v", c.s.Name, got, c.want)
		}
		if want := c.s.Cardinality() <= 1; c.want != want {
			t.Errorf("%s: table says %v, Cardinality() <= 1 says %v", c.s.Name, c.want, want)
		}
	}
}

func TestValueString(t *testing.T) {
	s := NewNumeric("x", []float64{3, 3.5})
	if s.ValueString(0) != "3" {
		t.Fatalf("integral float should render without decimal: %q", s.ValueString(0))
	}
	if s.ValueString(1) != "3.5" {
		t.Fatalf("got %q", s.ValueString(1))
	}
	s.SetNull(0)
	if s.ValueString(0) != "" {
		t.Fatal("null should render empty")
	}
}

func TestQuantileProperty(t *testing.T) {
	// Quantile must be monotone in q and bounded by min/max.
	prop := func(raw []float64, q1, q2 float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := NewNumeric("x", vals)
		a, b := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		qa, qb := s.Quantile(a), s.Quantile(b)
		lo, hi := s.Bounds()
		return qa <= qb && qa >= lo && qb <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of non-null values using
// linear interpolation, matching numpy's default.
func (s *Series) Quantile(q float64) float64 {
	vals := make([]float64, 0, s.Len())
	for i, v := range s.Floats() {
		if !s.IsNull(i) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return vals[lo]
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}
