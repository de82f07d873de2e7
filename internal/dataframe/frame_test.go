package dataframe

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustFrame(t *testing.T) *Frame {
	t.Helper()
	f := New()
	if err := f.AddNumeric("age", []float64{21, 35, 42, 22, 45, 56}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddCategorical("city", []string{"SF", "LA", "SEA", "SF", "SEA", "LA"}); err != nil {
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

func TestCloneIsDeep(t *testing.T) {
	f := mustFrame(t)
	g := f.Clone()
	g.Column("age").Nums[0] = 99
	if f.Column("age").Nums[0] == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestTakeAndHead(t *testing.T) {
	f := mustFrame(t)
	g := f.Take([]int{5, 0})
	if g.Len() != 2 {
		t.Fatalf("take len = %d", g.Len())
	}
	if g.Column("age").Nums[0] != 56 || g.Column("age").Nums[1] != 21 {
		t.Fatal("take order wrong")
	}
	h := f.Head(2)
	if h.Len() != 2 || h.Column("city").Strs[1] != "LA" {
		t.Fatal("head wrong")
	}
	if f.Head(100).Len() != 6 {
		t.Fatal("head should clamp")
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
	m, err := f.Matrix([]string{"age", "claim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 || m[0][0] != 21 || m[0][1] != 1 {
		t.Fatal("matrix values wrong")
	}
	if _, err := f.Matrix([]string{"city"}); err == nil {
		t.Fatal("categorical matrix should error")
	}
	if _, err := f.Matrix([]string{"missing"}); err == nil {
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

func TestSelect(t *testing.T) {
	f := mustFrame(t)
	g, err := f.Select("claim", "age")
	if err != nil {
		t.Fatal(err)
	}
	if g.Width() != 2 || g.Names()[0] != "claim" {
		t.Fatal("select wrong")
	}
	if _, err := f.Select("nope"); err == nil {
		t.Fatal("select missing should error")
	}
}

func TestReplace(t *testing.T) {
	f := mustFrame(t)
	if err := f.Replace(NewNumeric("age", []float64{1, 2, 3, 4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	if f.Column("age").Nums[0] != 1 {
		t.Fatal("replace did not stick")
	}
	if err := f.Replace(NewNumeric("ghost", []float64{1, 2, 3, 4, 5, 6})); err == nil {
		t.Fatal("replacing a missing column should error")
	}
	if err := f.Replace(NewNumeric("age", []float64{1})); err == nil {
		t.Fatal("length mismatch should error")
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
	if s.Min() != 2 || s.Max() != 9 {
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
		return qa <= qb && qa >= s.Min() && qb <= s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	f := mustFrame(t)
	profs := f.Describe()
	if len(profs) != 3 {
		t.Fatal("profile count wrong")
	}
	if profs[1].Kind != Categorical || len(profs[1].Levels) != 3 {
		t.Fatalf("city profile wrong: %+v", profs[1])
	}
	if profs[0].Cardinality != 6 {
		t.Fatal("age cardinality wrong")
	}
	if !strings.Contains(f.DescribeString(), "city") {
		t.Fatal("describe string missing column")
	}
	if _, err := f.Profile("nope"); err == nil {
		t.Fatal("missing profile should error")
	}
}
