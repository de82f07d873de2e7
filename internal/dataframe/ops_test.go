package dataframe

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Apply computes a new numeric column by evaluating fn on each row of the
// named input columns (the Go analogue of df.apply(lambda row: ..., axis=1)).
// If any input is null at a row, the output row is null and fn is not called.
func (f *Frame) Apply(inputs []string, fn func(vals []float64) float64) ([]float64, error) {
	cols := make([]*Series, len(inputs))
	for j, n := range inputs {
		c := f.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		if c.Kind != Numeric {
			return nil, fmt.Errorf("dataframe: apply input %q is not numeric", n)
		}
		cols[j] = c
	}
	out := make([]float64, f.Len())
	buf := make([]float64, len(inputs))
	for i := 0; i < f.Len(); i++ {
		null := false
		for j, c := range cols {
			if c.IsNull(i) {
				null = true
				break
			}
			buf[j] = c.Float(i)
		}
		if null {
			out[i] = math.NaN()
			continue
		}
		out[i] = fn(buf)
	}
	return out, nil
}

func TestApply(t *testing.T) {
	f := mustFrame(t)
	vals, err := f.Apply([]string{"age", "claim"}, func(v []float64) float64 { return v[0] + 100*v[1] })
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 121 || vals[1] != 35 {
		t.Fatalf("apply wrong: %v", vals[:2])
	}
	if _, err := f.Apply([]string{"city"}, nil); err == nil {
		t.Fatal("categorical apply should error")
	}
	if _, err := f.Apply([]string{"ghost"}, nil); err == nil {
		t.Fatal("missing column should error")
	}
}

func TestApplyNullPropagation(t *testing.T) {
	f := mustFrame(t)
	f.Column("age").SetNull(0)
	vals, err := f.Apply([]string{"age"}, func(v []float64) float64 { return v[0] })
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(vals[0]) {
		t.Fatal("null input should yield NaN output")
	}
	if vals[1] != 35 {
		t.Fatal("non-null rows must still compute")
	}
}

func TestBucketize(t *testing.T) {
	f := mustFrame(t)
	got, err := f.Bucketize("age", []float64{21, 40})
	if err != nil {
		t.Fatal(err)
	}
	// ages: 21 35 42 22 45 56 → buckets: 1 1 2 1 2 2 (21 is ≥ boundary 21)
	want := []float64{1, 1, 2, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := f.Bucketize("age", nil); err == nil {
		t.Fatal("empty boundaries should error")
	}
	if _, err := f.Bucketize("age", []float64{5, 5}); err == nil {
		t.Fatal("non-increasing boundaries should error")
	}
	if _, err := f.Bucketize("city", []float64{1}); err == nil {
		t.Fatal("categorical should error")
	}
}

func TestBucketizeProperty(t *testing.T) {
	// Bucket index must be monotone in the value.
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		f := New()
		_ = f.AddNumeric("x", []float64{a, b})
		got, err := f.Bucketize("x", []float64{-10, 0, 10})
		if err != nil {
			return false
		}
		if a <= b {
			return got[0] <= got[1]
		}
		return got[0] >= got[1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxScale(t *testing.T) {
	f := mustFrame(t)
	got, err := f.MinMaxScale("age")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 { // min age 21
		t.Fatalf("min should scale to 0, got %v", got[0])
	}
	if got[5] != 1 { // max age 56
		t.Fatalf("max should scale to 1, got %v", got[5])
	}
	// Constant column scales to all zeros, not NaN.
	_ = f.AddNumeric("k", []float64{7, 7, 7, 7, 7, 7})
	got, err = f.MinMaxScale("k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("constant column should scale to 0")
	}
}

func TestStandardize(t *testing.T) {
	f := mustFrame(t)
	got, err := f.Standardize("age")
	if err != nil {
		t.Fatal(err)
	}
	mean, ss := 0.0, 0.0
	for _, v := range got {
		mean += v
	}
	mean /= float64(len(got))
	for _, v := range got {
		ss += (v - mean) * (v - mean)
	}
	if math.Abs(mean) > 1e-9 || math.Abs(ss/float64(len(got))-1) > 1e-9 {
		t.Fatalf("standardize: mean=%v var=%v", mean, ss/float64(len(got)))
	}
}

func TestGetDummies(t *testing.T) {
	f := mustFrame(t)
	dums, err := f.GetDummies("city", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dums) != 3 {
		t.Fatalf("want 3 dummies, got %d", len(dums))
	}
	byName := map[string]*Series{}
	for _, d := range dums {
		byName[d.Name] = d
	}
	sf := byName["city=SF"]
	if sf == nil {
		t.Fatalf("missing city=SF dummy; have %v", names(dums))
	}
	want := []float64{1, 0, 0, 1, 0, 0}
	for i := range want {
		if sf.Float(i) != want[i] {
			t.Fatalf("SF dummy[%d] = %v", i, sf.Float(i))
		}
	}
	if _, err := f.GetDummies("age", 0); err == nil {
		t.Fatal("numeric get_dummies should error")
	}
}

func TestGetDummiesMaxLevels(t *testing.T) {
	f := New()
	_ = f.Add(NewCategorical("c", []string{"a", "a", "a", "b", "b", "c", "d", "e"}))
	dums, err := f.GetDummies("c", 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 kept levels + 1 "other"
	if len(dums) != 3 {
		t.Fatalf("want 3 series, got %d: %v", len(dums), names(dums))
	}
	var other *Series
	for _, d := range dums {
		if d.Name == "c=other" {
			other = d
		}
	}
	if other == nil {
		t.Fatal("missing other bucket")
	}
	sum := 0.0
	for _, v := range other.Floats() {
		sum += v
	}
	if sum != 3 { // c, d, e rows
		t.Fatalf("other bucket sum = %v", sum)
	}
}

func TestGetDummiesNull(t *testing.T) {
	f := New()
	s := NewCategorical("c", []string{"a", "b", "a"})
	s.SetNull(1)
	_ = f.Add(s)
	dums, err := f.GetDummies("c", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dums {
		if !d.IsNull(1) {
			t.Fatal("dummy of null row should be null")
		}
	}
}

func TestFactorize(t *testing.T) {
	f := mustFrame(t)
	enc, levels, err := f.Factorize("city")
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != "SF" || levels[1] != "LA" {
		t.Fatalf("levels by first appearance wrong: %v", levels)
	}
	if enc.Float(0) != 0 || enc.Float(3) != 0 || enc.Float(2) != 2 {
		t.Fatalf("codes wrong: %v", enc.Floats())
	}
	if _, _, err := f.Factorize("age"); err == nil {
		t.Fatal("numeric factorize should error")
	}
}

func TestFactorizeAll(t *testing.T) {
	f := mustFrame(t)
	g := f.FactorizeAll()
	if g.Column("city").Kind != Numeric {
		t.Fatal("city should be numeric after factorize-all")
	}
	if g.Column("age") != f.Column("age") {
		t.Fatal("numeric columns must pass through as the source's series")
	}
	// Original must be untouched.
	if f.Column("city").Kind != Categorical {
		t.Fatal("factorize-all mutated original")
	}
}

func TestMapValues(t *testing.T) {
	f := mustFrame(t)
	got, err := f.MapValues("city", map[string]float64{"SF": 18838, "LA": 8304})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 18838 || got[1] != 8304 {
		t.Fatal("mapping wrong")
	}
	if !math.IsNaN(got[2]) { // SEA unmapped
		t.Fatal("unmapped key should be NaN")
	}
	if _, err := f.MapValues("age", nil); err == nil {
		t.Fatal("numeric map should error")
	}
}

func TestSplitDate(t *testing.T) {
	f := New()
	_ = f.AddNumeric("d", []float64{20240117, 19991231, 5})
	y, m, d, err := f.SplitDate("d")
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 2024 || m[0] != 1 || d[0] != 17 {
		t.Fatalf("split wrong: %v %v %v", y[0], m[0], d[0])
	}
	if y[1] != 1999 || m[1] != 12 || d[1] != 31 {
		t.Fatal("second split wrong")
	}
	if !math.IsNaN(y[2]) {
		t.Fatal("non-date value should be null")
	}
}

func TestGroupByTransform(t *testing.T) {
	f := mustFrame(t)
	got, err := f.GroupByTransform([]string{"city"}, "claim", AggMean)
	if err != nil {
		t.Fatal(err)
	}
	// SF rows (0,3): claims 1,1 → 1. LA rows (1,5): 0,0 → 0. SEA (2,4): 0.
	want := []float64{1, 0, 0, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transform[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := f.GroupByTransform([]string{"city"}, "claim", "bogus"); err == nil {
		t.Fatal("bad agg should error")
	}
	if _, err := f.GroupByTransform([]string{"ghost"}, "claim", AggMean); err == nil {
		t.Fatal("missing group col should error")
	}
	if _, err := f.GroupByTransform([]string{"city"}, "city", AggMean); err == nil {
		t.Fatal("categorical agg col should error")
	}
}

func TestGroupByTransformMultiKey(t *testing.T) {
	f := New()
	_ = f.Add(NewCategorical("a", []string{"x", "x", "y", "y"}))
	_ = f.Add(NewCategorical("b", []string{"1", "2", "1", "1"}))
	_ = f.AddNumeric("v", []float64{10, 20, 30, 50})
	got, err := f.GroupByTransform([]string{"a", "b"}, "v", AggMean)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 40, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multikey[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAggFunctions(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	cases := map[AggFunc]float64{
		AggMean: 2.5, AggSum: 10, AggMax: 4, AggMin: 1,
		AggCount: 4, AggMedian: 2.5,
	}
	for fn, want := range cases {
		if got := aggregate(fn, vals); got != want {
			t.Errorf("%s = %v, want %v", fn, got, want)
		}
	}
	if got := aggregate(AggStd, []float64{2, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("std = %v", got)
	}
	if got := aggregate(AggMedian, []float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
}

// TestGroupKeyNamespacing holds a two-column key over the numeric 1 and the
// categorical "1" to the string keys, which namespace a value by its kind:
// the rows group exactly as those keys group them.
func TestGroupKeyNamespacing(t *testing.T) {
	f := New()
	_ = f.AddNumeric("n", []float64{1, 1, 0, 1, 0})
	_ = f.Add(NewCategorical("s", []string{"1", "0", "1", "1", "0"}))
	for _, key := range [][]string{{"n", "s"}, {"s", "n"}} {
		ids, groups, err := f.groupIDs(key)
		if err != nil {
			t.Fatal(err)
		}
		want, keys := refGroupIDs(f, key)
		if groups != len(keys) || groups != 4 {
			t.Fatalf("%v: %d groups, the string keys make %d (want 4)", key, groups, len(keys))
		}
		for i := range want {
			if int(ids[i]) != want[i] {
				t.Fatalf("%v: ids %v, the string keys number the rows %v", key, ids, want)
			}
		}
	}
}

func names(ss []*Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}
