package dataframe

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

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
		if sf.Nums[i] != want[i] {
			t.Fatalf("SF dummy[%d] = %v", i, sf.Nums[i])
		}
	}
	if _, err := f.GetDummies("age", 0); err == nil {
		t.Fatal("numeric get_dummies should error")
	}
}

func TestGetDummiesMaxLevels(t *testing.T) {
	f := New()
	_ = f.AddCategorical("c", []string{"a", "a", "a", "b", "b", "c", "d", "e"})
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
	for _, v := range other.Nums {
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
	if enc.Nums[0] != 0 || enc.Nums[3] != 0 || enc.Nums[2] != 2 {
		t.Fatalf("codes wrong: %v", enc.Nums)
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
	if g.Column("age").Kind != Numeric || g.Column("age").Nums[0] != 21 {
		t.Fatal("numeric columns must pass through")
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
	_ = f.AddCategorical("a", []string{"x", "x", "y", "y"})
	_ = f.AddCategorical("b", []string{"1", "2", "1", "1"})
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

func TestGroupByAggregate(t *testing.T) {
	f := mustFrame(t)
	rows, err := f.GroupByAggregate([]string{"city"}, "claim", AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 groups, got %d", len(rows))
	}
	total := 0.0
	for _, g := range rows {
		total += g.Value
	}
	if total != 2 {
		t.Fatalf("sum of sums = %v, want 2", total)
	}
	// Sorted by key → deterministic.
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key }) {
		t.Fatal("groups not sorted")
	}
	// A categorical aggregate column is an error, as in GroupByTransform,
	// not an index panic.
	if _, err := f.GroupByAggregate([]string{"city"}, "city", AggSum); err == nil {
		t.Fatal("categorical agg col should error")
	}
}

func TestNumGroups(t *testing.T) {
	f := mustFrame(t)
	n, err := f.NumGroups([]string{"city"})
	if err != nil || n != 3 {
		t.Fatalf("NumGroups = %d, %v", n, err)
	}
	n, _ = f.NumGroups([]string{"city", "claim"})
	if n != 3 { // SF+1, LA+0, SEA+0 → 3 combos in this data
		t.Fatalf("multi NumGroups = %d", n)
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
	if !math.IsNaN(aggregate(AggMean, nil)) {
		t.Error("empty mean should be NaN")
	}
	if aggregate(AggCount, nil) != 0 {
		t.Error("empty count should be 0")
	}
	if got := aggregate(AggMedian, []float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
}

func TestGroupKeyNamespacing(t *testing.T) {
	// Numeric 1 and string "1" must not collide as group keys.
	f := New()
	_ = f.AddNumeric("n", []float64{1, 1})
	_ = f.AddCategorical("s", []string{"1", "1"})
	_, kn, _ := f.groupIDs([]string{"n"})
	_, ks, _ := f.groupIDs([]string{"s"})
	if kn[0] == ks[0] {
		t.Fatal("numeric and string keys collide")
	}
}

func names(ss []*Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}
