package dataframe_test

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
)

// mapCardinality is the map-based Cardinality the slot set replaced: the
// reference the equivalence tests hold it to.
func mapCardinality(s *dataframe.Series) int {
	if s.Kind == dataframe.Numeric {
		seen := make(map[float64]struct{})
		for i, v := range s.Floats() {
			if !s.IsNull(i) {
				seen[v] = struct{}{}
			}
		}
		return len(seen)
	}
	seen := make(map[string]struct{})
	for i := 0; i < s.Len(); i++ {
		if !s.IsNull(i) {
			seen[s.ValueString(i)] = struct{}{}
		}
	}
	return len(seen)
}

// mapKey is the string group key the map-based group-by built per row.
func mapKey(cols []*dataframe.Series, i int) string {
	key := ""
	for j, c := range cols {
		if j > 0 {
			key += "\x1f"
		}
		switch {
		case c.IsNull(i):
			key += "\x00null"
		case c.Kind == dataframe.Numeric:
			key += "n:" + strconv.FormatFloat(c.Float(i), 'g', -1, 64)
		default:
			key += "s:" + c.ValueString(i)
		}
	}
	return key
}

// aggregateRef is a copy of the package's aggregate, so the references
// below share no code with what they check.
func aggregateRef(fn dataframe.AggFunc, vals []float64) float64 {
	if len(vals) == 0 {
		if fn == dataframe.AggCount {
			return 0
		}
		return math.NaN()
	}
	switch fn {
	case dataframe.AggMean, dataframe.AggSum, dataframe.AggStd:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		if fn == dataframe.AggSum {
			return s
		}
		m := s / float64(len(vals))
		if fn == dataframe.AggMean {
			return m
		}
		ss := 0.0
		for _, v := range vals {
			d := v - m
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(vals)))
	case dataframe.AggMax, dataframe.AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if (fn == dataframe.AggMax && v > m) || (fn == dataframe.AggMin && v < m) {
				m = v
			}
		}
		return m
	case dataframe.AggCount:
		return float64(len(vals))
	case dataframe.AggMedian:
		cp := append([]float64(nil), vals...)
		sort.Float64s(cp)
		n := len(cp)
		if n%2 == 1 {
			return cp[n/2]
		}
		return (cp[n/2-1] + cp[n/2]) / 2
	}
	return math.NaN()
}

// mapGroupByTransform is the string-keyed, two-map GroupByTransform the
// group-id pass replaced.
func mapGroupByTransform(f *dataframe.Frame, groupCols []string, aggCol string, fn dataframe.AggFunc) []float64 {
	cols := make([]*dataframe.Series, len(groupCols))
	for j, n := range groupCols {
		cols[j] = f.Column(n)
	}
	agg := f.Column(aggCol)
	keys := make([]string, f.Len())
	for i := range keys {
		keys[i] = mapKey(cols, i)
	}
	groups := make(map[string][]float64)
	for i, k := range keys {
		if !agg.IsNull(i) {
			groups[k] = append(groups[k], agg.Float(i))
		}
	}
	results := make(map[string]float64, len(groups))
	for k, vals := range groups {
		results[k] = aggregateRef(fn, vals)
	}
	out := make([]float64, f.Len())
	for i, k := range keys {
		if v, ok := results[k]; ok {
			out[i] = v
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

var aggFuncs = []dataframe.AggFunc{
	dataframe.AggMean, dataframe.AggSum, dataframe.AggMax, dataframe.AggMin,
	dataframe.AggCount, dataframe.AggStd, dataframe.AggMedian,
}

// bank loads the Bank frame (41,189 rows) with one derived, high-cardinality
// ratio column added.
func bank(tb testing.TB) *dataframe.Frame {
	tb.Helper()
	d, err := datasets.Load("Bank", 2024)
	if err != nil {
		tb.Fatal(err)
	}
	f := d.Frame
	dur, pdays := f.Column("Duration").Floats(), f.Column("Euribor3m").Floats()
	ratio := make([]float64, f.Len())
	for i := range ratio {
		ratio[i] = dur[i] / (pdays[i] + 1)
	}
	if err := f.AddNumeric("duration_per_euribor", ratio); err != nil {
		tb.Fatal(err)
	}
	return f
}

// edgeColumns are small columns over the values a float-keyed distinct count
// can get wrong: −0 against +0, NaN as null, a Null mask over real values,
// ±Inf, subnormals, and integral floats whose bit patterns differ only in
// their top bits.
func edgeColumns() []*dataframe.Series {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	powers := make([]float64, 0, 2100)
	for e := -1074; e <= 1023; e++ {
		powers = append(powers, math.Ldexp(1, e))
	}
	ints := make([]float64, 50000)
	distinct := make([]float64, 50000)
	same := make([]float64, 1000)
	for i := range ints {
		ints[i] = float64(i % 20011)
		distinct[i] = float64(i)*0.37 - 9000
	}
	for i := range same {
		same[i] = 3.5
	}
	masked := dataframe.NewNumeric("masked", []float64{1, 2, 2, negZero, 0, 7, inf})
	masked.Null = []bool{false, true, false, true, false, true, true}
	maskedZero := dataframe.NewNumeric("maskedZero", []float64{negZero, 0, negZero})
	maskedZero.Null = []bool{true, false, false}
	catMasked := dataframe.NewCategorical("catMasked", []string{"a", "b", "", "a", "c"})
	catMasked.Null = []bool{false, true, true, false, false}
	return []*dataframe.Series{
		dataframe.NewNumeric("zeros", []float64{0, negZero, 0, negZero}),
		dataframe.NewNumeric("negZeroOnly", []float64{negZero, negZero}),
		dataframe.NewNumeric("posZeroOnly", []float64{0}),
		dataframe.NewNumeric("nans", []float64{nan, nan, 1, nan, 1}),
		dataframe.NewNumeric("allNaN", []float64{nan, nan}),
		dataframe.NewNumeric("empty", nil),
		dataframe.NewNumeric("infs", []float64{inf, -inf, inf, 0, -inf}),
		dataframe.NewNumeric("subnormals", []float64{sub, -sub, 2 * sub, sub, 0x1p-1030, negZero, -0x1p-1030}),
		dataframe.NewNumeric("extremes", []float64{math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, math.MaxFloat64}),
		dataframe.NewNumeric("powers", powers),
		dataframe.NewNumeric("ints", ints),
		dataframe.NewNumeric("distinct", distinct),
		dataframe.NewNumeric("allEqual", same),
		masked, maskedZero, catMasked,
		dataframe.NewCategorical("cat", []string{"x", "y", "x", "", "z"}),
	}
}

func TestCardinalityMatchesMap(t *testing.T) {
	cols := edgeColumns()
	f := bank(t)
	for _, name := range f.Names() {
		cols = append(cols, f.Column(name))
	}
	for _, c := range cols {
		if got, want := c.Cardinality(), mapCardinality(c); got != want {
			t.Errorf("%s: Cardinality() = %d, map reference = %d", c.Name, got, want)
		}
	}
}

// sameBits reports whether two group-by outputs agree bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func checkGroupBy(t *testing.T, f *dataframe.Frame, group []string, agg string, fn dataframe.AggFunc) {
	t.Helper()
	got, err := f.GroupByTransform(group, agg, fn)
	if err != nil {
		t.Fatalf("GroupByTransform(%v, %s, %s): %v", group, agg, fn, err)
	}
	want := mapGroupByTransform(f, group, agg, fn)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("GroupByTransform(%v, %s, %s) row %d: %v, map reference %v", group, agg, fn, i, got[i], want[i])
	}
}

func TestGroupByTransformMatchesMap(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	small := dataframe.New()
	// Group "none" holds only nulls (NaN and masked), so every aggregation,
	// count included, gives NaN there. The numeric key holds −0 and +0
	// (distinct keys, as %g prints them) and a null.
	for _, err := range []error{
		small.Add(dataframe.NewCategorical("g", []string{"a", "none", "a", "b", "none", "b", "a", "none"})),
		small.AddNumeric("k", []float64{0, negZero, nan, 0, 1, negZero, 1, 0}),
		small.AddNumeric("v", []float64{1.5, nan, -2, 1e300, 4, 1e300, negZero, 9}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	small.Column("v").SetNull(7)
	small.Column("v").Null[4] = true // masked, though its value is 4
	small.Column("g").SetNull(5)
	for _, fn := range aggFuncs {
		for _, group := range [][]string{{"g"}, {"k"}, {"g", "k"}, {"k", "g"}} {
			checkGroupBy(t, small, group, "v", fn)
			checkGroupBy(t, small, group, "k", fn)
		}
	}
	got, err := small.GroupByTransform([]string{"g"}, "v", dataframe.AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[1]) || got[0] != 3 {
		t.Fatalf("count over g = %v: want NaN for the all-null group, 3 for group a", got)
	}

	f := bank(t)
	var cats, nums []string
	for _, name := range f.Names() {
		if f.Column(name).Kind == dataframe.Numeric {
			nums = append(nums, name)
		} else {
			cats = append(cats, name)
		}
	}
	for j, agg := range nums {
		checkGroupBy(t, f, []string{cats[j%len(cats)]}, agg, aggFuncs[j%len(aggFuncs)])
		checkGroupBy(t, f, []string{cats[(j+1)%len(cats)], cats[(j+4)%len(cats)]}, agg, aggFuncs[(j+3)%len(aggFuncs)])
	}
	for _, fn := range aggFuncs {
		checkGroupBy(t, f, []string{"Job", "Campaign"}, "duration_per_euribor", fn)
	}
}

// BenchmarkCardinality counts the distinct values of every numeric Bank
// column plus a derived, high-cardinality ratio: the numeric half of what
// each agenda entry summarises.
func BenchmarkCardinality(b *testing.B) {
	f := bank(b)
	var cols []*dataframe.Series
	for _, name := range f.Names() {
		if c := f.Column(name); c.Kind == dataframe.Numeric {
			cols = append(cols, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cols {
			cardinality += c.Cardinality()
		}
	}
}

// cardinality keeps BenchmarkCardinality's results live.
var cardinality int

// BenchmarkGroupByTransform is one high-order feature over Bank: the mean
// Duration per (Job, Education) group, broadcast back to every row.
func BenchmarkGroupByTransform(b *testing.B) {
	f := bank(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.GroupByTransform([]string{"Job", "Education"}, "Duration", dataframe.AggMean); err != nil {
			b.Fatal(err)
		}
	}
}
