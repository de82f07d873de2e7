package dataframe

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"smartfeat/internal/ml"
)

// allRows returns the row set 0 … n-1, the full-height gather.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// gather is the one-shot gather of the named columns' rows.
func gather(f *Frame, names []string, rows []int) (*ml.Matrix, error) {
	g, err := f.Gatherer(names)
	if err != nil {
		return nil, err
	}
	return g.Gather(rows, nil), nil
}

func colMatrixFixture(t testing.TB) *Frame {
	t.Helper()
	f := New()
	if err := f.AddNumeric("a", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("b", []float64{4, math.NaN(), 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(NewCategorical("c", []string{"x", "y", "z"})); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestColMatrixMatchesRowMajor(t *testing.T) {
	f := colMatrixFixture(t)
	names := []string{"a", "b"}
	m, err := gather(f, names, allRows(f.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != f.Len() || m.Cols() != len(names) {
		t.Fatalf("shape %d×%d", m.Rows(), m.Cols())
	}
	for j, name := range names {
		col := f.Column(name)
		for i := 0; i < f.Len(); i++ {
			want := col.Float(i)
			if col.IsNull(i) {
				want = math.NaN()
			}
			got := m.At(i, j)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("cell %d,%d = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestColMatrixMaskedNullBecomesNaN(t *testing.T) {
	f := New()
	s := NewNumeric("v", []float64{1, 2, 3})
	s.SetNull(1)
	if err := f.Add(s); err != nil {
		t.Fatal(err)
	}
	m, err := gather(f, []string{"v"}, allRows(f.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m.At(1, 0)) {
		t.Fatalf("masked null should be NaN, got %v", m.At(1, 0))
	}
	if m.At(0, 0) != 1 || m.At(2, 0) != 3 {
		t.Fatal("non-null values should pass through")
	}
}

func TestColMatrixErrors(t *testing.T) {
	f := colMatrixFixture(t)
	if _, err := gather(f, []string{"ghost"}, nil); err == nil {
		t.Fatal("missing column should error")
	}
	m, err := gather(f, []string{"c", "a"}, []int{2, 0})
	if err != nil {
		t.Fatalf("categorical column: %v", err)
	}
	if m.At(0, 0) != 2 || m.At(1, 0) != 0 || m.At(0, 1) != 3 {
		t.Fatal("a categorical column should gather as its factorized codes")
	}
}

// TestColMatrixGatherMatchesTakeRows pins the row gather against the
// full-height matrix cut by TakeRows, bit for bit, over random row sets:
// sorted samples like a train/test split, unsorted ones with repeats like a
// bootstrap, and the empty set. Two columns hold nulls, one as a mask over
// finite values and one as NaN values of its own.
func TestColMatrixGatherMatchesTakeRows(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	f := New()
	for j := 0; j < 4; j++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * float64(j+1)
			if j == 3 && i%7 == 0 {
				vals[i] = math.NaN()
			}
		}
		s := NewNumeric(fmt.Sprintf("c%d", j), vals)
		if j == 2 {
			for i := 0; i < n; i += 5 {
				s.setNull(i) // masked: the value underneath stays finite
			}
		}
		if err := f.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	names := f.Names()
	full, err := gather(f, names, allRows(n))
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{nil, {}, {0}, {n - 1, n - 1, 0, 0}}
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(2 * n)
		rows := make([]int, k)
		for i := range rows {
			rows[i] = rng.Intn(n) // repeats and any order
		}
		if trial%2 == 0 {
			rows = rng.Perm(n)[:k/2]
			sort.Ints(rows)
		}
		sets = append(sets, rows)
	}
	for _, rows := range sets {
		got, err := gather(f, names, rows)
		if err != nil {
			t.Fatal(err)
		}
		want := full.TakeRows(rows)
		if got.Rows() != len(rows) || got.Cols() != len(names) {
			t.Fatalf("gather of %d rows: shape %d×%d", len(rows), got.Rows(), got.Cols())
		}
		for j := range names {
			for i := range rows {
				if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
					t.Fatalf("gather of %d rows: cell %d,%d bits %x, want %x", len(rows), i, j, g, w)
				}
			}
		}
	}
	if !math.IsNaN(full.At(0, 2)) || !math.IsNaN(full.At(0, 3)) || math.IsNaN(full.At(1, 2)) {
		t.Fatal("the fixture's null columns should read NaN at row 0 and a value at row 1")
	}
}

func TestDropNAFastPathNoNulls(t *testing.T) {
	f := colMatrixFixture(t)
	f.Drop("b") // b holds the only null
	out := f.DropNA()
	if out.Len() != f.Len() || out.Width() != f.Width() {
		t.Fatalf("clean frame should survive intact: %d×%d", out.Len(), out.Width())
	}
	// The fast path is a Clone: the source's own series under a column
	// list of its own.
	for _, name := range f.Names() {
		if out.Column(name) != f.Column(name) {
			t.Fatalf("DropNA fast path copied series %q", name)
		}
	}
	out.Drop("a")
	if f.Width() != 2 || !f.Has("a") {
		t.Fatal("Drop on the DropNA result changed the source")
	}
}

func TestDropNARemovesMaskedAndNaNRows(t *testing.T) {
	f := New()
	if err := f.AddNumeric("x", []float64{1, math.NaN(), 3, 4}); err != nil {
		t.Fatal(err)
	}
	cat := NewCategorical("y", []string{"a", "b", "c", "d"})
	cat.SetNull(3)
	if err := f.Add(cat); err != nil {
		t.Fatal(err)
	}
	out := f.DropNA()
	if out.Len() != 2 {
		t.Fatalf("want 2 surviving rows, got %d", out.Len())
	}
	if out.Column("x").Float(0) != 1 || out.Column("x").Float(1) != 3 {
		t.Fatalf("wrong rows survived: %v", out.Column("x").Floats())
	}
}

func TestNumStatsSinglePass(t *testing.T) {
	s := NewNumeric("v", []float64{3, math.NaN(), 1, 2})
	if got := s.Mean(); got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if lo, hi := s.Bounds(); lo != 1 || hi != 3 {
		t.Fatalf("bounds = %v, %v", lo, hi)
	}
	want := math.Sqrt(((3-2.0)*(3-2.0) + (1-2.0)*(1-2.0)) / 3)
	if got := s.Std(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("std = %v, want %v", got, want)
	}
	empty := NewNumeric("e", nil)
	if lo, hi := empty.Bounds(); !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Std()) || !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("empty stats should be NaN")
	}
	cat := NewCategorical("c", []string{"a"})
	if lo, _ := cat.Bounds(); !math.IsNaN(cat.Mean()) || !math.IsNaN(lo) {
		t.Fatal("categorical stats should be NaN")
	}
}

func TestAppendKeyMatchesSprintfFormat(t *testing.T) {
	s := NewNumeric("v", []float64{1, 2.5, -0.000125, 1e21})
	for i, v := range s.Floats() {
		want := "n:" + fmt.Sprintf("%g", v)
		if got := string(s.appendKey(nil, i)); got != want {
			t.Fatalf("key(%v) = %q, want %q", v, got, want)
		}
	}
	c := NewCategorical("c", []string{"hello"})
	if got := string(c.appendKey(nil, 0)); got != "s:hello" {
		t.Fatalf("categorical key = %q", got)
	}
	n := NewNumeric("n", []float64{math.NaN()})
	if got := string(n.appendKey(nil, 0)); got != "\x00null" {
		t.Fatalf("null key = %q", got)
	}
}

// BenchmarkColMatrix gathers from a Bank-sized frame (41,189 rows, 25
// numeric columns) into a fresh matrix: every row, as Table 6's importance
// path does, and a sorted quarter of them, the evaluation protocol's test
// split.
func BenchmarkColMatrix(b *testing.B) {
	f := New()
	n := 41189
	for j := 0; j < 25; j++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i*j) * 0.5
		}
		if err := f.AddNumeric(fmt.Sprintf("c%d", j), vals); err != nil {
			b.Fatal(err)
		}
	}
	names := f.Names()
	quarter := rand.New(rand.NewSource(1)).Perm(n)[:n/4]
	sort.Ints(quarter)
	for _, bc := range []struct {
		name string
		rows []int
	}{{"all", allRows(n)}, {"quarter", quarter}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gather(f, names, bc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDropNANoNulls(b *testing.B) {
	f := New()
	n := 4000
	for j := 0; j < 10; j++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + j)
		}
		if err := f.AddNumeric(fmt.Sprintf("c%d", j), vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.DropNA()
	}
}

func BenchmarkSeriesStd(b *testing.B) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i % 997)
	}
	s := NewNumeric("v", vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Std()
	}
}

func BenchmarkGroupKeys(b *testing.B) {
	f := New()
	n := 5000
	nums := make([]float64, n)
	strs := make([]string, n)
	for i := range nums {
		nums[i] = float64(i % 37)
		strs[i] = fmt.Sprintf("g%d", i%11)
	}
	if err := f.AddNumeric("num", nums); err != nil {
		b.Fatal(err)
	}
	if err := f.Add(NewCategorical("cat", strs)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.groupIDs([]string{"num", "cat"}); err != nil {
			b.Fatal(err)
		}
	}
}
