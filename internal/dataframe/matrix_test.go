package dataframe

import (
	"fmt"
	"math"
	"testing"
)

func colMatrixFixture(t testing.TB) *Frame {
	t.Helper()
	f := New()
	if err := f.AddNumeric("a", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNumeric("b", []float64{4, math.NaN(), 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddCategorical("c", []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestColMatrixMatchesRowMajor(t *testing.T) {
	f := colMatrixFixture(t)
	names := []string{"a", "b"}
	m, err := f.ColMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	rowMajor, err := f.Matrix(names)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != len(rowMajor) || m.Cols() != len(names) {
		t.Fatalf("shape %d×%d", m.Rows(), m.Cols())
	}
	for i, row := range rowMajor {
		for j, want := range row {
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
	m, err := f.ColMatrix([]string{"v"})
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
	if _, err := f.ColMatrix([]string{"ghost"}); err == nil {
		t.Fatal("missing column should error")
	}
	if _, err := f.ColMatrix([]string{"c"}); err == nil {
		t.Fatal("categorical column should error")
	}
}

func TestDropNAFastPathNoNulls(t *testing.T) {
	f := colMatrixFixture(t)
	f.Drop("b") // b holds the only null
	out := f.DropNA()
	if out.Len() != f.Len() || out.Width() != f.Width() {
		t.Fatalf("clean frame should survive intact: %d×%d", out.Len(), out.Width())
	}
	// The fast path must still deep-copy: mutating the result cannot touch
	// the source.
	out.Column("a").Nums[0] = 99
	if f.Column("a").Nums[0] != 1 {
		t.Fatal("DropNA result must not alias the source")
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
	if out.Column("x").Nums[0] != 1 || out.Column("x").Nums[1] != 3 {
		t.Fatalf("wrong rows survived: %v", out.Column("x").Nums)
	}
}

func TestNumStatsSinglePass(t *testing.T) {
	s := NewNumeric("v", []float64{3, math.NaN(), 1, 2})
	if got := s.Mean(); got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := s.Max(); got != 3 {
		t.Fatalf("max = %v", got)
	}
	want := math.Sqrt(((3-2.0)*(3-2.0) + (1-2.0)*(1-2.0)) / 3)
	if got := s.Std(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("std = %v, want %v", got, want)
	}
	empty := NewNumeric("e", nil)
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Std()) || !math.IsNaN(empty.Min()) || !math.IsNaN(empty.Max()) {
		t.Fatal("empty stats should be NaN")
	}
	cat := NewCategorical("c", []string{"a"})
	if !math.IsNaN(cat.Mean()) || !math.IsNaN(cat.Min()) {
		t.Fatal("categorical stats should be NaN")
	}
}

func TestAppendKeyMatchesSprintfFormat(t *testing.T) {
	s := NewNumeric("v", []float64{1, 2.5, -0.000125, 1e21})
	for i, v := range s.Nums {
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

func BenchmarkColMatrix(b *testing.B) {
	f := New()
	n := 4000
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ColMatrix(names); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowMajorMatrix(b *testing.B) {
	f := New()
	n := 4000
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Matrix(names); err != nil {
			b.Fatal(err)
		}
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
	if err := f.AddCategorical("cat", strs); err != nil {
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
