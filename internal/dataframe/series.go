// Package dataframe implements a small columnar dataframe engine: typed
// series with null masks, CSV I/O, row filtering, group-by transforms and the
// reshaping operations (get_dummies, factorize, bucketize) that automated
// feature engineering relies on. It is the storage substrate every other
// package in this repository builds on.
package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Kind discriminates the physical type of a Series.
type Kind int

const (
	// Numeric series store float64 values; NaN encodes null.
	Numeric Kind = iota
	// Categorical series store strings; the empty-string-with-mask encodes null.
	Categorical
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Series is a single named column. Exactly one of Nums or Strs is populated,
// according to Kind. Null marks missing entries; a nil Null means no nulls.
type Series struct {
	Name string
	Kind Kind
	Nums []float64
	Strs []string
	Null []bool
}

// NewNumeric builds a numeric series. NaN values are recorded as nulls.
func NewNumeric(name string, vals []float64) *Series {
	s := &Series{Name: name, Kind: Numeric, Nums: vals}
	for i, v := range vals {
		if math.IsNaN(v) {
			s.setNull(i)
		}
	}
	return s
}

// NewCategorical builds a categorical series.
func NewCategorical(name string, vals []string) *Series {
	return &Series{Name: name, Kind: Categorical, Strs: vals}
}

// Len returns the number of rows in the series.
func (s *Series) Len() int {
	if s.Kind == Numeric {
		return len(s.Nums)
	}
	return len(s.Strs)
}

// IsNull reports whether row i is missing.
func (s *Series) IsNull(i int) bool {
	if s.Null != nil && s.Null[i] {
		return true
	}
	if s.Kind == Numeric {
		return math.IsNaN(s.Nums[i])
	}
	return false
}

// setNull marks row i as missing, allocating the mask lazily.
func (s *Series) setNull(i int) {
	if s.Null == nil {
		s.Null = make([]bool, s.Len())
	}
	s.Null[i] = true
}

// SetNull marks row i missing. For numeric series the value is also set to NaN
// so that downstream numeric reads agree with the mask.
func (s *Series) SetNull(i int) {
	s.setNull(i)
	if s.Kind == Numeric {
		s.Nums[i] = math.NaN()
	}
}

// NullCount returns the number of missing rows.
func (s *Series) NullCount() int {
	n := 0
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	c := &Series{Name: s.Name, Kind: s.Kind}
	if s.Nums != nil {
		c.Nums = append([]float64(nil), s.Nums...)
	}
	if s.Strs != nil {
		c.Strs = append([]string(nil), s.Strs...)
	}
	if s.Null != nil {
		c.Null = append([]bool(nil), s.Null...)
	}
	return c
}

// Take returns a new series containing the given rows, in order.
func (s *Series) Take(rows []int) *Series {
	c := &Series{Name: s.Name, Kind: s.Kind}
	if s.Kind == Numeric {
		c.Nums = make([]float64, len(rows))
		for j, i := range rows {
			c.Nums[j] = s.Nums[i]
		}
	} else {
		c.Strs = make([]string, len(rows))
		for j, i := range rows {
			c.Strs[j] = s.Strs[i]
		}
	}
	if s.Null != nil {
		c.Null = make([]bool, len(rows))
		for j, i := range rows {
			c.Null[j] = s.Null[i]
		}
	}
	return c
}

// ValueString renders row i for display or serialization.
func (s *Series) ValueString(i int) string {
	if s.IsNull(i) {
		return ""
	}
	if s.Kind == Numeric {
		v := s.Nums[i]
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	return s.Strs[i]
}

// validNums returns the non-null numeric values.
func (s *Series) validNums() []float64 {
	out := make([]float64, 0, s.Len())
	for i, v := range s.Nums {
		if !s.IsNull(i) {
			out = append(out, v)
		}
	}
	return out
}

// numStats accumulates count, sum and min/max of the non-null values in a
// single allocation-free pass. The sum visits values in row order — the same
// accumulation order as summing a gathered valid-values slice — so Mean is
// bit-identical to the historical two-pass implementation.
func (s *Series) numStats() (count int, sum, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, v := range s.Nums {
		if s.IsNull(i) {
			continue
		}
		count++
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return count, sum, lo, hi
}

// Mean returns the mean of non-null values of a numeric series (NaN if empty
// or categorical).
func (s *Series) Mean() float64 {
	if s.Kind != Numeric {
		return math.NaN()
	}
	count, sum, _, _ := s.numStats()
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// Std returns the population standard deviation of non-null values.
func (s *Series) Std() float64 {
	if s.Kind != Numeric {
		return math.NaN()
	}
	count, sum, _, _ := s.numStats()
	if count == 0 {
		return math.NaN()
	}
	m := sum / float64(count)
	ss := 0.0
	for i, v := range s.Nums {
		if s.IsNull(i) {
			continue
		}
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(count))
}

// Min returns the minimum non-null value (NaN if none).
func (s *Series) Min() float64 {
	if s.Kind != Numeric {
		return math.NaN()
	}
	count, _, lo, _ := s.numStats()
	if count == 0 {
		return math.NaN()
	}
	return lo
}

// Max returns the maximum non-null value (NaN if none).
func (s *Series) Max() float64 {
	if s.Kind != Numeric {
		return math.NaN()
	}
	count, _, _, hi := s.numStats()
	if count == 0 {
		return math.NaN()
	}
	return hi
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of non-null values using
// linear interpolation, matching numpy's default.
func (s *Series) Quantile(q float64) float64 {
	vals := s.validNums()
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

// Cardinality returns the number of distinct non-null values.
func (s *Series) Cardinality() int {
	if s.Kind == Numeric {
		seen := make(map[float64]struct{})
		for i, v := range s.Nums {
			if !s.IsNull(i) {
				seen[v] = struct{}{}
			}
		}
		return len(seen)
	}
	seen := make(map[string]struct{})
	for i, v := range s.Strs {
		if !s.IsNull(i) {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// Levels returns the sorted distinct non-null values of a categorical series.
func (s *Series) Levels() []string {
	if s.Kind != Categorical {
		return nil
	}
	seen := make(map[string]struct{})
	for i, v := range s.Strs {
		if !s.IsNull(i) {
			seen[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// IsConstant reports whether the series has at most one distinct non-null
// value (Cardinality() <= 1). It stops at the second distinct value instead
// of building the full distinct set.
func (s *Series) IsConstant() bool {
	first := -1
	for i := 0; i < s.Len(); i++ {
		switch {
		case s.IsNull(i):
		case first < 0:
			first = i
		case s.Kind == Numeric && s.Nums[i] != s.Nums[first],
			s.Kind != Numeric && s.Strs[i] != s.Strs[first]:
			return false
		}
	}
	return true
}

// appendKey appends row i's group-by key to buf and returns the extended
// slice, namespaced by kind so that the numeric 1 and the string "1" do not
// collide. Appending into a caller-reused buffer replaces the historical
// fmt.Sprintf-built keys: group-by no longer allocates a formatted string
// per row (strconv.AppendFloat with 'g'/-1 produces exactly fmt's %g text).
func (s *Series) appendKey(buf []byte, i int) []byte {
	if s.IsNull(i) {
		return append(buf, "\x00null"...)
	}
	if s.Kind == Numeric {
		buf = append(buf, 'n', ':')
		return strconv.AppendFloat(buf, s.Nums[i], 'g', -1, 64)
	}
	buf = append(buf, 's', ':')
	return append(buf, s.Strs[i]...)
}
