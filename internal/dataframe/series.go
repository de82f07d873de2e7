// Package dataframe implements a small columnar dataframe engine: typed
// series with null masks, CSV I/O, row filtering, group-by transforms and the
// reshaping operations (get_dummies, factorize, bucketize) that automated
// feature engineering relies on. It is the storage substrate every other
// package in this repository builds on.
//
// A series has one of three layouts:
//   - A dense numeric series holds its float64 values, NaN for null.
//   - A categorical series holds dictionary codes: one uint32 per row
//     indexing a table of distinct levels (the layout of pandas'
//     Categorical and Arrow's dictionary arrays), so its rows hold no
//     pointers for the garbage collector to scan and each level's text is
//     stored once. The level table may list a level that no non-null row
//     holds; every reader reports only the levels the non-null rows use.
//   - A one-hot indicator, which GetDummies makes, is numeric but holds no
//     values of its own: it shares its source categorical series' codes
//     and Null mask, and keeps one on/off entry per level, so row i is 1
//     when its level is on and 0 otherwise. A source's k indicators cost
//     k small tables, not k float64 columns.
//
// Readers outside the package see every numeric series the same way,
// through Float and Floats. Float reads one row; Floats returns a dense
// series' own storage and a materialized copy of an indicator, which the
// caller holds only as long as it needs it. Inside the package the
// summary readers (Mean, Std, Bounds, Cardinality, IsConstant, NullCount),
// CSV writing and Gatherer read an indicator from its codes without
// writing a float per row.
//
// Columns are immutable: once a series is in a frame, nothing writes its
// values, codes, level table, on/off table or Null mask again. Only the
// builders of a new series write them, before it is handed out: the
// constructors (NewNumeric, NewCategorical, Frame.AddCodes), ReadCSV,
// GetDummies and Take; SetNull exists for them. That contract is what lets
// series share storage: Clone copies only the column list, DropNA without
// nulls returns such a clone, FactorizeAll keeps the numeric columns it is
// given, a Take copies a categorical series' codes but shares its level
// table, an indicator shares its source's codes and Null mask, and
// Frame.Take takes each distinct codes slice and Null mask once, so a
// source's indicators still share them afterwards. A frame's column list
// is its own, so Add and Drop on a clone leave the source alone. A caller
// that wants different values builds a new series.
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
	// Categorical series store codes into a level table; the Null mask
	// alone encodes null.
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

// Series is a single named column: dense numeric, categorical or a one-hot
// indicator (see the package doc). Null marks missing entries; a nil Null
// means no nulls.
type Series struct {
	Name string
	Kind Kind
	Null []bool

	// nums holds a dense numeric series' values.
	nums []float64
	// codes[i] is row i's level, an index into levels and, for an
	// indicator, into on. levels holds distinct strings and is shared,
	// never written, by every Take of the series. on is set only on an
	// indicator, whose row i holds on[codes[i]], 0 or 1, unless null.
	codes  []uint32
	levels []string
	on     []float64
}

// NewNumeric builds a numeric series. NaN values are recorded as nulls.
func NewNumeric(name string, vals []float64) *Series {
	s := &Series{Name: name, Kind: Numeric, nums: vals}
	for i, v := range vals {
		if math.IsNaN(v) {
			s.setNull(i)
		}
	}
	return s
}

// NewCategorical builds a categorical series from row values, numbering the
// levels by first appearance. It keeps no reference to vals.
func NewCategorical(name string, vals []string) *Series {
	codes := make([]uint32, len(vals))
	var levels []string
	index := make(map[string]uint32)
	for i, v := range vals {
		code, ok := index[v]
		if !ok {
			code = uint32(len(levels))
			index[v] = code
			levels = append(levels, v)
		}
		codes[i] = code
	}
	return &Series{Name: name, Kind: Categorical, codes: codes, levels: levels}
}

// dense reports whether s holds its values in nums.
func (s *Series) dense() bool { return s.Kind == Numeric && s.on == nil }

// Len returns the number of rows in the series.
func (s *Series) Len() int {
	if s.dense() {
		return len(s.nums)
	}
	return len(s.codes)
}

// IsNull reports whether row i is missing.
func (s *Series) IsNull(i int) bool {
	if s.Null != nil && s.Null[i] {
		return true
	}
	return s.nums != nil && math.IsNaN(s.nums[i]) // only a dense series has nums
}

// Float returns row i of a numeric series: a dense series' value (NaN marks
// its nulls), or an indicator's 0 or 1, NaN on a null row.
func (s *Series) Float(i int) float64 {
	if s.on == nil {
		return s.nums[i]
	}
	if s.Null != nil && s.Null[i] {
		return math.NaN()
	}
	return s.on[s.codes[i]]
}

// Floats returns the values of a numeric series, NaN for null. A dense
// series returns its own storage, which the caller must not write. An
// indicator returns a new slice: it is materialized for the caller alone,
// and no series holds it.
func (s *Series) Floats() []float64 {
	if s.on == nil {
		return s.nums
	}
	out := make([]float64, len(s.codes))
	for i := range out {
		out[i] = s.Float(i)
	}
	return out
}

// setNull marks row i as missing, allocating the mask lazily.
func (s *Series) setNull(i int) {
	if s.Null == nil {
		s.Null = make([]bool, s.Len())
	}
	s.Null[i] = true
}

// SetNull marks row i missing. For a dense numeric series the value is also
// set to NaN so that downstream numeric reads agree with the mask. It
// writes the series, so it is for a series still being built, never one
// already in a frame, nor an indicator, whose mask is its source's.
func (s *Series) SetNull(i int) {
	s.setNull(i)
	if s.dense() {
		s.nums[i] = math.NaN()
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

// ValueString renders row i for display or serialization.
func (s *Series) ValueString(i int) string {
	if s.Kind != Numeric && !s.IsNull(i) {
		return s.levels[s.codes[i]] // what AppendValue appends, without the copy
	}
	var buf [32]byte
	return string(s.AppendValue(buf[:0], i))
}

// AppendValue appends row i's rendering to dst: nothing for a null, an
// integral numeric below 1e15 in magnitude as an integer, any other numeric
// in shortest 'g' form, and a string cell as it is.
func (s *Series) AppendValue(dst []byte, i int) []byte {
	if s.IsNull(i) {
		return dst
	}
	if s.Kind == Numeric {
		v := s.Float(i)
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return strconv.AppendInt(dst, int64(v), 10)
		}
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, s.levels[s.codes[i]]...)
}

// numStats accumulates count, sum and min/max of the non-null values in a
// single allocation-free pass. The sum visits values in row order — the same
// accumulation order as summing a gathered valid-values slice — so Mean is
// bit-identical to the historical two-pass implementation.
// An indicator's sum is its count of on rows, exact as the row-order sum of
// its 0s and 1s is, and its bounds follow from whether any row is off or on.
func (s *Series) numStats() (count int, sum, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	if s.on != nil {
		off, on := s.onOff()
		if off > 0 {
			lo, hi = 0, 0
		}
		if on > 0 {
			lo, hi = min(lo, 1), 1
		}
		return off + on, float64(on), lo, hi
	}
	for i, v := range s.nums {
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
	if s.on != nil {
		// Row order, as a dense column of the same values sums it.
		for i, c := range s.codes {
			if s.Null == nil || !s.Null[i] {
				d := s.on[c] - m
				ss += d * d
			}
		}
		return math.Sqrt(ss / float64(count))
	}
	for i, v := range s.nums {
		if s.IsNull(i) {
			continue
		}
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(count))
}

// Bounds returns the minimum and maximum non-null values from one pass over
// the column (NaN, NaN if there are none or the series is categorical).
func (s *Series) Bounds() (lo, hi float64) {
	if s.Kind != Numeric {
		return math.NaN(), math.NaN()
	}
	count, _, lo, hi := s.numStats()
	if count == 0 {
		return math.NaN(), math.NaN()
	}
	return lo, hi
}

// Cardinality returns the number of distinct non-null values. A numeric
// column counts distinct values as == does, so −0 and +0 are one value.
func (s *Series) Cardinality() int {
	switch {
	case s.on != nil:
		off, on := s.onOff()
		return min(off, 1) + min(on, 1)
	case s.Kind == Numeric:
		_, n := distinctBits(s)
		return n
	}
	_, n := s.levelCounts()
	return n
}

// onOff counts the non-null rows of indicator s that are off and on.
func (s *Series) onOff() (off, on int) {
	for i, c := range s.codes {
		switch {
		case s.Null != nil && s.Null[i]:
		case s.on[c] == 1:
			on++
		default:
			off++
		}
	}
	return off, on
}

// levelCounts counts the non-null rows holding each level of categorical
// series s, and how many levels some non-null row holds.
func (s *Series) levelCounts() (counts []int, used int) {
	counts = make([]int, len(s.levels))
	for i, c := range s.codes {
		if s.Null != nil && s.Null[i] {
			continue
		}
		if counts[c] == 0 {
			used++
		}
		counts[c]++
	}
	return counts, used
}

// nanBits is a NaN bit pattern. No key has it, since NaN is null.
const nanBits = 0x7ff8000000000001

// distinctBits counts the distinct non-null values of dense column s in
// an open-addressing table of their bit patterns, −0 folded into +0, which
// doubles at half load. It returns the table, in which a slot holds its key
// XOR nanBits so that an unused slot reads 0, and the count.
func distinctBits(s *Series) (slots []uint64, n int) {
	slots = make([]uint64, 16)
	for i, v := range s.nums {
		if s.IsNull(i) {
			continue
		}
		k := uint64(nanBits) // the key of ±0
		if v != 0 {
			k ^= math.Float64bits(v)
		}
		mask := uint64(len(slots) - 1)
		for j := mix(k) & mask; slots[j] != k; j = (j + 1) & mask {
			if slots[j] == 0 {
				slots[j] = k
				if n++; 2*n > len(slots) {
					slots = rehash(slots)
				}
				break
			}
		}
	}
	return slots, n
}

// rehash returns the keys of slots in a table twice its size.
func rehash(slots []uint64) []uint64 {
	grown := make([]uint64, 2*len(slots))
	mask := uint64(len(grown) - 1)
	for _, k := range slots {
		if k == 0 {
			continue
		}
		j := mix(k) & mask
		for grown[j] != 0 {
			j = (j + 1) & mask
		}
		grown[j] = k
	}
	return grown
}

// mix is murmur3's 64-bit finalizer. The bit patterns of small integral
// floats differ only in their top bits and end in ~52 zero bits, so the
// slot index must depend on every bit, not just the low ones.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb3fe1a85ec53
	k ^= k >> 33
	return k
}

// Levels returns the sorted distinct non-null values of a categorical series.
func (s *Series) Levels() []string {
	if s.Kind != Categorical {
		return nil
	}
	counts, used := s.levelCounts()
	out := make([]string, 0, used)
	for c, n := range counts {
		if n > 0 {
			out = append(out, s.levels[c])
		}
	}
	sort.Strings(out)
	return out
}

// IsConstant reports whether the series has at most one distinct non-null
// value (Cardinality() <= 1). It stops at the second distinct value instead
// of building the full distinct set. Categorical rows compare by code, as
// the level table holds no level twice.
func (s *Series) IsConstant() bool {
	first := -1
	for i := 0; i < s.Len(); i++ {
		switch {
		case s.IsNull(i):
		case first < 0:
			first = i
		case s.Kind == Numeric && s.Float(i) != s.Float(first),
			s.Kind != Numeric && s.codes[i] != s.codes[first]:
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
		return strconv.AppendFloat(buf, s.Float(i), 'g', -1, 64)
	}
	buf = append(buf, 's', ':')
	return append(buf, s.levels[s.codes[i]]...)
}
