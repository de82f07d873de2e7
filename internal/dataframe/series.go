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
	if s.dense() {
		for i, v := range s.nums {
			if v != v || s.Null != nil && s.Null[i] {
				n++
			}
		}
		return n
	}
	for _, null := range s.Null {
		if null {
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

// numStats accumulates the count and sum of the non-null values in a single
// allocation-free pass. The sum visits values in row order — the same
// accumulation order as summing a gathered valid-values slice — so Mean is
// bit-identical to the historical two-pass implementation.
// An indicator's sum is its count of on rows, exact as the row-order sum of
// its 0s and 1s is.
func (s *Series) numStats() (count int, sum float64) {
	if s.on != nil {
		off, on := s.onOff()
		return off + on, float64(on)
	}
	for i, v := range s.nums {
		if s.IsNull(i) {
			continue
		}
		count++
		sum += v
	}
	return count, sum
}

// Mean returns the mean of non-null values of a numeric series (NaN if empty
// or categorical).
func (s *Series) Mean() float64 {
	if s.Kind != Numeric {
		return math.NaN()
	}
	count, sum := s.numStats()
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
	count, sum := s.numStats()
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
	switch {
	case s.Kind != Numeric:
		return math.NaN(), math.NaN()
	case s.on != nil:
		return onOffBounds(s.onOff())
	}
	count := 0
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, v := range s.nums {
		if s.IsNull(i) {
			continue
		}
		count++
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if count == 0 {
		return math.NaN(), math.NaN()
	}
	return lo, hi
}

// Cardinality returns the number of distinct non-null values. A numeric
// column counts distinct values as == does, so −0 and +0 are one value.
func (s *Series) Cardinality() int {
	if s.Kind == Numeric {
		card, _, _ := s.CardinalityBounds()
		return card
	}
	_, n := s.levelCounts()
	return n
}

// CardinalityBounds returns Cardinality and Bounds from one scan of the
// column: the numbers an agenda line shows for a numeric column.
func (s *Series) CardinalityBounds() (card int, lo, hi float64) {
	switch {
	case s.Kind != Numeric:
		return s.Cardinality(), math.NaN(), math.NaN()
	case s.on != nil:
		off, on := s.onOff()
		lo, hi = onOffBounds(off, on)
		return min(off, 1) + min(on, 1), lo, hi
	}
	_, card, lo, hi = distinctBits(s)
	return card, lo, hi
}

// onOffBounds returns the bounds of an indicator with off rows at 0 and on
// rows at 1: NaN, NaN if it has neither.
func onOffBounds(off, on int) (lo, hi float64) {
	switch {
	case off > 0 && on > 0:
		return 0, 1
	case off > 0:
		return 0, 0
	case on > 0:
		return 1, 1
	}
	return math.NaN(), math.NaN()
}

// onOff counts the non-null rows of indicator s that are off and on. It
// counts rows by code, then sums the codes that are off and on, so no
// branch turns on a row's value.
func (s *Series) onOff() (off, on int) {
	counts := make([]int, len(s.on))
	if s.Null == nil {
		for _, c := range s.codes {
			counts[c]++
		}
	} else {
		for i, c := range s.codes {
			if !s.Null[i] {
				counts[c]++
			}
		}
	}
	for c, n := range counts {
		if s.on[c] == 1 {
			on += n
		} else {
			off += n
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

// bigTable is the table size past which a count stops doubling and grows
// straight to the size the rows seen so far predict for the column.
const bigTable = 1024

// distinctBits counts the distinct non-null values of dense column s in an
// open-addressing table of their bit patterns, −0 folded into +0, which
// grows at half load; a slot holds its key XOR nanBits so that an unused
// slot reads 0. It returns the table, the count and the column's Bounds.
// Past bigTable slots a table grows to hold distinctEstimate's prediction,
// so a high-cardinality column skips the doublings between, and no table
// is sized by the row count alone.
func distinctBits(s *Series) (slots []uint64, n int, lo, hi float64) {
	slots = make([]uint64, 16)
	lo, hi = math.Inf(1), math.Inf(-1)
	seen := 0
	for i, v := range s.nums {
		if s.IsNull(i) {
			continue
		}
		seen++
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
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
					size := 2 * len(slots)
					if size > bigTable {
						for size < 2*distinctEstimate(n, seen, len(s.nums)-1-i) {
							size *= 2
						}
					}
					slots = rehash(slots, size)
				}
				break
			}
		}
	}
	if n == 0 {
		return slots, 0, math.NaN(), math.NaN()
	}
	return slots, n, lo, hi
}

// distinctEstimate predicts a column's distinct values from the n found
// among its first seen values, with rest rows to go. Values drawn evenly
// from d distinct ones repeat about seen²/2d times in seen draws, so d is
// about seen²/2 over the repeats. The estimate never exceeds n+rest; a
// skewed column repeats more and is underestimated, which costs only the
// doublings the estimate meant to skip.
func distinctEstimate(n, seen, rest int) int {
	most := n + rest
	if repeats := seen - n; repeats > 0 {
		return min(most, seen*seen/(2*repeats))
	}
	return most
}

// rehash returns the keys of slots in a table of size slots, a power of two.
func rehash(slots []uint64, size int) []uint64 {
	grown := make([]uint64, size)
	mask := uint64(size - 1)
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
