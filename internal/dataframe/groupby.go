package dataframe

import (
	"fmt"
	"math"
	"sort"
)

// AggFunc names an aggregation applied within each group.
type AggFunc string

// Supported aggregation functions, matching the vocabulary the paper's
// high-order operator exposes to the foundation model
// (df.groupby(g)[a].transform(fn)).
const (
	AggMean   AggFunc = "mean"
	AggSum    AggFunc = "sum"
	AggMax    AggFunc = "max"
	AggMin    AggFunc = "min"
	AggCount  AggFunc = "count"
	AggStd    AggFunc = "std"
	AggMedian AggFunc = "median"
)

// ValidAgg reports whether fn is a supported aggregation.
func ValidAgg(fn AggFunc) bool {
	switch fn {
	case AggMean, AggSum, AggMax, AggMin, AggCount, AggStd, AggMedian:
		return true
	}
	return false
}

// aggregate reduces a non-empty slice of non-null values.
func aggregate(fn AggFunc, vals []float64) float64 {
	switch fn {
	case AggMean:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case AggSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggCount:
		return float64(len(vals))
	case AggStd:
		m := 0.0
		for _, v := range vals {
			m += v
		}
		m /= float64(len(vals))
		ss := 0.0
		for _, v := range vals {
			d := v - m
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(vals)))
	case AggMedian:
		cp := append([]float64(nil), vals...)
		sort.Float64s(cp)
		n := len(cp)
		if n%2 == 1 {
			return cp[n/2]
		}
		return (cp[n/2-1] + cp[n/2]) / 2
	default:
		return math.NaN()
	}
}

// groupIDs numbers each row's composite key over the given columns by
// first appearance and returns the ids and the number of groups. Each
// column numbers its own rows first (see groupAtoms); every further column
// then numbers the pairs of the key so far and its own id, so the last
// numbering is of the whole key. No key is ever formatted.
func (f *Frame) groupIDs(groupCols []string) (ids []int32, groups int, err error) {
	cols := make([]*Series, len(groupCols))
	for j, n := range groupCols {
		c := f.Column(n)
		if c == nil {
			return nil, 0, fmt.Errorf("dataframe: no group column %q", n)
		}
		cols[j] = c
	}
	if len(cols) == 0 {
		return make([]int32, f.Len()), min(f.Len(), 1), nil
	}
	ids, groups = cols[0].groupAtoms()
	for _, c := range cols[1:] {
		atoms, n := c.groupAtoms()
		groups = pairIDs(ids, groups, atoms, n)
	}
	return ids, groups, nil
}

// groupAtoms numbers the rows of s by first appearance of their group-by
// atom: a categorical row's code, a numeric row's float bits (every NaN
// folded to one pattern, −0 apart from +0, as %g prints them), and a null,
// which is an atom of its own. A categorical column renumbers its codes
// through a slice indexed by code.
func (s *Series) groupAtoms() (ids []int32, n int) {
	ids = make([]int32, s.Len())
	if s.Kind != Numeric {
		seen := make([]int32, len(s.levels)+1) // id+1 by code; null's is last
		for i, c := range s.codes {
			if s.Null != nil && s.Null[i] {
				c = uint32(len(s.levels))
			}
			if seen[c] == 0 {
				n++
				seen[c] = int32(n)
			}
			ids[i] = seen[c] - 1
		}
		return ids, n
	}
	seen := make(map[uint64]int32)
	null := int32(-1)
	for i := range ids {
		if s.IsNull(i) {
			if null < 0 {
				null = int32(n)
				n++
			}
			ids[i] = null
			continue
		}
		v := s.Float(i)
		k := math.Float64bits(v)
		if v != v {
			k = nanBits
		}
		id, ok := seen[k]
		if !ok {
			id = int32(n)
			seen[k] = id
			n++
		}
		ids[i] = id
	}
	return ids, n
}

// pairIDs renumbers ids, of which there are groups, by first appearance of
// the pair (ids[i], atoms[i]), where atoms has n ids, and returns how many
// pairs there are. While every pair fits a table no longer than the rows,
// it is indexed by pair; otherwise a map numbers them.
func pairIDs(ids []int32, groups int, atoms []int32, n int) int {
	next := 0
	if groups*n <= len(ids) {
		seen := make([]int32, groups*n) // id+1 by pair
		for i, a := range atoms {
			p := int(ids[i])*n + int(a)
			if seen[p] == 0 {
				next++
				seen[p] = int32(next)
			}
			ids[i] = seen[p] - 1
		}
		return next
	}
	seen := make(map[uint64]int32)
	for i, a := range atoms {
		p := uint64(ids[i])<<32 | uint64(a)
		id, ok := seen[p]
		if !ok {
			id = int32(next)
			seen[p] = id
			next++
		}
		ids[i] = id
	}
	return next
}

// groupValues gathers agg's non-null values by group into one flat slice:
// group g's values are vals[start[g]:start[g+1]], in row order.
func groupValues(agg *Series, ids []int32, groups int) (vals []float64, start []int) {
	start = make([]int, groups+1)
	for i, g := range ids {
		if !agg.IsNull(i) {
			start[g+1]++
		}
	}
	for g := 0; g < groups; g++ {
		start[g+1] += start[g]
	}
	vals = make([]float64, start[groups])
	next := append([]int(nil), start[:groups]...)
	for i, g := range ids {
		if !agg.IsNull(i) {
			vals[next[g]] = agg.Float(i)
			next[g]++
		}
	}
	return vals, start
}

// GroupByTransform computes, for every row, the aggregation of aggCol over
// the row's group — the direct analogue of pandas'
// df.groupby(groupCols)[aggCol].transform(fn). The result has one value per
// row (broadcast back to the original shape); a group with no non-null value
// gives NaN, whatever fn is.
func (f *Frame) GroupByTransform(groupCols []string, aggCol string, fn AggFunc) ([]float64, error) {
	if !ValidAgg(fn) {
		return nil, fmt.Errorf("dataframe: unsupported aggregation %q", fn)
	}
	agg := f.Column(aggCol)
	if agg == nil {
		return nil, fmt.Errorf("dataframe: no aggregate column %q", aggCol)
	}
	if agg.Kind != Numeric {
		return nil, fmt.Errorf("dataframe: aggregate column %q is not numeric", aggCol)
	}
	ids, groups, err := f.groupIDs(groupCols)
	if err != nil {
		return nil, err
	}
	vals, start := groupValues(agg, ids, groups)
	results := make([]float64, groups)
	for g := range results {
		if start[g] == start[g+1] {
			results[g] = math.NaN()
		} else {
			results[g] = aggregate(fn, vals[start[g]:start[g+1]])
		}
	}
	out := make([]float64, len(ids))
	for i, g := range ids {
		out[i] = results[g]
	}
	return out, nil
}
