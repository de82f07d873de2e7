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

// aggregate reduces a slice of non-null values.
func aggregate(fn AggFunc, vals []float64) float64 {
	if len(vals) == 0 {
		if fn == AggCount {
			return 0
		}
		return math.NaN()
	}
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

// groupIDs assigns each row the dense id of its composite key over the
// given columns, numbering groups by first appearance, and returns each
// group's key. A row whose key is already known costs one map lookup and no
// allocation; only a group's first row allocates its key.
func (f *Frame) groupIDs(groupCols []string) (ids []int, keys []string, err error) {
	cols := make([]*Series, len(groupCols))
	for j, n := range groupCols {
		c := f.Column(n)
		if c == nil {
			return nil, nil, fmt.Errorf("dataframe: no group column %q", n)
		}
		cols[j] = c
	}
	ids = make([]int, f.Len())
	index := make(map[string]int)
	buf := make([]byte, 0, 64)
	for i := range ids {
		buf = buf[:0]
		for j, c := range cols {
			if j > 0 {
				buf = append(buf, '\x1f')
			}
			buf = c.appendKey(buf, i)
		}
		id, ok := index[string(buf)]
		if !ok {
			id = len(keys)
			keys = append(keys, string(buf))
			index[keys[id]] = id
		}
		ids[i] = id
	}
	return ids, keys, nil
}

// groupBy checks a group-by's arguments and assigns the group ids: fn must
// be supported and aggCol a numeric column.
func (f *Frame) groupBy(groupCols []string, aggCol string, fn AggFunc) (agg *Series, ids []int, keys []string, err error) {
	if !ValidAgg(fn) {
		return nil, nil, nil, fmt.Errorf("dataframe: unsupported aggregation %q", fn)
	}
	agg = f.Column(aggCol)
	if agg == nil {
		return nil, nil, nil, fmt.Errorf("dataframe: no aggregate column %q", aggCol)
	}
	if agg.Kind != Numeric {
		return nil, nil, nil, fmt.Errorf("dataframe: aggregate column %q is not numeric", aggCol)
	}
	ids, keys, err = f.groupIDs(groupCols)
	return agg, ids, keys, err
}

// groupValues gathers agg's non-null values by group into one flat slice:
// group g's values are vals[start[g]:start[g+1]], in row order.
func groupValues(agg *Series, ids []int, groups int) (vals []float64, start []int) {
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
			vals[next[g]] = agg.Nums[i]
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
	agg, ids, keys, err := f.groupBy(groupCols, aggCol, fn)
	if err != nil {
		return nil, err
	}
	vals, start := groupValues(agg, ids, len(keys))
	results := make([]float64, len(keys))
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

// GroupStats holds one aggregated row of a group-by reduction.
type GroupStats struct {
	Key   string
	Count int
	Value float64
}

// GroupByAggregate reduces aggCol within each group and returns one row per
// group, sorted by key for determinism.
func (f *Frame) GroupByAggregate(groupCols []string, aggCol string, fn AggFunc) ([]GroupStats, error) {
	agg, ids, keys, err := f.groupBy(groupCols, aggCol, fn)
	if err != nil {
		return nil, err
	}
	vals, start := groupValues(agg, ids, len(keys))
	out := make([]GroupStats, len(keys))
	for g, k := range keys {
		out[g] = GroupStats{Key: k, Value: aggregate(fn, vals[start[g]:start[g+1]])}
	}
	for _, g := range ids {
		out[g].Count++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// NumGroups returns the number of distinct groups induced by the columns.
func (f *Frame) NumGroups(groupCols []string) (int, error) {
	_, keys, err := f.groupIDs(groupCols)
	return len(keys), err
}
