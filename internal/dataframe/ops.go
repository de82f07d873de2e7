package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Bucketize assigns each value of a numeric column to the index of the first
// boundary it is below: value < b[0] → 0, b[0] ≤ value < b[1] → 1, …,
// value ≥ b[last] → len(b). Boundaries must be strictly increasing.
func (f *Frame) Bucketize(input string, boundaries []float64) ([]float64, error) {
	c := f.Column(input)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Numeric {
		return nil, fmt.Errorf("dataframe: bucketize input %q is not numeric", input)
	}
	if len(boundaries) == 0 {
		return nil, fmt.Errorf("dataframe: bucketize needs at least one boundary")
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			return nil, fmt.Errorf("dataframe: bucketize boundaries must be strictly increasing")
		}
	}
	out := make([]float64, c.Len())
	for i := range out {
		if c.IsNull(i) {
			out[i] = math.NaN()
			continue
		}
		v := c.Float(i)
		b := sort.SearchFloat64s(boundaries, v)
		// SearchFloat64s returns the insertion point; values equal to a
		// boundary belong to the bucket above it.
		if b < len(boundaries) && v == boundaries[b] {
			b++
		}
		out[i] = float64(b)
	}
	return out, nil
}

// MinMaxScale rescales a numeric column to [0,1].
func (f *Frame) MinMaxScale(input string) ([]float64, error) {
	c := f.Column(input)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Numeric {
		return nil, fmt.Errorf("dataframe: scale input %q is not numeric", input)
	}
	lo, hi := c.Bounds()
	span := hi - lo
	out := make([]float64, c.Len())
	for i := range out {
		switch {
		case c.IsNull(i):
			out[i] = math.NaN()
		case span == 0:
			out[i] = 0
		default:
			out[i] = (c.Float(i) - lo) / span
		}
	}
	return out, nil
}

// Standardize rescales a numeric column to zero mean, unit variance.
func (f *Frame) Standardize(input string) ([]float64, error) {
	c := f.Column(input)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Numeric {
		return nil, fmt.Errorf("dataframe: standardize input %q is not numeric", input)
	}
	m, sd := c.Mean(), c.Std()
	out := make([]float64, c.Len())
	for i := range out {
		switch {
		case c.IsNull(i):
			out[i] = math.NaN()
		case sd == 0:
			out[i] = 0
		default:
			out[i] = (c.Float(i) - m) / sd
		}
	}
	return out, nil
}

// GetDummies one-hot encodes a categorical column, producing one numeric
// 0/1 column per level, named input=level (the pandas get_dummies analogue).
// Levels beyond maxLevels (by descending frequency) are folded into an
// "=other" indicator; maxLevels ≤ 0 means no limit. Each column is an
// indicator over the input's codes and Null mask (see the package doc):
// it owns only its per-level on/off table.
func (f *Frame) GetDummies(input string, maxLevels int) ([]*Series, error) {
	c := f.Column(input)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Categorical {
		return nil, fmt.Errorf("dataframe: get_dummies input %q is not categorical", input)
	}
	counts, used := c.levelCounts()
	order := make([]int, 0, used) // codes by (count desc, level asc)
	for code, n := range counts {
		if n > 0 {
			order = append(order, code)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return c.levels[a] < c.levels[b]
	})
	folded := maxLevels > 0 && len(order) > maxLevels
	if folded {
		order = order[:maxLevels]
	}
	indicator := func(name string, on []float64) *Series {
		return &Series{Name: name, Kind: Numeric, Null: c.Null, codes: c.codes, on: on}
	}
	out := make([]*Series, len(order), len(order)+1)
	for j, code := range order {
		on := make([]float64, len(c.levels))
		on[code] = 1
		out[j] = indicator(fmt.Sprintf("%s=%s", input, sanitizeLevel(c.levels[code])), on)
	}
	if folded {
		other := make([]float64, len(c.levels))
		for code := range other {
			other[code] = 1
		}
		for _, code := range order {
			other[code] = 0
		}
		out = append(out, indicator(fmt.Sprintf("%s=other", input), other))
	}
	return out, nil
}

// sanitizeLevel makes category levels safe for use inside column names.
func sanitizeLevel(v string) string {
	v = strings.ReplaceAll(v, "=", "_")
	v = strings.ReplaceAll(v, ",", "_")
	v = strings.ReplaceAll(v, "\n", "_")
	if v == "" {
		return "_empty_"
	}
	return v
}

// Factorize converts a categorical column into numeric codes, assigning codes
// by first appearance (the pandas factorize analogue). It returns the code
// series and the level table (code → level).
func (f *Frame) Factorize(input string) (*Series, []string, error) {
	c := f.Column(input)
	if c == nil {
		return nil, nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Categorical {
		return nil, nil, fmt.Errorf("dataframe: factorize input %q is not categorical", input)
	}
	remap := make([]int, len(c.levels)) // code → 1 + its factorized code
	var levels []string
	out := make([]float64, c.Len())
	for i, code := range c.codes {
		if c.IsNull(i) {
			out[i] = math.NaN()
			continue
		}
		if remap[code] == 0 {
			levels = append(levels, c.levels[code])
			remap[code] = len(levels)
		}
		out[i] = float64(remap[code] - 1)
	}
	return NewNumeric(c.Name, out), levels, nil
}

// FactorizeAll returns a new frame in which every categorical column has
// been replaced by its integer codes — the standard cleaning step the paper
// applies before feature engineering. Numeric columns are the source's own
// series.
func (f *Frame) FactorizeAll() *Frame {
	out := New()
	for _, c := range f.cols {
		if c.Kind == Categorical {
			c, _, _ = f.Factorize(c.Name)
		}
		_ = out.Add(c)
	}
	return out
}

// MapValues builds a numeric column by looking up each categorical value in
// a mapping table (used by extractor features that carry external knowledge,
// e.g. city → population density). Missing keys yield nulls.
func (f *Frame) MapValues(input string, mapping map[string]float64) ([]float64, error) {
	c := f.Column(input)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Categorical {
		return nil, fmt.Errorf("dataframe: map input %q is not categorical", input)
	}
	mapped := make([]float64, len(c.levels))
	for code, l := range c.levels {
		mv, ok := mapping[l]
		if !ok {
			mv = math.NaN()
		}
		mapped[code] = mv
	}
	out := make([]float64, c.Len())
	for i, code := range c.codes {
		if c.IsNull(i) {
			out[i] = math.NaN()
		} else {
			out[i] = mapped[code]
		}
	}
	return out, nil
}

// SplitDate decomposes a numeric YYYYMMDD column into year, month and day
// columns (the date-splitting unary operation).
func (f *Frame) SplitDate(input string) (year, month, day []float64, err error) {
	c := f.Column(input)
	if c == nil {
		return nil, nil, nil, fmt.Errorf("dataframe: no column %q", input)
	}
	if c.Kind != Numeric {
		return nil, nil, nil, fmt.Errorf("dataframe: date column %q is not numeric", input)
	}
	n := c.Len()
	year = make([]float64, n)
	month = make([]float64, n)
	day = make([]float64, n)
	for i := range n {
		v := c.Float(i)
		if c.IsNull(i) || v < 10000101 {
			year[i], month[i], day[i] = math.NaN(), math.NaN(), math.NaN()
			continue
		}
		iv := int64(v)
		year[i] = float64(iv / 10000)
		month[i] = float64((iv / 100) % 100)
		day[i] = float64(iv % 100)
	}
	return year, month, day, nil
}
