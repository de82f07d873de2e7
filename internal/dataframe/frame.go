package dataframe

import (
	"fmt"
	"maps"
	"math"
)

// Frame is an ordered collection of equal-length Series.
type Frame struct {
	cols  []*Series
	index map[string]int
}

// New returns an empty frame.
func New() *Frame {
	return &Frame{index: make(map[string]int)}
}

// Len returns the number of rows.
func (f *Frame) Len() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// Width returns the number of columns.
func (f *Frame) Width() int { return len(f.cols) }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Has reports whether a column exists.
func (f *Frame) Has(name string) bool {
	_, ok := f.index[name]
	return ok
}

// Column returns the named column, or nil if absent.
func (f *Frame) Column(name string) *Series {
	if i, ok := f.index[name]; ok {
		return f.cols[i]
	}
	return nil
}

// Add appends a column; the name must be unique and the length must match.
func (f *Frame) Add(s *Series) error {
	if s == nil {
		return fmt.Errorf("dataframe: nil series")
	}
	if s.Name == "" {
		return fmt.Errorf("dataframe: series must be named")
	}
	if _, dup := f.index[s.Name]; dup {
		return fmt.Errorf("dataframe: duplicate column %q", s.Name)
	}
	if len(f.cols) > 0 && s.Len() != f.Len() {
		return fmt.Errorf("dataframe: column %q has %d rows, frame has %d", s.Name, s.Len(), f.Len())
	}
	f.index[s.Name] = len(f.cols)
	f.cols = append(f.cols, s)
	return nil
}

// AddNumeric is a convenience wrapper for Add(NewNumeric(...)).
func (f *Frame) AddNumeric(name string, vals []float64) error {
	return f.Add(NewNumeric(name, vals))
}

// AddCodes appends a categorical column whose row i holds
// levels[codes[i]]: a generator that draws level indices hands them over
// as they are, with no per-row lookup. The frame keeps both slices, so the
// caller must not write them again. A code out of range or a level listed
// twice is an error: readers compare rows by code, which needs each level
// to have exactly one.
func (f *Frame) AddCodes(name string, levels []string, codes []uint32) error {
	seen := make(map[string]struct{}, len(levels))
	for _, l := range levels {
		if _, dup := seen[l]; dup {
			return fmt.Errorf("dataframe: column %q lists level %q twice", name, l)
		}
		seen[l] = struct{}{}
	}
	for i, c := range codes {
		if int(c) >= len(levels) {
			return fmt.Errorf("dataframe: column %q row %d has code %d, beyond its %d levels", name, i, c, len(levels))
		}
	}
	return f.Add(&Series{Name: name, Kind: Categorical, codes: codes, levels: levels})
}

// Drop removes the named columns; missing names are ignored.
func (f *Frame) Drop(names ...string) {
	toDrop := make(map[string]bool, len(names))
	for _, n := range names {
		toDrop[n] = true
	}
	kept := f.cols[:0]
	for _, c := range f.cols {
		if !toDrop[c.Name] {
			kept = append(kept, c)
		}
	}
	f.cols = kept
	f.reindex()
}

// Clone returns a frame with its own column list over the same series: Add
// and Drop on either frame leave the other's columns alone, and no column
// data is copied (series are never written once built; see the package
// doc). It costs O(width).
func (f *Frame) Clone() *Frame {
	return &Frame{cols: append([]*Series(nil), f.cols...), index: maps.Clone(f.index)}
}

// Take returns a new frame containing the given rows, in order. It takes
// each distinct codes slice and Null mask once, so series that share them,
// a categorical column and its one-hot indicators, share the taken ones.
// Level and on/off tables are shared with the source as they are.
func (f *Frame) Take(rows []int) *Frame {
	out := New()
	codes, nulls := make(map[*uint32][]uint32), make(map[*bool][]bool)
	for _, c := range f.cols {
		_ = out.Add(&Series{
			Name:   c.Name,
			Kind:   c.Kind,
			Null:   takeOnce(nulls, c.Null, rows),
			nums:   takeOnce(nil, c.nums, rows),
			codes:  takeOnce(codes, c.codes, rows),
			levels: c.levels,
			on:     c.on,
		})
	}
	return out
}

// takeOnce returns src's values at rows, or nil for a nil src. With a memo
// it gathers each distinct src once, keyed by its first element (series
// never hold overlapping parts of one slice), and returns that result to
// every later caller: a categorical series and its one-hot indicators,
// which share codes and a Null mask, share the taken ones too.
func takeOnce[T any](memo map[*T][]T, src []T, rows []int) []T {
	if src == nil {
		return nil
	}
	var key *T
	if memo != nil && len(src) > 0 {
		key = &src[0]
		if out, ok := memo[key]; ok {
			return out
		}
	}
	out := make([]T, len(rows))
	for j, i := range rows {
		out[j] = src[i]
	}
	if key != nil {
		memo[key] = out
	}
	return out
}

// DropNA returns a new frame with every row containing a null removed.
// When no column has nulls — the common case on generated datasets — it
// returns a Clone, which shares the source's series, without building a
// row-index slice or gathering through Take. Null detection runs
// column-wise over contiguous storage: a dense column's NaNs and every
// column's Null mask, which holds an indicator's nulls.
func (f *Frame) DropNA() *Frame {
	bad := make([]bool, f.Len())
	anyBad := false
	for _, c := range f.cols {
		for i, v := range c.nums {
			if math.IsNaN(v) {
				bad[i] = true
				anyBad = true
			}
		}
		if c.Null != nil {
			for i, isNull := range c.Null {
				if isNull {
					bad[i] = true
					anyBad = true
				}
			}
		}
	}
	if !anyBad {
		return f.Clone()
	}
	rows := make([]int, 0, f.Len())
	for i, b := range bad {
		if !b {
			rows = append(rows, i)
		}
	}
	return f.Take(rows)
}

// reindex rebuilds the name→position map after structural changes.
func (f *Frame) reindex() {
	f.index = make(map[string]int, len(f.cols))
	for i, c := range f.cols {
		f.index[c.Name] = i
	}
}

// IntLabels extracts a numeric column as int class labels (values are
// truncated); used for classification targets.
func (f *Frame) IntLabels(name string) ([]int, error) {
	c := f.Column(name)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", name)
	}
	if c.Kind != Numeric {
		return nil, fmt.Errorf("dataframe: label column %q is not numeric", name)
	}
	out := make([]int, c.Len())
	for i := range out {
		if c.IsNull(i) {
			return nil, fmt.Errorf("dataframe: label column %q has a null at row %d", name, i)
		}
		out[i] = int(c.Float(i))
	}
	return out, nil
}

// String renders a compact preview of the frame.
func (f *Frame) String() string {
	s := fmt.Sprintf("Frame[%d rows × %d cols]", f.Len(), f.Width())
	for _, c := range f.cols {
		s += fmt.Sprintf("\n  %-24s %s", c.Name, c.Kind)
	}
	return s
}
