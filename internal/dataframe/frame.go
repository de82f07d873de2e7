package dataframe

import (
	"fmt"
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

// At returns the i-th column.
func (f *Frame) At(i int) *Series { return f.cols[i] }

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

// AddCategorical is a convenience wrapper for Add(NewCategorical(...)).
func (f *Frame) AddCategorical(name string, vals []string) error {
	return f.Add(NewCategorical(name, vals))
}

// Replace swaps an existing column for a new series with the same name.
func (f *Frame) Replace(s *Series) error {
	i, ok := f.index[s.Name]
	if !ok {
		return fmt.Errorf("dataframe: no column %q to replace", s.Name)
	}
	if s.Len() != f.Len() {
		return fmt.Errorf("dataframe: column %q has %d rows, frame has %d", s.Name, s.Len(), f.Len())
	}
	f.cols[i] = s
	return nil
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

// Select returns a new frame holding deep copies of the named columns, in the
// given order.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := New()
	for _, n := range names {
		c := f.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		if err := out.Add(c.Clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := New()
	for _, c := range f.cols {
		// Adding a fresh clone cannot fail: names are unique, lengths match.
		_ = out.Add(c.Clone())
	}
	return out
}

// Take returns a new frame containing the given rows, in order.
func (f *Frame) Take(rows []int) *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.Add(c.Take(rows))
	}
	return out
}

// Head returns up to n leading rows as a new frame.
func (f *Frame) Head(n int) *Frame {
	if n > f.Len() {
		n = f.Len()
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return f.Take(rows)
}

// DropNA returns a new frame with every row containing a null removed.
// When no column has nulls — the common case on generated datasets — it
// returns a clone without building a row-index slice or gathering through
// Take. Null detection runs column-wise over contiguous storage.
func (f *Frame) DropNA() *Frame {
	bad := make([]bool, f.Len())
	anyBad := false
	for _, c := range f.cols {
		if c.Kind == Numeric {
			for i, v := range c.Nums {
				if math.IsNaN(v) {
					bad[i] = true
					anyBad = true
				}
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

// Matrix extracts the named numeric columns as a row-major [][]float64,
// suitable for the ML package. Nulls become NaN; callers impute as needed.
func (f *Frame) Matrix(names []string) ([][]float64, error) {
	cols := make([]*Series, len(names))
	for j, n := range names {
		c := f.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		if c.Kind != Numeric {
			return nil, fmt.Errorf("dataframe: column %q is not numeric", n)
		}
		cols[j] = c
	}
	out := make([][]float64, f.Len())
	for i := range out {
		row := make([]float64, len(names))
		for j, c := range cols {
			if c.IsNull(i) {
				row[j] = math.NaN()
			} else {
				row[j] = c.Nums[i]
			}
		}
		out[i] = row
	}
	return out, nil
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
	for i, v := range c.Nums {
		if c.IsNull(i) {
			return nil, fmt.Errorf("dataframe: label column %q has a null at row %d", name, i)
		}
		out[i] = int(v)
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
