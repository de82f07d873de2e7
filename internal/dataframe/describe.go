package dataframe

import (
	"fmt"
	"strings"
)

// ColumnProfile summarizes one column for data-card generation and for the
// verification filters.
type ColumnProfile struct {
	Name        string
	Kind        Kind
	Rows        int
	Nulls       int
	NullFrac    float64
	Cardinality int
	Mean        float64
	Std         float64
	Min         float64
	Max         float64
	Levels      []string // up to 8 sample levels for categorical columns
}

// Profile computes a ColumnProfile for the named column.
func (f *Frame) Profile(name string) (ColumnProfile, error) {
	c := f.Column(name)
	if c == nil {
		return ColumnProfile{}, fmt.Errorf("dataframe: no column %q", name)
	}
	p := ColumnProfile{
		Name:  c.Name,
		Kind:  c.Kind,
		Rows:  c.Len(),
		Nulls: c.NullCount(),
	}
	if p.Rows > 0 {
		p.NullFrac = float64(p.Nulls) / float64(p.Rows)
	}
	if c.Kind == Numeric {
		p.Cardinality = c.Cardinality()
		p.Mean, p.Std = c.Mean(), c.Std()
		p.Min, p.Max = c.Bounds()
	} else {
		levels := c.Levels()
		p.Cardinality = len(levels)
		if len(levels) > 8 {
			levels = levels[:8]
		}
		p.Levels = levels
	}
	return p, nil
}

// Describe profiles every column, in frame order.
func (f *Frame) Describe() []ColumnProfile {
	out := make([]ColumnProfile, 0, f.Width())
	for _, c := range f.cols {
		p, _ := f.Profile(c.Name)
		out = append(out, p)
	}
	return out
}

// DescribeString renders Describe as an aligned text table.
func (f *Frame) DescribeString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-12s %8s %8s %10s %10s %10s %10s\n",
		"column", "kind", "nulls", "card", "mean", "std", "min", "max")
	for _, p := range f.Describe() {
		if p.Kind == Numeric {
			fmt.Fprintf(&b, "%-28s %-12s %8d %8d %10.3f %10.3f %10.3f %10.3f\n",
				p.Name, p.Kind, p.Nulls, p.Cardinality, p.Mean, p.Std, p.Min, p.Max)
		} else {
			fmt.Fprintf(&b, "%-28s %-12s %8d %8d %10s %10s %10s %10s\n",
				p.Name, p.Kind, p.Nulls, p.Cardinality, "-", "-", "-", "-")
		}
	}
	return b.String()
}
