package featselect

import (
	"fmt"
	"math"

	"smartfeat/internal/dataframe"
)

// FilterOptions configures the verification filters of §3.3: generated
// features that are highly null, single-valued, or dummy expansions of
// high-cardinality originals are discarded. A correlation cap is also
// available (used by the Featuretools baseline's selection step).
type FilterOptions struct {
	// MaxNullFrac drops features whose null fraction exceeds it (default 0.5).
	MaxNullFrac float64
	// DropSingleValued drops constant features.
	DropSingleValued bool
	// MaxDummyCardinality drops dummy indicators whose source categorical
	// column has more levels than this (0 disables the check).
	MaxDummyCardinality int
	// MaxAbsCorrelation drops a feature whose |Pearson| with an already-kept
	// numeric feature exceeds it (0 disables; Featuretools uses 0.95).
	MaxAbsCorrelation float64
}

// DefaultFilterOptions mirrors the paper's verification step.
func DefaultFilterOptions() FilterOptions {
	return FilterOptions{
		MaxNullFrac:         0.5,
		DropSingleValued:    true,
		MaxDummyCardinality: 20,
	}
}

// Dropped records one removed feature and the reason.
type Dropped struct {
	Name   string
	Reason string
}

// FilterReport summarizes a verification pass.
type FilterReport struct {
	Kept    []string
	Dropped []Dropped
}

// VerifyFeatures applies the filters to the candidate columns of f, mutating
// f by dropping failures. protect marks columns that are never dropped (the
// original features and the label). dummySource maps a dummy column to the
// cardinality of the categorical column it came from. Candidates are
// checked in order by one Selector, whose kept set starts as every column
// that is protected or not a candidate.
func VerifyFeatures(f *dataframe.Frame, candidates []string, protect map[string]bool, dummySource map[string]int, opts FilterOptions) FilterReport {
	var kept []string
	for _, name := range f.Names() {
		if protect[name] || !contains(candidates, name) {
			kept = append(kept, name)
		}
	}
	sel := NewSelector(f, kept, dummySource, opts)
	var report FilterReport
	for _, name := range candidates {
		col := f.Column(name)
		if col == nil {
			report.Dropped = append(report.Dropped, Dropped{name, "missing"})
			continue
		}
		if protect[name] {
			report.Kept = append(report.Kept, name)
			continue
		}
		if reason := sel.Check(col); reason != "" {
			f.Drop(name)
			report.Dropped = append(report.Dropped, Dropped{name, reason})
			continue
		}
		report.Kept = append(report.Kept, name)
	}
	return report
}

// Selector applies the filters to candidate columns one at a time, each
// against the columns kept before it, so a generator can check a candidate
// as soon as it is made and keep only what passes. A candidate passes or
// fails whatever comes after it, so checking candidates as they are made
// keeps the set VerifyFeatures keeps over all of them.
//
// For the correlation cap a Selector keeps, beside each kept numeric
// column, its moments: the mean and centered sum of squares Pearson would
// sum for it. Checking a candidate against a NaN-free kept column is then
// one pass over the two (see pearsonMoments).
type Selector struct {
	opts        FilterOptions
	dummySource map[string]int
	kept        []moments // the kept numeric columns, when the cap is on
}

// NewSelector returns a selector whose kept set starts as the named columns
// of f; the numeric ones take part in the correlation cap.
func NewSelector(f *dataframe.Frame, kept []string, dummySource map[string]int, opts FilterOptions) *Selector {
	s := &Selector{opts: opts, dummySource: dummySource}
	for _, name := range kept {
		if c := f.Column(name); c != nil {
			s.keep(c)
		}
	}
	return s
}

// keep adds col to the kept set.
func (s *Selector) keep(col *dataframe.Series) {
	if s.opts.MaxAbsCorrelation > 0 && col.Kind == dataframe.Numeric {
		s.kept = append(s.kept, newMoments(col.Name, col.Floats()))
	}
}

// Check runs the filters on col. It returns "" and keeps col when col
// passes, and the reason it fails otherwise.
func (s *Selector) Check(col *dataframe.Series) string {
	reason := s.reason(col)
	if reason == "" {
		s.keep(col)
	}
	return reason
}

func (s *Selector) reason(col *dataframe.Series) string {
	opts := s.opts
	n := col.Len()
	if n == 0 {
		return "empty"
	}
	if opts.MaxNullFrac > 0 {
		frac := float64(col.NullCount()) / float64(n)
		if frac > opts.MaxNullFrac {
			return fmt.Sprintf("null fraction %.2f > %.2f", frac, opts.MaxNullFrac)
		}
	}
	if opts.DropSingleValued && col.IsConstant() {
		return "single-valued"
	}
	if opts.MaxDummyCardinality > 0 {
		if card, isDummy := s.dummySource[col.Name]; isDummy && card > opts.MaxDummyCardinality {
			return fmt.Sprintf("dummy of high-cardinality column (%d levels)", card)
		}
	}
	if opts.MaxAbsCorrelation > 0 && col.Kind == dataframe.Numeric {
		m := newMoments(col.Name, col.Floats())
		for _, other := range s.kept {
			if other.name == col.Name {
				continue
			}
			r := pearsonMoments(m, other)
			if r > opts.MaxAbsCorrelation || r < -opts.MaxAbsCorrelation {
				return fmt.Sprintf("|corr|=%.3f with %s", abs(r), other.name)
			}
		}
	}
	return ""
}

// moments is what Pearson computes of one column on its own when neither
// column holds a NaN: with nanFree set, mean and ss are x's mean and the
// sum of its squared deviations from it, each summed in row order as
// Pearson sums them.
type moments struct {
	name     string
	x        []float64
	nanFree  bool
	mean, ss float64
}

func newMoments(name string, x []float64) moments {
	m := moments{name: name, x: x}
	sum := 0.0
	for _, v := range x {
		if math.IsNaN(v) {
			return m
		}
		sum += v
	}
	m.nanFree = true
	if len(x) < 2 {
		return m
	}
	m.mean = sum / float64(len(x))
	for _, v := range x {
		d := v - m.mean
		m.ss += d * d
	}
	return m
}

// pearsonMoments returns Pearson(a.x, b.x) bit for bit. When both columns
// are NaN-free, Pearson's row count, means and sums of squares are the
// cached ones, and only the cross term is summed here, with Pearson's
// expressions in Pearson's order; otherwise it is Pearson itself.
func pearsonMoments(a, b moments) float64 {
	if !a.nanFree || !b.nanFree {
		return Pearson(a.x, b.x)
	}
	if len(a.x) < 2 {
		return 0
	}
	var cov float64
	for i := range a.x {
		da, db := a.x[i]-a.mean, b.x[i]-b.mean
		cov += da * db
	}
	if a.ss == 0 || b.ss == 0 {
		return 0
	}
	return cov / math.Sqrt(a.ss*b.ss)
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
