// Package featuretools reimplements the DSM/Featuretools baseline the paper
// compares against (§4.1): exhaustive application of the add_numeric and
// multiply_numeric transform primitives plus group-by aggregation
// primitives, followed by the library's standard feature selection
// (removing highly correlated, highly null and single-valued features).
// The expansion is deliberately context-agnostic — the property that makes
// it generate many non-meaningful features on datasets whose signal is not
// additive/multiplicative (e.g. the ratio-driven Housing dataset).
package featuretools

import (
	"fmt"
	"time"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/featselect"
)

// Config controls the expansion and selection. Start from DefaultConfig:
// Run fills no zero field.
type Config struct {
	// AddNumeric enables pairwise sums (the add_numeric primitive).
	AddNumeric bool
	// MultiplyNumeric enables pairwise products (multiply_numeric).
	MultiplyNumeric bool
	// AggPrimitives enables group-by mean/max features over categorical
	// columns (the agg_primitive family).
	AggPrimitives bool
	// MaxGroupCardinality bounds group-by key cardinality (50 in
	// DefaultConfig).
	MaxGroupCardinality int
	// MaxAbsCorrelation is the selection threshold (0.95 in DefaultConfig).
	MaxAbsCorrelation float64
}

// DefaultConfig mirrors the paper's setup: "add_numeric", "multiply_numeric"
// and "agg_primitive" with default settings otherwise. On a single-table
// entityset the reference library's aggregation primitives have no
// parent-child relationship to aggregate over and produce nothing, so they
// default off here; enable AggPrimitives to emulate a normalized entityset.
func DefaultConfig() Config {
	return Config{
		AddNumeric:          true,
		MultiplyNumeric:     true,
		AggPrimitives:       false,
		MaxGroupCardinality: 50,
		MaxAbsCorrelation:   0.95,
	}
}

// Result reports a Featuretools run.
type Result struct {
	// Frame is the augmented dataset after selection.
	Frame *dataframe.Frame
	// Generated counts all produced candidate features.
	Generated int
	// Selected counts the features surviving selection.
	Selected int
	// NewColumns lists the surviving feature names.
	NewColumns []string
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// Run expands and selects features. The input frame is not mutated.
func Run(input *dataframe.Frame, target string, cfg Config) (*Result, error) {
	start := time.Now()
	if !input.Has(target) {
		return nil, fmt.Errorf("featuretools: target %q not in frame", target)
	}
	f := input.Clone()
	var numeric []string
	var categorical []string
	for _, name := range f.Names() {
		if name == target {
			continue
		}
		if f.Column(name).Kind == dataframe.Numeric {
			numeric = append(numeric, name)
		} else {
			categorical = append(categorical, name)
		}
	}
	// Selection: the library's default post-processing, applied to each
	// candidate as it is made. A kept candidate joins the frame; a rejected
	// one's values become the buffer the next candidate is written into, so
	// the run holds only what it keeps.
	sel := featselect.NewSelector(f, f.Names(), nil, featselect.FilterOptions{
		MaxNullFrac:       0.5,
		DropSingleValued:  true,
		MaxAbsCorrelation: cfg.MaxAbsCorrelation,
	})
	made := make(map[string]bool)
	var kept []string
	var spare []float64
	consider := func(name string, vals []float64) {
		if f.Has(name) || made[name] {
			spare = vals
			return
		}
		made[name] = true
		col := dataframe.NewNumeric(name, vals)
		if sel.Check(col) != "" {
			spare = vals
			return
		}
		_ = f.Add(col) // a new name, as long as the frame: Add cannot fail
		kept = append(kept, name)
	}
	buffer := func() []float64 {
		if vals := spare; vals != nil {
			spare = nil
			return vals
		}
		return make([]float64, f.Len())
	}
	// Transform primitives: exhaustive over numeric pairs, no context.
	for i := 0; i < len(numeric); i++ {
		for j := i + 1; j < len(numeric); j++ {
			a, b := f.Column(numeric[i]), f.Column(numeric[j])
			if cfg.AddNumeric {
				vals := buffer()
				for k := range vals {
					vals[k] = a.Nums[k] + b.Nums[k]
				}
				consider(fmt.Sprintf("%s + %s", numeric[i], numeric[j]), vals)
			}
			if cfg.MultiplyNumeric {
				vals := buffer()
				for k := range vals {
					vals[k] = a.Nums[k] * b.Nums[k]
				}
				consider(fmt.Sprintf("%s * %s", numeric[i], numeric[j]), vals)
			}
		}
	}
	// Aggregation primitives over every categorical key.
	if cfg.AggPrimitives {
		for _, cat := range categorical {
			if f.Column(cat).Cardinality() > cfg.MaxGroupCardinality {
				continue
			}
			for _, num := range numeric {
				for _, fn := range []dataframe.AggFunc{dataframe.AggMean, dataframe.AggMax} {
					vals, err := f.GroupByTransform([]string{cat}, num, fn)
					if err != nil {
						continue
					}
					consider(fmt.Sprintf("%s(%s) by %s", fn, num, cat), vals)
				}
			}
		}
	}
	return &Result{
		Frame:      f,
		Generated:  len(made),
		Selected:   len(kept),
		NewColumns: kept,
		Elapsed:    time.Since(start),
	}, nil
}
