package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/expr"
)

// TransformSpec is the executable-transformation vocabulary the function
// generator compiles FM output into — the Go analogue of the dataframe
// built-in methods and lambda functions of §3.3.
type TransformSpec struct {
	// Kind selects the transformation family.
	Kind string `json:"kind"`
	// Input is the single input column (bucketize, minmax, standardize,
	// dummies, datesplit, mapvalues).
	Input string `json:"input,omitempty"`
	// Boundaries are bucketize cut points.
	Boundaries []float64 `json:"boundaries,omitempty"`
	// Expr is an arithmetic formula over columns (kind "expr").
	Expr string `json:"expr,omitempty"`
	// MaxLevels caps dummy expansion (kind "dummies"; 0 = default 10).
	MaxLevels int `json:"max_levels,omitempty"`
	// Group / Agg / Function describe a GroupbyThenAgg (kind "groupby").
	Group    []string `json:"group,omitempty"`
	Agg      string   `json:"agg,omitempty"`
	Function string   `json:"function,omitempty"`
	// Mapping carries an external-knowledge lookup table (kind "mapvalues").
	Mapping map[string]float64 `json:"mapping,omitempty"`
	// Source is a suggested external data source (kind "datasource").
	Source string `json:"source,omitempty"`
}

// Transform spec kinds.
const (
	KindBucketize   = "bucketize"
	KindMinMax      = "minmax"
	KindStandardize = "standardize"
	KindExpr        = "expr"
	KindDummies     = "dummies"
	KindDateSplit   = "datesplit"
	KindGroupBy     = "groupby"
	KindMapValues   = "mapvalues"
	KindRowLevel    = "rowlevel"
	KindDataSource  = "datasource"
)

// ParseSpec decodes and validates a transformation spec from FM output.
// Surrounding prose is tolerated as long as a JSON object is present
// (LLMs often wrap JSON in text).
func ParseSpec(text string) (TransformSpec, error) {
	var spec TransformSpec
	jsonPart := extractJSON(text)
	if jsonPart == "" {
		return spec, fmt.Errorf("core: no JSON object in function output %q", truncate(text, 120))
	}
	if err := json.Unmarshal([]byte(jsonPart), &spec); err != nil {
		return spec, fmt.Errorf("core: invalid transformation spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// Validate checks internal consistency of the spec.
func (s TransformSpec) Validate() error {
	switch s.Kind {
	case KindBucketize:
		if s.Input == "" || len(s.Boundaries) == 0 {
			return fmt.Errorf("core: bucketize spec needs input and boundaries")
		}
	case KindMinMax, KindStandardize, KindDummies, KindDateSplit:
		if s.Input == "" {
			return fmt.Errorf("core: %s spec needs input", s.Kind)
		}
	case KindExpr:
		if s.Expr == "" {
			return fmt.Errorf("core: expr spec needs a formula")
		}
		if _, err := expr.Compile(s.Expr); err != nil {
			return fmt.Errorf("core: expr spec does not compile: %w", err)
		}
	case KindGroupBy:
		if len(s.Group) == 0 || s.Agg == "" || s.Function == "" {
			return fmt.Errorf("core: groupby spec needs group, agg and function")
		}
		if !dataframe.ValidAgg(dataframe.AggFunc(s.Function)) {
			return fmt.Errorf("core: unsupported aggregation %q", s.Function)
		}
	case KindMapValues:
		if s.Input == "" || len(s.Mapping) == 0 {
			return fmt.Errorf("core: mapvalues spec needs input and mapping")
		}
	case KindRowLevel, KindDataSource:
		// No further requirements.
	default:
		return fmt.Errorf("core: unknown transformation kind %q", s.Kind)
	}
	return nil
}

// Apply materializes the spec on the frame, adding one or more columns named
// from base (multi-output kinds suffix it). It returns the added column
// names. Kinds rowlevel and datasource cannot be applied here (the pipeline
// handles them as scenarios 2 and 3 of §3.3).
func (s TransformSpec) Apply(f *dataframe.Frame, base string) ([]string, error) {
	switch s.Kind {
	case KindBucketize:
		vals, err := f.Bucketize(s.Input, s.Boundaries)
		if err != nil {
			return nil, err
		}
		return addOne(f, base, vals)
	case KindMinMax:
		vals, err := f.MinMaxScale(s.Input)
		if err != nil {
			return nil, err
		}
		return addOne(f, base, vals)
	case KindStandardize:
		vals, err := f.Standardize(s.Input)
		if err != nil {
			return nil, err
		}
		return addOne(f, base, vals)
	case KindExpr:
		e, err := expr.Compile(s.Expr)
		if err != nil {
			return nil, err
		}
		cols := make(map[string][]float64)
		for _, v := range e.Vars() {
			c := f.Column(v)
			if c == nil {
				return nil, fmt.Errorf("core: expr references missing column %q", v)
			}
			if c.Kind != dataframe.Numeric {
				return nil, fmt.Errorf("core: expr references non-numeric column %q", v)
			}
			cols[v] = c.Floats()
		}
		vals, err := e.EvalRows(cols)
		if err != nil {
			return nil, err
		}
		if len(vals) == 1 && f.Len() != 1 {
			return nil, fmt.Errorf("core: expr %q is constant", s.Expr)
		}
		return addOne(f, base, vals)
	case KindDummies:
		maxLevels := s.MaxLevels
		if maxLevels <= 0 {
			maxLevels = 10
		}
		dums, err := f.GetDummies(s.Input, maxLevels)
		if err != nil {
			return nil, err
		}
		var added []string
		for _, d := range dums {
			if f.Has(d.Name) {
				continue // re-runs of the same expansion
			}
			if err := f.Add(d); err != nil {
				return nil, err
			}
			added = append(added, d.Name)
		}
		if len(added) == 0 {
			return nil, fmt.Errorf("core: dummy expansion of %q added nothing", s.Input)
		}
		return added, nil
	case KindDateSplit:
		year, month, day, err := f.SplitDate(s.Input)
		if err != nil {
			return nil, err
		}
		names := []string{base + "_year", base + "_month", base + "_day"}
		for i, vals := range [][]float64{year, month, day} {
			if err := f.AddNumeric(names[i], vals); err != nil {
				return nil, err
			}
		}
		return names, nil
	case KindGroupBy:
		vals, err := f.GroupByTransform(s.Group, s.Agg, dataframe.AggFunc(s.Function))
		if err != nil {
			return nil, err
		}
		return addOne(f, base, vals)
	case KindMapValues:
		vals, err := f.MapValues(s.Input, s.Mapping)
		if err != nil {
			return nil, err
		}
		return addOne(f, base, vals)
	default:
		return nil, fmt.Errorf("core: kind %q is not directly applicable", s.Kind)
	}
}

func addOne(f *dataframe.Frame, name string, vals []float64) ([]string, error) {
	if err := f.AddNumeric(name, vals); err != nil {
		return nil, err
	}
	return []string{name}, nil
}

// extractJSON returns the first balanced {...} object in text.
func extractJSON(text string) string {
	start := strings.IndexByte(text, '{')
	if start < 0 {
		return ""
	}
	depth := 0
	inString := false
	escaped := false
	for i := start; i < len(text); i++ {
		c := text[i]
		if inString {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return text[start : i+1]
			}
		}
	}
	return ""
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
