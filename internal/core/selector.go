package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"smartfeat/internal/fm"
)

// Operator family labels (§3.2).
const (
	OpFamilyUnary     = "unary"
	OpFamilyBinary    = "binary"
	OpFamilyHighOrder = "high-order"
	OpFamilyExtractor = "extractor"
)

// Candidate is the operator selector's output for one prospective feature:
// the (i) name, (ii) relevant columns and (iii) description of §3.1, plus
// the operator that produced it.
type Candidate struct {
	// Name of the new feature.
	Name string
	// Inputs are the relevant columns.
	Inputs []string
	// Description is the natural-language feature description.
	Description string
	// Family is the operator family (unary/binary/high-order/extractor).
	Family string
	// Operator is the concrete operator (bucketize, divide, groupby, …).
	Operator string
	// Spec is pre-filled for candidates whose transformation is fully
	// determined by the selector output (high-order features — §3.3 notes
	// the function generator needs no FM interaction for those).
	Spec *TransformSpec
}

// Selector is the operator selector (component ① of Figure 1): it holds the
// prompt templates and talks to the selector FM.
type Selector struct {
	model  fm.Model
	dsName string // downstream model name for prompts
}

// NewSelector builds an operator selector over the given FM.
func NewSelector(model fm.Model, downstreamModel string) *Selector {
	return &Selector{model: model, dsName: downstreamModel}
}

// unaryProposal is one parsed line of the proposal-strategy output.
type unaryProposal struct {
	Operator    string
	Confidence  string
	Description string
}

// knownUnaryOps is the operator vocabulary the selector accepts from the FM.
var knownUnaryOps = map[string]bool{
	"bucketize": true, "normalize": true, "standardize": true, "log": true,
	"get_dummies": true, "date_split": true, "years_since": true,
}

// ProposeUnary prompts for unary operators on one attribute and returns the
// proposals the FM is confident about (certain/high), as §3.2 specifies.
func (s *Selector) ProposeUnary(ctx context.Context, a *Agenda, attribute string) ([]Candidate, error) {
	resp, err := s.model.Complete(ctx, unaryPrompt(a, s.dsName, attribute))
	if err != nil {
		return nil, err
	}
	proposals, err := parseUnaryProposals(resp)
	if err != nil {
		return nil, err
	}
	var out []Candidate
	for _, p := range proposals {
		if p.Confidence != "certain" && p.Confidence != "high" {
			continue
		}
		if !knownUnaryOps[p.Operator] {
			continue // unknown vocabulary counts as nothing proposed
		}
		out = append(out, Candidate{
			// Feature name convention: "OpName_OrgAttr" (§3.2).
			Name:        fmt.Sprintf("%s_%s", strings.Title(p.Operator), sanitize(attribute)),
			Inputs:      []string{attribute},
			Description: p.Description,
			Family:      OpFamilyUnary,
			Operator:    p.Operator,
		})
	}
	return out, nil
}

// parseUnaryProposals reads "operator (confidence): description" lines.
func parseUnaryProposals(resp string) ([]unaryProposal, error) {
	var out []unaryProposal
	for _, line := range strings.Split(resp, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		open := strings.Index(line, " (")
		close := strings.Index(line, "): ")
		if open < 0 || close < 0 || close < open {
			continue // prose lines are ignored, like an LLM's preamble
		}
		out = append(out, unaryProposal{
			Operator:    strings.ToLower(strings.TrimSpace(line[:open])),
			Confidence:  strings.ToLower(strings.TrimSpace(line[open+2 : close])),
			Description: strings.TrimSpace(line[close+3:]),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no parseable proposals in %q", truncate(resp, 120))
	}
	return out, nil
}

// SampleBinary draws one binary-operator candidate via the sampling strategy.
func (s *Selector) SampleBinary(ctx context.Context, a *Agenda) (Candidate, error) {
	resp, err := s.model.Complete(ctx, binaryPrompt(a, s.dsName))
	if err != nil {
		return Candidate{}, err
	}
	var sample struct {
		Op          string `json:"op"`
		Left        string `json:"left"`
		Right       string `json:"right"`
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	jsonPart := extractJSON(resp)
	if jsonPart == "" {
		return Candidate{}, fmt.Errorf("core: binary sample is not JSON: %q", truncate(resp, 120))
	}
	if err := json.Unmarshal([]byte(jsonPart), &sample); err != nil {
		return Candidate{}, fmt.Errorf("core: binary sample malformed: %w", err)
	}
	switch sample.Op {
	case "add", "subtract", "multiply", "divide":
	default:
		return Candidate{}, fmt.Errorf("core: binary sample has invalid op %q", sample.Op)
	}
	for _, col := range []string{sample.Left, sample.Right} {
		if !a.Has(col) {
			return Candidate{}, fmt.Errorf("core: binary sample references unknown column %q", col)
		}
	}
	name := sample.Name
	if name == "" {
		name = fmt.Sprintf("%s_%s_%s", sanitize(sample.Left), sample.Op, sanitize(sample.Right))
	}
	desc := sample.Description
	if desc == "" {
		desc = fmt.Sprintf("%s of %s and %s", sample.Op, sample.Left, sample.Right)
	}
	return Candidate{
		Name:        sanitize(name),
		Inputs:      []string{sample.Left, sample.Right},
		Description: desc,
		Family:      OpFamilyBinary,
		Operator:    sample.Op,
	}, nil
}

// SampleHighOrder draws one GroupbyThenAgg candidate. Its transformation is
// fully determined by the selector output, so Spec is pre-filled and the
// function generator will skip the FM (§3.3).
func (s *Selector) SampleHighOrder(ctx context.Context, a *Agenda) (Candidate, error) {
	resp, err := s.model.Complete(ctx, highOrderPrompt(a, s.dsName))
	if err != nil {
		return Candidate{}, err
	}
	var sample struct {
		GroupbyCol []string `json:"groupby_col"`
		AggCol     string   `json:"agg_col"`
		Function   string   `json:"function"`
	}
	jsonPart := extractJSON(resp)
	if jsonPart == "" {
		return Candidate{}, fmt.Errorf("core: high-order sample is not JSON: %q", truncate(resp, 120))
	}
	if err := json.Unmarshal([]byte(jsonPart), &sample); err != nil {
		return Candidate{}, fmt.Errorf("core: high-order sample malformed: %w", err)
	}
	if len(sample.GroupbyCol) == 0 || sample.AggCol == "" {
		return Candidate{}, fmt.Errorf("core: high-order sample incomplete: %+v", sample)
	}
	for _, col := range append(append([]string(nil), sample.GroupbyCol...), sample.AggCol) {
		if !a.Has(col) {
			return Candidate{}, fmt.Errorf("core: high-order sample references unknown column %q", col)
		}
	}
	spec := TransformSpec{
		Kind:     KindGroupBy,
		Group:    sample.GroupbyCol,
		Agg:      sample.AggCol,
		Function: sample.Function,
	}
	if err := spec.Validate(); err != nil {
		return Candidate{}, err
	}
	// Feature name convention: "GroupBy_Gcol_func_Acol" (§3.2).
	name := fmt.Sprintf("GroupBy_%s_%s_%s",
		sanitize(strings.Join(sample.GroupbyCol, "_")), sample.Function, sanitize(sample.AggCol))
	return Candidate{
		Name:   name,
		Inputs: append(append([]string(nil), sample.GroupbyCol...), sample.AggCol),
		Description: fmt.Sprintf("df.groupby(%s)[%s].transform(%s)",
			strings.Join(sample.GroupbyCol, ", "), sample.AggCol, sample.Function),
		Family:   OpFamilyHighOrder,
		Operator: "groupby",
		Spec:     &spec,
	}, nil
}

// SampleExtractor draws one extractor candidate.
func (s *Selector) SampleExtractor(ctx context.Context, a *Agenda) (Candidate, error) {
	resp, err := s.model.Complete(ctx, extractorPrompt(a, s.dsName))
	if err != nil {
		return Candidate{}, err
	}
	var sample struct {
		Kind        string   `json:"kind"`
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Columns     []string `json:"columns"`
	}
	jsonPart := extractJSON(resp)
	if jsonPart == "" {
		return Candidate{}, fmt.Errorf("core: extractor sample is not JSON: %q", truncate(resp, 120))
	}
	if err := json.Unmarshal([]byte(jsonPart), &sample); err != nil {
		return Candidate{}, fmt.Errorf("core: extractor sample malformed: %w", err)
	}
	if sample.Name == "" {
		return Candidate{}, fmt.Errorf("core: extractor sample missing name")
	}
	for _, col := range sample.Columns {
		if !a.Has(col) {
			return Candidate{}, fmt.Errorf("core: extractor sample references unknown column %q", col)
		}
	}
	c := Candidate{
		Name:        sanitize(sample.Name),
		Inputs:      sample.Columns,
		Description: sample.Description,
		Family:      OpFamilyExtractor,
		Operator:    "extractor",
	}
	// The selector output already determines the transformation for
	// row-level and data-source candidates — no function-generator FM call
	// is needed for those (§3.3 scenarios 2 and 3).
	switch sample.Kind {
	case "rowlevel":
		c.Spec = &TransformSpec{Kind: KindRowLevel}
	case "datasource":
		c.Spec = &TransformSpec{Kind: KindDataSource, Source: sample.Description}
	}
	return c, nil
}

// sanitize makes a generated feature name safe as a column identifier.
func sanitize(name string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '=':
			return r
		default:
			return '_'
		}
	}, name)
	if out == "" {
		return "_feature"
	}
	return out
}
