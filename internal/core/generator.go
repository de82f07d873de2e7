package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
	"smartfeat/internal/par"
)

// FeatureStatus records what happened to a candidate (§3.3's three scenarios
// plus the verification outcome).
type FeatureStatus string

// Candidate outcomes.
const (
	// StatusAdded: a transformation function was derived and applied.
	StatusAdded FeatureStatus = "added"
	// StatusRowLevel: computed through per-row FM completions (scenario 2).
	StatusRowLevel FeatureStatus = "row-level"
	// StatusRowLevelSkipped: row-level completion would exceed the user's
	// cost budget; example values were produced instead.
	StatusRowLevelSkipped FeatureStatus = "row-level-skipped"
	// StatusDataSource: no function exists; an external source was suggested
	// (scenario 3).
	StatusDataSource FeatureStatus = "data-source"
	// StatusFailed: the FM's output could not be turned into a working
	// transformation (counts toward the generation-error threshold).
	StatusFailed FeatureStatus = "failed"
	// StatusFiltered: applied but removed by the verification step.
	StatusFiltered FeatureStatus = "filtered"
)

// GeneratedFeature is the pipeline's record of one candidate's fate.
type GeneratedFeature struct {
	Candidate Candidate
	Status    FeatureStatus
	// Columns actually added to the frame (dummies/datesplit add several).
	Columns []string
	// Spec is the executed transformation, when one was derived.
	Spec *TransformSpec
	// Detail carries failure reasons, data-source suggestions or row-level
	// examples.
	Detail string
}

// Generator is the function generator (component ② of Figure 1): it turns a
// candidate into an executable transformation by interacting with the
// generator FM, and applies it to the dataset.
type Generator struct {
	model  fm.Model
	dsName string
	// RowLevelBudgetUSD gates scenario 2: if completing every row would cost
	// more than this (simulated dollars), only example values are produced
	// and the user decides (§3.3). Zero means never run full row-level.
	RowLevelBudgetUSD float64
	// RowExamples is how many example rows to complete when skipping.
	RowExamples int
	// sources names the data-source suggestions made so far. They add no
	// column for the frame to hold, so a repeat is caught here.
	sources map[string]bool
}

// NewGenerator builds a function generator over the given FM.
func NewGenerator(model fm.Model, downstreamModel string) *Generator {
	return &Generator{model: model, dsName: downstreamModel, RowExamples: 3}
}

// Realize obtains a transformation for the candidate and applies it to the
// frame, implementing the three scenarios of §3.3. The returned feature's
// Status reports the outcome; StatusFailed results carry the reason.
func (g *Generator) Realize(ctx context.Context, f *dataframe.Frame, a *Agenda, c Candidate) GeneratedFeature {
	out := GeneratedFeature{Candidate: c}
	if f.Has(c.Name) {
		out.Status = StatusFailed
		out.Detail = fmt.Sprintf("duplicate feature name %q", c.Name)
		return out
	}
	spec := c.Spec
	if spec == nil {
		resp, err := g.model.Complete(ctx, functionPrompt(a, g.dsName, c))
		if err != nil {
			out.Status = StatusFailed
			out.Detail = err.Error()
			return out
		}
		parsed, err := ParseSpec(resp)
		if err != nil {
			out.Status = StatusFailed
			out.Detail = err.Error()
			return out
		}
		spec = &parsed
	}
	out.Spec = spec
	switch spec.Kind {
	case KindRowLevel:
		return g.realizeRowLevel(ctx, f, c, out)
	case KindDataSource:
		if g.sources[c.Name] {
			out.Status = StatusFailed
			out.Detail = fmt.Sprintf("duplicate feature name %q", c.Name)
			return out
		}
		if g.sources == nil {
			g.sources = make(map[string]bool)
		}
		g.sources[c.Name] = true
		out.Status = StatusDataSource
		out.Detail = spec.Source
		if out.Detail == "" {
			out.Detail = c.Description
		}
		return out
	}
	added, err := spec.Apply(f, c.Name)
	if err != nil {
		out.Status = StatusFailed
		out.Detail = err.Error()
		return out
	}
	out.Status = StatusAdded
	out.Columns = added
	return out
}

// realizeRowLevel handles scenario 2: derive the feature by serializing each
// row and asking the FM for the masked value. The full pass only runs inside
// the user's cost budget; otherwise a handful of examples is produced so the
// user can judge whether the feature is worth the spend.
func (g *Generator) realizeRowLevel(ctx context.Context, f *dataframe.Frame, c Candidate, out GeneratedFeature) GeneratedFeature {
	perCall := estimateRowCallCost(g.model, f, c)
	total := perCall * float64(f.Len())
	if g.RowLevelBudgetUSD > 0 && total <= g.RowLevelBudgetUSD {
		vals, err := CompleteRows(ctx, g.model, f, c.Name, f.Len())
		if err != nil {
			out.Status = StatusFailed
			out.Detail = err.Error()
			return out
		}
		if err := f.AddNumeric(c.Name, vals); err != nil {
			out.Status = StatusFailed
			out.Detail = err.Error()
			return out
		}
		out.Status = StatusRowLevel
		out.Columns = []string{c.Name}
		return out
	}
	n := g.RowExamples
	if n <= 0 {
		n = 3
	}
	if n > f.Len() {
		n = f.Len()
	}
	examples, err := CompleteRows(ctx, g.model, f, c.Name, n)
	detail := fmt.Sprintf("estimated cost $%.2f for %d rows exceeds budget $%.2f",
		total, f.Len(), g.RowLevelBudgetUSD)
	if err == nil {
		strs := make([]string, len(examples))
		for i, v := range examples {
			strs[i] = strconv.FormatFloat(v, 'g', 6, 64)
		}
		detail += "; examples: " + strings.Join(strs, ", ")
	}
	out.Status = StatusRowLevelSkipped
	out.Detail = detail
	return out
}

// estimateRowCallCost predicts the simulated cost of one row completion by
// sizing the serialized-row prompt (token estimate × published pricing).
func estimateRowCallCost(model fm.Model, f *dataframe.Frame, c Candidate) float64 {
	if f.Len() == 0 {
		return 0
	}
	prompt := rowPrompt(c.Name, f, 0)
	pt := fm.EstimateTokens(prompt)
	ct := 4 // short numeric answer
	pricing := fm.GPT35Pricing
	if strings.Contains(model.Name(), "gpt-4") {
		pricing = fm.GPT4Pricing
	}
	return float64(pt)/1000*pricing.PromptPer1k + float64(ct)/1000*pricing.CompletionPer1k
}

// CompleteRows performs row-level FM completions for the first n rows of the
// frame, returning the parsed numeric values (NaN where the FM's answer is
// not numeric). It is also the row-level interaction workload of the
// Figure 1 efficiency comparison. A negative n is an error; an n beyond the
// frame completes every row.
//
// Rows run on par.Run with min(n, model.Concurrency()) workers when the
// model is an fm.Concurrent (an fmgate gateway), and with one otherwise, so
// a plain model sees its rows in order. A gateway gets as many workers as
// it admits upstream calls, so the paper's cost worst case (scenario 2, one
// call per row) stops paying its latency serially, and no worker only
// queues on the gateway. Each worker refills its own prompt buffer. A
// failure names the lowest failing row; if the caller cancels, the
// context's error is returned. The result does not depend on the worker
// count: row completions are deterministic per row content (the simulated
// FM derives even its error injection for this task from the prompt).
func CompleteRows(ctx context.Context, model fm.Model, f *dataframe.Frame, feature string, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: cannot complete n = %d rows", n)
	}
	n = min(n, f.Len())
	window := 1
	if c, ok := model.(fm.Concurrent); ok {
		window = c.Concurrency()
	}
	out := make([]float64, n)
	tmpl := newRowTemplate(feature)
	bufs := make([][]byte, par.Workers(window, n))
	err := par.Run(ctx, window, n, func(ctx context.Context, w, i int) error {
		bufs[w] = tmpl.append(bufs[w][:0], f, i)
		resp, err := model.Complete(ctx, string(bufs[w]))
		if err != nil {
			return fmt.Errorf("core: row %d completion: %w", i, err)
		}
		out[i] = parseRowValue(resp)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseRowValue reads the FM's answer for one masked value (NaN when the
// answer is not numeric — downstream imputation handles it).
func parseRowValue(resp string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(resp), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
