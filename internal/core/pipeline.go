package core

import (
	"context"
	"fmt"
	"time"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/featselect"
	"smartfeat/internal/fm"
)

// OperatorSet toggles operator families — the knob behind the Table 7
// ablation ("+Unary", "+Binary", …).
type OperatorSet struct {
	Unary     bool
	Binary    bool
	HighOrder bool
	Extractor bool
}

// AllOperators enables every family (the full SMARTFEAT configuration).
func AllOperators() OperatorSet {
	return OperatorSet{Unary: true, Binary: true, HighOrder: true, Extractor: true}
}

// Options configures a SMARTFEAT run. The three §3.1 inputs are the target
// (prediction class), the data card (descriptions) and the downstream model.
type Options struct {
	// Target is the prediction-class column (must exist in the frame).
	Target string
	// TargetDescription describes the class for prompts.
	TargetDescription string
	// Descriptions is the data card (column → description). Missing entries
	// degrade to name-only prompts (§4.2's minimal-input regime).
	Descriptions map[string]string
	// Model names the downstream classifier shown to the FM (e.g. "RF").
	Model string
	// SelectorFM is the operator-selector model (GPT-4 in the paper).
	SelectorFM fm.Model
	// GeneratorFM is the function-generator model (GPT-3.5-turbo).
	GeneratorFM fm.Model
	// SamplingBudget bounds each sampling-strategy operator family
	// (default 10, the paper's setting).
	SamplingBudget int
	// Operators selects the enabled families (default: all).
	Operators OperatorSet
	// RowLevelBudgetUSD gates full row-level completion (scenario 2).
	RowLevelBudgetUSD float64
}

// errorThreshold stops a sampling family after this many invalid or
// repeated generations.
const errorThreshold = 5

// applyDefaults fills the paper's default settings.
func (o *Options) applyDefaults() {
	if o.SamplingBudget <= 0 {
		o.SamplingBudget = 10
	}
	if o.Model == "" {
		o.Model = "RF"
	}
	if (o.Operators == OperatorSet{}) {
		o.Operators = AllOperators()
	}
}

// Result is a completed SMARTFEAT run.
type Result struct {
	// Frame is the augmented dataset (verification already applied).
	Frame *dataframe.Frame
	// Features records every candidate's fate, in generation order.
	Features []GeneratedFeature
	// DroppedOriginals lists original features removed by the heuristic.
	DroppedOriginals []string
	// FilterReport is the verification outcome.
	FilterReport featselect.FilterReport
	// SelectorUsage / GeneratorUsage account the FM interactions.
	SelectorUsage, GeneratorUsage fm.Usage
	// Errors counts invalid/repeated generations per family.
	Errors map[string]int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// AddedColumns lists every new column that survived verification, in order.
func (r *Result) AddedColumns() []string {
	var out []string
	for _, g := range r.Features {
		if g.Status != StatusAdded && g.Status != StatusRowLevel {
			continue
		}
		for _, c := range g.Columns {
			if r.Frame.Has(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// Suggestions lists data-source suggestions produced by scenario 3.
func (r *Result) Suggestions() []string {
	var out []string
	for _, g := range r.Features {
		if g.Status == StatusDataSource {
			out = append(out, fmt.Sprintf("%s: %s", g.Candidate.Name, g.Detail))
		}
	}
	return out
}

// Run executes the SMARTFEAT pipeline on a copy of the input frame:
// unary proposals over every original feature, then sampled binary,
// high-order and extractor candidates over the enriched agenda, then the
// drop heuristic and the verification filter (§3.2-3.3).
func Run(input *dataframe.Frame, opts Options) (*Result, error) {
	return RunContext(context.Background(), input, opts)
}

// RunContext is Run with cancellation: the context is threaded through every
// FM interaction, so a deadline or an interrupt aborts in-flight calls. On
// cancellation it returns the partial Result built so far — with the usage
// accounting of the spend up to that point — alongside the context's error,
// letting callers report what an aborted run cost. A frame with no rows is
// refused before the first prompt: there is nothing to construct on.
func RunContext(ctx context.Context, input *dataframe.Frame, opts Options) (*Result, error) {
	start := time.Now()
	opts.applyDefaults()
	if opts.SelectorFM == nil || opts.GeneratorFM == nil {
		return nil, fmt.Errorf("core: both SelectorFM and GeneratorFM are required")
	}
	if !input.Has(opts.Target) {
		return nil, fmt.Errorf("core: target column %q not in frame", opts.Target)
	}
	if input.Len() == 0 {
		return nil, fmt.Errorf("core: the frame has %d rows, need at least 1", input.Len())
	}
	opts.SelectorFM.ResetUsage()
	opts.GeneratorFM.ResetUsage()

	f := input.Clone()
	agenda := NewAgenda(f, opts.Target, opts.TargetDescription, opts.Descriptions)
	selector := NewSelector(opts.SelectorFM, opts.Model)
	generator := NewGenerator(opts.GeneratorFM, opts.Model)
	generator.RowLevelBudgetUSD = opts.RowLevelBudgetUSD

	res := &Result{Frame: f, Errors: make(map[string]int)}
	originals := agenda.Columns()
	unaryTransformed := make(map[string]bool) // original → had a unary feature
	reused := make(map[string]bool)           // original → used by a non-unary feature
	dummySource := make(map[string]int)       // dummy column → source cardinality
	var newColumns []string

	// finish closes out the run — shared by normal completion and
	// cancellation, so an interrupted run still reports the usage of the
	// spend up to the abort.
	finish := func(err error) (*Result, error) {
		res.SelectorUsage = opts.SelectorFM.Usage()
		res.GeneratorUsage = opts.GeneratorFM.Usage()
		res.Elapsed = time.Since(start)
		return res, err
	}

	// realize applies a candidate and performs the shared bookkeeping.
	realize := func(c Candidate) GeneratedFeature {
		g := generator.Realize(ctx, f, agenda, c)
		if g.Status == StatusAdded || g.Status == StatusRowLevel {
			sourceCard := -1 // the dummies' source cardinality, if any
			if g.Spec != nil && g.Spec.Kind == KindDummies {
				if src := f.Column(g.Spec.Input); src != nil {
					sourceCard = src.Cardinality()
				}
			}
			for _, col := range g.Columns {
				desc := g.Candidate.Description
				if len(g.Columns) > 1 {
					desc = fmt.Sprintf("%s (component %s)", g.Candidate.Description, col)
				}
				if err := agenda.Add(col, desc); err != nil {
					g.Status = StatusFailed
					g.Detail = err.Error()
					break
				}
				newColumns = append(newColumns, col)
				if sourceCard >= 0 {
					dummySource[col] = sourceCard
				}
			}
		}
		res.Features = append(res.Features, g)
		return g
	}

	// Phase 1: unary operators on every original feature via the proposal
	// strategy.
	if opts.Operators.Unary {
		for _, attr := range originals {
			if ctx.Err() != nil {
				return finish(ctx.Err())
			}
			cands, err := selector.ProposeUnary(ctx, agenda, attr)
			if err != nil {
				res.Errors[OpFamilyUnary]++
				continue
			}
			for _, c := range cands {
				// Check between candidates too, not just between attributes:
				// a grid cell cancelled mid-attribute (Ctrl-C on a resumable
				// run) should stop realizing candidates promptly instead of
				// finishing the whole proposal batch.
				if ctx.Err() != nil {
					return finish(ctx.Err())
				}
				g := realize(c)
				if g.Status == StatusAdded {
					unaryTransformed[attr] = true
				} else if g.Status == StatusFailed {
					res.Errors[OpFamilyUnary]++
				}
			}
		}
	}

	// Phases 2-4: sampling-strategy families over the enriched agenda.
	sampleFamily := func(family string, sample func() (Candidate, error)) {
		errors := 0
		for i := 0; i < opts.SamplingBudget && errors < errorThreshold; i++ {
			if ctx.Err() != nil {
				return
			}
			c, err := sample()
			if err != nil {
				errors++
				res.Errors[family]++
				continue
			}
			g := realize(c)
			if g.Status == StatusFailed {
				errors++
				res.Errors[family]++
				continue
			}
			if g.Status == StatusAdded || g.Status == StatusRowLevel {
				// Track reuse of originals by non-unary operators for the
				// drop heuristic.
				for _, in := range g.Candidate.Inputs {
					reused[in] = true
				}
			}
		}
	}
	if opts.Operators.Binary {
		sampleFamily(OpFamilyBinary, func() (Candidate, error) { return selector.SampleBinary(ctx, agenda) })
	}
	if opts.Operators.HighOrder {
		sampleFamily(OpFamilyHighOrder, func() (Candidate, error) { return selector.SampleHighOrder(ctx, agenda) })
	}
	if opts.Operators.Extractor {
		sampleFamily(OpFamilyExtractor, func() (Candidate, error) { return selector.SampleExtractor(ctx, agenda) })
	}
	if ctx.Err() != nil {
		// Interrupted mid-sampling: skip the drop/verify post-passes and
		// surface the partial result with its accounting.
		return finish(ctx.Err())
	}

	// Drop heuristic (§3.2): originals that were unary-transformed and never
	// fed any other operator are considered superseded.
	for _, attr := range originals {
		if unaryTransformed[attr] && !reused[attr] && f.Has(attr) {
			f.Drop(attr)
			agenda.Remove(attr)
			res.DroppedOriginals = append(res.DroppedOriginals, attr)
		}
	}

	// Verification (§3.3): drop highly-null, single-valued and
	// high-cardinality-dummy features.
	protect := map[string]bool{opts.Target: true}
	for _, orig := range originals {
		protect[orig] = true
	}
	res.FilterReport = featselect.VerifyFeatures(f, newColumns, protect, dummySource, featselect.DefaultFilterOptions())
	for _, d := range res.FilterReport.Dropped {
		agenda.Remove(d.Name)
		for i := range res.Features {
			g := &res.Features[i]
			for _, col := range g.Columns {
				if col == d.Name && g.Status == StatusAdded {
					g.Status = StatusFiltered
					if g.Detail != "" {
						g.Detail += "; "
					}
					g.Detail += fmt.Sprintf("%s: %s", d.Name, d.Reason)
				}
			}
		}
	}

	return finish(nil)
}
