package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fmgate"
)

// ComparisonMethods lists the comparison-grid cell methods in table row
// order: the initial evaluation plus every method. Together with the dataset
// list this spans the full (dataset × method) evaluation grid of Tables 4/5
// and the efficiency study.
func ComparisonMethods() []string {
	return append([]string{MethodInitial}, Methods()...)
}

// CellState classifies a grid cell's scheduling outcome. A *completed* cell
// may still hold a method-level failure (MethodResult.Err — the "-" cells of
// Tables 4/5); CellFailed means the cell's infrastructure errored (dataset
// load, store wiring); CellSkipped means it never started (fail-fast after
// another cell's failure, or run cancellation); CellElsewhere means another
// worker of a distributed run held the cell's live lease when this process
// finished — in progress, just not here.
type CellState int

const (
	CellCompleted CellState = iota
	CellFailed
	CellSkipped
	CellElsewhere
)

// CellFailure names one failed cell.
type CellFailure struct {
	Dataset string
	Method  string
	Err     error
}

func (f CellFailure) String() string {
	return fmt.Sprintf("%s × %s: %v", f.Dataset, f.Method, f.Err)
}

// RunError reports a partially-executed grid run, distinguishing cells that
// *failed* from cells that were merely *skipped* (fail-fast) or
// *interrupted* (cancellation), so the error says how much of the grid
// never ran and why.
type RunError struct {
	// Failed lists cells whose infrastructure errored.
	Failed []CellFailure
	// Skipped lists cells (as "dataset × method") that never started.
	Skipped []string
	// Interrupted lists cells aborted mid-execution by cancellation.
	Interrupted []string
	// Elsewhere lists cells held under other workers' live leases when this
	// process finished — in progress on the shared run directory, not here.
	// A later fold (another worker, or -resume) picks their artifacts up.
	Elsewhere []string
	// Cause is the context error when the run was cancelled.
	Cause error
}

// Error renders the failed/skipped/interrupted breakdown.
func (e *RunError) Error() string {
	var b strings.Builder
	switch {
	case len(e.Failed) > 0:
		fmt.Fprintf(&b, "%d cell(s) failed", len(e.Failed))
		if n := e.Degraded(); n > 0 {
			fmt.Fprintf(&b, " (%d degraded: FM backend pool fully circuit-open)", n)
		}
		for _, f := range e.Failed {
			fmt.Fprintf(&b, "; %s", f)
		}
	case e.Cause != nil:
		fmt.Fprintf(&b, "run interrupted: %v", e.Cause)
	default:
		b.WriteString("grid run incomplete")
	}
	if len(e.Interrupted) > 0 {
		fmt.Fprintf(&b, "; interrupted mid-cell: %s", strings.Join(e.Interrupted, ", "))
	}
	if len(e.Elsewhere) > 0 {
		fmt.Fprintf(&b, "; %d cell(s) in progress on other workers: %s", len(e.Elsewhere), strings.Join(e.Elsewhere, ", "))
	}
	if len(e.Skipped) > 0 {
		fmt.Fprintf(&b, "; skipped %d unstarted cell(s): %s", len(e.Skipped), strings.Join(e.Skipped, ", "))
	}
	return b.String()
}

// Degraded counts failed cells that died on a fully circuit-open FM backend
// pool — infrastructure degradation, not a property of the dataset × method
// cell. A -keep-going run reports them distinctly so the operator knows the
// failures share one cause.
func (e *RunError) Degraded() int {
	n := 0
	for _, f := range e.Failed {
		if fmgate.IsAllBackendsOpen(f.Err) {
			n++
		}
	}
	return n
}

// Unwrap exposes the cancellation cause or the first failure, so
// errors.Is(err, context.Canceled) works on interrupted runs.
func (e *RunError) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	if len(e.Failed) > 0 {
		return e.Failed[0].Err
	}
	return nil
}

// RunCell executes one (dataset × method) cell of the evaluation grid:
// load the dataset, run the method, evaluate. Cells are self-contained — the
// dataset is regenerated from cfg.Seed and every method derives its
// randomness from fixed per-cell seeds — so any scheduling of cells
// (sequential, worker pool, resumed across processes) produces bit-identical
// results. The returned error covers cell infrastructure only (unknown
// dataset/method); method-level failures stay in MethodResult.Err, which is
// a legitimate result (the "-" cells of Tables 4/5). One exception is
// promoted: a fully circuit-open FM backend pool is transport degradation,
// not a verdict on the method, so it fails the cell loudly (breaker state in
// the error) instead of being persisted as a bogus "-" artifact.
func RunCell(ctx context.Context, dataset, method string, cfg Config) (MethodResult, error) {
	d, err := datasets.Load(dataset, cfg.Seed)
	if err != nil {
		return MethodResult{Method: method}, err
	}
	res, err := runMethodOn(ctx, d, d.Frame.DropNA(), method, cfg)
	if err == nil && fmgate.IsAllBackendsOpen(res.Err) {
		return res, res.Err
	}
	return res, err
}

// runMethodOn dispatches one method cell on an already-loaded dataset (the
// shared path between RunCell and Table6Cell).
func runMethodOn(ctx context.Context, d *datasets.Dataset, clean *dataframe.Frame, method string, cfg Config) (MethodResult, error) {
	switch method {
	case MethodInitial:
		r := MethodResult{Method: MethodInitial}
		r.AUCs, r.FailedModels, r.Err = EvaluateFrame(ctx, clean, d.Target, cfg.Models, cfg)
		return r, nil
	case MethodSmartfeat:
		return RunSmartfeat(ctx, d, clean, cfg, core.AllOperators()), nil
	case MethodCAAFE:
		return RunCAAFE(ctx, d, clean, cfg), nil
	case MethodFeaturetools:
		return RunFeaturetools(ctx, d, clean, cfg), nil
	case MethodAutoFeat:
		return RunAutoFeat(ctx, d, clean, cfg), nil
	default:
		return MethodResult{Method: method}, fmt.Errorf("experiments: unknown method %q", method)
	}
}

// Interrupted reports whether a method result was aborted by cancellation
// rather than completing or failing on its own terms. Interrupted cells must
// not be folded into tables or persisted as artifacts — they rerun on
// resume.
func (m *MethodResult) Interrupted() bool {
	return m.Err != nil && (errors.Is(m.Err, context.Canceled) || errors.Is(m.Err, context.DeadlineExceeded))
}
