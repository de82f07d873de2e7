package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/featselect"
	"smartfeat/internal/metrics"
)

// Table3String renders the dataset-statistics table.
func Table3String(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Dataset statistics.\n")
	fmt.Fprintf(&b, "%-17s %12s %12s %10s  %s\n", "", "# cat. attr", "# num. attr", "# rows", "field")
	for _, row := range datasets.Table3(cfg.Seed) {
		fmt.Fprintf(&b, "%-17s %12d %12d %10d  %s\n", row.Name, row.NumCat, row.NumNum, row.Rows, row.Field)
	}
	return b.String()
}

// ComparisonTable holds the Tables 4/5 grid: per dataset, per method, the
// aggregated AUC (or a miss marker).
type ComparisonTable struct {
	// Aggregate is "average" or "median".
	Aggregate string
	Datasets  []string
	// Initial maps dataset → aggregated initial AUC.
	Initial map[string]float64
	// Cells maps method → dataset → value; a missing entry with no Missing
	// mark means the method itself failed ("-").
	Cells map[string]map[string]float64
	// Partial marks method/dataset cells that did not support all models
	// (the paper's underline).
	Partial map[string]map[string]bool
	// Missing marks grid cells (method → dataset, MethodInitial included)
	// that produced no result at all, with the scheduling reason: "failed"
	// (cell infrastructure errored) or "skipped" (never started — fail-fast
	// or cancellation). Distinct from a method-level "-", which is a real
	// measured outcome.
	Missing map[string]map[string]string
	// Evals keeps the full per-dataset results for downstream analysis.
	// Entries assembled from on-disk artifacts omit the augmented Frame.
	Evals map[string]*DatasetEval
}

// RunComparison evaluates every method on the given datasets and assembles
// both aggregate views. The (dataset × method) grid fans out cell-by-cell on
// a bounded worker pool (Config.Workers); per-cell seeding keeps every cell
// bit-identical to the sequential order, and the tables are a pure fold over
// the completed cells in dataset order.
//
// On failure the partial tables are still returned: the error is a *RunError
// distinguishing the cells that failed from the ones fail-fast skipped, and
// the tables mark the same distinction per cell (Missing). Cancelling the
// context stops scheduling new cells and aborts in-flight FM calls.
func RunComparison(ctx context.Context, names []string, cfg Config) (avg, median *ComparisonTable, err error) {
	type ref struct{ dataset, method string }
	var refs []ref
	for _, name := range names {
		for _, m := range ComparisonMethods() {
			refs = append(refs, ref{name, m})
		}
	}
	results := make([]MethodResult, len(refs))
	states := make([]CellState, len(refs))
	interrupted := make([]bool, len(refs))
	cellErrs := make([]error, len(refs))
	var failed atomic.Bool
	cache := newDatasetCache(cfg.Seed) // one deterministic load per dataset, not per cell
	// Expensive cells start first when several workers share the grid. One
	// worker runs the plan in order: no order can move its wall-clock, and
	// its fail-fast report stays in plan order.
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	if cfg.workers() > 1 {
		ExpensiveFirst(order, func(i int) string { return refs[i].method })
	}
	ForEachIndex(cfg.workers(), len(order), func(k int) {
		i := order[k]
		// Fail fast: once any cell errors (or the run is cancelled), skip
		// the cells that have not started yet instead of training their
		// model grids — but record that they were skipped, not failed.
		if failed.Load() || ctx.Err() != nil {
			states[i] = CellSkipped
			return
		}
		res, err := func() (MethodResult, error) {
			d, clean, err := cache.load(refs[i].dataset)
			if err != nil {
				return MethodResult{Method: refs[i].method}, err
			}
			return runMethodOn(ctx, d, clean, refs[i].method, cfg)
		}()
		switch {
		case err != nil:
			states[i] = CellFailed
			cellErrs[i] = err
			failed.Store(true)
		case res.Interrupted():
			// Folds treat an interrupted cell like a skipped one (no result
			// either way), but the error report below distinguishes them.
			states[i] = CellSkipped
			interrupted[i] = true
			cellErrs[i] = res.Err
		default:
			results[i] = res
			states[i] = CellCompleted
		}
	})
	byCell := make(map[[2]string]int, len(refs))
	for i, r := range refs {
		byCell[[2]string{r.dataset, r.method}] = i
	}
	get := func(dataset, method string) (MethodResult, CellState) {
		i := byCell[[2]string{dataset, method}]
		return results[i], states[i]
	}
	avg, median = ComparisonFromCells(names, cfg, get)
	runErr := &RunError{Cause: ctx.Err()}
	for i, r := range refs {
		switch states[i] {
		case CellFailed:
			runErr.Failed = append(runErr.Failed, CellFailure{Dataset: r.dataset, Method: r.method, Err: cellErrs[i]})
		case CellSkipped:
			if interrupted[i] {
				runErr.Interrupted = append(runErr.Interrupted, r.dataset+" × "+r.method)
				if runErr.Cause == nil {
					runErr.Cause = cellErrs[i]
				}
			} else {
				runErr.Skipped = append(runErr.Skipped, r.dataset+" × "+r.method)
			}
		}
	}
	if len(runErr.Failed) > 0 || len(runErr.Skipped) > 0 || len(runErr.Interrupted) > 0 || runErr.Cause != nil {
		return avg, median, runErr
	}
	return avg, median, nil
}

// ComparisonFromCells assembles Tables 4/5 as a pure fold over per-cell
// results, in dataset order. get reports each (dataset × method) cell's
// result and scheduling state; the same fold serves the in-process harness
// (RunComparison) and the grid engine's on-disk artifacts, so a resumed or
// replayed run assembles bit-identical tables from whatever mix of live and
// loaded cells it has.
func ComparisonFromCells(names []string, cfg Config, get func(dataset, method string) (MethodResult, CellState)) (avg, median *ComparisonTable) {
	avg = newComparisonTable("average", names)
	median = newComparisonTable("median", names)
	markMissing := func(t *ComparisonTable, method, dataset string, state CellState) {
		reason := "failed"
		switch state {
		case CellSkipped:
			reason = "skipped"
		case CellElsewhere:
			reason = "elsewhere"
		}
		t.Missing[method][dataset] = reason
	}
	for _, name := range names {
		ev := &DatasetEval{Dataset: name, Methods: make(map[string]MethodResult)}
		avg.Evals[name] = ev
		median.Evals[name] = ev
		initial, state := get(name, MethodInitial)
		if state == CellCompleted {
			ev.Initial = initial
			if v, ok := initial.AvgAUC(); ok {
				avg.Initial[name] = v
			}
			if v, ok := initial.MedianAUC(); ok {
				median.Initial[name] = v
			}
		} else {
			markMissing(avg, MethodInitial, name, state)
			markMissing(median, MethodInitial, name, state)
		}
		for _, method := range Methods() {
			res, state := get(name, method)
			if state != CellCompleted {
				markMissing(avg, method, name, state)
				markMissing(median, method, name, state)
				continue
			}
			ev.Methods[method] = res
			if v, ok := res.AvgAUC(); ok {
				avg.Cells[method][name] = v
				avg.Partial[method][name] = !res.SupportsAllModels(cfg.Models)
			}
			if v, ok := res.MedianAUC(); ok {
				median.Cells[method][name] = v
				median.Partial[method][name] = !res.SupportsAllModels(cfg.Models)
			}
		}
	}
	return avg, median
}

func newComparisonTable(agg string, names []string) *ComparisonTable {
	t := &ComparisonTable{
		Aggregate: agg,
		Datasets:  append([]string(nil), names...),
		Initial:   make(map[string]float64),
		Cells:     make(map[string]map[string]float64),
		Partial:   make(map[string]map[string]bool),
		Missing:   make(map[string]map[string]string),
		Evals:     make(map[string]*DatasetEval),
	}
	t.Missing[MethodInitial] = make(map[string]string)
	for _, m := range Methods() {
		t.Cells[m] = make(map[string]float64)
		t.Partial[m] = make(map[string]bool)
		t.Missing[m] = make(map[string]string)
	}
	return t
}

// String renders the table in the paper's layout: value (±delta%) per cell.
func (t *ComparisonTable) String() string {
	var b strings.Builder
	title := "Table 4: Comparison of the average AUC values of different ML models."
	if t.Aggregate == "median" {
		title = "Table 5: Comparison of the median AUC values of different ML models."
	}
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s", "Methods")
	for _, d := range t.Datasets {
		fmt.Fprintf(&b, " %-18s", d)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s", MethodInitial)
	for _, d := range t.Datasets {
		cell := fmt.Sprintf("%.2f", t.Initial[d])
		if mark, miss := t.missMark(MethodInitial, d); miss {
			cell = mark
		}
		fmt.Fprintf(&b, " %-18s", cell)
	}
	b.WriteByte('\n')
	for _, m := range Methods() {
		fmt.Fprintf(&b, "%-14s", m)
		for _, d := range t.Datasets {
			v, ok := t.Cells[m][d]
			if !ok {
				mark := "-"
				if mm, miss := t.missMark(m, d); miss {
					mark = mm
				}
				fmt.Fprintf(&b, " %-18s", mark)
				continue
			}
			base := t.Initial[d]
			delta := ""
			if base > 0 {
				pct := (v - base) / base * 100
				switch {
				case pct > 0.5:
					delta = fmt.Sprintf(" (+%.1f%%)", pct)
				case pct < -0.5:
					delta = fmt.Sprintf(" (%.1f%%)", pct)
				default:
					delta = " (≈)"
				}
			}
			cell := fmt.Sprintf("%.2f%s", v, delta)
			if t.Partial[m][d] {
				cell += "*"
			}
			fmt.Fprintf(&b, " %-18s", cell)
		}
		b.WriteByte('\n')
	}
	b.WriteString("(* = method did not support all ML models on this dataset; '-' = method failed/timeout;\n" +
		" '!' = cell errored before producing a result; '?' = cell skipped or in progress on another worker)\n")
	return b.String()
}

// missMark returns the render marker for a cell that has no result because
// it never produced one here: '!' for a failed cell, '?' for one that was
// skipped or is still running on another worker of a distributed run.
func (t *ComparisonTable) missMark(method, dataset string) (string, bool) {
	switch t.Missing[method][dataset] {
	case "failed":
		return "!", true
	case "skipped", "elsewhere":
		return "?", true
	}
	return "", false
}

// ImportanceRow is one Table 6 row: the share of top-10 important features
// that are newly generated, under each selection metric.
type ImportanceRow struct {
	Method    string
	Generated int
	IGAt10    float64
	RFEAt10   float64
	FIAt10    float64
}

// Table6FeatureImportance reproduces Table 6 on the named dataset (the paper
// uses Tennis): for each method, the percentage of new features among the
// top-10 by information gain, RFE and tree importance — a fold over the
// per-method Table6Cell results.
func Table6FeatureImportance(ctx context.Context, dataset string, cfg Config) ([]ImportanceRow, error) {
	rows := make([]ImportanceRow, 0, len(Methods()))
	for _, m := range Methods() {
		row, err := Table6Cell(ctx, dataset, m, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table6Cell computes one method's Table 6 row: run the method, then rank the
// augmented frame's features and measure the share of generated ones in the
// top-10 under each selection metric. The ranking happens inside the cell —
// the resulting row is a small self-contained artifact that never needs the
// augmented frame again.
func Table6Cell(ctx context.Context, dataset, method string, cfg Config) (ImportanceRow, error) {
	d, err := datasets.Load(dataset, cfg.Seed)
	if err != nil {
		return ImportanceRow{}, err
	}
	res, err := runMethodOn(ctx, d, d.Frame.DropNA(), method, cfg)
	if err != nil {
		return ImportanceRow{}, err
	}
	if res.Interrupted() {
		return ImportanceRow{}, res.Err
	}
	row := ImportanceRow{Method: method, Generated: res.Generated}
	if res.Frame == nil || len(res.NewColumns) == 0 {
		return row, nil
	}
	ig, rfe, fi, err := table6ForFrame(res.Frame, d.Target, res.NewColumns, cfg.Seed)
	if err != nil {
		return ImportanceRow{}, err
	}
	row.IGAt10, row.RFEAt10, row.FIAt10 = ig, rfe, fi
	return row, nil
}

// table6ForFrame computes the three @10 shares given the augmented frame and
// the set of generated columns.
func table6ForFrame(f *dataframe.Frame, target string, newCols []string, seed int64) (ig, rfe, fi float64, err error) {
	g := f.FactorizeAll()
	var features []string
	for _, n := range g.Names() {
		if n != target {
			features = append(features, n)
		}
	}
	X, err := g.ColMatrix(features)
	if err != nil {
		return 0, 0, 0, err
	}
	y, err := g.IntLabels(target)
	if err != nil {
		return 0, 0, 0, err
	}
	isNew := make(map[string]bool, len(newCols))
	for _, c := range newCols {
		isNew[c] = true
	}
	share := func(ranked []featselect.Ranked) float64 {
		top := featselect.TopK(ranked, 10)
		n := 0
		for _, name := range top {
			if isNew[name] {
				n++
			}
		}
		if len(top) == 0 {
			return 0
		}
		return 100 * float64(n) / float64(len(top))
	}
	igRank, err := featselect.RankMutualInfo(X, features, y)
	if err != nil {
		return 0, 0, 0, err
	}
	rfeRank, err := featselect.RFE(X, features, y)
	if err != nil {
		return 0, 0, 0, err
	}
	fiRank, err := featselect.TreeImportance(X, features, y, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	return share(igRank), share(rfeRank), share(fiRank), nil
}

// AblationRow is one Table 7 column: the per-model AUC for one operator
// configuration.
type AblationRow struct {
	Config string
	AUCs   map[string]float64
	Avg    float64
}

// Table7Configs lists the ablation configurations in table column order.
func Table7Configs() []string {
	return []string{"Initial", "+Unary", "+Binary", "+High-order", "+Extractor", "all"}
}

// table7OperatorSet maps a Table 7 configuration name to its operator set
// (nil = the initial, un-engineered frame).
func table7OperatorSet(name string) (*core.OperatorSet, error) {
	switch name {
	case "Initial":
		return nil, nil
	case "+Unary":
		return &core.OperatorSet{Unary: true}, nil
	case "+Binary":
		return &core.OperatorSet{Binary: true}, nil
	case "+High-order":
		return &core.OperatorSet{HighOrder: true}, nil
	case "+Extractor":
		return &core.OperatorSet{Extractor: true}, nil
	case "all":
		s := core.AllOperators()
		return &s, nil
	}
	return nil, fmt.Errorf("experiments: unknown Table 7 configuration %q", name)
}

// Table7OperatorAblation reproduces Table 7 on the named dataset (Tennis in
// the paper): Initial, +Unary, +Binary, +High-order, +Extractor, and all —
// a fold over the per-configuration Table7Cell results.
func Table7OperatorAblation(ctx context.Context, dataset string, cfg Config) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(Table7Configs()))
	for _, c := range Table7Configs() {
		row, err := Table7Cell(ctx, dataset, c, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table7Cell computes one ablation configuration's column.
func Table7Cell(ctx context.Context, dataset, config string, cfg Config) (AblationRow, error) {
	ops, err := table7OperatorSet(config)
	if err != nil {
		return AblationRow{}, err
	}
	d, err := datasets.Load(dataset, cfg.Seed)
	if err != nil {
		return AblationRow{}, err
	}
	clean := d.Frame.DropNA()
	row := AblationRow{Config: config}
	if ops == nil {
		aucs, _, err := EvaluateFrame(ctx, clean, d.Target, cfg.Models, cfg)
		if err != nil {
			return AblationRow{}, err
		}
		row.AUCs = aucs
	} else {
		res := RunSmartfeat(ctx, d, clean, cfg, *ops)
		if res.Err != nil {
			return AblationRow{}, res.Err
		}
		row.AUCs = res.AUCs
	}
	// Average in sorted model order so the cell is bit-stable run to run.
	vals := make([]float64, 0, len(row.AUCs))
	for _, name := range sortedModelNames(row.AUCs) {
		vals = append(vals, row.AUCs[name])
	}
	row.Avg = metrics.Mean(vals)
	return row, nil
}

// Table7String renders the ablation in the paper's layout (models as rows,
// configurations as columns).
func Table7String(rows []AblationRow, models []string) string {
	var b strings.Builder
	b.WriteString("Table 7: Ablation study on operators across downstream ML models.\n")
	fmt.Fprintf(&b, "%-6s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, " %12s", r.Config)
	}
	b.WriteByte('\n')
	for _, m := range models {
		fmt.Fprintf(&b, "%-6s", m)
		for _, r := range rows {
			fmt.Fprintf(&b, " %12.2f", r.AUCs[m])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-6s", "Avg")
	for _, r := range rows {
		fmt.Fprintf(&b, " %12.2f", r.Avg)
	}
	b.WriteByte('\n')
	return b.String()
}

// Table6String renders Table 6.
func Table6String(rows []ImportanceRow) string {
	var b strings.Builder
	b.WriteString("Table 6: Percentage of top-10 important features generated by each method.\n")
	fmt.Fprintf(&b, "%-14s %12s %8s %8s %8s\n", "", "# generated", "IG@10", "RFE@10", "FI@10")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12d %7.0f%% %7.0f%% %7.0f%%\n", r.Method, r.Generated, r.IGAt10, r.RFEAt10, r.FIAt10)
	}
	return b.String()
}

// sortedModelNames returns map keys sorted, for deterministic rendering.
func sortedModelNames(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
