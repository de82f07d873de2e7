package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

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
}

// ComparisonFromCells assembles Tables 4/5 as a pure fold over per-cell
// results, in dataset order. get reports each (dataset × method) cell's
// result and scheduling state. The grid engine folds its cells' artifacts
// through it, live or loaded from a run directory alike, so a resumed or
// replayed run assembles bit-identical tables from whatever mix of cells it
// has.
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
		initial, state := get(name, MethodInitial)
		if state == CellCompleted {
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
	all := make([]int, g.Len())
	for i := range all {
		all[i] = i
	}
	X, err := g.ColMatrix(features, all)
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
