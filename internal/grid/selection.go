package grid

import (
	"errors"
	"fmt"
	"io"
	"os"

	"smartfeat/internal/experiments"
)

// AblationDataset is the dataset the paper's Table 6/7 and description
// ablations run on.
const AblationDataset = "Tennis"

// Selection names the subset of the paper's tables and figures a run (or a
// served job) regenerates, in the vocabulary of cmd/experiments' flags. It
// is the shared seam between the one-shot CLI and the smartfeatd daemon:
// both build their cell plans with Plan and fold completed runs with Render,
// so a job served over HTTP renders byte-identical tables to the CLI run of
// the same selection.
type Selection struct {
	// Table selects one table (3, 4, 5, 6, 7); 0 selects none.
	Table int
	// Figure selects a figure. Only Figure 1 is cell-addressed; the Figure 2
	// walkthrough executes outside the grid engine and is the caller's
	// responsibility (Render places its pre-rendered text in table order).
	Figure int
	// Efficiency selects the per-method timing/traffic table.
	Efficiency bool
	// Descriptions selects the §4.2 feature-description ablation.
	Descriptions bool
	// All selects everything.
	All bool
}

// DefaultFigure1Sizes is the Figure 1 size series cmd/experiments uses: the
// full-size 41189-row point is dropped under -all, where the whole grid is
// already the expensive path.
func DefaultFigure1Sizes(all bool) []int {
	if all {
		return []int{100, 1000, 10000}
	}
	return []int{100, 1000, 10000, 41189}
}

// Any reports whether the selection selects anything at all.
func (s Selection) Any() bool {
	return s.Table != 0 || s.Figure != 0 || s.Efficiency || s.Descriptions || s.All
}

// Comparison reports whether the selection needs the (dataset × method)
// comparison cells (Tables 4/5 and the efficiency fold both read them).
func (s Selection) Comparison() bool {
	return s.Table == 4 || s.Table == 5 || s.Efficiency || s.All
}

// Plan expands the selection into its grid cells, in table order. datasets
// scopes the comparison cells; methods restricts the comparison methods
// (nil = all, with experiments.MethodInitial always included by the
// ComparisonPlan contract).
func (s Selection) Plan(datasets, methods []string) []Cell {
	var plan []Cell
	if s.Comparison() {
		cellMethods := methods
		if cellMethods == nil && !(s.Table == 4 || s.Table == 5 || s.All) {
			// Efficiency-only selection: the efficiency fold never reads the
			// Initial cells, so don't pay for them.
			cellMethods = experiments.Methods()
		}
		plan = append(plan, ComparisonPlan(datasets, cellMethods)...)
	}
	if s.Table == 6 || s.All {
		plan = append(plan, Table6Plan(AblationDataset)...)
	}
	if s.Table == 7 || s.All {
		plan = append(plan, Table7Plan(AblationDataset)...)
	}
	if s.Figure == 1 || s.All {
		plan = append(plan, Figure1Plan(DefaultFigure1Sizes(s.All))...)
	}
	if s.Descriptions || s.All {
		plan = append(plan, DescriptionsPlan(AblationDataset)...)
	}
	return plan
}

// Render folds the run result into the selection's tables and writes them to
// w, in the exact order and format cmd/experiments prints to stdout — the
// daemon's result endpoint and the CLI must stay byte-identical for the same
// completed cells. Partially completed runs render the cells they have (the
// comparison tables mark failed/skipped cells; all-or-nothing folds like
// Table 6 are omitted until complete). figure2, when non-empty, is the
// pre-rendered Figure 2 walkthrough, placed in table order.
func (s Selection) Render(w io.Writer, r *RunResult, datasets []string, cfg experiments.Config, figure2 string) {
	if s.Table == 3 || s.All {
		fmt.Fprintln(w, experiments.Table3String(cfg))
	}
	if s.Table == 4 || s.Table == 5 || s.All {
		avg, median := r.Comparison(datasets, cfg)
		fmt.Fprintln(w, avg)
		fmt.Fprintln(w, median)
	}
	if s.Table == 6 || s.All {
		if rows, ok := r.Table6(AblationDataset); ok {
			fmt.Fprintln(w, experiments.Table6String(rows))
		}
	}
	if s.Table == 7 || s.All {
		if rows, ok := r.Table7(AblationDataset); ok {
			fmt.Fprintln(w, experiments.Table7String(rows, cfg.Models))
		}
	}
	if s.Figure == 1 || s.All {
		if points, ok := r.Figure1(DefaultFigure1Sizes(s.All)); ok {
			fmt.Fprintln(w, experiments.Figure1String(points))
		}
	}
	if figure2 != "" {
		fmt.Fprintln(w, figure2)
	}
	if s.Efficiency || s.All {
		if rows := r.Efficiency(datasets); len(rows) > 0 {
			fmt.Fprintln(w, experiments.EfficiencyString(rows))
		}
	}
	if s.Descriptions || s.All {
		if abl, ok := r.Descriptions(AblationDataset); ok {
			fmt.Fprintln(w, abl)
		}
	}
}

// Progress is a point-in-time fold of a run directory's manifest against a
// plan: how many of the planned cells have resolved, and to what. It is the
// smartfeatd status endpoint's payload — cheap enough to compute on every
// poll (one manifest read), and accurate across processes because every
// worker rewrites the shared manifest after each cell it resolves.
type Progress struct {
	// Planned is the plan size; Completed/Failed count planned cells whose
	// manifest record reached that status. Cells still executing (or not yet
	// claimed) are the remainder.
	Planned   int `json:"planned"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// ByWorker counts completed cells per resolving worker id — the
	// visible footprint of N daemon replicas draining one run directory.
	ByWorker map[string]int `json:"by_worker,omitempty"`
	// Cells maps each planned cell key to its manifest status ("completed",
	// "failed"); cells without a record yet are absent.
	Cells map[string]string `json:"cells,omitempty"`
}

// PlanProgress folds dir's manifest against plan. A run directory whose
// manifest does not exist yet (the runner has not created it) reports zero
// progress rather than an error; other read failures propagate.
func PlanProgress(dir string, plan []Cell) (Progress, error) {
	p := Progress{Planned: len(plan)}
	m, err := LoadManifest(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return p, nil
		}
		return p, err
	}
	p.Cells = make(map[string]string, len(plan))
	p.ByWorker = make(map[string]int)
	for _, c := range plan {
		rec, ok := m.Cells[c.Key()]
		if !ok {
			continue
		}
		p.Cells[c.Key()] = rec.Status
		switch rec.Status {
		case string(StatusCompleted):
			p.Completed++
			p.ByWorker[rec.Worker]++
		case string(StatusFailed):
			p.Failed++
		}
	}
	return p, nil
}
