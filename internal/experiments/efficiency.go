package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/datasets"
)

// sortedKeys returns a string map's keys in sorted order.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EfficiencyRow reports one method's feature-engineering cost on one
// dataset: real wall-clock of the Go implementation plus the simulated FM
// latency (the component that dominated the paper's measurements), and
// whether the 60-minute budget was exceeded.
type EfficiencyRow struct {
	Dataset  string
	Method   string
	Elapsed  time.Duration
	TimedOut bool
	Detail   string
	// FMRequests / FMSaved report gateway traffic for FM-driven methods:
	// total completions asked for, and how many were served without an
	// upstream model call (cache hits + in-flight shares + replays).
	FMRequests int64
	FMSaved    int64
}

// EfficiencyBudget is the paper's experiment time limit.
const EfficiencyBudget = time.Hour

// EfficiencyFromCells folds efficiency rows from per-cell method results in
// the sequential (dataset, method) order. The grid engine prices a live,
// recorded, replayed or resumed run through it from the comparison cells'
// own accounting, without re-running anything. Each cell times itself, so
// cells that ran side by side (Config.Workers > 1) report contended
// timings; every FM counter is exact at any worker count. Cells get reports
// as absent are left out (a partial grid still prices the cells it has).
func EfficiencyFromCells(names []string, get func(dataset, method string) (MethodResult, bool)) []EfficiencyRow {
	var rows []EfficiencyRow
	for _, name := range names {
		for _, method := range Methods() {
			res, ok := get(name, method)
			if !ok {
				continue
			}
			rows = append(rows, efficiencyRow(name, method, res))
		}
	}
	return rows
}

// efficiencyRow prices one completed cell.
func efficiencyRow(dataset, method string, res MethodResult) EfficiencyRow {
	row := EfficiencyRow{
		Dataset: dataset, Method: method, Elapsed: res.Elapsed,
		FMRequests: res.FMMetrics.Requests, FMSaved: res.FMMetrics.Saved(),
	}
	switch method {
	case MethodCAAFE:
		// Walk failures in sorted model order so the rendered detail is
		// bit-stable run to run (map order is not).
		for _, m := range sortedKeys(res.FailedModels) {
			if res.FailedModels[m] == "timeout" {
				row.TimedOut = true
				row.Detail = fmt.Sprintf("validation timeout with %s", m)
			}
		}
	case MethodAutoFeat:
		if res.Err != nil {
			row.TimedOut = true
			row.Detail = res.Err.Error()
		}
	default:
		row.TimedOut = res.Elapsed > EfficiencyBudget
	}
	return row
}

// EfficiencyString renders the efficiency comparison.
func EfficiencyString(rows []EfficiencyRow) string {
	var b strings.Builder
	b.WriteString("Efficiency: feature-engineering time per method (wall clock + simulated FM latency; 60-minute budget).\n")
	b.WriteString("fm req/saved: gateway completions requested / served without an upstream FM call.\n")
	fmt.Fprintf(&b, "%-17s %-14s %14s %8s %8s %s\n", "dataset", "method", "time", "fm req", "saved", "notes")
	for _, r := range rows {
		note := r.Detail
		if r.TimedOut && note == "" {
			note = "timeout"
		}
		elapsed := r.Elapsed.Round(time.Second).String()
		if r.TimedOut {
			elapsed = "> 60m"
		}
		req, saved := "-", "-"
		if r.FMRequests > 0 {
			req = fmt.Sprint(r.FMRequests)
			saved = fmt.Sprint(r.FMSaved)
		}
		fmt.Fprintf(&b, "%-17s %-14s %14s %8s %8s %s\n", r.Dataset, r.Method, elapsed, req, saved, note)
	}
	return b.String()
}

// DescriptionsAblation reproduces the §4.2 "Impact of Feature Descriptions"
// experiment on the given dataset (Tennis in the paper): SMARTFEAT with the
// full data card versus names-only input.
type DescriptionsAblation struct {
	Dataset         string
	WithAvg         float64
	WithMedian      float64
	NamesOnlyAvg    float64
	NamesOnlyMedian float64
	WithFeatures    int
	NamesFeatures   int
}

// DescriptionsCell runs SMARTFEAT on the dataset with the full data card
// (withDescriptions) or names-only input — one cell of the §4.2 ablation.
func DescriptionsCell(ctx context.Context, dataset string, withDescriptions bool, cfg Config) (MethodResult, error) {
	d, err := datasets.Load(dataset, cfg.Seed)
	if err != nil {
		return MethodResult{}, err
	}
	clean := d.Frame.DropNA()
	if !withDescriptions {
		d = d.WithoutDescriptions()
	}
	res := RunSmartfeat(ctx, d, clean, cfg, core.AllOperators())
	if res.Err != nil {
		return res, res.Err
	}
	return res, nil
}

// DescriptionsAblationFromCells folds the ablation from the two cell results.
func DescriptionsAblationFromCells(dataset string, full, nameOnly MethodResult) *DescriptionsAblation {
	out := &DescriptionsAblation{Dataset: dataset, WithFeatures: full.Selected, NamesFeatures: nameOnly.Selected}
	out.WithAvg, _ = full.AvgAUC()
	out.WithMedian, _ = full.MedianAUC()
	out.NamesOnlyAvg, _ = nameOnly.AvgAUC()
	out.NamesOnlyMedian, _ = nameOnly.MedianAUC()
	return out
}

// String renders the ablation.
func (a *DescriptionsAblation) String() string {
	return fmt.Sprintf(
		"Impact of feature descriptions (%s):\n"+
			"  with descriptions: avg AUC %.2f, median %.2f (%d features)\n"+
			"  names only:        avg AUC %.2f, median %.2f (%d features)\n",
		a.Dataset, a.WithAvg, a.WithMedian, a.WithFeatures,
		a.NamesOnlyAvg, a.NamesOnlyMedian, a.NamesFeatures)
}
