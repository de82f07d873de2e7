package grid

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
)

// tinyConfig keeps the grid tests fast: one small dataset, two cheap models,
// scaled-down budgets.
func tinyConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Models = []string{"LR", "NB"}
	cfg.MaxTrainRows = 400
	cfg.SamplingBudget = 3
	cfg.CAAFEIterations = 2
	return cfg
}

// comparisonTables folds Tables 4/5 out of a run result.
func comparisonTables(t *testing.T, r *RunResult, names []string, cfg experiments.Config) (avg, median *experiments.ComparisonTable) {
	t.Helper()
	avg, median = r.Comparison(names, cfg)
	if avg == nil || median == nil {
		t.Fatal("fold returned nil tables")
	}
	return avg, median
}

// sequentialComparison is the grid-independent reference for Tables 4/5: a
// plain loop over experiments.RunCell, folded by ComparisonFromCells. No
// scheduling, no artifacts.
func sequentialComparison(t *testing.T, names []string, cfg experiments.Config) (avg, median *experiments.ComparisonTable) {
	t.Helper()
	cells := make(map[[2]string]experiments.MethodResult)
	for _, name := range names {
		for _, m := range experiments.ComparisonMethods() {
			res, err := experiments.RunCell(context.Background(), name, m, cfg)
			if err != nil {
				t.Fatalf("%s × %s: %v", name, m, err)
			}
			cells[[2]string{name, m}] = res
		}
	}
	return experiments.ComparisonFromCells(names, cfg, func(dataset, method string) (experiments.MethodResult, experiments.CellState) {
		return cells[[2]string{dataset, method}], experiments.CellCompleted
	})
}

// TestGridMatchesDirectComparison pins the engine's equivalence: the grid's
// per-cell execution + artifact fold produces exactly the tables a plain
// sequential loop over the cells does.
func TestGridMatchesDirectComparison(t *testing.T) {
	names := []string{"Diabetes"}
	cfg := tinyConfig()

	direct, directMed := sequentialComparison(t, names, cfg)

	r := &Runner{Config: cfg, Dir: t.TempDir()}
	res, err := r.Run(context.Background(), ComparisonPlan(names, nil))
	if err != nil {
		t.Fatal(err)
	}
	avg, median := comparisonTables(t, res, names, cfg)

	if !reflect.DeepEqual(direct.Cells, avg.Cells) {
		t.Fatalf("avg cells differ:\ndirect: %v\ngrid:   %v", direct.Cells, avg.Cells)
	}
	if !reflect.DeepEqual(direct.Initial, avg.Initial) {
		t.Fatalf("initial differs: %v vs %v", direct.Initial, avg.Initial)
	}
	if !reflect.DeepEqual(direct.Partial, avg.Partial) {
		t.Fatal("partial markers differ")
	}
	if !reflect.DeepEqual(directMed.Cells, median.Cells) {
		t.Fatalf("median cells differ:\ndirect: %v\ngrid:   %v", directMed.Cells, median.Cells)
	}
	if direct.String() != avg.String() {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", direct, avg)
	}
	// Efficiency rows fold from the same artifacts, in sequential order.
	rows := res.Efficiency(names)
	if len(rows) != len(experiments.Methods()) {
		t.Fatalf("efficiency rows = %d, want %d", len(rows), len(experiments.Methods()))
	}
	for i, m := range experiments.Methods() {
		if rows[i].Method != m || rows[i].Dataset != "Diabetes" {
			t.Fatalf("row %d = %s/%s", i, rows[i].Dataset, rows[i].Method)
		}
	}
}

// TestGridResumeAfterInterrupt pins the resume contract: a run cancelled
// mid-grid leaves completed artifacts behind; resuming it executes only the
// remainder and the folded tables are identical to an uninterrupted run.
func TestGridResumeAfterInterrupt(t *testing.T) {
	names := []string{"Diabetes"}
	cfg := tinyConfig()
	cfg.Workers = 1 // deterministic interruption point
	plan := ComparisonPlan(names, nil)
	dir := t.TempDir()

	// Reference: one uninterrupted run.
	ref, err := (&Runner{Config: cfg, Dir: t.TempDir()}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	refAvg, refMed := comparisonTables(t, ref, names, cfg)

	// Interrupted run: cancel as soon as the second cell completes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	r := &Runner{Config: cfg, Dir: dir, Logf: func(format string, args ...any) {
		if strings.Contains(format, "completed") {
			if completed++; completed == 2 {
				cancel()
			}
		}
	}}
	res, err := r.Run(ctx, plan)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	var runErr *experiments.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *experiments.RunError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run should unwrap to context.Canceled: %v", err)
	}
	counts := res.Counts()
	if counts[StatusCompleted] < 2 || counts[StatusCompleted] == len(plan) {
		t.Fatalf("interruption produced %v", counts)
	}

	// Resume with a fresh context: completed cells load from artifacts.
	res2, err := (&Runner{Config: cfg, Dir: dir, Resume: true}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	counts2 := res2.Counts()
	if counts2[StatusResumed] != counts[StatusCompleted] {
		t.Fatalf("resumed %d cells, want %d", counts2[StatusResumed], counts[StatusCompleted])
	}
	if counts2[StatusResumed]+counts2[StatusCompleted] != len(plan) {
		t.Fatalf("resume did not finish the grid: %v", counts2)
	}
	avg, median := comparisonTables(t, res2, names, cfg)
	if avg.String() != refAvg.String() || median.String() != refMed.String() {
		t.Fatalf("resumed tables differ from uninterrupted run:\n%s\nvs\n%s", avg, refAvg)
	}
	if !reflect.DeepEqual(avg.Cells, refAvg.Cells) {
		t.Fatalf("resumed cells differ: %v vs %v", avg.Cells, refAvg.Cells)
	}

	// A fresh (non-resume) run into the same directory must refuse.
	if _, err := (&Runner{Config: cfg, Dir: dir}).Run(context.Background(), plan); err == nil {
		t.Fatal("fresh run over an existing manifest should refuse")
	}
	// Resuming under a drifted config must refuse too.
	drifted := cfg
	drifted.Seed++
	if _, err := (&Runner{Config: drifted, Dir: dir, Resume: true}).Run(context.Background(), plan); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("drifted-config resume: %v", err)
	}
}

// TestGridRecordReplay pins the sharded record/replay contract: a recorded
// grid replays bit-identical tables with zero upstream FM calls — for the
// full grid and for a single-cell subset of the recording.
func TestGridRecordReplay(t *testing.T) {
	names := []string{"Diabetes"}
	cfg := tinyConfig()
	plan := ComparisonPlan(names, nil)
	fmDir := t.TempDir()

	stores, err := fmgate.NewRecordStoreSet(fmDir, fmgate.StoreSetManifest{
		ConfigHash: cfg.Fingerprint(), Seed: cfg.Seed, Budget: cfg.SamplingBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := (&Runner{Config: cfg, Dir: t.TempDir(), Stores: stores}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Close(); err != nil {
		t.Fatal(err)
	}
	recAvg, recMed := comparisonTables(t, rec, names, cfg)

	// Full-grid replay.
	replayStores, err := fmgate.OpenReplayStoreSet(fmDir, cfg.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Config: cfg, Dir: t.TempDir(), Stores: replayStores}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	repAvg, repMed := comparisonTables(t, rep, names, cfg)
	if recAvg.String() != repAvg.String() || recMed.String() != repMed.String() {
		t.Fatalf("replayed tables differ:\n%s\nvs\n%s", repAvg, recAvg)
	}
	if !reflect.DeepEqual(recAvg.Cells, repAvg.Cells) {
		t.Fatalf("replayed cells differ: %v vs %v", recAvg.Cells, repAvg.Cells)
	}
	// Zero upstream FM traffic anywhere in the replayed grid.
	for _, c := range plan {
		art, ok := rep.Artifact(c)
		if !ok {
			t.Fatalf("cell %s missing from replay", c)
		}
		m := art.Method.FMMetrics
		if m.UpstreamCalls != 0 {
			t.Fatalf("cell %s made %d upstream calls during replay", c, m.UpstreamCalls)
		}
		if art.Method.FMUsage.SimCostUSD != 0 {
			t.Fatalf("cell %s cost $%f during replay", c, art.Method.FMUsage.SimCostUSD)
		}
		recArt, _ := rec.Artifact(c)
		if m.Requests > 0 && m.Replayed == 0 {
			t.Fatalf("cell %s requested %d completions but replayed none", c, m.Requests)
		}
		if !reflect.DeepEqual(recArt.Method.AUCs, art.Method.AUCs) {
			t.Fatalf("cell %s AUCs differ: %v vs %v", c, recArt.Method.AUCs, art.Method.AUCs)
		}
	}

	// Single-cell subset replay: just Diabetes × SMARTFEAT from the same
	// full-grid recording.
	cell := Cell{Dataset: "Diabetes", Method: experiments.MethodSmartfeat}
	soloStores, err := fmgate.OpenReplayStoreSet(fmDir, cfg.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	solo, err := (&Runner{Config: cfg, Stores: soloStores}).Run(context.Background(), []Cell{cell})
	if err != nil {
		t.Fatal(err)
	}
	soloArt, ok := solo.Artifact(cell)
	if !ok {
		t.Fatal("single-cell replay produced no artifact")
	}
	recArt, _ := rec.Artifact(cell)
	if !reflect.DeepEqual(soloArt.Method.AUCs, recArt.Method.AUCs) {
		t.Fatalf("single-cell replay AUCs differ: %v vs %v", soloArt.Method.AUCs, recArt.Method.AUCs)
	}
	if soloArt.Method.FMMetrics.UpstreamCalls != 0 {
		t.Fatal("single-cell replay reached upstream")
	}

	// Replay under a drifted config fails loudly at open.
	drifted := cfg
	drifted.SamplingBudget++
	if _, err := fmgate.OpenReplayStoreSet(fmDir, drifted.Fingerprint()); !errors.Is(err, fmgate.ErrStoreSetConfigMismatch) {
		t.Fatalf("want config-mismatch error, got %v", err)
	}
}

// TestGridFailFastSkippedVsFailed pins the satellite bugfix: a failing cell
// fails, unstarted cells report skipped (not silently absent), and the
// folded tables mark the two distinctly.
func TestGridFailFastSkippedVsFailed(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	names := []string{"NoSuchDataset", "Diabetes"}
	plan := ComparisonPlan(names, []string{experiments.MethodInitial, experiments.MethodFeaturetools})

	res, err := (&Runner{Config: cfg}).Run(context.Background(), plan)
	if err == nil {
		t.Fatal("want failure")
	}
	var runErr *experiments.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *experiments.RunError, got %T", err)
	}
	if len(runErr.Failed) != 1 || runErr.Failed[0].Dataset != "NoSuchDataset" {
		t.Fatalf("failed = %v", runErr.Failed)
	}
	if len(runErr.Skipped) != len(plan)-1 {
		t.Fatalf("skipped = %v, want %d cells", runErr.Skipped, len(plan)-1)
	}
	msg := err.Error()
	if !strings.Contains(msg, "failed") || !strings.Contains(msg, "skipped") {
		t.Fatalf("error does not distinguish skipped from failed: %s", msg)
	}

	avg, _ := comparisonTables(t, res, names, cfg)
	if avg.Missing[experiments.MethodInitial]["NoSuchDataset"] != "failed" {
		t.Fatalf("missing marks = %v", avg.Missing)
	}
	if avg.Missing[experiments.MethodFeaturetools]["Diabetes"] != "skipped" {
		t.Fatalf("missing marks = %v", avg.Missing)
	}
	rendered := avg.String()
	if !strings.Contains(rendered, "!") || !strings.Contains(rendered, "?") {
		t.Fatalf("table does not render distinct miss markers:\n%s", rendered)
	}

	// KeepGoing runs every cell despite the failure.
	res2, err := (&Runner{Config: cfg, KeepGoing: true}).Run(context.Background(), plan)
	if err == nil {
		t.Fatal("keep-going still reports the failure")
	}
	c := res2.Counts()
	if c[StatusCompleted] != 2 || c[StatusFailed] != 2 || c[StatusSkipped] != 0 {
		t.Fatalf("keep-going counts = %v", c)
	}
}

// TestGridCancelledRunsNothing pins cancellation: an already-cancelled
// context runs no cell, reports every cell skipped and unwraps to
// context.Canceled.
func TestGridCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := ComparisonPlan([]string{"Diabetes"}, nil)
	res, err := (&Runner{Config: tinyConfig()}).Run(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var runErr *experiments.RunError
	if !errors.As(err, &runErr) || len(runErr.Skipped) != len(experiments.ComparisonMethods()) {
		t.Fatalf("cancelled run outcome: %v", err)
	}
	if c := res.Counts(); c[StatusSkipped] != len(plan) {
		t.Fatalf("cancelled run counts = %v", c)
	}
}

// TestGridAuxCells pins the auxiliary cell kinds (figure1, descriptions)
// round-tripping through artifacts and folding identically to a plain
// sequential loop over the per-cell functions.
func TestGridAuxCells(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	sizes := []int{50}
	plan := append(Figure1Plan(sizes), DescriptionsPlan("Tennis")...)

	res, err := (&Runner{Config: cfg, Dir: dir}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	points, ok := res.Figure1(sizes)
	if !ok || len(points) != 1 {
		t.Fatalf("figure1 fold: ok=%v n=%d", ok, len(points))
	}
	var direct []experiments.InteractionCost
	for _, n := range sizes {
		p, err := experiments.Figure1Cell(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, p)
	}
	// The gateway cost column accumulates across concurrent completions, so
	// its float sum is order-dependent in the last ulp from run to run (a
	// property of the concurrent submitter, not of the grid engine) —
	// compare it with a tolerance and everything else exactly.
	for i := range points {
		if d := points[i].GatewayCostUSD - direct[i].GatewayCostUSD; d > 1e-9 || d < -1e-9 {
			t.Fatalf("gateway cost differs beyond ulp noise: %v vs %v", points[i].GatewayCostUSD, direct[i].GatewayCostUSD)
		}
		points[i].GatewayCostUSD = direct[i].GatewayCostUSD
	}
	if !reflect.DeepEqual(points, direct) {
		t.Fatalf("figure1 differs:\ngrid:   %+v\ndirect: %+v", points, direct)
	}

	abl, ok := res.Descriptions("Tennis")
	if !ok {
		t.Fatal("descriptions fold failed")
	}
	full, err := experiments.DescriptionsCell(context.Background(), "Tennis", true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nameOnly, err := experiments.DescriptionsCell(context.Background(), "Tennis", false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	directAbl := experiments.DescriptionsAblationFromCells("Tennis", full, nameOnly)
	if *abl != *directAbl {
		t.Fatalf("descriptions differ: %+v vs %+v", abl, directAbl)
	}

	// The artifacts survive a fresh read (what resume does).
	for _, c := range plan {
		art, err := ReadArtifact(dir, c, cfg.Fingerprint())
		if err != nil {
			t.Fatalf("artifact %s: %v", c, err)
		}
		if art.Kind == "" {
			t.Fatalf("artifact %s has no kind", c)
		}
	}
	// And a resumed run loads all of them without re-executing.
	res2, err := (&Runner{Config: cfg, Dir: dir, Resume: true}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if c := res2.Counts(); c[StatusResumed] != len(plan) {
		t.Fatalf("aux resume counts = %v", c)
	}
}

// TestCellKeys pins the artifact/shard naming scheme.
func TestCellKeys(t *testing.T) {
	cases := map[Cell]string{
		{Dataset: "Tennis", Method: "SMARTFEAT"}:      "Tennis__SMARTFEAT",
		{Dataset: "Tennis", Method: "Initial AUC"}:    "Tennis__Initial-AUC",
		{Dataset: "Tennis", Method: "table7:+Unary"}:  "Tennis__table7-+Unary",
		{Dataset: "Bank", Method: "figure1:1000"}:     "Bank__figure1-1000",
		{Dataset: "a/b", Method: "descriptions:with"}: "a-b__descriptions-with",
	}
	for c, want := range cases {
		if got := c.Key(); got != want {
			t.Fatalf("%v.Key() = %q, want %q", c, got, want)
		}
	}
}

// TestManifestRoundTrip pins the run-manifest serialization.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := newManifest("test", "hash-1", 42)
	m.Cells["Tennis__SMARTFEAT"] = CellRecord{Status: "completed"}
	m.Cells["Tennis__CAAFE"] = CellRecord{Status: "failed", Err: "boom"}
	if err := m.save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigHash != "hash-1" || got.Seed != 42 || len(got.Cells) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Cells["Tennis__CAAFE"].Err != "boom" {
		t.Fatalf("cell record lost: %+v", got.Cells)
	}
	if _, err := LoadManifest(filepath.Join(dir, "nope")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: %v", err)
	}
}
