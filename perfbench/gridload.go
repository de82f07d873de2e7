package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/lease"
	"smartfeat/internal/obs"
)

// gridDatasets trims the quick comparison grid to one large dataset and one
// small dataset whose CAAFE cell dominates, so a pass fits a run.
var gridDatasets = []string{"Bank", "Heart"}

// cellSlug names a comparison method in per-layer metric names.
var cellSlug = map[string]string{
	experiments.MethodInitial:      "initial",
	experiments.MethodSmartfeat:    "smartfeat",
	experiments.MethodCAAFE:        "caafe",
	experiments.MethodFeaturetools: "featuretools",
	experiments.MethodAutoFeat:     "autofeat",
}

// recordFM records the FM traffic of plan's cells into dir: cells of methods
// that talk to an FM run live through a recording grid run, the others get
// the empty shard they replay from. It returns the recording run's result.
func recordFM(ctx context.Context, cfg experiments.Config, dir string, plan []grid.Cell) (*grid.RunResult, error) {
	stores, err := fmgate.NewRecordStoreSet(dir, fmgate.StoreSetManifest{
		ConfigHash: cfg.Fingerprint(),
		Seed:       cfg.Seed,
		Budget:     cfg.SamplingBudget,
	})
	if err != nil {
		return nil, err
	}
	var live []grid.Cell
	for _, c := range plan {
		if c.Method == experiments.MethodSmartfeat || c.Method == experiments.MethodCAAFE {
			live = append(live, c)
			continue
		}
		if _, err := stores.Shard(c.Key()); err != nil {
			stores.Close()
			return nil, err
		}
	}
	r := &grid.Runner{Config: cfg, Stores: stores}
	res, runErr := r.Run(ctx, live)
	if err := stores.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, fmt.Errorf("recording FM traffic: %w", runErr)
	}
	return res, nil
}

// setupGrid records the grid's FM traffic for the measured passes to replay.
func setupGrid(ctx context.Context, e env) (*childResult, error) {
	start := time.Now()
	if _, err := recordFM(ctx, e.config(), filepath.Join(e.shared, "fm"), grid.ComparisonPlan(gridDatasets, nil)); err != nil {
		return nil, err
	}
	return &childResult{SetupS: time.Since(start).Seconds()}, nil
}

// measureGrid runs the trimmed comparison plan through grid.Runner into a
// fresh run directory, replaying the setup recording, and folds Tables 4
// and 5. One op is one cell (claim to release); the items are cells.
func measureGrid(ctx context.Context, e env) (*childResult, error) {
	cfg := e.config()
	res := newResult()
	start := time.Now()
	stores, err := fmgate.OpenReplayStoreSet(filepath.Join(e.shared, "fm"), cfg.Fingerprint())
	if err != nil {
		return nil, err
	}
	defer stores.Close()
	runDir, err := os.MkdirTemp(e.dir, "run-")
	if err != nil {
		return nil, err
	}
	claimer := &timedClaimer{inner: lease.NewMem()}
	runner := &grid.Runner{Config: cfg, Dir: runDir, Name: "perfbench", Stores: stores, Claimer: claimer}
	// The plan's order is fixed, not the seed's: with several workers the
	// order decides how cells pack onto them, which would move the pass by
	// a third from one seed to the next.
	plan := grid.ComparisonPlan(gridDatasets, nil)
	res.endSetup(start)

	ctx, tr := startTracing(ctx, e, "grid")
	rctx, rsp := obs.StartSpan(ctx, "grid.run")
	t0 := time.Now()
	result, runErr := runner.Run(rctx, plan)
	t1 := time.Now()
	rsp.End()
	_, fsp := obs.StartSpan(ctx, "grid.fold")
	var tables bytes.Buffer
	grid.Selection{Table: 4}.Render(&tables, result, gridDatasets, cfg, "")
	t2 := time.Now()
	fsp.End()

	res.WallS = t2.Sub(t0).Seconds()
	res.Ops = claimer.durations()
	res.Items = float64(len(plan))
	res.Attempted = len(plan)
	res.Failed = len(plan) - result.Counts()[grid.StatusCompleted]
	if runErr != nil {
		res.problem("grid: %v", runErr)
	}
	for _, o := range result.Outcomes {
		if o.Status != grid.StatusCompleted {
			res.problem("grid: cell %s is %v: %v", o.Cell.Key(), o.Status, o.Err)
		}
	}
	res.Digest = digestOf(tables.Bytes())

	if tr == nil {
		return res, nil
	}
	spans, fold, err := tr.finish(res)
	if err != nil {
		return nil, err
	}
	var cellSum float64
	var cells int
	for _, s := range spans {
		if s.name == "cell" {
			res.Layer["grid.cell_"+cellSlug[s.attrs["method"]]+"_s"] += s.dur
			cellSum += s.dur
			cells++
		}
	}
	res.Layer["grid.cell_self_s"] = fold.self["cell"]
	if cells > 0 {
		res.Layer["grid.cell_mean_s"] = cellSum / float64(cells)
	}
	res.Layer["grid.cell_p50_s"] = median(res.Ops)
	res.Layer["grid.idle_s"] = float64(procs)*t1.Sub(t0).Seconds() - cellSum
	res.Layer["grid.fold_s"] = t2.Sub(t1).Seconds()
	res.Layer["ml.fit_s"] = fold.total["ml.fit"]
	res.Layer["ml.fits"] = float64(fold.count["ml.fit"])
	res.Layer["caafe.iter_s"] = fold.total["caafe.iter"]
	res.Layer["caafe.iters"] = float64(fold.count["caafe.iter"])
	return res, nil
}
