package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/metrics"
	"smartfeat/internal/ml"
	"smartfeat/internal/obs"
	"smartfeat/internal/par"
)

// MethodResult holds one method's outcome on one dataset.
type MethodResult struct {
	// Method is the method name.
	Method string
	// AUCs maps model name → test AUC (×100, the paper's scale). A missing
	// model means it could not be evaluated (timeout or failure).
	AUCs map[string]float64
	// FailedModels records per-model failures.
	FailedModels map[string]string
	// Err is a whole-method failure (e.g. AutoFeat timeout).
	Err error
	// Generated / Selected are candidate counts where the method reports
	// them.
	Generated, Selected int
	// NewColumns are the surviving generated features.
	NewColumns []string
	// Elapsed is the feature-engineering wall-clock time (excludes model
	// training).
	Elapsed time.Duration
	// FMUsage aggregates foundation-model accounting, where applicable.
	FMUsage fm.Usage
	// FMMetrics aggregates gateway traffic counters (cache hits, in-flight
	// shares, replays) for methods routed through fmgate.
	FMMetrics fmgate.Metrics
	// Frame is the augmented dataset the method produced (nil on failure);
	// Table 6 ranks features over it.
	Frame *dataframe.Frame
}

// aucValues returns the per-model AUCs in sorted model-name order. Summing
// in map iteration order made the aggregates nondeterministic in the last
// ulp from run to run; a fixed order keeps every table cell bit-stable (and
// lets the parallel harness be compared cell-for-cell against sequential).
func (m *MethodResult) aucValues() []float64 {
	names := make([]string, 0, len(m.AUCs))
	for k := range m.AUCs {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := make([]float64, len(names))
	for i, k := range names {
		vals[i] = m.AUCs[k]
	}
	return vals
}

// AvgAUC is the Table 4 aggregate: the mean over evaluated models.
func (m *MethodResult) AvgAUC() (float64, bool) {
	if len(m.AUCs) == 0 {
		return 0, false
	}
	return metrics.Mean(m.aucValues()), true
}

// MedianAUC is the Table 5 aggregate.
func (m *MethodResult) MedianAUC() (float64, bool) {
	if len(m.AUCs) == 0 {
		return 0, false
	}
	return metrics.Median(m.aucValues()), true
}

// SupportsAllModels reports whether every requested model was evaluated —
// the paper underlines baselines that do not.
func (m *MethodResult) SupportsAllModels(models []string) bool {
	for _, name := range models {
		if _, ok := m.AUCs[name]; !ok {
			return false
		}
	}
	return true
}

// buildModel constructs a (possibly scaled-down) downstream model.
func buildModel(name string, seed int64, cfg Config) (ml.Classifier, error) {
	switch name {
	case "RF":
		trees := cfg.ForestTrees
		if trees <= 0 {
			trees = 40
		}
		return ml.NewRandomForest(trees, seed), nil
	case "ET":
		trees := cfg.ForestTrees
		if trees <= 0 {
			trees = 40
		}
		return ml.NewExtraTrees(trees, seed), nil
	case "DNN":
		m := ml.NewMLP(seed)
		if cfg.MLPEpochs > 0 {
			m.Epochs = cfg.MLPEpochs
		} else {
			m.Epochs = 12
		}
		return m, nil
	default:
		return ml.New(name, seed)
	}
}

// scoreBlock is how many test rows a scoring worker gathers, preprocesses
// and scores at a time: two scoreBlock×features buffers per worker replace
// the test-height matrix and each scaled model's copy of it.
const scoreBlock = 512

// EvaluateFrame runs the §4.1 protocol on an (already feature-engineered)
// frame: 75/25 split, train every model, score AUC on the held-out set.
// Categorical columns are read as their factorized codes in place. Per-model
// failures (e.g. infinite inputs) are recorded, not fatal. The per-model
// trainings are independent — each model derives its randomness from a
// fixed per-model seed — so they run on a bounded worker pool with
// bit-identical results to the sequential order; the DNN, the longest fit,
// starts first. Once every model is fitted the test rows are scored in
// blocks (scoreBlocks), which gives each row the score that scoring all
// rows at once would.
// Cancelling the context stops scheduling further model trainings and
// scoring blocks (an in-flight fit still runs to completion) and surfaces
// the context error, so an interrupted evaluation is never mistaken for a
// measured one.
func EvaluateFrame(ctx context.Context, f *dataframe.Frame, target string, models []string, cfg Config) (map[string]float64, map[string]string, error) {
	var features []string
	for _, n := range f.Names() {
		if n != target {
			features = append(features, n)
		}
	}
	if len(features) == 0 {
		return nil, nil, fmt.Errorf("experiments: no features to evaluate")
	}
	testFrac := cfg.TestFrac
	if testFrac <= 0 || testFrac >= 1 {
		testFrac = 0.25
	}
	train, test := metrics.TrainTestSplit(f.Len(), testFrac, cfg.Seed)
	if cfg.MaxTrainRows > 0 && len(train) > cfg.MaxTrainRows {
		train = train[:cfg.MaxTrainRows]
	}
	g, err := f.Gatherer(features)
	if err != nil {
		return nil, nil, err
	}
	// Only the sampled train rows are gathered whole; the models share them
	// read-only (ml.Pipeline copies only what it writes).
	Xtr := g.Gather(train, nil)
	y, err := f.IntLabels(target)
	if err != nil {
		return nil, nil, err
	}
	ytr, yte := metrics.TakeLabels(y, train), metrics.TakeLabels(y, test)
	pipes := make([]*ml.Pipeline, len(models))
	fitErrs := make([]string, len(models))
	order := dnnFirst(models)
	// A task fails only on the caller's cancellation, which is checked after
	// the pool: a fit still running when it came is not a measured one.
	par.Run(ctx, cfg.Workers, len(order), func(ctx context.Context, _, j int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := order[j]
		name := models[k]
		// One ml.fit span per downstream model's training. The ML kernel
		// itself stays dependency-free; instrumentation lives at this seam.
		_, span := obs.StartSpan(ctx, "ml.fit", obs.String("model", name))
		defer span.End()
		clf, err := buildModel(name, cfg.Seed+int64(len(name)), cfg)
		if err != nil {
			fitErrs[k] = err.Error()
			return nil
		}
		pipe := ml.NewPipeline(clf)
		if err := pipe.Fit(Xtr, ytr); err != nil {
			fitErrs[k] = err.Error()
			return nil
		}
		pipes[k] = pipe
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	scores := scoreBlocks(ctx, g, test, pipes, cfg.Workers)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	aucs := make(map[string]float64)
	failures := make(map[string]string)
	for k, name := range models {
		if pipes[k] == nil {
			failures[name] = fitErrs[k]
			continue
		}
		auc, err := metrics.AUC(yte, scores[k])
		if err != nil {
			failures[name] = err.Error()
			continue
		}
		aucs[name] = auc * 100
	}
	return aucs, failures, nil
}

// scoreBlocks scores the given rows of g's columns with every fitted
// pipeline (a nil one gets nil scores), scoreBlock rows at a time on a
// bounded worker pool, in one ml.score span. Each worker gathers a block
// into its own buffer and each pipeline preprocesses the block into the
// worker's second buffer, so no matrix as tall as rows is built. Every
// model scores a row from that row's values alone, so each score is the one
// that scoring all rows at once gives. Cancelling the context stops handing
// out blocks; the caller checks it.
func scoreBlocks(ctx context.Context, g *dataframe.Gatherer, rows []int, pipes []*ml.Pipeline, workers int) [][]float64 {
	ctx, span := obs.StartSpan(ctx, "ml.score", obs.Int("rows", len(rows)))
	defer span.End()
	scores := make([][]float64, len(pipes))
	for k, p := range pipes {
		if p != nil {
			scores[k] = make([]float64, len(rows))
		}
	}
	blocks := (len(rows) + scoreBlock - 1) / scoreBlock
	type buffers struct{ block, prep ml.Matrix }
	bufs := make([]buffers, par.Workers(workers, blocks))
	par.Run(ctx, workers, blocks, func(ctx context.Context, w, b int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := b*scoreBlock, min((b+1)*scoreBlock, len(rows))
		X := g.Gather(rows[lo:hi], &bufs[w].block)
		for k, p := range pipes {
			if p != nil {
				copy(scores[k][lo:hi], p.PredictProba(X, &bufs[w].prep))
			}
		}
		return nil
	})
	return scores
}
