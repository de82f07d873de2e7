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

// EvaluateFrame runs the §4.1 protocol on an (already feature-engineered)
// frame: factorize categoricals, 75/25 split, train every model, score AUC
// on the held-out set. Per-model failures (e.g. infinite inputs) are
// recorded, not fatal. The per-model trainings are independent — each model
// derives its randomness from a fixed per-model seed — so they run on a
// bounded worker pool with bit-identical results to the sequential order;
// the DNN, the longest fit, starts first.
// Cancelling the context stops scheduling further model trainings (an
// in-flight fit still runs to completion) and surfaces the context error,
// so an interrupted evaluation is never mistaken for a measured one.
func EvaluateFrame(ctx context.Context, f *dataframe.Frame, target string, models []string, cfg Config) (map[string]float64, map[string]string, error) {
	g := f.FactorizeAll()
	var features []string
	for _, n := range g.Names() {
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
	train, test := metrics.TrainTestSplit(g.Len(), testFrac, cfg.Seed)
	if cfg.MaxTrainRows > 0 && len(train) > cfg.MaxTrainRows {
		train = train[:cfg.MaxTrainRows]
	}
	// Only the sampled train and test rows are gathered into matrices; the
	// models share them read-only (ml.Pipeline copies only what it writes).
	Xtr, err := g.ColMatrix(features, train)
	if err != nil {
		return nil, nil, err
	}
	Xte, err := g.ColMatrix(features, test)
	if err != nil {
		return nil, nil, err
	}
	y, err := g.IntLabels(target)
	if err != nil {
		return nil, nil, err
	}
	ytr, yte := metrics.TakeLabels(y, train), metrics.TakeLabels(y, test)
	type outcome struct {
		auc     float64
		ok      bool
		failure string
	}
	results := make([]outcome, len(models))
	order := dnnFirst(models)
	// A task fails only on the caller's cancellation, which is checked after
	// the pool: a fit still running when it came is not a measured one.
	par.Run(ctx, cfg.Workers, len(order), func(ctx context.Context, _, j int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := order[j]
		name := models[k]
		// One ml.fit span per downstream model: train + score. The ML kernel
		// itself stays dependency-free; instrumentation lives at this seam.
		_, span := obs.StartSpan(ctx, "ml.fit", obs.String("model", name))
		defer span.End()
		clf, err := buildModel(name, cfg.Seed+int64(len(name)), cfg)
		if err != nil {
			results[k] = outcome{failure: err.Error()}
			return nil
		}
		pipe := ml.NewPipeline(clf)
		if err := pipe.Fit(Xtr, ytr); err != nil {
			results[k] = outcome{failure: err.Error()}
			return nil
		}
		auc, err := metrics.AUC(yte, pipe.PredictProba(Xte))
		if err != nil {
			results[k] = outcome{failure: err.Error()}
			return nil
		}
		results[k] = outcome{auc: auc * 100, ok: true}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	aucs := make(map[string]float64)
	failures := make(map[string]string)
	for k, name := range models {
		if results[k].ok {
			aucs[name] = results[k].auc
		} else {
			failures[name] = results[k].failure
		}
	}
	return aucs, failures, nil
}
