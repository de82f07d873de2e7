package experiments

import (
	"context"
	"errors"
	"fmt"

	"smartfeat/internal/baselines/autofeat"
	"smartfeat/internal/baselines/caafe"
	"smartfeat/internal/baselines/featuretools"
	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/metrics"
)

// SmartfeatRouter wires SMARTFEAT's two FM roles under cfg: the GPT-4
// simulator (seed cfg.Seed) selects operators and the GPT-3.5 simulator
// (seed cfg.Seed+1) generates features, each behind its own gateway with
// the cfg's cache, store, disk-tier, concurrency and pool settings. It is
// the one place that makes that choice, so the smartfeat CLI and the grid's
// SMARTFEAT cells issue identical prompts under identical keys, and a grid
// cell's <dataset>__SMARTFEAT shard replays through the CLI.
func SmartfeatRouter(cfg Config) (*fmgate.Router, error) {
	// The selector/generator gateways stay unscoped, so a cell's keys carry
	// no grid-specific prefix.
	selector, err := newGateway(fm.NewGPT4Sim(cfg.Seed, cfg.FMErrorRate), "selector", "", cfg)
	if err != nil {
		return nil, err
	}
	generator, err := newGateway(fm.NewGPT35Sim(cfg.Seed+1, cfg.FMErrorRate), "generator", "", cfg)
	if err != nil {
		return nil, err
	}
	return fmgate.NewRouter().
		Route(fmgate.RoleSelector, selector).
		Route(fmgate.RoleGenerator, generator), nil
}

// smartfeatOptions builds SMARTFEAT's configuration for a dataset. Every FM
// is wrapped in an fmgate gateway (routed per role), so the harness can
// report traffic metrics and the cfg's cache/replay/concurrency settings
// apply uniformly; with those settings at their zero values the gateways
// are pass-throughs and the run is identical to talking to the simulators
// directly.
func smartfeatOptions(d *datasets.Dataset, cfg Config, operators core.OperatorSet) (core.Options, *fmgate.Router, error) {
	router, err := SmartfeatRouter(cfg)
	if err != nil {
		return core.Options{}, nil, err
	}
	return core.Options{
		Target:            d.Target,
		TargetDescription: d.TargetDescription,
		Descriptions:      d.Descriptions,
		Model:             "RF",
		SelectorFM:        router.Gate(fmgate.RoleSelector),
		GeneratorFM:       router.Gate(fmgate.RoleGenerator),
		SamplingBudget:    cfg.SamplingBudget,
		Operators:         operators,
	}, router, nil
}

// newGateway wraps one simulator with the config's gateway settings. Every
// gateway of a cell shares the grid runner's per-cell shard: keys embed the
// model name and scope, so the roles' queues stay disjoint while record
// appends land in one shard file per cell. A replaying shard becomes the
// gateway's model (fmgate.New), which then also ignores the disk tier.
func newGateway(model fm.Model, role, scope string, cfg Config) (*fmgate.Gateway, error) {
	return fmgate.PoolGateway(model, fmgate.Options{
		CacheSize:   cfg.FMCacheSize,
		Concurrency: cfg.FMConcurrency,
		Scope:       scope,
		Store:       cfg.FMStore,
		Disk:        cfg.FMDiskCache,
		Role:        role,
	}, cfg.FMPool)
}

// poolDegradedErr surfaces the first fully-circuit-open backend-pool failure
// any of the router's gateways saw during a run, nil when healthy.
func poolDegradedErr(router *fmgate.Router) error {
	for _, role := range router.Roles() {
		if derr := router.Gate(role).PoolDegraded(); derr != nil {
			return fmt.Errorf("experiments: %s role: %w", role, derr)
		}
	}
	return nil
}

// RunSmartfeat applies SMARTFEAT and evaluates the result. Cancelling the
// context aborts in-flight FM calls; the interrupted result carries the
// context error (see MethodResult.Interrupted).
func RunSmartfeat(ctx context.Context, d *datasets.Dataset, clean *dataframe.Frame, cfg Config, operators core.OperatorSet) MethodResult {
	out := MethodResult{Method: MethodSmartfeat}
	opts, router, err := smartfeatOptions(d, cfg, operators)
	if err != nil {
		out.Err = err
		return out
	}
	res, err := core.RunContext(ctx, clean, opts)
	out.FMMetrics = router.Metrics()
	if err == nil {
		// The pipeline's error-tolerance can ride out fail-fast FM errors,
		// so a run over a fully circuit-open backend pool may "complete" on
		// quietly degraded content. Surface the degradation as the method
		// error (with breaker state) instead of trusting the result.
		err = poolDegradedErr(router)
	}
	if err != nil {
		out.Err = err
		return out
	}
	out.Elapsed = res.Elapsed + res.SelectorUsage.SimLatency + res.GeneratorUsage.SimLatency
	out.FMUsage = res.SelectorUsage
	out.FMUsage.Add(res.GeneratorUsage)
	out.Generated = len(res.Features)
	out.NewColumns = res.AddedColumns()
	out.Selected = len(out.NewColumns)
	out.Frame = res.Frame
	out.AUCs, out.FailedModels, out.Err = EvaluateFrame(ctx, res.Frame, d.Target, cfg.Models, cfg)
	return out
}

// RunFeaturetools applies the Featuretools baseline and evaluates. The
// baseline makes no FM calls; ctx only gates starting at all.
func RunFeaturetools(ctx context.Context, d *datasets.Dataset, clean *dataframe.Frame, cfg Config) MethodResult {
	out := MethodResult{Method: MethodFeaturetools}
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	res, err := featuretools.Run(clean, d.Target, featuretools.DefaultConfig())
	if err != nil {
		out.Err = err
		return out
	}
	out.Elapsed = res.Elapsed
	out.Generated = res.Generated
	out.Selected = res.Selected
	out.NewColumns = res.NewColumns
	out.Frame = res.Frame
	out.AUCs, out.FailedModels, out.Err = EvaluateFrame(ctx, res.Frame, d.Target, cfg.Models, cfg)
	return out
}

// RunAutoFeat applies the AutoFeat baseline (on the factorized frame, as the
// reference tool requires numeric input) and evaluates. A timeout becomes a
// whole-method failure (the "-" cells of Tables 4-5).
func RunAutoFeat(ctx context.Context, d *datasets.Dataset, clean *dataframe.Frame, cfg Config) MethodResult {
	out := MethodResult{Method: MethodAutoFeat}
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	fact := clean.FactorizeAll()
	afCfg := autofeat.DefaultConfig()
	afCfg.TrainRows = trainRows(clean.Len(), cfg)
	res, err := autofeat.Run(fact, d.Target, afCfg)
	if err != nil {
		out.Err = err
		return out
	}
	out.Elapsed = res.Elapsed
	out.Generated = res.Generated
	out.Selected = res.Selected
	out.NewColumns = res.NewColumns
	out.Frame = res.Frame
	out.AUCs, out.FailedModels, out.Err = EvaluateFrame(ctx, res.Frame, d.Target, cfg.Models, cfg)
	return out
}

// RunCAAFE applies CAAFE per downstream model (its validation step trains
// the actual model), evaluating each model on its own augmented frame.
// Per-model timeouts leave that model missing (the underlined rows); if a
// retained divide-by-zero feature crashes every model, the whole method
// fails (the Diabetes "-").
//
// The per-model sessions are independent — each starts a fresh FM
// conversation with the same seed (as rerunning the reference tool would)
// and clones the shared factorized frame — so they fan out on the
// Config.Workers pool. This loop is the dominant sequential stretch of the
// Table-4/5 harness: every session trains its downstream model
// 2·repeats·iterations times during validation. Aggregation walks the
// per-model slots in cfg.Models order, so the result is bit-identical to
// the sequential loop at any worker count.
func RunCAAFE(ctx context.Context, d *datasets.Dataset, clean *dataframe.Frame, cfg Config) MethodResult {
	out := MethodResult{Method: MethodCAAFE, AUCs: map[string]float64{}, FailedModels: map[string]string{}}
	fact := clean.FactorizeAll()
	caafeCfg := caafe.DefaultConfig()
	caafeCfg.Iterations = cfg.CAAFEIterations
	caafeCfg.Seed = cfg.Seed
	caafeCfg.TrainRows = trainRows(clean.Len(), cfg)

	type session struct {
		res      *caafe.Result
		runErr   error
		degraded error
		aucs     map[string]float64
		failures map[string]string
		evalErr  error
		metrics  fmgate.Metrics
	}
	// The DNN session is dispatched first: its validation trains an MLP
	// 2·3 times per iteration, the cell's longest serial chain. Aggregation
	// below still walks cfg.Models in order.
	order := make([]int, 0, len(cfg.Models))
	for _, dnn := range []bool{true, false} {
		for i, ds := range cfg.Models {
			if (ds == "DNN") == dnn {
				order = append(order, i)
			}
		}
	}
	cells := make([]session, len(cfg.Models))
	ForEachIndex(cfg.workers(), len(order), func(k int) {
		i := order[k]
		ds := cfg.Models[i]
		// Each session's gateway is scoped by its downstream model: the
		// sessions start from identically-seeded simulators and reissue
		// identical prompts on identical frames, so without a scope their
		// record/replay queues would interleave nondeterministically under
		// the shared per-cell shard.
		gw, gwErr := newGateway(fm.NewGPT4Sim(cfg.Seed+7, cfg.FMErrorRate), "caafe", "caafe/"+ds, cfg)
		if gwErr != nil {
			cells[i] = session{runErr: gwErr}
			return
		}
		res, err := caafe.Run(ctx, fact, d.Target, d.Descriptions, gw, ds, caafeCfg)
		if err != nil {
			cells[i] = session{runErr: err, degraded: gw.PoolDegraded(), metrics: gw.Metrics()}
			return
		}
		aucs, failures, evalErr := EvaluateFrame(ctx, res.Frame, d.Target, []string{ds}, cfg)
		cells[i] = session{res: res, degraded: gw.PoolDegraded(), aucs: aucs, failures: failures, evalErr: evalErr, metrics: gw.Metrics()}
	})

	for i, ds := range cfg.Models {
		c := cells[i]
		out.FMMetrics.Add(c.metrics)
		if c.degraded != nil {
			// Same rule as RunSmartfeat: a session that ran into a fully
			// circuit-open pool produced suspect content — fail the method
			// loudly rather than fold a degraded session into the average.
			out.Err = fmt.Errorf("experiments: caafe/%s session: %w", ds, c.degraded)
			continue
		}
		if c.runErr != nil {
			if errors.Is(c.runErr, context.Canceled) || errors.Is(c.runErr, context.DeadlineExceeded) {
				// An interrupted session is not a model failure: surface the
				// cancellation as the method error so the grid runner reruns
				// the cell on resume instead of persisting a bogus "-".
				out.Err = c.runErr
				continue
			}
			if errors.Is(c.runErr, caafe.ErrTimeout) {
				out.FailedModels[ds] = "timeout"
				continue
			}
			out.FailedModels[ds] = c.runErr.Error()
			continue
		}
		out.Elapsed += c.res.Elapsed + c.res.Usage.SimLatency
		out.FMUsage.Add(c.res.Usage)
		out.Generated += c.res.Generated
		out.Selected += c.res.Retained
		if len(c.res.NewColumns) > 0 {
			out.NewColumns = c.res.NewColumns // last model's view, representative
			out.Frame = c.res.Frame
		}
		if c.evalErr != nil {
			if errors.Is(c.evalErr, context.Canceled) || errors.Is(c.evalErr, context.DeadlineExceeded) {
				// Cancellation during the post-session evaluation is an
				// interruption too, not a model failure — same rule as the
				// runErr path above, so the cell reruns on resume.
				out.Err = c.evalErr
				continue
			}
			out.FailedModels[ds] = c.evalErr.Error()
			continue
		}
		if v, ok := c.aucs[ds]; ok {
			out.AUCs[ds] = v
		}
		for m, reason := range c.failures {
			out.FailedModels[m] = reason
		}
	}
	if len(out.AUCs) == 0 && out.Err == nil {
		out.Err = errors.New("caafe: all downstream models failed")
	}
	return out
}

// trainRows computes the training-row indices of the shared evaluation
// split, so feature-selection and validation steps inside the methods never
// see held-out rows.
func trainRows(n int, cfg Config) []int {
	frac := cfg.TestFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.25
	}
	train, _ := metrics.TrainTestSplit(n, frac, cfg.Seed)
	return train
}
