package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/obs"
)

// coreStage maps a prompt task to the core stage that prepares it.
var coreStage = map[string]string{
	fm.TaskProposeUnary:     "unary",
	fm.TaskSampleBinary:     "binary",
	fm.TaskSampleHighOrder:  "highorder",
	fm.TaskSampleExtractor:  "extractor",
	fm.TaskGenerateFunction: "function",
	fm.TaskCompleteRow:      "function",
}

// measureConstruct runs core.RunContext on every dataset, with the selector
// and generator simulators behind uncached fmgate gateways wired as the
// experiments harness wires SMARTFEAT cells. One op is one dataset's run;
// the items are accepted features.
func measureConstruct(ctx context.Context, e env) (*childResult, error) {
	cfg := e.config()
	res := newResult()

	start := time.Now()
	type input struct {
		d     *datasets.Dataset
		clean *dataframe.Frame
	}
	var inputs []input
	for _, name := range e.shuffled(datasets.Names()) {
		d, err := datasets.Load(name, cfg.Seed)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, input{d, d.Frame.DropNA()})
	}
	res.endSetup(start)
	res.Layer["datasets.load_s"] = res.SetupS

	ctx, tr := startTracing(ctx, e, "construct")
	var (
		summary             []string // one line per dataset
		usage               fm.Usage
		accepted, generated int
		coreSelf            float64
		prep                = map[string]float64{}
		post                float64
		above               callLog
		upstream            = map[string]*callLog{"selector": {}, "generator": {}}
	)
	for _, in := range inputs {
		res.Attempted++
		// Each dataset starts from a collected heap, so the seed's dataset
		// order does not move one dataset's garbage into another's time.
		runtime.GC()
		newGate := func(model fm.Model, role string) fm.Model {
			if e.traced {
				model = &timedModel{inner: model, span: "fm.sim", log: upstream[role]}
			}
			gw := fmgate.New(model, fmgate.Options{Concurrency: procs, Role: role})
			if e.traced {
				return &timedModel{inner: gw, log: &above}
			}
			return gw
		}
		opts := core.Options{
			Target:            in.d.Target,
			TargetDescription: in.d.TargetDescription,
			Descriptions:      in.d.Descriptions,
			Model:             "RF",
			SelectorFM:        newGate(fm.NewGPT4Sim(cfg.Seed, cfg.FMErrorRate), "selector"),
			GeneratorFM:       newGate(fm.NewGPT35Sim(cfg.Seed+1, cfg.FMErrorRate), "generator"),
			SamplingBudget:    cfg.SamplingBudget,
			Operators:         core.AllOperators(),
		}
		before := len(above.snapshot())
		dctx, sp := obs.StartSpan(ctx, "core.run", obs.String("dataset", in.d.Name))
		t0 := time.Now()
		out, err := core.RunContext(dctx, in.clean, opts)
		t1 := time.Now()
		sp.End()
		res.Ops = append(res.Ops, t1.Sub(t0).Seconds())
		if err != nil {
			res.Failed++
			res.problem("construct %s: %v", in.d.Name, err)
			continue
		}
		u := out.SelectorUsage
		u.Add(out.GeneratorUsage)
		usage.Add(u)
		cols := out.AddedColumns()
		generated += len(out.Features)
		for _, g := range out.Features {
			if g.Status == core.StatusAdded || g.Status == core.StatusRowLevel {
				accepted++
			}
		}
		summary = append(summary, fmt.Sprintf("%s calls=%d usd=%.6f accepted=%s\n", in.d.Name, u.Calls, u.SimCostUSD, strings.Join(cols, "|")))

		if e.traced {
			calls := above.snapshot()[before:]
			c, p, pst := attributeCore(since0(t0), since0(t1), calls)
			coreSelf += c
			post += pst
			for k, v := range p {
				prep[k] += v
			}
		}
	}
	for _, op := range res.Ops {
		res.WallS += op // the pass, without the collections between datasets
	}
	res.Items = float64(accepted)
	sort.Strings(summary) // dataset order is the seed's; the digest is not
	res.Digest = digestOf([]byte(strings.Join(summary, "")))
	if accepted == 0 {
		res.problem("construct: no feature accepted on any dataset")
	} else {
		res.Layer["construct.fm_calls_per_feature"] = float64(usage.Calls) / float64(accepted)
		res.Layer["construct.sim_usd_per_feature"] = usage.SimCostUSD / float64(accepted)
		res.Layer["construct.sim_fm_s_per_feature"] = usage.SimLatency.Seconds() / float64(accepted)
	}

	if tr == nil {
		return res, nil
	}
	if _, _, err := tr.finish(res); err != nil {
		return nil, err
	}
	res.Layer["core.self_s"] = coreSelf
	for _, stage := range []string{"unary", "binary", "highorder", "extractor", "function"} {
		res.Layer["core.prep_"+stage+"_s"] = prep[stage]
	}
	res.Layer["core.post_s"] = post
	if generated > 0 {
		res.Layer["core.accept_ratio"] = float64(accepted) / float64(generated)
	}
	var upS, aboveS float64
	for role, log := range upstream {
		for _, c := range log.snapshot() {
			d := c.end - c.start
			upS += d
			res.Layer["fm."+role+"_s"] += d
			res.Layer["fm.calls"]++
			res.Layer["fm.prompt_kb"] += float64(c.promptBytes) / 1024
		}
	}
	for _, c := range above.snapshot() {
		aboveS += c.end - c.start
	}
	res.Layer["fmgate.self_s"] = aboveS - upS
	res.Layer["fmgate.upstream_calls"] = res.Layer["fm.calls"]
	return res, nil
}

// attributeCore splits one core.RunContext interval [start, end] around the
// FM calls it made (as seen above the gateways): self is the run minus the
// union of the calls; prep charges the gap before each call to the stage of
// the prompt that follows it; post is what remains after the last call.
func attributeCore(start, end float64, calls []fmCall) (self float64, prep map[string]float64, post float64) {
	prep = map[string]float64{}
	iv := make([]interval, len(calls))
	for i, c := range calls {
		iv[i] = c.interval
	}
	self = (end - start) - unionLength(iv)
	last := start
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	for _, c := range calls {
		if c.start > last {
			prep[coreStage[c.task]] += c.start - last
		}
		if c.end > last {
			last = c.end
		}
	}
	if end > last {
		post = end - last
	}
	return self, prep, post
}
