package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
)

// rowFeature is the masked feature the row-level pass asks for (the one the
// Figure 1 comparison uses).
const rowFeature = "Estimated_Subscription_Propensity"

// measureRowlevel completes every Bank row through one gateway whose LRU
// holds all of them: a cold pass (every distinct row misses and goes
// upstream) and then a warm pass (every row hits). The items are rows
// completed, both passes counted.
func measureRowlevel(ctx context.Context, e env) (*childResult, error) {
	res := newResult()
	start := time.Now()
	cfg := e.config()
	d, err := datasets.Load(experiments.Figure1Dataset, cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := d.Frame.DropNA()
	n := f.Len()
	// The seed orders the rows; digest and checks use the original order.
	perm := rand.New(rand.NewSource(e.seed)).Perm(n)
	shuffled := f.Take(perm)
	var upstream callLog
	var model fm.Model = fm.NewGPT35Sim(cfg.Seed, 0)
	if e.traced {
		model = &timedModel{inner: model, span: "fm.sim", log: &upstream}
	}
	gw := fmgate.New(model, fmgate.Options{CacheSize: 1 << 16, Concurrency: procs, Role: "rowlevel"})
	res.endSetup(start)
	res.Layer["datasets.load_s"] = res.SetupS

	ctx, tr := startTracing(ctx, e, "rowlevel")
	t0 := time.Now()
	cold, err := core.CompleteRows(ctx, gw, shuffled, rowFeature, n)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	mCold := gw.Metrics()
	warm, err := core.CompleteRows(ctx, gw, shuffled, rowFeature, n)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	mWarm := gw.Metrics()
	coldS, warmS := t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	res.WallS = coldS + warmS
	res.Items = float64(2 * n)
	res.Attempted = 2 * n
	res.Layer["rowlevel.rows_per_s_cold"] = float64(n) / coldS
	res.Layer["rowlevel.rows_per_s_warm"] = float64(n) / warmS

	// Output checks: identical values both passes; every distinct row paid
	// for exactly once, cold; nothing upstream, warm.
	distinct := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		distinct[f.SerializeRow(i)] = true
	}
	if len(cold) != n || len(warm) != n {
		return nil, fmt.Errorf("rowlevel: completed %d and %d rows, want %d", len(cold), len(warm), n)
	}
	vals := make([]float64, n)
	for i := range cold {
		if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
			res.Failed++
		}
		vals[perm[i]] = cold[i]
	}
	if res.Failed > 0 {
		res.problem("rowlevel: %d rows differ between the cold and warm pass", res.Failed)
	}
	buf := make([]byte, 0, 8*n)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	res.Digest = digestOf(buf)
	if got := mCold.UpstreamCalls; got != int64(len(distinct)) {
		res.problem("rowlevel: cold pass made %d upstream calls for %d distinct rows", got, len(distinct))
	}
	if got := mWarm.UpstreamCalls - mCold.UpstreamCalls; got != 0 {
		res.problem("rowlevel: warm pass made %d upstream calls, want 0", got)
	}
	if got := mWarm.CacheHits - mCold.CacheHits; got != int64(n) {
		res.problem("rowlevel: warm pass hit the cache %d times for %d rows", got, n)
	}

	if tr == nil {
		return res, nil
	}
	if _, _, err := tr.finish(res); err != nil {
		return nil, err
	}
	calls := upstream.snapshot()
	iv := make([]interval, len(calls))
	for i, c := range calls {
		iv[i] = c.interval
		res.Layer["fm.generator_s"] += c.end - c.start
		res.Layer["fm.prompt_kb"] += float64(c.promptBytes) / 1024
	}
	res.Layer["fm.calls"] = float64(len(calls))
	res.Layer["fmgate.upstream_calls"] = float64(mCold.UpstreamCalls)
	res.Layer["fmgate.hit_ratio"] = float64(mWarm.CacheHits+mWarm.InflightShares) / float64(mWarm.Requests)
	// Gateway time per row: the cold-pass wall that no upstream call covers,
	// and the whole warm pass. Both include core's row loop and the row
	// serialization, which dataframe.serialize_us isolates.
	res.Layer["fmgate.miss_us"] = (coldS - unionLength(iv)) / float64(n) * 1e6
	res.Layer["fmgate.hit_us"] = warmS / float64(n) * 1e6
	s0 := time.Now()
	for i := 0; i < n; i++ {
		_ = f.SerializeRow(i)
	}
	res.Layer["dataframe.serialize_us"] = time.Since(s0).Seconds() / float64(n) * 1e6
	return res, nil
}
