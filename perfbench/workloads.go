package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smartfeat/internal/experiments"
	"smartfeat/internal/obs"
)

// env is what one benchmark process knows about its run.
type env struct {
	// seed is the workload seed. It orders the work — datasets, rows,
	// cells, job specs — while the work itself stays that of the quick
	// configuration's own seed, so every seed measures the same amount of
	// work and checks against the same outputs.
	seed   int64
	dir    string // the run's scratch directory
	shared string // the setup child's output: FM recordings
	traced bool
}

// procs is the parallelism of the grid's workers and the gateways'
// concurrency: one per core, never more.
var procs = runtime.NumCPU()

// config is the experiments configuration every workload uses.
func (e env) config() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Workers = procs
	return cfg
}

// shuffled returns a copy of names in the workload seed's order.
func (e env) shuffled(names []string) []string {
	out := append([]string(nil), names...)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// childResult is what one process reports back to the orchestrator: a setup
// process fills SetupS (and Digest, when it computes expected outputs); a
// measuring process fills everything else for one measured pass.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	Ops       []float64          `json:"ops,omitempty"`   // per-op latencies, seconds
	Items     float64            `json:"items,omitempty"` // work items done in the pass
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"` // per-layer metrics (traced)
	Findings  []string           `json:"findings,omitempty"`
	SpanTable []string           `json:"span_table,omitempty"`

	setupEnd time.Time // when the measured pass started
	shared   string    // a setup result's directory
}

func newResult() *childResult {
	return &childResult{Layer: map[string]float64{}}
}

func (r *childResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// endSetup marks the end of the pass's in-process warm-up, begun at start.
func (r *childResult) endSetup(start time.Time) {
	r.setupEnd = time.Now()
	r.SetupS = r.setupEnd.Sub(start).Seconds()
}

// goldenDigests are each workload's output digests, the same for every
// workload seed since the seed only orders the work. A change that alters
// an output on purpose updates its digest here.
var goldenDigests = map[string]string{
	"construct": "523063885170c8e8ba7e304d",
	"rowlevel":  "c7f17dfd87fa0dd9313abaa4",
	"grid":      "20d26520878f83755fd1a16c",
	"serve":     "57f75faecc44396f02a4f9eb",
}

// workload is one named input set: an optional setup process (recordings)
// and the measured pass each fresh process runs once.
type workload struct {
	name    string
	why     string
	setup   func(ctx context.Context, e env) (*childResult, error) // nil: none
	measure func(ctx context.Context, e env) (*childResult, error)
	// minPasses overrides the package's minimum pass count (0: keep it).
	minPasses int
	// tail names the per-layer metric that reports the tail of the ops of
	// every pass of a traced run ("": none).
	tail string
}

func (w workload) passes() int {
	if w.minPasses > 0 {
		return w.minPasses
	}
	return minPasses
}

// workloads are the benchmark's named input sets; their why lines are the
// ones BENCHMARK.json records.
var workloads = []workload{
	{
		name:    "construct",
		why:     "SMARTFEAT feature construction on all eight datasets with simulated FMs behind gateways: core and fm dominate, ml/grid/serve absent",
		measure: measureConstruct,
	},
	{
		name:    "rowlevel",
		why:     "row-level completion of all Bank rows through one caching gateway, cold then warm: fmgate and the fm simulator do the work",
		measure: measureRowlevel,
	},
	{
		name:    "grid",
		why:     "Table 4/5 comparison cells on Bank and Heart replayed from a setup recording: ml fits and CAAFE validation dominate",
		setup:   setupGrid,
		measure: measureGrid,
		// A pass takes 11–18 s on two cores: two fit a run's time limit.
		minPasses: 2,
		tail:      "grid.cell_tail_s",
	},
	{
		name:    "serve",
		why:     "in-process smartfeatd driven closed-loop by loadsim with small replayed jobs: admission, polling, run-dir and fold overheads show",
		setup:   setupServe,
		measure: measureServe,
		tail:    "serve.job_tail_s",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digestOf is the hex SHA-256 of b (shortened; it only has to tell outputs
// apart).
func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// tracing is one traced pass: spans recorded in memory under a root span
// named after the workload, written out when the pass ends.
type tracing struct {
	buf  bytes.Buffer
	tr   *obs.Tracer
	root *obs.Span
}

// startTracing installs a tracer on ctx when the pass is traced; untraced
// passes get ctx back unchanged and a nil *tracing.
func startTracing(ctx context.Context, e env, workload string) (context.Context, *tracing) {
	if !e.traced {
		return ctx, nil
	}
	t := &tracing{}
	t.tr = obs.NewTracer(&t.buf, "perfbench")
	ctx, t.root = obs.StartSpan(obs.WithTracer(ctx, t.tr), "bench."+workload)
	return ctx, t
}

// finish ends the root span and returns every recorded span, plus the
// fold-derived report: per-span-name self time and the root's unattributed
// time (root minus the union of its direct children).
func (t *tracing) finish(res *childResult) ([]span, spanFold, error) {
	t.root.End()
	if err := t.tr.Close(); err != nil {
		return nil, spanFold{}, err
	}
	spans, err := readTrace(&t.buf)
	if err != nil {
		return nil, spanFold{}, err
	}
	fold := foldSpans(spans)
	for _, s := range spans {
		if s.parent != 0 {
			continue
		}
		un := fold.self[s.name]
		res.Layer["bench.unattributed_s"] = un
		if s.dur > 0 && un/s.dur > unattributedShare {
			res.Findings = append(res.Findings, fmt.Sprintf("%s: %.3fs of %.3fs (%.0f%%) is covered by no child span",
				s.name, un, s.dur, 100*un/s.dur))
		}
	}
	for _, name := range sortedKeys(fold.total) {
		res.SpanTable = append(res.SpanTable, fmt.Sprintf("%-22s n=%-7d total=%9.3fs self=%9.3fs",
			name, fold.count[name], fold.total[name], fold.self[name]))
	}
	return spans, fold, nil
}

// unattributedShare is the share of a workload root that no child span
// covers above which the traced run reports it as a finding.
const unattributedShare = 0.05
