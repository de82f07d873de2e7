// Package loadsim is the closed-loop load simulator for smartfeatd: a
// deterministic workload generator that drives the daemon's submit/status/
// result API with configurable tenant count, dataset/spec mix, arrival
// process and think time, while keeping an SLO-grade observability layer on
// the client side — rolling-window rate/latency stats per tenant and per
// endpoint, latency histograms with tail quantiles to p99.9, Retry-After-
// honoring backoff with retry/reject accounting, and a live progress line.
//
// The simulator is also its own auditor. Every submitted spec's served
// result is compared against the first result seen for that spec — the
// daemon's determinism contract says they must be byte-identical — and a
// reconciliation pass scrapes the daemon's /metrics before and after the
// run, cross-checking the server-side serve_* counter deltas against the
// client's own admission/rejection/completion ledger. Any drift is a
// finding in the report; under Config.Strict it fails the run. Because the
// workload's op→spec mapping is cycled by op index rather than drawn from
// the RNG, two runs with different seeds submit the same spec multiset —
// the seed perturbs timing only — which is what lets the sim_soak check in
// internal/e2e assert byte-identical result tables across seeds.
package loadsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"smartfeat/internal/grid"
	"smartfeat/internal/obs"
	"smartfeat/internal/par"
	"smartfeat/internal/retryafter"
	"smartfeat/internal/serve"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Specs is the workload mix. Op k submits Specs[k % len(Specs)] — the
	// mapping is by op index, not RNG, so every seed submits the same spec
	// multiset and result tables are comparable across seeds.
	Specs []grid.Spec
	// Tenants is the number of synthetic tenants (X-Tenant values sim-t0..).
	Tenants int
	// Clients is the closed-loop concurrency per tenant: each client worker
	// drives one op at a time through its full submit→poll→result
	// lifecycle, then thinks, then claims the next op.
	Clients int
	// Ops is the total number of submit operations across the run
	// (default: one per spec).
	Ops int
	// Rate, when > 0, switches to open-loop arrivals: ops start at Poisson
	// times with this mean rate (ops/sec) regardless of completions, the
	// arrival process a closed loop cannot model (closed loops self-throttle
	// under server slowdown; open loops pile up — that is the point).
	Rate float64
	// Think is the post-completion think time per closed-loop worker,
	// jittered ±50% by the workload RNG.
	Think time.Duration
	// Seed seeds the workload RNG (arrival jitter, think jitter, backoff
	// jitter). It deliberately does not influence which specs are submitted.
	Seed int64
	// RunID names jobs ("sim-<RunID>-<op>"); default "s<Seed>". Unique names
	// per op keep every submission a fresh job rather than an idempotent
	// resubmit.
	RunID string
	// MaxRetries bounds per-op 429/503 retries (default 8); past it the op
	// counts as exhausted and fails.
	MaxRetries int
	// PollInterval is the status poll cadence (default 50ms) and the backoff
	// fallback when a 429 carries no parseable Retry-After.
	PollInterval time.Duration
	// FetchSpend walks completed jobs' per-cell artifacts to sum simulated
	// FM spend into the report (extra result-endpoint traffic).
	FetchSpend bool
	// Strict turns findings (result drift, reconciliation drift) into a
	// run error.
	Strict bool
	// OutDir, when set, receives load_report.json and tables/table-NN.txt.
	OutDir string
	// Progress, when set, receives a live one-line status (ANSI \r redraw).
	Progress io.Writer
	// Logf, when set, receives lifecycle lines.
	Logf func(format string, args ...any)
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = len(cfg.Specs)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if cfg.RunID == "" {
		cfg.RunID = fmt.Sprintf("s%d", cfg.Seed)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return cfg
}

// The client-side request endpoints, the label set of every per-endpoint
// instrument.
const (
	epSubmit = "submit"
	epStatus = "status"
	epResult = "result"
)

// simObs is the simulator's contribution to the process obs registry, so a
// loadsim process can expose its own /metrics (cmd/loadsim -metrics-addr)
// in the same vocabulary as the daemon it drives.
type simObs struct {
	inflight  obs.Gauge
	admitted  obs.Counter
	rejected  obs.Counter
	retries   obs.Counter
	exhausted obs.Counter
	completed obs.Counter
	failed    obs.Counter
	reqHist   map[string]*obs.Histogram // by endpoint
	jobHist   *obs.Histogram            // whole-lifecycle latency
}

func newSimObs() *simObs {
	so := &simObs{
		reqHist: map[string]*obs.Histogram{
			epSubmit: obs.NewHistogram(obs.TimeBuckets...),
			epStatus: obs.NewHistogram(obs.TimeBuckets...),
			epResult: obs.NewHistogram(obs.TimeBuckets...),
		},
		jobHist: obs.NewHistogram(obs.TimeBuckets...),
	}
	reg := obs.Default
	reg.RegisterGauge("loadsim_inflight", "Ops currently in their submit→result lifecycle.", &so.inflight)
	reg.RegisterCounter("loadsim_ops_total", "Op outcomes.", &so.admitted, "outcome", "admitted")
	reg.RegisterCounter("loadsim_ops_total", "Op outcomes.", &so.completed, "outcome", "completed")
	reg.RegisterCounter("loadsim_ops_total", "Op outcomes.", &so.failed, "outcome", "failed")
	reg.RegisterCounter("loadsim_ops_total", "Op outcomes.", &so.exhausted, "outcome", "exhausted")
	reg.RegisterCounter("loadsim_rejections_total", "429 responses observed (each may be retried).", &so.rejected)
	reg.RegisterCounter("loadsim_retries_total", "Backoff retries taken after 429/503.", &so.retries)
	for ep, h := range so.reqHist {
		reg.RegisterHistogram("loadsim_request_seconds", "Client-observed request latency.", h, "endpoint", ep)
	}
	reg.RegisterHistogram("loadsim_job_seconds", "Client-observed submit→result job latency.", so.jobHist)
	return so
}

// runner is one load run's live state.
type runner struct {
	cfg   Config
	obs   *simObs
	start time.Time

	tenantStats   *statsSet // completed ops per tenant
	endpointStats *statsSet // requests per endpoint

	mu            sync.Mutex
	tables        map[int][]byte   // spec index -> first served result
	perTenantDone map[string]int64 // tenant -> completed ops
	findings      []Finding
	simCostUSD    float64
	firstOpErr    error
}

// Run executes one load run against cfg.BaseURL and returns its report.
// The returned error is non-nil for infrastructure failures (daemon
// unreachable, scrape undecodable) and, under cfg.Strict, when the run
// produced findings; the report is returned in either case when available.
func Run(ctx context.Context, c Config) (*Report, error) {
	cfg := c.withDefaults()
	if cfg.BaseURL == "" {
		return nil, errors.New("loadsim: BaseURL is required")
	}
	if len(cfg.Specs) == 0 {
		return nil, errors.New("loadsim: at least one spec is required")
	}
	r := &runner{
		cfg:           cfg,
		obs:           newSimObs(),
		tenantStats:   newStatsSet(),
		endpointStats: newStatsSet(),
		tables:        make(map[int][]byte),
		perTenantDone: make(map[string]int64),
	}

	baseline, err := r.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadsim: baseline metrics scrape: %w", err)
	}

	r.start = time.Now()
	stopProgress := r.startProgress()
	if cfg.Rate > 0 {
		r.runOpenLoop(ctx)
	} else {
		r.runClosedLoop(ctx)
	}
	stopProgress()
	elapsed := time.Since(r.start)

	final, err := r.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadsim: final metrics scrape: %w", err)
	}
	r.reconcile(baseline, final)

	rep := r.report(elapsed, final)
	if cfg.OutDir != "" {
		if err := rep.write(cfg.OutDir); err != nil {
			return rep, fmt.Errorf("loadsim: writing report: %w", err)
		}
	}
	r.mu.Lock()
	opErr := r.firstOpErr
	r.mu.Unlock()
	if opErr != nil {
		return rep, fmt.Errorf("loadsim: %w", opErr)
	}
	if cfg.Strict && len(rep.Findings) > 0 {
		return rep, fmt.Errorf("loadsim: strict: %d finding(s), first: %s", len(rep.Findings), rep.Findings[0].Summary())
	}
	return rep, nil
}

// runClosedLoop runs the ops on Tenants×Clients workers: each worker holds
// at most one op in flight, so total concurrency is fixed and the offered
// load self-throttles to the daemon's service rate. Worker w is a client of
// tenant w/Clients with its own rng.
func (r *runner) runClosedLoop(ctx context.Context) {
	workers := r.cfg.Tenants * r.cfg.Clients
	rngs := make([]*rand.Rand, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(r.cfg.Seed + int64(w) + 1))
	}
	// The run stops at the caller's cancellation, which is its only error.
	par.Run(ctx, workers, r.cfg.Ops, func(ctx context.Context, w, k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.runOp(ctx, k, fmt.Sprintf("sim-t%d", w/r.cfg.Clients), rngs[w])
		if r.cfg.Think > 0 {
			sleepCtx(ctx, jitter(rngs[w], r.cfg.Think))
		}
		return nil
	})
}

// runOpenLoop dispatches ops at Poisson arrival times regardless of
// completions; tenants rotate by op index.
func (r *runner) runOpenLoop(ctx context.Context) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 1))
	var wg sync.WaitGroup
	for k := 0; k < r.cfg.Ops && ctx.Err() == nil; k++ {
		tenant := fmt.Sprintf("sim-t%d", k%r.cfg.Tenants)
		opRng := rand.New(rand.NewSource(r.cfg.Seed + int64(k) + 1000))
		wg.Add(1)
		go func(k int, tenant string, opRng *rand.Rand) {
			defer wg.Done()
			r.runOp(ctx, k, tenant, opRng)
		}(k, tenant, opRng)
		// Exponential inter-arrival with mean 1/Rate.
		sleepCtx(ctx, time.Duration(rng.ExpFloat64()/r.cfg.Rate*float64(time.Second)))
	}
	wg.Wait()
}

// runOp drives one op through its whole lifecycle: submit (with
// Retry-After-honoring backoff), poll to a terminal status, fetch and audit
// the result, optionally walk the artifacts for simulated spend.
func (r *runner) runOp(ctx context.Context, k int, tenant string, rng *rand.Rand) {
	r.obs.inflight.Add(1)
	defer r.obs.inflight.Add(-1)
	opStart := time.Now()

	specIdx := k % len(r.cfg.Specs)
	name := fmt.Sprintf("sim-%s-%05d", r.cfg.RunID, k)
	id, ok := r.submit(ctx, name, tenant, r.cfg.Specs[specIdx])
	if !ok {
		return
	}

	status, ok := r.pollUntilDone(ctx, id, tenant)
	if !ok {
		return
	}
	if status != serve.StatusCompleted {
		r.obs.failed.Inc()
		r.finding("job", fmt.Sprintf("job %s finished %s", id, status))
		return
	}

	if !r.fetchResult(ctx, id, tenant, specIdx) {
		return
	}
	if r.cfg.FetchSpend {
		r.fetchSpend(ctx, id, tenant)
	}

	r.obs.completed.Inc()
	r.obs.jobHist.ObserveDuration(time.Since(opStart))
	r.tenantStats.get(tenant).record(time.Now(), time.Since(opStart), false)
	r.mu.Lock()
	r.perTenantDone[tenant]++
	r.mu.Unlock()
}

// submit POSTs the job, honoring Retry-After backoff on 429 (and the drain
// 503) up to MaxRetries. Reports the job ID and whether the op may proceed.
func (r *runner) submit(ctx context.Context, name, tenant string, spec grid.Spec) (string, bool) {
	body, err := json.Marshal(map[string]any{"name": name, "spec": spec})
	if err != nil {
		r.opError(fmt.Errorf("marshaling spec: %w", err))
		return "", false
	}
	retries := 0
	for {
		resp, err := r.do(ctx, http.MethodPost, "/v1/jobs", tenant, bytes.NewReader(body), epSubmit)
		if err != nil {
			if ctx.Err() != nil {
				return "", false
			}
			r.obs.failed.Inc()
			r.opError(fmt.Errorf("submit %s: %w", name, err))
			return "", false
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var view serve.JobView
			err := json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil {
				r.obs.failed.Inc()
				r.opError(fmt.Errorf("submit %s: decoding response: %w", name, err))
				return "", false
			}
			r.obs.admitted.Inc()
			return view.ID, true
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.StatusCode == http.StatusTooManyRequests {
				r.obs.rejected.Inc()
			}
			hint, ok := retryafter.FromResponse(resp)
			drainBody(resp)
			if !ok {
				hint = r.cfg.PollInterval
			}
			retries++
			if retries > r.cfg.MaxRetries {
				r.obs.exhausted.Inc()
				r.obs.failed.Inc()
				r.finding("backpressure", fmt.Sprintf("op %s exhausted %d retries against %d responses", name, r.cfg.MaxRetries, resp.StatusCode))
				return "", false
			}
			r.obs.retries.Inc()
			// Honor the hint exactly, plus a small seeded jitter so a worker
			// cohort rejected together does not retry as a thundering herd.
			sleepCtx(ctx, hint+jitter(rngFor(retries, r.cfg.Seed), r.cfg.PollInterval/4))
			if ctx.Err() != nil {
				return "", false
			}
		default:
			msg := readError(resp)
			r.obs.failed.Inc()
			r.opError(fmt.Errorf("submit %s: HTTP %d: %s", name, resp.StatusCode, msg))
			return "", false
		}
	}
}

// pollUntilDone polls the status endpoint until the job is terminal.
func (r *runner) pollUntilDone(ctx context.Context, id, tenant string) (string, bool) {
	for {
		resp, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+id, tenant, nil, epStatus)
		if err != nil {
			if ctx.Err() != nil {
				return "", false
			}
			r.obs.failed.Inc()
			r.opError(fmt.Errorf("status %s: %w", id, err))
			return "", false
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			r.obs.failed.Inc()
			r.opError(fmt.Errorf("status %s: decoding: %w", id, err))
			return "", false
		}
		switch view.Status {
		case serve.StatusCompleted, serve.StatusFailed, serve.StatusCanceled:
			return view.Status, true
		}
		sleepCtx(ctx, r.cfg.PollInterval)
		if ctx.Err() != nil {
			return "", false
		}
	}
}

// fetchResult fetches the served tables and audits them against the first
// result seen for the same spec: the daemon's determinism contract makes
// any byte difference a finding.
func (r *runner) fetchResult(ctx context.Context, id, tenant string, specIdx int) bool {
	resp, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", tenant, nil, epResult)
	if err != nil {
		if ctx.Err() != nil {
			return false
		}
		r.obs.failed.Inc()
		r.opError(fmt.Errorf("result %s: %w", id, err))
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.obs.failed.Inc()
		r.opError(fmt.Errorf("result %s: HTTP %d", id, resp.StatusCode))
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.tables[specIdx]; ok {
		if !bytes.Equal(prev, body) {
			r.findings = append(r.findings, Finding{
				Kind: "result-drift",
				Note: fmt.Sprintf("job %s: spec %d served %d bytes differing from the first result for the same spec", id, specIdx, len(body)),
			})
		}
		return true
	}
	r.tables[specIdx] = body
	if r.cfg.OutDir != "" {
		dir := filepath.Join(r.cfg.OutDir, "tables")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = os.WriteFile(filepath.Join(dir, fmt.Sprintf("table-%02d.txt", specIdx)), body, 0o644)
		}
	}
	return true
}

// fetchSpend walks the completed job's per-cell artifacts, summing the
// simulated FM spend of its method cells.
func (r *runner) fetchSpend(ctx context.Context, id, tenant string) {
	resp, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+id, tenant, nil, epStatus)
	if err != nil {
		return
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return
	}
	cells := make([]string, 0, len(view.Cells.Cells))
	for key, status := range view.Cells.Cells {
		if status == "completed" {
			cells = append(cells, key)
		}
	}
	sort.Strings(cells)
	for _, key := range cells {
		resp, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?cell="+key, tenant, nil, epResult)
		if err != nil {
			return
		}
		var art grid.Artifact
		err = json.NewDecoder(resp.Body).Decode(&art)
		resp.Body.Close()
		if err != nil || art.Method == nil {
			continue
		}
		r.mu.Lock()
		r.simCostUSD += art.Method.FMUsage.SimCostUSD
		r.mu.Unlock()
	}
}

// do issues one request, feeding the per-endpoint histogram and rolling
// window with its latency.
func (r *runner) do(ctx context.Context, method, path, tenant string, body io.Reader, endpoint string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.cfg.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := r.cfg.HTTPClient.Do(req)
	lat := time.Since(start)
	r.obs.reqHist[endpoint].ObserveDuration(lat)
	r.endpointStats.get(endpoint).record(time.Now(), lat, err != nil || (resp != nil && resp.StatusCode >= 500))
	return resp, err
}

// finding appends one audit finding.
func (r *runner) finding(kind, note string) {
	r.mu.Lock()
	r.findings = append(r.findings, Finding{Kind: kind, Note: note})
	r.mu.Unlock()
}

// opError records the first infrastructure failure; the run keeps going so
// the report still reflects the whole workload, but Run returns the error.
func (r *runner) opError(err error) {
	r.mu.Lock()
	if r.firstOpErr == nil {
		r.firstOpErr = err
	}
	r.mu.Unlock()
	if r.cfg.Logf != nil {
		r.cfg.Logf("op error: %v", err)
	}
}

// startProgress launches the live one-line status writer; the returned stop
// renders the final line.
func (r *runner) startProgress() func() {
	if r.cfg.Progress == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				fmt.Fprintf(r.cfg.Progress, "\r%s\n", r.progressLine())
				return
			case <-tick.C:
				fmt.Fprintf(r.cfg.Progress, "\r%s", r.progressLine())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (r *runner) progressLine() string {
	now := time.Now()
	subRate, subLat, _ := r.endpointStats.get(epSubmit).snapshot(now)
	return fmt.Sprintf("[%6.1fs] ops %d/%d inflight %d ok %d fail %d rej %d retry %d | submit %.1f/s ~%s p99 %s",
		time.Since(r.start).Seconds(),
		r.obs.completed.Value()+r.obs.failed.Value(), r.cfg.Ops,
		r.obs.inflight.Value(),
		r.obs.completed.Value(), r.obs.failed.Value(),
		r.obs.rejected.Value(), r.obs.retries.Value(),
		subRate, fmtShortSecs(subLat), fmtShortSecs(finite(r.obs.reqHist[epSubmit].Quantile(0.99))))
}

func fmtShortSecs(v float64) string {
	switch {
	case v <= 0:
		return "0"
	case v < 1:
		return fmt.Sprintf("%.0fms", v*1000)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

// finite maps the Histogram's NaN "no data" sentinel to 0 for rendering.
func finite(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// jitter returns d scaled uniformly into [0.5d, 1.5d).
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// rngFor derives a throwaway RNG for backoff jitter from stable inputs, so
// retry timing stays seed-deterministic without sharing a locked RNG.
func rngFor(n int, seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(n)))
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

func readError(resp *http.Response) string {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return "(no error body)"
}
